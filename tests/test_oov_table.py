"""The process-wide trigram-bucket table behind OOV token vectors.

The reference below is the per-gram-RNG implementation the table
replaced: one fresh ``default_rng(bucket)`` per trigram of every OOV
token, summed in Python. The table must reproduce it while drawing each
bucket once per process, and must never travel with a pickled model.
"""
from __future__ import annotations

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embed_model import model as model_mod
from repro.embed_model.bertlike import BertLikeModel
from repro.embed_model.model import EmbeddingModel
from repro.embed_model.tokenizer import char_ngrams, tokenize


def ref_ngram_vector(token: str, dim: int, scale: float) -> np.ndarray:
    acc = np.zeros(dim, dtype=np.float64)
    for gram in char_ngrams(token):
        bucket = zlib.crc32(gram.encode()) % (1 << 15)
        rng = np.random.default_rng(bucket)
        acc += rng.standard_normal(dim)
    n = np.linalg.norm(acc)
    if n > 0:
        acc = acc / n * scale
    return acc.astype(np.float32)


def ref_embed_tokens(m: EmbeddingModel, tokens: list[str]) -> np.ndarray | None:
    if not tokens:
        return None
    acc = np.zeros(m.dim, dtype=np.float64)
    oov: dict[str, int] = {}
    for t in tokens:
        i = m.vocab.get(t)
        if i is not None:
            acc += m.vectors[i]
        else:
            oov[t] = oov.get(t, 0) + 1
    for t, c in oov.items():
        acc += c * ref_ngram_vector(t, m.dim, m.oov_scale)
    acc /= len(tokens)
    nrm = np.linalg.norm(acc)
    if nrm > 0:
        acc /= nrm
    return acc.astype(np.float32)


def ref_embed_values(m: EmbeddingModel, values: list) -> np.ndarray | None:
    toks: list[str] = []
    seen: set[str] = set()
    for v in values:
        s = str(v)
        if s in seen:
            continue
        seen.add(s)
        toks.extend(tokenize(v))
    return ref_embed_tokens(m, toks)


def assert_same_embedding(got, want) -> None:
    if want is None:
        assert got is None
    else:
        assert got is not None and got.dtype == np.float32
        assert np.allclose(got, want, atol=1e-6)


_WORDS = ["alpha", "beta", "gamma", "delta", "<num:0>", "<num:3>"]


def _toy_model(dim: int, seed: int) -> EmbeddingModel:
    g = np.random.default_rng(seed)
    vecs = g.standard_normal((len(_WORDS), dim)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return EmbeddingModel(vocab={w: i for i, w in enumerate(_WORDS)}, vectors=vecs)


# Two dimensions in one process: each must get its own table.
MODELS = [_toy_model(16, 0), _toy_model(64, 1)]

_value = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="abcdefg 0123456789.,-_/", max_size=20),
    st.sampled_from(["", "nan", "NaN", "None", "Alpha Beta", "gamma-7", "1e+20"]),
    st.none(),
    st.integers(),
    st.floats(),
)


@given(st.lists(_value, max_size=40))
@settings(max_examples=200, deadline=None)
def test_embed_values_matches_per_gram_rng_reference(values):
    for m in MODELS:
        assert_same_embedding(m.embed_values(values), ref_embed_values(m, values))


@pytest.mark.parametrize("m", MODELS, ids=lambda m: f"d{m.dim}")
def test_oov_token_vectors_bit_identical(m):
    tokens = ["a", "zz", "warpgate", "x9y8z7", "1234e567", "qqqqqqqqqqqqqqqqqq"]
    got = m.token_vectors(tokens)
    for t, row in zip(tokens, got):
        np.testing.assert_array_equal(row, ref_ngram_vector(t, m.dim, m.oov_scale))


def test_table_rows_are_the_seeded_draws():
    m = MODELS[1]
    m.token_vector("tablecheck")
    table, filled = model_mod._TRIGRAM_TABLES[m.dim]
    for b in np.flatnonzero(filled)[:50].tolist():
        np.testing.assert_array_equal(
            table[b], np.random.default_rng(b).standard_normal(m.dim)
        )


def test_token_vectors_mixed_vocab_and_oov():
    m = MODELS[0]
    got = m.token_vectors(["alpha", "qqzz", "beta"])
    np.testing.assert_array_equal(got[0], m.vectors[0])
    np.testing.assert_array_equal(got[2], m.vectors[1])
    np.testing.assert_array_equal(got[1], ref_ngram_vector("qqzz", m.dim, 0.5))


def test_xs_corpus_columns_match_reference(model, xs_corpus):
    spec, wh = xs_corpus
    for t in spec.tables:
        pdf = wh.table_pdf(t.table_id)
        for c in t.columns:
            values = pdf[c.name].dropna().tolist()
            assert_same_embedding(
                model.embed_values(values), ref_embed_values(model, values)
            )


def test_one_generator_per_bucket_then_none(monkeypatch):
    """The per-gram RNG hot spot must not come back: a column builds at
    most one generator per distinct bucket, and a repeat builds none."""
    dim = 11  # used by no other test, so its table starts empty
    monkeypatch.delitem(model_mod._TRIGRAM_TABLES, dim, raising=False)
    m = _toy_model(dim, 2)
    calls = []
    real = np.random.default_rng

    def counting(seed=None):
        calls.append(seed)
        return real(seed)

    monkeypatch.setattr(model_mod.np.random, "default_rng", counting)
    values = [f"oov{i} tok{i % 7} alpha" for i in range(500)]
    buckets = {
        zlib.crc32(g.encode()) % (1 << 15)
        for v in values
        for t in tokenize(v)
        if t not in m.vocab
        for g in char_ngrams(t)
    }
    first = m.embed_values(values)
    assert len(calls) == len(set(calls)) == len(buckets)
    calls.clear()
    second = m.embed_values(values)
    assert calls == []
    np.testing.assert_array_equal(first, second)


@pytest.mark.parametrize("wrap", [False, True], ids=["base", "bertlike"])
def test_table_never_travels_with_the_model(wrap):
    m = _toy_model(16, 3)
    m = BertLikeModel(base=m) if wrap else m
    before = len(pickle.dumps(m))
    m.embed_values([f"unseen{i}x{i * 7919}" for i in range(3000)])
    assert len(pickle.dumps(m)) == before
