"""Token embedding model: vocabulary vectors + char-n-gram OOV fallback.

:class:`EmbeddingModel` is the artifact produced by
:mod:`repro.embed_model.train` and consumed by WarpGate's column
embedding pipeline and D3L's word-embedding signal. It is a plain
(vocab dict, float32 matrix) pair so it can be broadcast to Spark
executors cheaply.

Out-of-vocabulary tokens are embedded as the L2-normalized sum of hashed
character-trigram vectors (fastText-style). Each trigram bucket's vector
is a deterministic seeded Gaussian, so any process computes the same OOV
vector for the same token. Bucket vectors are drawn once per process
into a lazily filled table keyed by dimension; the table lives at module
level, never on a model, so it is not pickled into Spark broadcasts.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import zlib

import numpy as np

from repro.embed_model.tokenizer import char_ngrams, tokenize

_NGRAM_BUCKETS = 1 << 15

# dim -> ((buckets, dim) float64 trigram vectors, (buckets,) filled mask).
_TRIGRAM_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _trigram_table(buckets: np.ndarray, dim: int) -> np.ndarray:
    """The process-wide bucket table for ``dim``, with ``buckets`` filled.

    A missing row gets the same ``default_rng(bucket)`` draw every process
    makes, so the table is a cache, not state.
    """
    if dim not in _TRIGRAM_TABLES:
        _TRIGRAM_TABLES[dim] = (
            np.zeros((_NGRAM_BUCKETS, dim)),
            np.zeros(_NGRAM_BUCKETS, dtype=bool),
        )
    table, filled = _TRIGRAM_TABLES[dim]
    for b in np.unique(buckets[~filled[buckets]]).tolist():
        table[b] = np.random.default_rng(b).standard_normal(dim)
        filled[b] = True
    return table


def _oov_vectors(tokens: list[str], dim: int, scale: float) -> np.ndarray:
    """``(len(tokens), dim)`` float32 char-trigram hash embeddings."""
    grams = [char_ngrams(t) for t in tokens]
    lengths = np.fromiter(map(len, grams), dtype=np.intp, count=len(grams))
    buckets = np.fromiter(
        (zlib.crc32(g.encode()) % _NGRAM_BUCKETS for gs in grams for g in gs),
        dtype=np.intp,
        count=int(lengths.sum()),
    )
    table = _trigram_table(buckets, dim)
    # Every token has at least one gram, so the starts strictly increase.
    acc = np.add.reduceat(table[buckets], np.cumsum(lengths) - lengths, axis=0)
    norms = np.linalg.norm(acc, axis=1, keepdims=True)
    return (acc / np.where(norms > 0, norms, 1.0) * scale).astype(np.float32)


def _ngram_vector(token: str, dim: int, scale: float) -> np.ndarray:
    """Deterministic char-trigram hash embedding for one token."""
    return _oov_vectors([token], dim, scale)[0]


@dataclass
class EmbeddingModel:
    """Immutable token embedding table.

    ``vectors`` rows are L2-normalized in-vocab token embeddings;
    ``oov_scale`` shrinks OOV fallback vectors so hash noise cannot
    dominate in-vocab signal when both appear in one column.
    """

    vocab: dict[str, int]
    vectors: np.ndarray  # (V, d) float32, rows L2-normalized
    oov_scale: float = 0.5

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def token_vectors(self, tokens: list[str]) -> np.ndarray:
        """``(len(tokens), d)`` float32: vocab rows, OOV trigram vectors."""
        rows = np.fromiter(
            (self.vocab.get(t, -1) for t in tokens), dtype=np.intp, count=len(tokens)
        )
        oov = rows < 0
        out = self.vectors[rows]  # a copy; OOV rows are overwritten below
        if oov.any():
            out[oov] = _oov_vectors(
                [t for t, r in zip(tokens, rows.tolist()) if r < 0],
                self.dim,
                self.oov_scale,
            )
        return out

    def token_vector(self, token: str) -> np.ndarray:
        return self.token_vectors([token])[0]

    def embed_tokens(self, tokens: list[str]) -> np.ndarray | None:
        """Mean of token vectors, L2-normalized; ``None`` if no tokens."""
        if not tokens:
            return None
        counts = Counter(tokens)
        weights = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
        acc = weights @ self.token_vectors(list(counts)).astype(np.float64)
        acc /= len(tokens)
        nrm = np.linalg.norm(acc)
        if nrm > 0:
            acc /= nrm
        return acc.astype(np.float32)

    def embed_value(self, value) -> np.ndarray | None:
        return self.embed_tokens(tokenize(value))

    def embed_values(self, values: list) -> np.ndarray | None:
        """Column embedding: mean over *distinct* values' token bags.

        Deduplication matches join semantics — a key's multiplicity in
        the data should not move the column's position in vector space.
        """
        toks: list[str] = []
        seen: set[str] = set()
        for v in values:
            s = str(v)
            if s in seen:
                continue
            seen.add(s)
            toks.extend(tokenize(v))
        return self.embed_tokens(toks)

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            tokens=np.array(sorted(self.vocab, key=self.vocab.get)),
            vectors=self.vectors,
            oov_scale=self.oov_scale,
        )

    @classmethod
    def load(cls, path: str) -> "EmbeddingModel":
        z = np.load(path, allow_pickle=False)
        tokens = [str(t) for t in z["tokens"]]
        return cls(
            vocab={t: i for i, t in enumerate(tokens)},
            vectors=z["vectors"].astype(np.float32),
            oov_scale=float(z["oov_scale"]),
        )


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0 if either is zero)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
