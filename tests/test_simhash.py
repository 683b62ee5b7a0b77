"""Tests for the SimHash LSH index (theory + exactness vs brute force)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.simhash import (
    SimHashIndex,
    band_params_for_threshold,
    bit_agreement_probability,
    hyperplanes,
    signatures,
    signatures_df,
)


@pytest.mark.parametrize(
    "cos,expected",
    [(1.0, 1.0), (0.0, 0.5), (-1.0, 0.0)],
)
def test_bit_agreement_endpoints(cos, expected):
    assert bit_agreement_probability(cos) == pytest.approx(expected)


def test_bit_agreement_monotone():
    xs = np.linspace(-1, 1, 21)
    ps = [bit_agreement_probability(x) for x in xs]
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_bit_agreement_matches_empirical():
    """Empirical bit-agreement of random hyperplanes matches 1 − θ/π."""
    g = np.random.default_rng(0)
    planes = hyperplanes(32, 4096, seed=1)
    a = g.standard_normal(32).astype(np.float32)
    # Construct b at a known angle from a.
    perp = g.standard_normal(32).astype(np.float32)
    perp -= perp @ a / (a @ a) * a
    a_n, p_n = a / np.linalg.norm(a), perp / np.linalg.norm(perp)
    for cos_target in (0.9, 0.7, 0.3):
        theta = np.arccos(cos_target)
        b = np.cos(theta) * a_n + np.sin(theta) * p_n
        sa, sb = signatures(np.stack([a_n, b]), planes)
        agree = np.mean(sa == sb)
        assert agree == pytest.approx(bit_agreement_probability(cos_target), abs=0.03)


@pytest.mark.parametrize("n_bits", [64, 128, 256])
def test_band_params_divide_bits(n_bits):
    b, r = band_params_for_threshold(0.7, n_bits)
    assert b * r == n_bits


def test_band_params_midpoint_near_threshold():
    b, r = band_params_for_threshold(0.7, 128)
    mid = (1.0 / b) ** (1.0 / r)
    assert mid == pytest.approx(bit_agreement_probability(0.7), abs=0.1)


def test_hyperplanes_deterministic():
    assert np.allclose(hyperplanes(8, 16, seed=3), hyperplanes(8, 16, seed=3))


def test_signatures_match_per_vector_reference():
    """One matmul signs like ``planes @ v >= 0`` row by row: exactly for
    a 1-row matrix (the query path), and on these rows for a batch."""
    g = np.random.default_rng(10)
    mat = g.standard_normal((200, 32)).astype(np.float32)
    planes = hyperplanes(32, 128, seed=2)
    reference = np.stack([(planes @ v) >= 0 for v in mat])
    assert np.array_equal(signatures(mat, planes), reference)
    for v, ref in zip(mat, reference):
        assert np.array_equal(signatures(v[None], planes)[0], ref)


@pytest.fixture(scope="module")
def random_index():
    g = np.random.default_rng(7)
    dim = 32
    mat = g.standard_normal((200, dim)).astype(np.float32)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    idx = SimHashIndex(dim=dim, seed=5)
    idx.add_batch([f"c{i}" for i in range(200)], mat, signatures(mat, idx.planes))
    return idx, mat


def test_query_matches_brute_force_topk(random_index):
    """Returned results are true cosines drawn from near the brute-force
    top of the ranking. (For random low-similarity queries LSH may miss
    the exact top-1 — that is the approximation, not a bug — but what it
    returns must be honestly scored and near-optimal.)"""
    idx, mat = random_index
    g = np.random.default_rng(9)
    for _ in range(5):
        q = g.standard_normal(32).astype(np.float32)
        qn = q / np.linalg.norm(q)
        brute_scores = -np.sort(-(mat @ qn))
        got = idx.query(q, 5)
        assert got[0].score <= brute_scores[0] + 1e-5
        # Top-1 within the brute-force top-30 of 200; all results honest.
        top30 = {f"c{i}" for i in np.argsort(-(mat @ qn))[:30]}
        assert got[0].col_id in top30
        for r in got:
            i = int(r.col_id[1:])
            assert r.score == pytest.approx(float(mat[i] @ qn), abs=1e-5)


def test_query_near_duplicate_always_found(random_index):
    """A vector nearly identical to an indexed one must come back first
    (banding guarantees collision at cosine ≈ 1)."""
    idx, mat = random_index
    q = mat[17] + 0.01 * np.random.default_rng(1).standard_normal(32).astype(
        np.float32
    )
    got = idx.query(q, 3)
    assert got[0].col_id == "c17"
    assert got[0].score > 0.99


def test_query_exclude(random_index):
    idx, mat = random_index
    got = idx.query(mat[17], 3, exclude={"c17"})
    assert "c17" not in [r.col_id for r in got]


def test_query_k_bound(random_index):
    idx, _ = random_index
    q = np.random.default_rng(2).standard_normal(32).astype(np.float32)
    assert len(idx.query(q, 7)) == 7
    assert idx.query(q, 0) == [] and idx.query(q, -1) == []


def test_query_scores_sorted(random_index):
    idx, _ = random_index
    q = np.random.default_rng(3).standard_normal(32).astype(np.float32)
    scores = [r.score for r in idx.query(q, 10)]
    assert scores == sorted(scores, reverse=True)


def test_empty_index():
    idx = SimHashIndex(dim=8)
    assert idx.query(np.ones(8), 5) == []


def test_zero_vector_query(random_index):
    idx, _ = random_index
    assert idx.query(np.zeros(32), 5) == []


def test_candidates_shrink_universe(random_index):
    """For a random query, banded candidates are a strict subset of the
    universe (the whole point of the LSH index)."""
    idx, mat = random_index
    g = np.random.default_rng(11)
    sizes = []
    for _ in range(10):
        q = g.standard_normal(32).astype(np.float32)
        sizes.append(len(idx.candidates(q / np.linalg.norm(q))))
    assert min(sizes) < 200


def _unit_queries(mat, seed):
    """Random unit vectors and perturbed copies of indexed rows."""
    g = np.random.default_rng(seed)
    qs = np.vstack(
        [
            g.standard_normal((10, mat.shape[1])),
            mat[:10] + 0.05 * g.standard_normal((10, mat.shape[1])),
        ]
    ).astype(np.float32)
    return qs / np.linalg.norm(qs, axis=1, keepdims=True)


def test_candidates_equal_band_matches(random_index):
    """The probe returns exactly the rows whose stored signature equals
    the query's on every bit of at least one band."""
    idx, mat = random_index
    b, r = idx.n_bands, idx.rows_per_band
    stored = signatures(mat, idx.planes).reshape(len(mat), b, r)
    for q in _unit_queries(mat, 12):
        qsig = signatures(q[None], idx.planes).reshape(b, r)
        expected = [
            i for i in range(len(mat))
            if any((stored[i, j] == qsig[j]).all() for j in range(b))
        ]
        assert list(idx.candidates(q)) == expected


@pytest.mark.parametrize("exclude", [set(), {"c3", "c4"}])
def test_query_exact_when_probe_underdelivers(random_index, exclude):
    """Fewer than k + |exclude| candidates: the exhaustive fallback
    returns the exact top-k by cosine."""
    idx, mat = random_index
    k = 40
    for q in _unit_queries(mat, 13):
        assert len(idx.candidates(q)) < k + len(exclude)
        scores = mat.astype(np.float64) @ q
        exact = [i for i in np.argsort(-scores) if f"c{i}" not in exclude][:k]
        got = idx.query(q, k, exclude=exclude)
        assert [r.col_id for r in got] == [f"c{i}" for i in exact]
        assert [r.score for r in got] == pytest.approx(scores[exact], abs=1e-5)


def test_signatures_df_matches_driver(spark):
    """Distributed signature computation equals the driver-side one."""
    g = np.random.default_rng(4)
    dim, n = 16, 12
    mat = g.standard_normal((n, dim)).astype(np.float32)
    planes = hyperplanes(dim, 64, seed=8)
    pdf = pd.DataFrame(
        {
            "col_id": [f"c{i}" for i in range(n)],
            "embedding": [v.astype(float).tolist() for v in mat],
        }
    )
    rows = signatures_df(spark.createDataFrame(pdf), planes).collect()
    got = {r["col_id"]: np.array(r["sig"], dtype=bool) for r in rows}
    expected = signatures(mat, planes)
    for i in range(n):
        assert np.array_equal(got[f"c{i}"], expected[i])


def test_build_from_df(spark):
    g = np.random.default_rng(6)
    mat = g.standard_normal((30, 16)).astype(np.float32)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    pdf = pd.DataFrame(
        {
            "col_id": [f"c{i}" for i in range(30)],
            "embedding": [v.astype(float).tolist() for v in mat],
        }
    )
    idx = SimHashIndex.build_from_df(spark.createDataFrame(pdf), dim=16)
    assert len(idx.ids) == 30
    got = idx.query(mat[3], 1)
    assert got[0].col_id == "c3"
