"""SimHash (random-hyperplane) LSH index over column embeddings.

§3.1.2: cosine similarity is approximated by SimHash — each of
``N_BITS`` random hyperplanes contributes one signature bit (the sign of
the projection), and two vectors agree on a bit with probability
``1 − θ/π`` where θ is the angle between them. Signatures are split into
``b`` bands of ``r`` bits (classic banding); vectors colliding with the
query in at least one band form the candidate sub-universe, which is
re-ranked by exact cosine. Band parameters are derived from the paper's
similarity threshold ``THRESHOLD`` (0.7, §4.3): we pick ``r`` so the
band S-curve midpoint ``(1/b)^(1/r)`` sits closest to the threshold's
bit-agreement probability.

CDW discovery has stringent completeness requirements (§1), so when the
banded probe yields fewer than ``k`` candidates the index falls back to
an exhaustive scan — recall is never silently truncated by the hash.

Signature computation over the corpus is a distributed step
(:func:`signatures_df`); the index itself is the usual in-memory
structure built from the collected signatures (thousands of columns):
an ``(n, n_bands)`` integer band-key matrix grouped into one
``key → row numbers`` table.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.results import SearchResult

N_BITS = 128
THRESHOLD = 0.7  # SimHash LSH similarity threshold (§4.3)
_NO_ROWS = np.zeros(0, dtype=np.intp)


def bit_agreement_probability(cos_sim: float) -> float:
    """P[two vectors agree on one SimHash bit] given their cosine."""
    c = min(1.0, max(-1.0, cos_sim))
    return 1.0 - np.arccos(c) / np.pi


def band_params_for_threshold(threshold: float, n_bits: int) -> tuple[int, int]:
    """Pick ``(bands, rows_per_band)`` matching the S-curve midpoint to
    the threshold's bit-agreement probability."""
    p = bit_agreement_probability(threshold)
    best, best_err = None, float("inf")
    for r in (2, 4, 8, 16, 32):
        if n_bits % r:
            continue
        b = n_bits // r
        mid = (1.0 / b) ** (1.0 / r)
        err = abs(mid - p)
        if err < best_err:
            best, best_err = (b, r), err
    assert best is not None, f"no band split for n_bits={n_bits}"
    return best


def hyperplanes(dim: int, n_bits: int, seed: int) -> np.ndarray:
    """(n_bits, dim) Gaussian hyperplane normals."""
    return np.random.default_rng(seed).standard_normal((n_bits, dim)).astype(
        np.float32
    )


def signatures(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """``(n, n_bits)`` boolean signatures of the rows of ``mat``, one matmul.

    A batch sums in another order than a single row, so a bit whose
    float32 projection rounds to zero can differ between the two.
    """
    return (np.asarray(mat, dtype=np.float32) @ planes.T) >= 0


def signatures_df(embeddings: DataFrame, planes: np.ndarray) -> DataFrame:
    """``(col_id, embedding, sig)`` — distributed signature computation,
    one :func:`signatures` call per Arrow batch.

    ``sig`` is packed as an array of 0/1 bytes for Arrow friendliness.
    """
    dim = planes.shape[1]

    def _sig(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            mat = np.array(pdf["embedding"].tolist(), dtype=np.float32)
            sigs = signatures(mat.reshape(-1, dim), planes).astype(np.int8)
            yield pdf.assign(sig=list(sigs))

    return embeddings.mapInPandas(
        _sig, schema="col_id string, embedding array<double>, sig array<tinyint>"
    )


class SimHashIndex:
    """In-memory banded SimHash index over column embeddings."""

    def __init__(self, *, dim: int, seed: int = 99) -> None:
        self.dim = dim
        self.planes = hyperplanes(dim, N_BITS, seed)
        self.n_bands, self.rows_per_band = band_params_for_threshold(
            THRESHOLD, N_BITS
        )
        # Band j's key is its bits read as an integer plus j << rows_per_band,
        # so no two bands share a key.
        self._bit_weights = 1 << np.arange(self.rows_per_band)
        self._band_offsets = np.arange(self.n_bands) << self.rows_per_band
        self.ids: list[str] = []
        self.matrix = np.zeros((0, dim), dtype=np.float32)
        self._buckets: dict[int, np.ndarray] = {}  # band key → row numbers

    # -- build -----------------------------------------------------------
    def _band_keys(self, sigs: np.ndarray) -> np.ndarray:
        """``(n, n_bands)`` int64 band keys of ``(n, N_BITS)`` signatures."""
        bits = sigs.reshape(len(sigs), self.n_bands, self.rows_per_band)
        return bits.astype(np.int64) @ self._bit_weights + self._band_offsets

    def add_batch(self, ids: list[str], mat: np.ndarray, sigs: np.ndarray) -> None:
        """Load pre-signed vectors (from the distributed signature step)
        into this empty index."""
        assert not self.ids, "add_batch loads an empty index"
        self.ids = list(ids)
        self.matrix = mat.astype(np.float32)
        keys = self._band_keys(sigs).ravel()
        order = np.argsort(keys)
        uniq, starts = np.unique(keys[order], return_index=True)
        rows = order // self.n_bands
        self._buckets = dict(zip(uniq.tolist(), np.split(rows, starts[1:])))

    @classmethod
    def build_from_df(
        cls, embeddings: DataFrame, *, dim: int, seed: int = 99
    ) -> "SimHashIndex":
        """Distributed signatures → collected in-memory index."""
        idx = cls(dim=dim, seed=seed)
        rows = signatures_df(embeddings, idx.planes).collect()
        if rows:
            ids = [r["col_id"] for r in rows]
            mat = np.array([r["embedding"] for r in rows], dtype=np.float32)
            sigs = np.array([r["sig"] for r in rows], dtype=bool)
            idx.add_batch(ids, mat, sigs)
        return idx

    # -- search ----------------------------------------------------------
    def candidates(self, vec: np.ndarray) -> np.ndarray:
        """Sorted row numbers sharing at least one band with ``vec``."""
        keys = self._band_keys(signatures(vec[None], self.planes))[0]
        return np.unique(
            np.concatenate([self._buckets.get(k, _NO_ROWS) for k in keys.tolist()])
        )

    def query(
        self,
        vec: np.ndarray,
        k: int,
        *,
        exclude: set[str] | None = None,
    ) -> list[SearchResult]:
        """Top-k by exact cosine over the banded candidate sub-universe,
        falling back to a full scan when the probe under-delivers."""
        if k <= 0 or len(self.ids) == 0:
            return []
        v = vec.astype(np.float32)
        nv = np.linalg.norm(v)
        if nv == 0:
            return []
        v = v / nv
        cand = self.candidates(v)
        n_excluded = len(exclude or ())
        if len(cand) < k + n_excluded:
            cand = np.arange(len(self.ids))
        sub = self.matrix[cand]
        norms = np.linalg.norm(sub, axis=1)
        norms[norms == 0] = 1.0
        scores = (sub @ v) / norms
        order = np.argsort(-scores)
        out: list[SearchResult] = []
        for oi in order:
            cid = self.ids[cand[int(oi)]]
            if exclude and cid in exclude:
                continue
            out.append(SearchResult(col_id=cid, score=float(scores[int(oi)])))
            if len(out) >= k:
                break
        return out
