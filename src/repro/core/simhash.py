"""SimHash (random-hyperplane) LSH index over column embeddings.

§3.1.2: cosine similarity is approximated by SimHash — each of
``n_bits`` random hyperplanes contributes one signature bit (the sign of
the projection), and two vectors agree on a bit with probability
``1 − θ/π`` where θ is the angle between them. Signatures are split into
``b`` bands of ``r`` bits (classic banding); vectors colliding with the
query in at least one band form the candidate sub-universe, which is
re-ranked by exact cosine. Band parameters are derived from the paper's
similarity threshold (0.7): we pick ``r`` so the band S-curve midpoint
``(1/b)^(1/r)`` sits closest to the threshold's bit-agreement
probability.

CDW discovery has stringent completeness requirements (§1), so when the
banded probe yields fewer than ``k`` candidates the index falls back to
an exhaustive scan — recall is never silently truncated by the hash.

Signature computation over the corpus is a distributed step
(:func:`signatures_df`); the index itself is the usual in-memory
structure built from the collected signatures (thousands of columns).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.results import SearchResult


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


def signature(vec: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Boolean signature of one vector."""
    return (planes @ vec) >= 0


def signatures_df(embeddings: DataFrame, planes: np.ndarray) -> DataFrame:
    """``(col_id, embedding, sig)`` — distributed signature computation.

    ``sig`` is packed as an array of 0/1 bytes for Arrow friendliness.
    """
    from typing import Iterator

    planes_b = planes  # closed over; small (n_bits × dim)

    def _sig(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            sigs = []
            for emb in pdf["embedding"]:
                v = np.asarray(emb, dtype=np.float32)
                sigs.append(((planes_b @ v) >= 0).astype(np.int8).tolist())
            out = pdf.copy()
            out["sig"] = sigs
            yield out

    return embeddings.mapInPandas(
        _sig, schema="col_id string, embedding array<double>, sig array<tinyint>"
    )


class SimHashIndex:
    """In-memory banded SimHash index over column embeddings."""

    def __init__(
        self,
        *,
        dim: int,
        n_bits: int = 128,
        threshold: float = 0.7,
        seed: int = 99,
    ) -> None:
        self.dim = dim
        self.n_bits = n_bits
        self.threshold = threshold
        self.planes = hyperplanes(dim, n_bits, seed)
        self.n_bands, self.rows_per_band = band_params_for_threshold(
            threshold, n_bits
        )
        self.ids: list[str] = []
        self.matrix = np.zeros((0, dim), dtype=np.float32)
        self._buckets: dict[tuple[int, bytes], list[int]] = {}
        self._sigs: np.ndarray | None = None

    # -- build -----------------------------------------------------------
    def _band_keys(self, sig: np.ndarray) -> list[tuple[int, bytes]]:
        r = self.rows_per_band
        return [
            (bi, np.packbits(sig[bi * r : (bi + 1) * r]).tobytes())
            for bi in range(self.n_bands)
        ]

    def add_batch(self, ids: list[str], mat: np.ndarray, sigs: np.ndarray) -> None:
        """Append pre-signed vectors (from the distributed signature step)."""
        base = len(self.ids)
        self.ids.extend(ids)
        self.matrix = (
            mat.astype(np.float32)
            if base == 0
            else np.vstack([self.matrix, mat.astype(np.float32)])
        )
        self._sigs = (
            sigs.astype(bool)
            if self._sigs is None
            else np.vstack([self._sigs, sigs.astype(bool)])
        )
        for i, sig in enumerate(sigs):
            for key in self._band_keys(np.asarray(sig, dtype=bool)):
                self._buckets.setdefault(key, []).append(base + i)

    @classmethod
    def build_from_df(
        cls,
        embeddings: DataFrame,
        *,
        dim: int,
        n_bits: int = 128,
        threshold: float = 0.7,
        seed: int = 99,
    ) -> "SimHashIndex":
        """Distributed signatures → collected in-memory index."""
        idx = cls(dim=dim, n_bits=n_bits, threshold=threshold, seed=seed)
        rows = signatures_df(embeddings, idx.planes).collect()
        if rows:
            ids = [r["col_id"] for r in rows]
            mat = np.array([r["embedding"] for r in rows], dtype=np.float32)
            sigs = np.array([r["sig"] for r in rows], dtype=bool)
            idx.add_batch(ids, mat, sigs)
        return idx

    # -- search ----------------------------------------------------------
    def candidates(self, vec: np.ndarray) -> list[int]:
        sig = signature(vec.astype(np.float32), self.planes)
        seen: set[int] = set()
        for key in self._band_keys(sig):
            seen.update(self._buckets.get(key, ()))
        return sorted(seen)

    def query(
        self,
        vec: np.ndarray,
        k: int,
        *,
        exclude: set[str] | None = None,
    ) -> list[SearchResult]:
        """Top-k by exact cosine over the banded candidate sub-universe,
        falling back to a full scan when the probe under-delivers."""
        if len(self.ids) == 0:
            return []
        v = vec.astype(np.float32)
        nv = np.linalg.norm(v)
        if nv == 0:
            return []
        v = v / nv
        cand = self.candidates(v)
        n_excluded = len(exclude or ())
        if len(cand) < k + n_excluded:
            cand = list(range(len(self.ids)))
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
