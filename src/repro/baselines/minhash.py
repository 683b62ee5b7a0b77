"""MinHash signatures over column value sets, computed in Spark.

The syntactic-profiling substrate shared by both baselines: Aurum's
column profiles are MinHash sketches whose estimated Jaccard similarity
drives its relationship graph; D3L's value-extent signal is the same
sketch. Signatures use the standard ``(a·h(v) + b) mod p`` permutation
family over crc32 value hashes — deterministic across processes.

Note these operate on **raw** value strings (no normalization): that is
the point of the syntactic baselines, and why formatting variants break
them where embeddings survive.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

_MERSENNE = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def permutation_params(n_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    g = np.random.default_rng(seed)
    a = g.integers(1, _MERSENNE, n_perm, dtype=np.int64)
    b = g.integers(0, _MERSENNE, n_perm, dtype=np.int64)
    return a, b


def value_hashes(values: list) -> np.ndarray:
    """crc32 of each distinct non-null value's raw string form."""
    seen: set[str] = set()
    for v in values:
        if v is None:
            continue
        s = str(v)
        if s and s != "None" and s != "nan":
            seen.add(s)
    return np.array([zlib.crc32(s.encode()) for s in seen], dtype=np.int64)


def minhash_signature(
    values: list, a: np.ndarray, b: np.ndarray
) -> np.ndarray | None:
    """(n_perm,) int64 signature, ``None`` for empty columns."""
    h = value_hashes(values)
    if h.size == 0:
        return None
    # (V, P) permuted hashes → column-wise min. Use Python-int modulus via
    # object dtype only if needed; int64 overflow is avoided by reducing
    # a·h mod p with int128-free trick: numpy int64 wraps, so compute in
    # float-free int64 with masking — acceptable since we only need a
    # deterministic permutation family, not the exact Mersenne field.
    perm = (h[:, None] * a[None, :] + b[None, :]) & _MAX_HASH
    return perm.min(axis=0)


def est_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """MinHash Jaccard estimate: fraction of agreeing permutations."""
    return float(np.mean(sig_a == sig_b))


def minhash_signatures_df(
    cells: DataFrame, *, n_perm: int = 128, seed: int = 7
) -> DataFrame:
    """``(col_id, signature)`` for every column of a long cells frame."""
    a, b = permutation_params(n_perm, seed)

    def _sig(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        sig = minhash_signature(pdf["value"].tolist(), a, b)
        if sig is None:
            return pd.DataFrame(
                {
                    "col_id": pd.Series([], dtype=str),
                    "signature": pd.Series([], dtype=object),
                }
            )
        return pd.DataFrame({"col_id": [key[0]], "signature": [sig.tolist()]})

    return cells.groupBy("col_id").applyInPandas(
        _sig, schema="col_id string, signature array<long>"
    )


def collect_signatures(sig_df: DataFrame) -> tuple[list[str], np.ndarray]:
    rows = sig_df.collect()
    ids = [r["col_id"] for r in rows]
    if not ids:
        return [], np.zeros((0, 0), dtype=np.int64)
    return ids, np.array([r["signature"] for r in rows], dtype=np.int64)


def pairwise_jaccard(sigs: np.ndarray) -> np.ndarray:
    """(C, C) estimated Jaccard matrix (chunked to bound memory)."""
    c = sigs.shape[0]
    out = np.zeros((c, c), dtype=np.float32)
    chunk = max(1, 2_000_000 // max(1, c * sigs.shape[1] // 64))
    for i in range(0, c, chunk):
        block = sigs[i : i + chunk]  # (m, P)
        eq = (block[:, None, :] == sigs[None, :, :]).mean(axis=2)
        out[i : i + chunk] = eq.astype(np.float32)
    return out
