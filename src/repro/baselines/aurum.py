"""Aurum baseline (Fernandez et al., ICDE 2018) — syntactic graph discovery.

Aurum profiles every column with a MinHash sketch (full-pass, as the
original system does), then materializes an **enterprise knowledge
graph**: nodes are column profiles, weighted edges connect columns whose
estimated Jaccard similarity crosses a threshold. Discovery queries are
answered from the in-memory graph alone — no data loading, no inference
— which is why Aurum's end-to-end query time is orders of magnitude
smaller than the pipeline systems' (paper Table 2), and why it has no
native notion of top-k: we follow the paper's protocol and read off a
query's graph neighbors in descending edge weight, capped at k.

Being purely syntactic over raw values, Aurum cannot see joinability
across formatting variants — the regime Fig. 4 penalizes it in.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.minhash import (
    collect_signatures,
    minhash_signatures_df,
    pairwise_jaccard,
)
from repro.core.results import QueryTiming, SearchResult
from repro.corpus.tablegen import Warehouse

DEFAULT_EDGE_THRESHOLD = 0.1


@dataclass
class Aurum:
    """Profile graph + neighbor lookup."""

    n_perm: int = 128
    edge_threshold: float = DEFAULT_EDGE_THRESHOLD
    seed: int = 7
    graph: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    index_build_s: float = 0.0

    def build_index(self, warehouse: Warehouse) -> None:
        """Full-pass profiling + graph construction (offline phase)."""
        t0 = time.perf_counter()
        cells = warehouse.cells_long_df()  # Aurum assumes a full data pass
        ids, sigs = collect_signatures(
            minhash_signatures_df(cells, n_perm=self.n_perm, seed=self.seed)
        )
        self.graph = {}
        if ids:
            jac = pairwise_jaccard(sigs)
            np.fill_diagonal(jac, 0.0)
            for i, cid in enumerate(ids):
                nbrs = np.where(jac[i] >= self.edge_threshold)[0]
                edges = sorted(
                    ((ids[j], float(jac[i, j])) for j in nbrs),
                    key=lambda e: -e[1],
                )
                self.graph[cid] = edges
        self.index_build_s = time.perf_counter() - t0

    def query(
        self, col_id: str, *, k: int = 10
    ) -> tuple[list[SearchResult], QueryTiming]:
        """Graph neighbor lookup — the whole query path."""
        t0 = time.perf_counter()
        edges = self.graph.get(col_id, [])[: max(k, 0)]
        results = [SearchResult(col_id=c, score=s) for c, s in edges]
        dt = time.perf_counter() - t0
        return results, QueryTiming(load_s=0.0, lookup_s=dt)
