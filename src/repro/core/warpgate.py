"""The WarpGate system: indexing pipeline + search pipeline (§3).

Indexing: warehouse columns → (sampled) long cells frame → distributed
column embedding → distributed SimHash signatures → in-memory banded LSH
index.

Search: the query column is pulled out of the warehouse (``load``
phase), then handed to the index, which embeds it and probes the LSH
buckets (``lookup`` phase — per the paper's timing decomposition, index
lookup covers everything after data loading: embedding inference of the
query plus the banded probe and cosine re-rank; §4.2 defines end-to-end
response time as loading + inference + lookup). Timings for both phases
are returned with every query so the evaluation harness can reproduce
Table 2's "e2e (lookup)" cells.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.embedding import embed_columns_df
from repro.core.results import QueryTiming, SearchResult
from repro.core.sampling import load_column
from repro.core.simhash import SimHashIndex
from repro.corpus.tablegen import Warehouse
from repro.embed_model.model import EmbeddingModel


@dataclass
class WarpGateConfig:
    """Tunables, defaults per the paper's experiment setup; the SimHash
    width and threshold are the constants of :mod:`repro.core.simhash`."""

    sample: int | None = None  # rows per column (LIMIT); None = full values
    seed: int = 99


@dataclass
class WarpGate:
    """One indexed warehouse + its search entry point."""

    model: EmbeddingModel | object  # EmbeddingModel or BertLikeModel
    config: WarpGateConfig = field(default_factory=WarpGateConfig)
    index: SimHashIndex | None = None
    _warehouse: Warehouse | None = None
    index_build_s: float = 0.0

    def build_index(self, warehouse: Warehouse) -> SimHashIndex:
        """Run the indexing pipeline over every column of the warehouse."""
        t0 = time.perf_counter()
        cells = warehouse.cells_long_df(sample=self.config.sample)
        emb_df = embed_columns_df(warehouse.spark, cells, self.model)
        self.index = SimHashIndex.build_from_df(
            emb_df, dim=int(self.model.dim), seed=self.config.seed
        )
        self._warehouse = warehouse
        self.index_build_s = time.perf_counter() - t0
        return self.index

    def query(
        self, col_id: str, *, k: int = 10
    ) -> tuple[list[SearchResult], QueryTiming]:
        """Top-k semantic join discovery for one query column."""
        assert self.index is not None and self._warehouse is not None, (
            "build_index() must run before query()"
        )
        t0 = time.perf_counter()
        values = load_column(self._warehouse, col_id, sample=self.config.sample)
        t1 = time.perf_counter()
        results = self.lookup(values, k=k, exclude={col_id})
        t2 = time.perf_counter()
        return results, QueryTiming(load_s=t1 - t0, lookup_s=t2 - t1)

    def lookup(
        self, values: list, *, k: int, exclude: set[str] | None = None
    ) -> list[SearchResult]:
        """Index lookup: embed raw values, probe LSH bands, re-rank."""
        vec = self.model.embed_values(values)
        if vec is None:
            return []
        return self.index.query(np.asarray(vec), k, exclude=exclude)
