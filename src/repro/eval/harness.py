"""Evaluation harness: run discovery systems over query sets with timing.

All three systems expose the same protocol — ``build_index(warehouse)``
then ``query(col_id, k=...) → (list[SearchResult], QueryTiming)``, both
from :mod:`repro.core.results` — so one
runner produces both the effectiveness (Fig. 4) and efficiency
(Table 2, §4.4) measurements.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.corpus.tablegen import CorpusSpec, QuerySpec, Warehouse
from repro.eval.metrics import PRPoint, pr_curve


@dataclass
class RunResult:
    """One system's full pass over a corpus's query set."""

    system: str
    rankings: dict[str, list[str]] = field(default_factory=dict)
    scores: dict[str, list[float]] = field(default_factory=dict)
    load_s: list[float] = field(default_factory=list)
    lookup_s: list[float] = field(default_factory=list)
    queries_run: list[QuerySpec] = field(default_factory=list)

    @property
    def avg_load_s(self) -> float:
        return float(np.mean(self.load_s)) if self.load_s else 0.0

    @property
    def avg_lookup_s(self) -> float:
        return float(np.mean(self.lookup_s)) if self.lookup_s else 0.0

    @property
    def avg_e2e_s(self) -> float:
        return self.avg_load_s + self.avg_lookup_s

    def pr(
        self, queries: list[QuerySpec] | None = None, ks: list[int] | None = None
    ) -> list[PRPoint]:
        """P/R@k over the queries this run actually executed.

        Passing a superset of ``queries_run`` would count never-run
        queries as misses, so the default (and the safe choice) is the
        run's own query list.
        """
        return pr_curve(self.rankings, queries or self.queries_run, ks or [1, 3, 5, 10])


def run_queries(
    system,
    name: str,
    queries: list[QuerySpec],
    *,
    k: int = 10,
    max_queries: int | None = None,
) -> RunResult:
    """Run every query through an (already indexed) system."""
    out = RunResult(system=name)
    qs = queries if max_queries is None else queries[:max_queries]
    out.queries_run = list(qs)
    for q in qs:
        results, timing = system.query(q.column, k=k)
        out.rankings[q.column] = [r.col_id for r in results]
        out.scores[q.column] = [r.score for r in results]
        out.load_s.append(timing.load_s)
        out.lookup_s.append(timing.lookup_s)
    return out


def run_all_systems(
    systems: dict[str, object],
    warehouse: Warehouse,
    spec: CorpusSpec,
    *,
    k: int = 10,
    max_queries: int | None = None,
    build: bool = True,
) -> dict[str, RunResult]:
    """Index each system over the warehouse, then run the query set."""
    out: dict[str, RunResult] = {}
    for name, sys_ in systems.items():
        if build:
            sys_.build_index(warehouse)
        out[name] = run_queries(
            sys_, name, spec.queries, k=k, max_queries=max_queries
        )
    return out
