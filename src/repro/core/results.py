"""Query-result types shared by WarpGate and the baselines.

Every discovery system answers ``query(col_id, k=...)`` with a ranked
``list[SearchResult]`` and a :class:`QueryTiming`.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SearchResult:
    col_id: str
    score: float


@dataclass
class QueryTiming:
    load_s: float
    lookup_s: float

    @property
    def e2e_s(self) -> float:
        return self.load_s + self.lookup_s
