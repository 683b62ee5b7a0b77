"""Query edge cases for WarpGate, D3L and Aurum on a hand-built corpus:
``k <= 0``, ``k`` beyond the corpus, and a query column the build dropped."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.aurum import Aurum
from repro.baselines.d3l import D3L
from repro.core.sampling import load_column
from repro.core.warpgate import WarpGate
from repro.corpus.tablegen import ColumnSpec, CorpusSpec, TableSpec, Warehouse

SYSTEMS = ("warpgate", "d3l", "aurum")
INDEXED = ("db.t.a", "db.t.b", "db.t.n")
ALL_NULL = "db.t.empty"  # no tokens, so no build indexes it


@pytest.fixture(scope="module")
def tiny_wh(spark, universe):
    d0 = universe.domains[0].name
    cols = (
        ColumnSpec(name="a", kind="entity", domain=d0),
        ColumnSpec(name="b", kind="entity", domain=d0, fmt="snake"),
        ColumnSpec(name="n", kind="numeric"),
        ColumnSpec(name="empty", kind="entity", domain=d0, null_frac=1.0),
    )
    spec = CorpusSpec(
        name="tiny", tables=[TableSpec(db="db", name="t", n_rows=30, columns=cols)]
    )
    return Warehouse(spark, spec, universe)


@pytest.fixture(scope="module")
def systems(model, tiny_wh):
    out = {"warpgate": WarpGate(model=model), "d3l": D3L(model=model), "aurum": Aurum()}
    for system in out.values():
        system.build_index(tiny_wh)
    return out


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("system", SYSTEMS)
def test_k_nonpositive_returns_nothing(systems, system, k):
    for col in INDEXED:
        assert systems[system].query(col, k=k)[0] == []


def test_warpgate_k_beyond_corpus(systems, tiny_wh):
    """Every other indexed column, in descending order, with true cosines."""
    wg = systems["warpgate"]
    index = wg.index
    assert sorted(index.ids) == sorted(INDEXED)
    for col in INDEXED:
        results, _ = wg.query(col, k=50)
        assert sorted(r.col_id for r in results) == sorted(set(INDEXED) - {col})
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
        q = np.asarray(wg.model.embed_values(load_column(tiny_wh, col)))
        q = q / np.linalg.norm(q)
        for r in results:
            row = index.matrix[index.ids.index(r.col_id)].astype(np.float64)
            assert r.score == pytest.approx(row @ q / np.linalg.norm(row), abs=1e-5)


@pytest.mark.parametrize("system", ["d3l", "aurum"])
def test_baselines_k_beyond_corpus(systems, system):
    for col in INDEXED:
        results, _ = systems[system].query(col, k=50)
        assert len(results) <= 50
        assert col not in [r.col_id for r in results]


@pytest.mark.parametrize("system", SYSTEMS)
def test_query_column_not_indexed(systems, system):
    results, _ = systems[system].query(ALL_NULL, k=5)
    if system == "warpgate":
        assert results == []
    assert len(results) <= 5 and ALL_NULL not in [r.col_id for r in results]
