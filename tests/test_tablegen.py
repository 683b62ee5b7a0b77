"""Tests for spec materialization and the Warehouse abstraction."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import pyspark.sql.functions as F

from repro.baselines.aurum import Aurum
from repro.baselines.d3l import D3L
from repro.core.sampling import load_column
from repro.core.warpgate import WarpGate
from repro.corpus.domains import default_universe
from repro.corpus.tablegen import (
    ColumnSpec,
    CorpusSpec,
    TableSpec,
    Warehouse,
    column_distinct_pool,
    materialize_column,
    materialize_table,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def uni():
    return default_universe()


@pytest.fixture(scope="module")
def ent_spec(uni):
    return ColumnSpec(
        name="c", kind="entity", domain=uni.domains[0].name, fmt="snake",
        pool_lo=0.0, pool_hi=0.8,
    )


@pytest.fixture(scope="module")
def small_spec(uni):
    cols = (
        ColumnSpec(name="row_id", kind="id"),
        ColumnSpec(name="ent", kind="entity", domain=uni.domains[0].name),
        ColumnSpec(name="amt", kind="numeric"),
        ColumnSpec(name="day", kind="date"),
        ColumnSpec(name="note", kind="text", domain=uni.domains[1].name),
    )
    tables = [
        TableSpec(db="dbA", name="t0", n_rows=120, columns=cols),
        TableSpec(db="dbB", name="t1", n_rows=60, columns=cols[:3]),
    ]
    return CorpusSpec(name="mini", tables=tables, seed=3)


@pytest.fixture(scope="module")
def small_wh(spark, small_spec, uni):
    return Warehouse(spark, small_spec, uni)


def test_materialize_column_deterministic(ent_spec, uni):
    a = materialize_column(ent_spec, 50, uni, seed=11)
    b = materialize_column(ent_spec, 50, uni, seed=11)
    assert a.tolist() == b.tolist()


def test_materialize_column_seed_sensitivity(ent_spec, uni):
    a = materialize_column(ent_spec, 50, uni, seed=11)
    b = materialize_column(ent_spec, 50, uni, seed=12)
    assert a.tolist() != b.tolist()


def test_entity_values_come_from_pool(ent_spec, uni):
    vals = materialize_column(ent_spec, 90, uni, seed=1)
    pool = set(column_distinct_pool(ent_spec, uni, 90))
    assert set(vals) <= pool


def test_effective_pool_scales_with_rows(ent_spec, uni):
    small = column_distinct_pool(ent_spec, uni, 30)
    big = column_distinct_pool(ent_spec, uni, 3000)
    assert len(small) < len(big)


def test_pool_slices_overlap_as_specified(uni):
    a = ColumnSpec(name="a", kind="entity", domain=uni.domains[0].name,
                   pool_lo=0.0, pool_hi=0.72)
    b = ColumnSpec(name="b", kind="entity", domain=uni.domains[0].name,
                   pool_lo=0.08, pool_hi=0.80)
    pa = set(column_distinct_pool(a, uni, 600))
    pb = set(column_distinct_pool(b, uni, 600))
    containment = len(pa & pb) / len(pa)
    assert 0.7 <= containment <= 1.0


def test_disjoint_slices_do_not_overlap(uni):
    a = ColumnSpec(name="a", kind="entity", domain=uni.domains[0].name,
                   pool_lo=0.0, pool_hi=0.5)
    b = ColumnSpec(name="b", kind="entity", domain=uni.domains[0].name,
                   pool_lo=0.6, pool_hi=1.0)
    pa = set(column_distinct_pool(a, uni, 600))
    pb = set(column_distinct_pool(b, uni, 600))
    assert not (pa & pb)


@pytest.mark.parametrize("kind", ["numeric", "date", "id"])
def test_distractor_kinds_materialize(kind, uni):
    spec = ColumnSpec(name="x", kind=kind)
    vals = materialize_column(spec, 40, uni, seed=5)
    assert len(vals) == 40
    assert vals.notna().all()


def test_text_kind_materializes(uni):
    spec = ColumnSpec(name="x", kind="text", domain=uni.domains[2].name)
    vals = materialize_column(spec, 40, uni, seed=5)
    assert all(isinstance(v, str) and " " in v for v in vals)


def test_id_kind_unique(uni):
    spec = ColumnSpec(name="x", kind="id")
    vals = materialize_column(spec, 200, uni, seed=5)
    assert vals.nunique() == 200


def test_null_frac(uni):
    spec = ColumnSpec(name="x", kind="numeric", null_frac=0.5)
    vals = materialize_column(spec, 400, uni, seed=5)
    assert 0.3 < vals.isna().mean() < 0.7


def test_unknown_kind_raises(uni):
    with pytest.raises(ValueError):
        materialize_column(ColumnSpec(name="x", kind="wat"), 5, uni, seed=0)


def test_materialize_table_shape(small_spec, uni):
    pdf = materialize_table(small_spec.tables[0], uni, corpus_seed=3)
    assert pdf.shape == (120, 5)
    assert list(pdf.columns) == ["row_id", "ent", "amt", "day", "note"]


def test_spec_properties(small_spec):
    assert small_spec.n_tables == 2
    assert small_spec.n_columns == 8
    assert small_spec.avg_rows == 90.0
    assert len(small_spec.column_ids()) == 8


def test_column_spec_lookup(small_spec):
    c = small_spec.column_spec("dbA.t0.ent")
    assert c.kind == "entity"
    with pytest.raises(KeyError):
        small_spec.column_spec("dbA.t0.nope")


def test_warehouse_tables_registered(small_wh):
    assert set(small_wh.tables) == {"dbA.t0", "dbB.t1"}
    assert small_wh.table_df("dbA.t0").count() == 120


def test_cells_long_df_counts_match_oracle(spark, small_wh, small_spec, uni):
    """The unpivot produces exactly n_rows cells per column — checked
    against DuckDB counting over the driver-side frames."""
    got = small_wh.cells_long_df().groupBy("col_id").agg(
        F.count("*").alias("n")
    )
    t0 = small_wh.table_pdf("dbA.t0")
    t1 = small_wh.table_pdf("dbB.t1")
    sql = """
        WITH cells AS (
          SELECT 'dbA.t0.' || c.col AS col_id
          FROM t0, (SELECT unnest(['row_id','ent','amt','day','note']) AS col) c
          UNION ALL
          SELECT 'dbB.t1.' || c.col
          FROM t1, (SELECT unnest(['row_id','ent','amt']) AS col) c
        )
        SELECT col_id, count(*) AS n FROM cells GROUP BY 1
    """
    assert_equivalent(got, sql, t0=t0, t1=t1)


def test_cells_long_df_sampled(small_wh):
    n = small_wh.cells_long_df(sample=5).count()
    # 5 rows per table, 5 + 3 columns.
    assert n == 5 * 5 + 5 * 3


def test_cells_values_stringified(small_wh):
    row = small_wh.cells_long_df().first()
    assert isinstance(row["value"], str)


def test_entity_column_ids(small_wh):
    assert small_wh.entity_column_ids() == ["dbA.t0.ent", "dbB.t1.ent"]


def test_warehouse_deterministic(spark, small_spec, uni):
    a = Warehouse(spark, small_spec, uni).table_pdf("dbA.t0")
    b = Warehouse(spark, small_spec, uni).table_pdf("dbA.t0")
    pd.testing.assert_frame_equal(a, b)


def test_text_columns_mix_stopwords(uni):
    """Free-text columns must not sit on a domain centroid (they mix in
    filler vocabulary)."""
    from repro.corpus.tablegen import _STOPWORDS

    spec = ColumnSpec(name="x", kind="text", domain=uni.domains[0].name)
    vals = materialize_column(spec, 200, uni, seed=5)
    words = [w for v in vals for w in str(v).split()]
    stop_share = np.mean([w in _STOPWORDS for w in words])
    assert 0.3 < stop_share < 0.85


# -- identifiers that are legal in a warehouse but hostile to SQL text --

HOSTILE_NAMES = ("o'brien", "a.b", "x`y", "Order Date", "città")


@pytest.fixture(scope="module")
def hostile_spec(uni):
    d0, d1 = uni.domains[0].name, uni.domains[1].name
    cols = (
        ColumnSpec(name="o'brien", kind="entity", domain=d0),
        ColumnSpec(name="a.b", kind="entity", domain=d0, fmt="snake"),
        ColumnSpec(name="x`y", kind="text", domain=d1),
        ColumnSpec(name="Order Date", kind="date"),
        ColumnSpec(name="città", kind="numeric"),
    )
    tables = [
        TableSpec(db="db", name="t.dotted", n_rows=40, columns=cols),
        TableSpec(db="db2", name="plain", n_rows=30, columns=cols[:2]),
    ]
    return CorpusSpec(name="hostile", tables=tables, seed=5)


@pytest.fixture(scope="module")
def hostile_wh(spark, hostile_spec, uni):
    return Warehouse(spark, hostile_spec, uni)


def test_hostile_column_spec(hostile_spec):
    for name in HOSTILE_NAMES:
        assert hostile_spec.column_spec(f"db.t.dotted.{name}").name == name


def test_hostile_cells_long_df_ids(hostile_wh, hostile_spec):
    got = dict(
        hostile_wh.cells_long_df().groupBy("col_id").count().collect()
    )
    assert got == {
        cid: t.n_rows for cid, (t, _) in hostile_spec.column_map().items()
    }
    assert sorted(got) == sorted(hostile_spec.column_ids())


def test_hostile_load_column(hostile_wh, hostile_spec):
    for cid, (t, c) in hostile_spec.column_map().items():
        assert len(load_column(hostile_wh, cid)) == t.n_rows
        expected = hostile_wh.table_pdf(t.table_id)[c.name].head(7).tolist()
        assert load_column(hostile_wh, cid, sample=7) == expected


@pytest.mark.parametrize("system", ["warpgate", "d3l", "aurum"])
def test_hostile_systems_build_and_query(system, hostile_wh, hostile_spec, model):
    sys_ = {
        "warpgate": lambda: WarpGate(model=model),
        "d3l": lambda: D3L(model=model),
        "aurum": lambda: Aurum(),
    }[system]()
    sys_.build_index(hostile_wh)
    ids = set(hostile_spec.column_ids())
    for cid in hostile_spec.column_ids():
        results, timing = sys_.query(cid, k=3)
        assert len(results) <= 3 and timing.e2e_s >= 0
        assert all(r.col_id in ids and r.col_id != cid for r in results)
    # Same domain, format and name in another table: a pair every system
    # finds once each name resolves to its own column.
    top = [r.col_id for r in sys_.query("db.t.dotted.o'brien", k=3)[0]]
    assert "db2.plain.o'brien" in top


@pytest.mark.parametrize(
    "tables",
    [
        # Different names, same dotted col_id "db.t.a.b".
        [("db", "t", "a.b"), ("db", "t.a", "b")],
        # Same table id twice.
        [("db", "t", "x"), ("db", "t", "y")],
    ],
)
def test_colliding_ids_rejected(spark, uni, tables):
    spec = CorpusSpec(
        name="clash",
        tables=[
            TableSpec(db=db, name=name, n_rows=5,
                      columns=(ColumnSpec(name=col, kind="numeric"),))
            for db, name, col in tables
        ],
    )
    with pytest.raises(ValueError):
        Warehouse(spark, spec, uni)
