"""Tests for the containment-based ground-truth labeler (Spark vs DuckDB)."""
from __future__ import annotations

import duckdb
import pandas as pd
import pytest

import repro.corpus.tablegen as tablegen
from repro.corpus.ground_truth import (
    build_queries,
    containment_pairs,
    label_pairs,
    normalized_df,
    pair_counts_df,
    quality_label,
)
from repro.corpus.tablegen import (
    ColumnSpec,
    CorpusSpec,
    QuerySpec,
    TableSpec,
    Warehouse,
)
from repro.embed_model.tokenizer import normalize
from repro.oracle import assert_equivalent
from tests.conftest import spark_jobs

GROUPS = {"A": "g1", "B": "g1", "C": "g2"}
GROUPS_SQL = """g AS (SELECT 'A' AS col_id, 'g1' AS grp UNION ALL
                      SELECT 'B', 'g1' UNION ALL SELECT 'C', 'g2')"""


@pytest.fixture(scope="module")
def cells_pdf():
    return pd.DataFrame(
        {
            "col_id": ["A"] * 4 + ["B"] * 5 + ["C"] * 2,
            "value": [
                "Acme Corp", "Beta Inc", "Gamma LLC", "Acme Corp",  # A (3 distinct)
                "ACME-CORP", "beta_inc", "Delta Co", "Delta Co", "Eps",  # B (4)
                "Zeta", "acme corp",                  # C (other group)
            ],
        }
    )


@pytest.fixture(scope="module")
def cells_df(spark, cells_pdf):
    return spark.createDataFrame(cells_pdf)


@pytest.fixture(scope="module")
def counts_pdf(cells_df):
    return pair_counts_df(cells_df, GROUPS).toPandas()


def _norm_pdf(cells_pdf):
    out = cells_pdf.copy()
    out["nval"] = [normalize(v) for v in out["value"]]
    return out[out["nval"] != ""][["col_id", "nval"]].drop_duplicates()


def test_normalized_distinct_matches_oracle(spark, cells_df, cells_pdf):
    """One row per distinct raw cell with a non-empty normalized value."""
    got = normalized_df(cells_df, GROUPS)
    raw = cells_pdf.assign(nval=[normalize(v) for v in cells_pdf["value"]])
    sql = f"""
        WITH {GROUPS_SQL}
        SELECT g.grp, c.nval, c.col_id
        FROM (SELECT DISTINCT col_id, value, nval FROM raw) c
        JOIN g ON c.col_id = g.col_id
        WHERE c.nval <> ''
    """
    assert_equivalent(got, sql, raw=raw)


def test_pair_counts_match_oracle(cells_df, cells_pdf):
    """``n(a, b) = |A ∩ B|`` for same-group pairs, the diagonal included."""
    sql = f"""
        WITH {GROUPS_SQL},
        v AS (SELECT DISTINCT n.col_id, n.nval, g.grp
              FROM norm n JOIN g ON n.col_id = g.col_id)
        SELECT a.col_id AS a, b.col_id AS b, count(*) AS n
        FROM v a JOIN v b ON a.nval = b.nval AND a.grp = b.grp
        GROUP BY 1, 2
    """
    assert_equivalent(pair_counts_df(cells_df, GROUPS), sql, norm=_norm_pdf(cells_pdf))


def test_containment_matches_oracle(spark, counts_pdf, cells_pdf):
    """Directed containment computed from the Spark pair counts equals the
    set-algebra definition computed by DuckDB."""
    got = spark.createDataFrame(containment_pairs(counts_pdf))
    sql = f"""
        WITH {GROUPS_SQL},
        v AS (SELECT DISTINCT n.col_id, n.nval, g.grp
              FROM norm n JOIN g ON n.col_id = g.col_id),
        cards AS (SELECT col_id, count(*) AS card FROM v GROUP BY 1),
        inter AS (
          SELECT a.col_id AS a, b.col_id AS b, count(*) AS n_inter
          FROM v a JOIN v b ON a.nval = b.nval AND a.grp = b.grp
          WHERE a.col_id <> b.col_id GROUP BY 1, 2)
        SELECT i.a, i.b, ca.card AS card_a, cb.card AS card_b,
               i.n_inter * 1.0 / ca.card AS containment
        FROM inter i
        JOIN cards ca ON ca.col_id = i.a
        JOIN cards cb ON cb.col_id = i.b
    """
    assert_equivalent(got, sql, norm=_norm_pdf(cells_pdf))


def test_containment_values(counts_pdf):
    pairs = containment_pairs(counts_pdf).set_index(["a", "b"])
    # A={acme corp, beta inc, gamma llc}, B={acme corp, beta inc, delta co, eps}
    assert pairs.loc[("A", "B"), "containment"] == pytest.approx(2 / 3)
    assert pairs.loc[("B", "A"), "containment"] == pytest.approx(2 / 4)
    assert pairs.loc[("A", "B"), ["card_a", "card_b"]].tolist() == [3, 4]
    # C is alone in its group → no pairs, though it shares "acme corp".
    assert not [i for i in pairs.index if "C" in i]


@pytest.mark.parametrize(
    "containment,ca,cb,expected",
    [
        (0.9, 100, 100, "High"),
        (0.8, 100, 350, "High"),
        (0.8, 100, 500, "Good"),  # card proportion 5 > 4
        (0.6, 100, 100, "Good"),
        (0.6, 100, 900, "None"),  # proportion 9 > 8
        (0.4, 100, 100, "None"),
        (0.75, 100, 400, "High"),  # boundary: prop exactly 4
        (0.5, 100, 800, "Good"),  # boundary: prop exactly 8
    ],
)
def test_quality_label(containment, ca, cb, expected):
    assert quality_label(containment, ca, cb) == expected


def test_label_pairs_adds_column():
    pdf = pd.DataFrame(
        {
            "a": ["x"], "b": ["y"], "card_a": [10], "card_b": [12],
            "containment": [0.9],
        }
    )
    out = label_pairs(pdf)
    assert out["quality"].tolist() == ["High"]


def test_build_queries_xs(xs_corpus):
    spec, wh = xs_corpus
    queries = build_queries(wh)
    assert queries == spec.queries
    assert all(q.answers for q in queries)
    assert all(q.column not in q.answers for q in queries)


@pytest.fixture(scope="module")
def xs_labels(spark, xs_corpus):
    """``build_queries`` on the XS corpus and the Spark jobs it ran."""
    _, wh = xs_corpus
    with spark_jobs(spark) as jobs:
        queries = build_queries(wh)
    return queries, jobs


def test_build_queries_job_count(xs_labels):
    """One pass: a distinct, two groupBys and the collect, with no joins."""
    _, jobs = xs_labels
    assert 0 < len(jobs) <= 6


def test_build_queries_matches_duckdb_reference(xs_labels, xs_corpus):
    """The whole labeler equals set-algebra containment over Python-
    normalized distinct values, computed by DuckDB, then ``quality_label``."""
    spec, wh = xs_corpus
    vals = pd.DataFrame(
        [
            (t.col_id(c.name), c.domain, normalize(v))
            for t in spec.tables
            for c in t.columns
            if c.kind == "entity"
            for v in wh.table_pdf(t.table_id)[c.name]
        ],
        columns=["col_id", "grp", "nval"],
    )
    sql = """
        WITH v AS (SELECT DISTINCT col_id, grp, nval FROM vals WHERE nval <> ''),
        cards AS (SELECT col_id, count(*) AS card FROM v GROUP BY 1),
        inter AS (
          SELECT a.col_id AS a, b.col_id AS b, count(*) AS n_inter
          FROM v a JOIN v b ON a.nval = b.nval AND a.grp = b.grp
          WHERE a.col_id <> b.col_id GROUP BY 1, 2)
        SELECT i.a, i.b, ca.card AS card_a, cb.card AS card_b,
               i.n_inter::DOUBLE / ca.card AS containment
        FROM inter i
        JOIN cards ca ON ca.col_id = i.a
        JOIN cards cb ON cb.col_id = i.b
    """
    con = duckdb.connect()
    try:
        con.register("vals", vals)
        ref = con.execute(sql).fetchall()
    finally:
        con.close()
    answers: dict[str, set[str]] = {}
    for a, b, card_a, card_b, containment in ref:
        if quality_label(containment, card_a, card_b) != "None":
            answers.setdefault(a, set()).add(b)
    members = sorted(
        t.col_id(c.name)
        for t in spec.tables
        for c in t.columns
        if c.kind == "entity" and c.group is not None
    )
    expected = [QuerySpec(c, frozenset(answers[c])) for c in members if c in answers]
    queries, _ = xs_labels
    assert expected and queries == expected


# -- edge cases: columns built from literal values --

EDGE_VALUES = {
    # Hostile names in a dotted table: paired by id, never parsed.
    "a.b": ["Alpha", "beta", "Gamma", "delta"],
    "o'brien": ["ALPHA", "beta!", "gamma", "zeta"],
    "nulls": [None] * 4,
    "dashes": ["--", "..", "--", "-"],
}


def _warehouse(monkeypatch, spark, universe, tables):
    """A Warehouse over literal columns: ``{(db, name): {col: (values, spec)}}``."""
    frames = {}
    specs = []
    for (db, name), cols in tables.items():
        t = TableSpec(
            db=db,
            name=name,
            n_rows=len(next(iter(cols.values()))[0]),
            columns=tuple(c for _, c in cols.values()),
        )
        frames[t.table_id] = pd.DataFrame(
            {col: pd.Series(v, dtype="object") for col, (v, _) in cols.items()}
        )
        specs.append(t)
    monkeypatch.setattr(tablegen, "materialize_table", lambda t, *_: frames[t.table_id])
    return Warehouse(spark, CorpusSpec(name="edge", tables=specs), universe)


@pytest.fixture(scope="module")
def edge_wh(spark, universe):
    def ent(name, domain):
        return ColumnSpec(name=name, kind="entity", domain=domain, group=0)

    with pytest.MonkeyPatch.context() as mp:
        return _warehouse(
            mp,
            spark,
            universe,
            {
                ("db", "t.dotted"): {
                    name: (vals, ent(name, "d0")) for name, vals in EDGE_VALUES.items()
                },
                # A single-column group with values shared by group d0.
                ("db", "solo"): {"c": (EDGE_VALUES["a.b"], ent("c", "d1"))},
            },
        )


def test_edge_pair_counts(edge_wh):
    """All-null and all-punctuation columns have no values, so no pairs;
    the single-column group pairs only with itself."""
    groups = {cid: c.domain for cid, (_, c) in edge_wh.column_map.items()}
    counts = pair_counts_df(edge_wh.cells_long_df(), groups).toPandas()
    got = {(a, b): n for a, b, n in zip(counts["a"], counts["b"], counts["n"])}
    ab, ob, solo = "db.t.dotted.a.b", "db.t.dotted.o'brien", "db.solo.c"
    assert got == {
        (ab, ab): 4, (ob, ob): 4, (ab, ob): 3, (ob, ab): 3, (solo, solo): 4,
    }


def test_edge_build_queries(edge_wh):
    ab, ob = "db.t.dotted.a.b", "db.t.dotted.o'brien"
    assert build_queries(edge_wh) == [
        QuerySpec(ab, frozenset({ob})),
        QuerySpec(ob, frozenset({ab})),
    ]


def test_no_entity_columns(monkeypatch, spark, universe):
    wh = _warehouse(
        monkeypatch,
        spark,
        universe,
        {("db", "t"): {"x": ([1.5, 2.5], ColumnSpec(name="x", kind="numeric"))}},
    )
    assert build_queries(wh) == []


def test_answers_are_symmetricish(xs_corpus):
    """If B answers A with High containment both ways, A should answer B
    too for most pairs (sanity of the directed labeling)."""
    spec, _ = xs_corpus
    amap = {q.column: q.answers for q in spec.queries}
    back = 0
    total = 0
    for q in spec.queries:
        for b in q.answers:
            if b in amap:
                total += 1
                back += q.column in amap[b]
    assert total > 0 and back / total > 0.7


def test_hard_negatives_not_answers(xs_corpus):
    """Same-domain disjoint-slice columns must be excluded by labeling."""
    spec, _ = xs_corpus
    hn_cols = {
        t.col_id(c.name)
        for t in spec.tables
        for c in t.columns
        if c.kind == "entity" and c.group is None and c.pool_lo >= 0.85
    }
    assert hn_cols
    for q in spec.queries:
        assert not (q.answers & hn_cols)
