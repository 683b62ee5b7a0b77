"""Join-quality ground truth: normalized containment labeling in Spark.

NextiaJD (Flores et al., EDBT 2021) labels attribute pairs with a join
*quality* derived from containment and cardinality proportion; the paper
uses pairs labeled Good and High as ground truth. We reproduce that
labeler over our synthetic corpora, with one twist that matches
WarpGate's problem statement: containment is computed over **normalized
values** (case/punctuation/format-folded, see ``tokenizer.normalize``),
because the paper's notion of joinability explicitly includes columns
that "can be transformed to become joinable".

Thresholds (documented in DESIGN.md §3): a directed pair (query A,
candidate B) is

* **High** — containment(A, B) ≥ 0.75 and cardinality proportion ≤ 4,
* **Good** — containment(A, B) ≥ 0.50 and cardinality proportion ≤ 8,

where containment(A, B) = |distinct(A) ∩ distinct(B)| / |distinct(A)|
and cardinality proportion = max(|A|,|B|) / min(|A|,|B|) on distinct
normalized values.

The pairwise computation is a Spark self-join restricted to candidate
column groups (columns sharing an entity domain — cross-domain
containment is structurally ~0 in the generators, which tests verify by
sampling). Tests oracle-check the Spark results against DuckDB.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
import pyspark.sql.functions as F

from repro.corpus.tablegen import QuerySpec, Warehouse
from repro.embed_model.tokenizer import normalize

GOOD_CONTAINMENT = 0.50
HIGH_CONTAINMENT = 0.75
GOOD_CARD_PROP = 8.0
HIGH_CARD_PROP = 4.0


def normalized_distinct_df(cells: DataFrame) -> DataFrame:
    """``(col_id, nval)`` distinct normalized values from a long cells frame.

    Raw-value dedup runs *first* (native Spark, cheap), so the Python
    normalizer only touches each column's distinct values — orders of
    magnitude fewer cells than the raw frame for key-like columns.
    """

    def _norm(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            out = pd.DataFrame(
                {
                    "col_id": pdf["col_id"],
                    "nval": [normalize(v) for v in pdf["value"]],
                }
            )
            yield out[out["nval"] != ""]

    return (
        cells.distinct()
        .mapInPandas(_norm, schema="col_id string, nval string")
        .distinct()
    )


def containment_df(distinct_vals: DataFrame, groups: DataFrame) -> DataFrame:
    """Directed containment for all intra-group column pairs.

    ``distinct_vals``: ``(col_id, nval)``; ``groups``: ``(col_id, grp)``
    mapping columns to candidate groups (e.g. shared entity domain).
    Returns ``(a, b, card_a, card_b, containment)`` for a ≠ b in the
    same group, where ``containment = |A∩B| / |A|``.
    """
    v = distinct_vals.join(groups, "col_id")
    cards = v.groupBy("col_id").agg(F.count("*").alias("card"))
    a = v.select(
        F.col("col_id").alias("a"), F.col("grp").alias("grp_a"), "nval"
    )
    b = v.select(
        F.col("col_id").alias("b"), F.col("grp").alias("grp_b"), "nval"
    )
    inter = (
        a.join(b, (a["nval"] == b["nval"]) & (F.col("grp_a") == F.col("grp_b")))
        .where(F.col("a") != F.col("b"))
        .groupBy("a", "b")
        .agg(F.count("*").alias("n_inter"))
    )
    return (
        inter.join(cards.withColumnRenamed("col_id", "a").withColumnRenamed("card", "card_a"), "a")
        .join(cards.withColumnRenamed("col_id", "b").withColumnRenamed("card", "card_b"), "b")
        .select(
            "a",
            "b",
            "card_a",
            "card_b",
            (F.col("n_inter") / F.col("card_a")).alias("containment"),
        )
    )


def quality_label(containment: float, card_a: int, card_b: int) -> str:
    """NextiaJD-style quality class for one directed pair."""
    prop = max(card_a, card_b) / max(1, min(card_a, card_b))
    if containment >= HIGH_CONTAINMENT and prop <= HIGH_CARD_PROP:
        return "High"
    if containment >= GOOD_CONTAINMENT and prop <= GOOD_CARD_PROP:
        return "Good"
    return "None"


def label_pairs(pairs: pd.DataFrame) -> pd.DataFrame:
    """Add the ``quality`` column to a collected containment frame."""
    pairs = pairs.copy()
    pairs["quality"] = [
        quality_label(c, ca, cb)
        for c, ca, cb in zip(pairs["containment"], pairs["card_a"], pairs["card_b"])
    ]
    return pairs


def build_queries(
    warehouse: Warehouse, *, query_columns: list[str] | None = None
) -> list[QuerySpec]:
    """Compute ground-truth answer sets for a corpus.

    Candidate groups = entity-domain membership from the spec (labeling
    then decides, per realized data, which same-domain pairs actually
    qualify — including demoting low-overlap "hard negative" slices).
    Queries default to group-member entity columns with ≥1 answer.
    """
    spec = warehouse.spec
    ent_cols = [
        (t.col_id(c.name), c.domain, c.group)
        for t in spec.tables
        for c in t.columns
        if c.kind == "entity"
    ]
    groups_pdf = pd.DataFrame(
        [(cid, dom) for cid, dom, _ in ent_cols], columns=["col_id", "grp"]
    )
    spark = warehouse.spark
    ent_ids = set(groups_pdf["col_id"])
    cells = warehouse.cells_long_df(include_columns=ent_ids)
    # Cache the normalized distinct values: the containment self-join
    # reads them on both sides, and recomputing means re-running the
    # Python normalizer over every cell twice more.
    dv = normalized_distinct_df(cells).persist()
    try:
        pairs = containment_df(dv, spark.createDataFrame(groups_pdf)).toPandas()
    finally:
        dv.unpersist()
    pairs = label_pairs(pairs)
    answers: dict[str, set[str]] = {}
    for a, b, q in zip(pairs["a"], pairs["b"], pairs["quality"]):
        if q in ("Good", "High"):
            answers.setdefault(a, set()).add(b)
    if query_columns is None:
        query_columns = [cid for cid, _, grp in ent_cols if grp is not None]
    return [
        QuerySpec(column=c, answers=frozenset(answers.get(c, set())))
        for c in sorted(query_columns)
        if answers.get(c)
    ]
