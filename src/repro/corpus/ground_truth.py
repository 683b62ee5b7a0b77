"""Join-quality ground truth: normalized containment labeling in Spark.

NextiaJD (Flores et al., EDBT 2021) labels attribute pairs with a join
*quality* derived from containment and cardinality proportion; the paper
uses pairs labeled Good and High as ground truth. We reproduce that
labeler over our synthetic corpora, with one twist that matches
WarpGate's problem statement: containment is computed over **normalized
values** (case/punctuation/format-folded, see ``tokenizer.normalize``),
because the paper's notion of joinability explicitly includes columns
that "can be transformed to become joinable".

Thresholds (documented in DESIGN.md §6): a directed pair (query A,
candidate B) is

* **High** — containment(A, B) ≥ 0.75 and cardinality proportion ≤ 4,
* **Good** — containment(A, B) ≥ 0.50 and cardinality proportion ≤ 8,

where containment(A, B) = |distinct(A) ∩ distinct(B)| / |distinct(A)|
and cardinality proportion = max(|A|,|B|) / min(|A|,|B|) on distinct
normalized values.

Pairs are restricted to candidate column groups (columns sharing an
entity domain — cross-domain containment is structurally ~0 in the
generators, which tests verify by sampling). One Spark pass with no join
counts them: each normalized value's set of same-group columns is
exploded to its ordered pairs, diagonal included, so ``n(A, B) = |A∩B|``
and ``n(A, A) = |A|``. Tests oracle-check the results against DuckDB.
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


def normalized_df(cells: DataFrame, groups: dict[str, str]) -> DataFrame:
    """``(grp, nval, col_id)`` for each distinct ``(col_id, value)`` cell.

    ``groups`` maps every col_id in ``cells`` to its candidate group.
    Raw-value dedup runs *first* (native Spark, cheap), so the Python
    normalizer only touches each column's distinct values. Values that
    normalize to ``""`` (nulls, punctuation) are dropped; distinct raw
    values of one column may share a normalized value.
    """

    def _norm(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            out = pd.DataFrame(
                {
                    "grp": pdf["col_id"].map(groups),
                    "nval": [normalize(v) for v in pdf["value"]],
                    "col_id": pdf["col_id"],
                }
            )
            yield out[out["nval"] != ""]

    return cells.distinct().mapInPandas(
        _norm, schema="grp string, nval string, col_id string"
    )


def pair_counts_df(cells: DataFrame, groups: dict[str, str]) -> DataFrame:
    """``(a, b, n)``: distinct normalized values shared by columns a and b.

    One row per ordered pair of same-group columns sharing at least one
    value, the diagonal included: ``n(a, b) = |A ∩ B|`` and
    ``n(a, a) = |A|``.
    """
    cols = (
        normalized_df(cells, groups)
        .groupBy("grp", "nval")
        .agg(F.collect_set("col_id").alias("cols"))
    )
    return (
        cols.select(F.explode("cols").alias("a"), "cols")
        .select("a", F.explode("cols").alias("b"))
        .groupBy("a", "b")
        .agg(F.count("*").alias("n"))
    )


def containment_pairs(counts: pd.DataFrame) -> pd.DataFrame:
    """``(a, b, card_a, card_b, containment)`` for a ≠ b from pair counts.

    ``card(a)`` is the diagonal count ``n(a, a)``.
    """
    diag = counts["a"] == counts["b"]
    card = counts[diag].set_index("a")["n"]
    pairs = counts[~diag].reset_index(drop=True)
    card_a, card_b = pairs["a"].map(card), pairs["b"].map(card)
    return pd.DataFrame(
        {
            "a": pairs["a"],
            "b": pairs["b"],
            "card_a": card_a,
            "card_b": card_b,
            "containment": pairs["n"] / card_a,
        }
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
    """Add the ``quality`` column to a containment frame."""
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
    ent_cols = [
        (t.col_id(c.name), c.domain, c.group)
        for t in warehouse.spec.tables
        for c in t.columns
        if c.kind == "entity"
    ]
    groups = {cid: dom for cid, dom, _ in ent_cols}
    cells = warehouse.cells_long_df(include_columns=set(groups))
    counts = pair_counts_df(cells, groups).toPandas()
    pairs = label_pairs(containment_pairs(counts))
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
