"""Generic synthetic-corpus machinery: specs, materialization, warehouse.

A corpus is described declaratively (``CorpusSpec`` → ``TableSpec`` →
``ColumnSpec``) and materialized deterministically from seeds. The
materialized corpus is exposed as a :class:`Warehouse`: a set of Spark
DataFrames registered per table — the stand-in for a cloud data
warehouse. Column ids resolve to their table and column name through
one map built from the spec (:meth:`CorpusSpec.column_map`), never by
parsing the id. Discovery systems pull query columns out of the
warehouse with :func:`repro.core.sampling.load_column`, so "data
loading" cost is paid the same way the paper pays it (pulling a column
out of the CDW), and row sampling short-circuits that cost exactly as
§3.1.3 describes.

Column kinds:

* ``entity``  — values drawn from a slice of a domain's entity pool and
  rendered with a formatting variant. Join-ability lives here.
* ``numeric`` / ``date`` — distractors (and fodder for D3L's
  distribution signal).
* ``id`` — unique hex surrogate keys (syntactic distractors).
* ``text`` — free-text noise built from random domain words.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import Column, DataFrame, SparkSession

from repro.corpus.domains import FORMATS, DomainUniverse

# Generic filler vocabulary for free-text columns. Mixing these in keeps
# a text column's embedding off any single domain's centroid — free text
# *mentions* entities, it is not a join key (and should not outrank one).
_STOPWORDS = [
    "the", "total", "active", "status", "type", "value", "new", "old",
    "main", "report", "summary", "pending", "open", "closed", "review",
    "note", "update", "draft", "final", "misc",
]


@dataclass(frozen=True)
class ColumnSpec:
    """Declarative description of one generated column."""

    name: str
    kind: str  # 'entity' | 'numeric' | 'date' | 'id' | 'text'
    domain: str | None = None  # entity/text columns: domain name
    fmt: str = "identity"
    group: int | None = None  # join-group id; None = distractor
    pool_lo: float = 0.0  # slice of the domain pool this column draws from
    pool_hi: float = 1.0
    null_frac: float = 0.0


@dataclass(frozen=True)
class TableSpec:
    db: str
    name: str
    n_rows: int
    columns: tuple[ColumnSpec, ...]

    def col_id(self, col: str) -> str:
        return f"{self.db}.{self.name}.{col}"

    @property
    def table_id(self) -> str:
        return f"{self.db}.{self.name}"


@dataclass(frozen=True)
class QuerySpec:
    """A query column and its ground-truth joinable answers (col_ids)."""

    column: str
    answers: frozenset[str]


@dataclass
class CorpusSpec:
    name: str
    tables: list[TableSpec]
    queries: list[QuerySpec] = field(default_factory=list)
    seed: int = 0

    @property
    def n_tables(self) -> int:
        return len(self.tables)

    @property
    def n_columns(self) -> int:
        return sum(len(t.columns) for t in self.tables)

    @property
    def avg_rows(self) -> float:
        return float(np.mean([t.n_rows for t in self.tables])) if self.tables else 0.0

    @property
    def avg_answers(self) -> float:
        if not self.queries:
            return float("nan")
        return float(np.mean([len(q.answers) for q in self.queries]))

    def column_ids(self) -> list[str]:
        return [t.col_id(c.name) for t in self.tables for c in t.columns]

    def column_map(self) -> dict[str, tuple[TableSpec, ColumnSpec]]:
        """``col_id → (table, column)``: the one resolution of a column id.

        Ids join names with dots, so distinct names can share an id
        (table ``db.t`` + column ``a.b`` vs table ``db.t.a`` + column
        ``b``); that raises ``ValueError`` instead of resolving to either.
        """
        out: dict[str, tuple[TableSpec, ColumnSpec]] = {}
        table_ids: set[str] = set()
        for t in self.tables:
            if t.table_id in table_ids:
                raise ValueError(f"duplicate table id {t.table_id!r}")
            table_ids.add(t.table_id)
            for c in t.columns:
                cid = t.col_id(c.name)
                if cid in out:
                    raise ValueError(f"ambiguous column id {cid!r}")
                out[cid] = (t, c)
        return out

    def column_spec(self, col_id: str) -> ColumnSpec:
        return self.column_map()[col_id][1]


def quote_ident(name: str) -> str:
    """Backtick-quote a Spark column name, doubling embedded backticks."""
    return "`" + name.replace("`", "``") + "`"


def _col_seed(corpus_seed: int, table_id: str, col: str) -> int:
    import zlib

    return corpus_seed ^ zlib.crc32(f"{table_id}.{col}".encode())


def column_distinct_pool(
    spec: ColumnSpec, universe: DomainUniverse, n_rows: int
) -> list[str]:
    """The formatted distinct-value pool an entity column draws rows from.

    The *effective* pool is a prefix of the domain pool sized ~n_rows/3,
    so that uniform sampling realizes ~95% of it regardless of scale;
    ``pool_lo``/``pool_hi`` then slice the effective pool by fraction.
    This keeps containment between overlapping slices scale-invariant —
    ground-truth labels stay stable from unit-test to benchmark scale.
    """
    dom = universe.by_name(spec.domain)
    pool = dom.pool()
    n_eff = min(len(pool), max(12, n_rows // 3))
    base = pool[:n_eff]
    lo = int(spec.pool_lo * n_eff)
    hi = max(lo + 1, int(spec.pool_hi * n_eff))
    fmt = FORMATS[spec.fmt]
    return [fmt(v) for v in base[lo:hi]]


def materialize_column(
    spec: ColumnSpec, n_rows: int, universe: DomainUniverse, seed: int
) -> pd.Series:
    """Deterministically generate one column of ``n_rows`` values."""
    g = np.random.default_rng(seed)
    if spec.kind == "entity":
        values = np.array(column_distinct_pool(spec, universe, n_rows), dtype=object)
        out = pd.Series(values[g.integers(0, len(values), n_rows)], dtype="object")
    elif spec.kind == "numeric":
        scale = 10.0 ** int(g.integers(0, 5))
        out = pd.Series((g.lognormal(0.0, 1.0, n_rows) * scale).round(3))
    elif spec.kind == "date":
        start = np.datetime64("2015-01-01")
        out = pd.Series(start + g.integers(0, 3000, n_rows).astype("timedelta64[D]"))
        out = out.astype(str)
    elif spec.kind == "id":
        base = g.integers(0, 1 << 30)
        out = pd.Series([f"{(base + i) & 0xFFFFFFFF:08x}" for i in range(n_rows)])
    elif spec.kind == "text":
        dom = universe.by_name(spec.domain)
        # ~60% filler words, ~40% domain words: related to the domain but
        # far from its centroid (free text mentions entities, it is not
        # a join key).
        lex = np.array(
            list(dom.lexicon)
            + _STOPWORDS * max(1, round(1.5 * len(dom.lexicon) / len(_STOPWORDS))),
            dtype=object,
        )
        # Vectorized 3–8-word sentences: draw a (n_rows, 8) word matrix,
        # then blank out the tail beyond each row's length.
        words = lex[g.integers(0, len(lex), (n_rows, 8))]
        lens = g.integers(3, 9, n_rows)
        parts = [
            np.where(lens > j, words[:, j], "") for j in range(8)
        ]
        joined = parts[0]
        for p in parts[1:]:
            joined = np.char.add(
                joined.astype(str), np.where(p == "", "", np.char.add(" ", p.astype(str)))
            )
        out = pd.Series(joined)
    else:  # pragma: no cover - spec construction guards this
        raise ValueError(f"unknown column kind {spec.kind!r}")
    if spec.null_frac > 0:
        mask = g.random(n_rows) < spec.null_frac
        out = out.mask(mask, None)
    return out


def materialize_table(
    spec: TableSpec, universe: DomainUniverse, corpus_seed: int
) -> pd.DataFrame:
    """Generate the full pandas frame for one table spec."""
    data = {
        c.name: materialize_column(
            c, spec.n_rows, universe, _col_seed(corpus_seed, spec.table_id, c.name)
        )
        for c in spec.columns
    }
    return pd.DataFrame(data)


class Warehouse:
    """The materialized corpus, exposed as Spark DataFrames per table.

    ``column_map`` (built once from the spec) resolves a col_id to its
    table and column; :func:`repro.core.sampling.load_column` reads one
    column through it and :meth:`cells_long_df` unpivots the corpus for
    index builds. Construction raises ``ValueError`` if two columns
    share a col_id.
    """

    def __init__(
        self, spark: SparkSession, spec: CorpusSpec, universe: DomainUniverse
    ) -> None:
        self.spark = spark
        self.spec = spec
        self.universe = universe
        self.column_map = spec.column_map()
        self._dfs: dict[str, DataFrame] = {}
        self._pdfs: dict[str, pd.DataFrame] = {}
        # Per table, col_id → the (id, value) pair ``stack`` takes for that
        # column. Built once: each Column costs py4j round trips, which
        # rebuilding per call would add to every index build.
        self._stack_args: dict[str, dict[str, tuple[Column, Column]]] = {}
        for t in spec.tables:
            pdf = materialize_table(t, universe, spec.seed)
            self._pdfs[t.table_id] = pdf
            self._dfs[t.table_id] = spark.createDataFrame(pdf)
            self._stack_args[t.table_id] = {
                t.col_id(c.name): (
                    F.lit(t.col_id(c.name)),
                    F.col(quote_ident(c.name)).cast("string"),
                )
                for c in t.columns
            }

    @property
    def tables(self) -> dict[str, DataFrame]:
        return dict(self._dfs)

    def table_df(self, table_id: str) -> DataFrame:
        return self._dfs[table_id]

    def table_pdf(self, table_id: str) -> pd.DataFrame:
        """Driver-side frame — for tests/oracle only, not system paths."""
        return self._pdfs[table_id]

    def cells_long_df(
        self,
        *,
        sample: int | None = None,
        include_columns: set[str] | None = None,
    ) -> DataFrame:
        """Long-format ``(col_id, value)`` DataFrame over the corpus.

        Built with one ``stack`` generator per table over literal ids and
        quoted column references (no SQL text), then unioned — the
        indexing pipeline's input. Sampling limits rows per table *before*
        unpivoting, mirroring sampled profiling. ``include_columns``
        restricts the unpivot to the given col_ids (cheaper than stacking
        everything and filtering after).
        """
        parts: list[DataFrame] = []
        for t in self.spec.tables:
            args = [
                arg
                for cid, pair in self._stack_args[t.table_id].items()
                if include_columns is None or cid in include_columns
                for arg in pair
            ]
            if not args:
                continue
            df = self._dfs[t.table_id]
            if sample is not None:
                df = df.limit(sample)
            stacked = F.stack(F.lit(len(args) // 2), *args)
            parts.append(df.select(stacked.alias("col_id", "value")))
        if not parts:
            return self.spark.createDataFrame([], "col_id string, value string")
        out = parts[0]
        for p in parts[1:]:
            out = out.unionAll(p)
        return out

    def entity_column_ids(self) -> list[str]:
        return [
            t.col_id(c.name)
            for t in self.spec.tables
            for c in t.columns
            if c.kind == "entity"
        ]
