"""WarpGate benchmark: set-up time, per-query latency and recall@10.

Run from the repository root::

    python3 perfbench/run.py --workload wide_full --seed 1 --seconds 5 --trace 0

One run builds a NextiaJD-lite corpus from ``--seed``, labels its ground
truth, and indexes it with four systems through their public
``build_index``: WarpGate, D3L, Aurum, and WarpGate over the BERT-like
model at ``sample=100`` (the §4.4 interactive configuration). It then
sends queries through each system's public ``query`` in a closed loop:
one client in one process, Spark ``local[N]`` with N = min(4, cores),
each query column to every system in turn. Every result is checked; a
failed check or an exception counts as a failed query and never stops
the run.

``--trace 0`` measures end to end and prints the ``end_to_end`` metrics
of ``BENCHMARK.json``. ``--trace 1`` is a separate run that times calls
into each layer's public functions from this file and prints the
``per_layer`` metrics, including the tracing overhead (traced minus
untraced WarpGate e2e, measured alternately in the same process).

The second-to-last stdout line is a report: the environment, every
set-up phase time, and p50, p95 and sample count of every query timing
(the p95s are not registered metrics: a run holds too few samples for
them to repeat). The last line is the result
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
when every check passed and 1 when one failed.
"""
from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path[:0] = [str(ROOT), str(SRC)]

import numpy as np  # noqa: E402
import pyarrow  # noqa: E402
import pyspark  # noqa: E402
from pyspark import SparkContext  # noqa: E402

from jobs._common import make_spark  # noqa: E402
from repro.baselines.aurum import Aurum  # noqa: E402
from repro.baselines.d3l import D3L, build_profile, profile_similarity  # noqa: E402
from repro.baselines.minhash import (  # noqa: E402
    collect_signatures,
    minhash_signatures_df,
    pairwise_jaccard,
    permutation_params,
)
from repro.core.embedding import embed_columns_df  # noqa: E402
from repro.core.sampling import load_column  # noqa: E402
from repro.core.simhash import SimHashIndex, signatures_df  # noqa: E402
from repro.core.warpgate import WarpGate, WarpGateConfig  # noqa: E402
from repro.corpus.ground_truth import build_queries  # noqa: E402
from repro.corpus.nextiajd import build_testbed_spec  # noqa: E402
from repro.corpus.tablegen import Warehouse  # noqa: E402
from repro.embed_model.bertlike import BertLikeModel  # noqa: E402
from repro.embed_model.pretrained import pretrained_model  # noqa: E402
from repro.embed_model.tokenizer import tokenize  # noqa: E402
from repro.eval.experiments import timed  # noqa: E402
from repro.eval.metrics import pr_curve  # noqa: E402

K = 10
BERT_SAMPLE = 100
SYSTEMS = ("wg", "d3l", "bert", "aurum")
# The untraced run builds these indexes SETUP_REPS times each, one round
# of all three after another, and reports the median: the first build of
# a process pays JIT start-up, and warm builds of one run still differ by
# up to a third. Corpus generation, labeling and the BERT-like build run
# once: repeating them too would take a run past a minute.
SETUP_REPS = 4
REPEATED_BUILDS = ("wg", "d3l", "aurum")
# Rounds of queries, one to each system, run before timing starts: the
# first Spark jobs of a process are several times slower than steady state.
WARMUP_QUERIES = 10
# The join structure of a corpus (which columns are joinable, in which
# formats) comes from this fixed seed; ``--seed`` draws the cell values
# and the query order. With ~10 queries per corpus, recall@10 would
# otherwise swing with the structure the generator happens to draw.
STRUCTURE_SEED = 17


@dataclass(frozen=True)
class Workload:
    testbed: str
    rows_scale: float
    size_scale: float


# Shapes come from the paper's testbedS (many columns in wide tables, few
# rows) and testbedM (~15x the rows per table); equal rows_scale keeps
# that ratio. Sizes are small because a run labels the corpus and builds
# four indexes, three of them SETUP_REPS times, and must end in about a
# minute; deep_full has fewer columns than wide_full for that reason.
WORKLOADS = {
    "wide_full": Workload("S", rows_scale=0.0002, size_scale=0.06),
    "deep_full": Workload("M", rows_scale=0.0002, size_scale=0.04),
}


class CheckFailed(Exception):
    """A query's result broke one of the benchmark's output checks."""


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# -- Spark -----------------------------------------------------------------


def start_spark():
    """The benchmark's Spark session; launch-time settings go first."""
    WORK.mkdir(exist_ok=True)
    tmp = str(WORK)
    os.environ["TMPDIR"] = tmp
    cores = min(4, os.cpu_count() or 1)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            "--driver-memory 2g",
            f"--driver-java-options {shlex.quote('-Djava.io.tmpdir=' + tmp)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf {shlex.quote('spark.local.dir=' + tmp)}",
            f"--conf {shlex.quote('spark.executorEnv.PYTHONPATH=' + str(SRC))}",
            "pyspark-shell",
        ]
    )
    spark = make_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    # The next session in this process launches a fresh JVM.
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- set-up ------------------------------------------------------------------


@dataclass
class Setup:
    spec: object
    wh: Warehouse
    systems: dict[str, object]
    phases: dict[str, list[float]]  # seconds of each set-up step, per repeat

    def median(self, phase: str) -> float:
        return p50(self.phases[phase])

    @property
    def total_s(self) -> float:
        """Set-up with each step once, at its median time."""
        return sum(self.median(phase) for phase in self.phases)


def make_systems(model) -> dict[str, object]:
    return {
        "wg": WarpGate(model=model),
        "d3l": D3L(model=model),
        "aurum": Aurum(),
        "bert": WarpGate(
            model=BertLikeModel(base=model),
            config=WarpGateConfig(sample=BERT_SAMPLE),
        ),
    }


def set_up(spark, model, w: Workload, seed: int) -> Setup:
    """Materialize and label the corpus, then build every index once."""
    spec, universe = build_testbed_spec(
        w.testbed,
        rows_scale=w.rows_scale,
        size_scale=w.size_scale,
        seed=STRUCTURE_SEED,
    )
    spec.seed = seed
    wh, materialize_s = timed(Warehouse, spark, spec, universe)
    spec.queries, label_s = timed(build_queries, wh)
    phases = {"materialize_s": [materialize_s], "label_s": [label_s]}
    s = Setup(spec, wh, make_systems(model), phases)
    rebuild(s, s.systems)
    return s


def rebuild(s: Setup, names) -> None:
    """Build the named systems' indexes, adding each time to its phase."""
    for name in names:
        s.phases.setdefault(f"{name}_build_s", []).append(
            timed(s.systems[name].build_index, s.wh)[1]
        )


# -- checks ------------------------------------------------------------------


def check_ranked(col: str, results, *, expect_len: int | None) -> None:
    """No self-match, descending scores, and the expected length."""
    ids = [r.col_id for r in results]
    if col in ids:
        raise CheckFailed(f"{col}: returned itself")
    scores = np.array([r.score for r in results], dtype=np.float64)
    if np.any(np.diff(scores) > 0):
        raise CheckFailed(f"{col}: scores not in descending order")
    if expect_len is None:
        if len(ids) > K:
            raise CheckFailed(f"{col}: {len(ids)} results for k={K}")
    elif len(ids) != expect_len:
        raise CheckFailed(f"{col}: {len(ids)} results, expected {expect_len}")


class WarpGateCheck:
    """Checks a WarpGate result against a recompute from its index.

    The reference vector of each query column is embedded up front, outside
    any timed window, from the same (possibly sampled) load the system does.
    """

    def __init__(self, wg: WarpGate, wh: Warehouse, cols: list[str]) -> None:
        idx = wg.index
        self.ids = list(idx.ids)
        self.pos = {cid: i for i, cid in enumerate(self.ids)}
        m = idx.matrix.astype(np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.unit = m / norms
        self.ref = {}
        for col in cols:
            values = load_column(wh, col, sample=wg.config.sample)
            v = np.asarray(wg.model.embed_values(values), dtype=np.float64)
            self.ref[col] = v / np.linalg.norm(v)

    def exact_top(self, col: str, k: int) -> list[str]:
        """Brute-force top-k by cosine over every indexed column."""
        scores = self.unit @ self.ref[col]
        if col in self.pos:
            scores[self.pos[col]] = -np.inf
        order = np.argsort(-scores, kind="stable")[:k]
        return [self.ids[i] for i in order]

    def __call__(self, col: str, results) -> None:
        n = len(self.pos)
        check_ranked(col, results, expect_len=min(K, n - (col in self.pos)))
        got = np.array([r.score for r in results], dtype=np.float64)
        rows = [self.pos[r.col_id] for r in results]
        want = self.unit[rows] @ self.ref[col]
        if not np.allclose(got, want, atol=1e-5):
            raise CheckFailed(f"{col}: scores are not the cosines of the ids")


def check_baseline(col: str, results) -> None:
    check_ranked(col, results, expect_len=None)


# -- closed loops ------------------------------------------------------------


@dataclass
class Loop:
    """What one system's closed loop saw."""

    attempted: int = 0
    failed: int = 0
    e2e_ms: list[float] = field(default_factory=list)
    lookup_ms: list[float] = field(default_factory=list)
    rankings: dict[str, list[str]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def record_failure(self, col: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{col}: {exc!r}")
            log(f"query failed: {col}: {exc!r}")
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)


def closed_loop(order: list[str], budget_s: float, step) -> None:
    """Call ``step(col, first_pass)`` back to back over ``order`` (cycled)
    until one full pass is done and ``budget_s`` is spent."""
    t_end = time.perf_counter() + budget_s
    i = 0
    while i < len(order) or time.perf_counter() < t_end:
        step(order[i % len(order)], first_pass=i < len(order))
        i += 1


def query_once(system, col: str, check, loop: Loop, first_pass: bool) -> None:
    """One checked, timed query; a failure is counted, never raised."""
    loop.attempted += 1
    try:
        t0 = time.perf_counter()
        results, timing = system.query(col, k=K)
        dt = time.perf_counter() - t0
        check(col, results)
    except Exception as exc:  # a failed query is counted, not fatal
        loop.record_failure(col, exc)
        return
    loop.e2e_ms.append(dt * 1e3)
    loop.lookup_ms.append(timing.lookup_s * 1e3)
    if first_pass:
        loop.rankings[col] = [r.col_id for r in results]


def recall_at_k(loop: Loop, queries) -> float:
    return pr_curve(loop.rankings, queries, [K])[0].recall


def p50(xs) -> float:
    """Median; NaN when every query of a system failed."""
    return float(statistics.median(xs)) if xs else math.nan


def summary(xs) -> dict:
    """p50, p95 and sample count of one timing, for the report."""
    if not xs:
        return {"p50": None, "p95": None, "n": 0}
    return {"p50": p50(xs), "p95": float(np.percentile(xs, 95)), "n": len(xs)}


# -- traced layers -------------------------------------------------------------


class Spans:
    """Per-layer durations and counts, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def timed(self, name: str, fn, *args, scale: float = 1e3, **kwargs):
        out, dt = timed(fn, *args, **kwargs)
        self.add(name, dt * scale)
        return out


def oov_stats(model, values) -> tuple[int, int, int]:
    """(distinct values, tokens, OOV tokens) as ``embed_values`` sees them."""
    distinct = {str(v): v for v in values}
    tokens = [t for v in distinct.values() for t in tokenize(v)]
    oov = sum(1 for t in tokens if t not in model.vocab)
    return len(distinct), len(tokens), oov


def trace_build(spark, model, s: Setup, spans: Spans) -> None:
    """Per-layer build timings, from calls into each layer's functions."""
    wh, wg = s.wh, s.systems["wg"]
    n_cols = s.spec.n_columns
    spans.add("corpus.columns", n_cols)
    spans.add("corpus.cells", sum(t.n_rows * len(t.columns) for t in s.spec.tables))
    spans.add("corpus.queries", len(s.spec.queries))

    # Collected rather than persisted: a cached plan keeps all 64 shuffle
    # partitions (AQE may not coalesce it), which triples the UDF cost.
    emb_rows = spans.timed(
        "wg_build.embed_s",
        embed_columns_df(spark, wh.cells_long_df(), model).collect,
        scale=1,
    )
    emb = spark.createDataFrame(emb_rows, "col_id string, embedding array<double>")
    idx = SimHashIndex(dim=model.dim, seed=wg.config.seed)
    rows = spans.timed(
        "wg_build.sign_collect_s",
        lambda: signatures_df(emb, idx.planes).collect(),
        scale=1,
    )
    ids = [r["col_id"] for r in rows]
    mat = np.array([r["embedding"] for r in rows], dtype=np.float32)
    sigs = np.array([r["sig"] for r in rows], dtype=bool)
    spans.timed("wg_build.bucket_s", idx.add_batch, ids, mat, sigs, scale=1)
    if sorted(idx.ids) != sorted(wg.index.ids):
        raise CheckFailed("traced WarpGate build indexed other columns")
    spans.add("wg_build.columns_embedded", len(emb_rows))
    spans.add("wg_build.columns_dropped", n_cols - len(emb_rows))
    distinct = tokens = oov = 0
    for t in s.spec.tables:
        pdf = wh.table_pdf(t.table_id)
        for c in t.columns:
            d, n, o = oov_stats(model, pdf[c.name].dropna().astype(str).tolist())
            distinct, tokens, oov = distinct + d, tokens + n, oov + o
    spans.add("wg_build.distinct_values", distinct)
    spans.add("wg_build.tokens", tokens)
    spans.add("wg_build.oov_frac", oov / max(1, tokens))

    bert = s.systems["bert"].model
    bert_emb = embed_columns_df(spark, wh.cells_long_df(sample=BERT_SAMPLE), bert)
    spans.timed("bert_build.embed_s", bert_emb.collect, scale=1)

    aurum = s.systems["aurum"]
    _, sigs = spans.timed(
        "aurum_build.minhash_s",
        lambda: collect_signatures(
            minhash_signatures_df(
                wh.cells_long_df(), n_perm=aurum.n_perm, seed=aurum.seed
            )
        ),
        scale=1,
    )
    spans.timed("aurum_build.jaccard_s", pairwise_jaccard, sigs, scale=1)
    spans.add("aurum_build.edges", sum(len(e) for e in aurum.graph.values()))


class QueryTracer:
    """The WarpGate, BERT-like and D3L query paths, one layer call at a time."""

    def __init__(self, spark, s: Setup, spans: Spans) -> None:
        self.sc = spark.sparkContext
        self.wh, self.spans = s.wh, spans
        self.wg, self.bert, self.d3l = (s.systems[n] for n in ("wg", "bert", "d3l"))
        cols = [q.column for q in s.spec.queries]
        self.check = WarpGateCheck(self.wg, s.wh, cols)
        self.bert_check = WarpGateCheck(self.bert, s.wh, cols)
        self.perm = permutation_params(self.d3l.n_perm, self.d3l.seed)

    def load(self, name: str, col: str, sample: int | None) -> list:
        """``load_column`` inside its own job group, counting its jobs."""
        group = f"perfbench-{uuid.uuid4().hex}"
        self.sc.setJobGroup(group, name)
        try:
            values = self.spans.timed(
                f"{name}.load_ms", load_column, self.wh, col, sample=sample
            )
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        jobs = len(self.sc.statusTracker().getJobIdsForGroup(group))
        if name == "query":
            self.spans.add("query.spark_jobs", jobs)
        return values

    def wg_query(self, col: str) -> float:
        """Traced WarpGate query; returns its e2e (load + embed + index) in ms."""
        sp, wg, idx = self.spans, self.wg, self.wg.index
        t0 = time.perf_counter()
        values = self.load("query", col, wg.config.sample)
        vec = sp.timed("query.embed_ms", wg.model.embed_values, values)
        results = sp.timed("query.index_ms", idx.query, np.asarray(vec), K, exclude={col})
        e2e_ms = (time.perf_counter() - t0) * 1e3
        self.check(col, results)

        # Outside the e2e window: repeat tokenize and probe on their own.
        distinct = list({str(v): v for v in values}.values())
        toks = sp.timed("query.tokenize_ms", lambda: [tokenize(v) for v in distinct])
        flat = [t for ts in toks for t in ts]
        sp.add("query.values", len(values))
        sp.add("query.distinct_values", len(distinct))
        sp.add("query.tokens", len(flat))
        sp.add("query.oov_frac", sum(t not in wg.model.vocab for t in flat) / max(1, len(flat)))
        unit = np.asarray(vec, dtype=np.float32)
        unit = unit / np.linalg.norm(unit)
        cand = sp.timed("query.probe_ms", idx.candidates, unit)
        sp.add("query.candidates", len(cand))
        sp.add("query.candidate_frac", len(cand) / len(idx.ids))
        sp.add("query.fallback_frac", float(len(cand) < K + 1))
        exact = set(self.check.exact_top(col, K))
        banded = [r.col_id for r in results]
        sp.add("query.lsh_recall_at_10", len(exact.intersection(banded)) / len(exact))
        return e2e_ms

    def bert_query(self, col: str) -> None:
        values = self.load("bert_query", col, self.bert.config.sample)
        vec = self.spans.timed("bert_query.embed_ms", self.bert.model.embed_values, values)
        self.bert_check(col, self.bert.index.query(np.asarray(vec), K, exclude={col}))

    def d3l_query(self, col: str) -> None:
        sp, d3l = self.spans, self.d3l
        values = self.load("d3l_query", col, None)
        qp = sp.timed("d3l_query.profile_ms", build_profile, col, values, d3l.model, *self.perm)
        scored = sp.timed(
            "d3l_query.score_ms",
            lambda: [
                (cid, profile_similarity(qp, prof))
                for cid, prof in d3l.profiles.items()
                if cid != col
            ],
        )
        sp.add("d3l_query.profiles_scored", len(scored))


# -- runs ----------------------------------------------------------------------


def query_order(queries, seed: int) -> list[str]:
    cols = [q.column for q in queries]
    return [cols[i] for i in np.random.default_rng(seed).permutation(len(cols))]


def warm_up(systems: dict, order: list[str]) -> None:
    for i in range(WARMUP_QUERIES):
        for name in SYSTEMS:
            try:
                systems[name].query(order[i % len(order)], k=K)
            except Exception:  # the timed loop sends it again and counts it
                pass


def run_untraced(spark, model, w, seed, seconds, report) -> tuple[dict, int, int]:
    boot_s = time.perf_counter() - _T_PROCESS
    s = set_up(spark, model, w, seed)
    queries = s.spec.queries
    order = query_order(queries, seed)
    warm_up(s.systems, order)
    loops = {name: Loop() for name in SYSTEMS}

    # The timed window is cut into SETUP_REPS slices, one after each round
    # of builds, and each slice sends every query to every system in turn.
    # Both spread each system's samples over most of the run, so that a
    # slow spell of the machine weighs on every metric alike and is
    # averaged over a longer time.
    for rep in range(SETUP_REPS):
        if rep:
            rebuild(s, REPEATED_BUILDS)
        checks = {
            "wg": WarpGateCheck(s.systems["wg"], s.wh, order),
            "bert": WarpGateCheck(s.systems["bert"], s.wh, order),
            "d3l": check_baseline,
            "aurum": check_baseline,
        }

        def step(col: str, first_pass: bool) -> None:
            for name, loop in loops.items():
                query_once(s.systems[name], col, checks[name], loop, first_pass)

        closed_loop(order, seconds / SETUP_REPS, step)
    log(f"set-up {s.phases}")

    attempted = sum(lp.attempted for lp in loops.values())
    failed = sum(lp.failed for lp in loops.values())
    m = {
        "setup_s": boot_s + s.total_s,
        "wg_build_s": s.median("wg_build_s"),
        "d3l_build_s": s.median("d3l_build_s"),
        "aurum_build_s": s.median("aurum_build_s"),
        "wg_e2e_p50_ms": p50(loops["wg"].e2e_ms),
        "wg_lookup_p50_ms": p50(loops["wg"].lookup_ms),
        "d3l_e2e_p50_ms": p50(loops["d3l"].e2e_ms),
        "bert_lookup_p50_ms": p50(loops["bert"].lookup_ms),
        "ok_frac": 1.0 - failed / max(1, attempted),
    }
    for name, loop in loops.items():
        m[f"{name}_recall_at_10"] = recall_at_k(loop, queries)
    report["boot_s"] = boot_s
    report["setup"] = s.phases
    report["queries"] = {n: lp.attempted for n, lp in loops.items()}
    report["timings_ms"] = {
        f"{n}_{kind}": summary(getattr(lp, f"{kind}_ms"))
        for n, lp in loops.items()
        for kind in ("e2e", "lookup")
    }
    report["errors"] = {n: lp.errors for n, lp in loops.items() if lp.errors}
    return m, attempted, failed


def run_traced(spark, model, w, seed, seconds, report) -> tuple[dict, int, int]:
    spans = Spans()
    s = set_up(spark, model, w, seed)
    spans.add("corpus.materialize_s", s.median("materialize_s"))
    spans.add("corpus.label_s", s.median("label_s"))
    trace_build(spark, model, s, spans)
    log(f"set-up {s.phases}")

    order = query_order(s.spec.queries, seed)
    wg = s.systems["wg"]
    warm_up(s.systems, order)
    tracer = QueryTracer(spark, s, spans)
    loop = Loop()
    untraced_ms: list[float] = []

    def wg_pair(col: str) -> None:
        t0 = time.perf_counter()
        results, _ = wg.query(col, k=K)
        untraced_ms.append((time.perf_counter() - t0) * 1e3)
        tracer.check(col, results)
        spans.add("trace.traced_e2e_ms", tracer.wg_query(col))

    def step(col: str, first_pass: bool) -> None:
        for fn in (wg_pair, tracer.d3l_query, tracer.bert_query):
            loop.attempted += 1
            try:
                fn(col)
            except Exception as exc:  # a failed query is counted, not fatal
                loop.record_failure(col, exc)

    closed_loop(order, seconds, step)

    traced_ms = spans.values.pop("trace.traced_e2e_ms", [])
    m = {name: p50(values) for name, values in spans.values.items()}
    m["trace.overhead_ms"] = p50(traced_ms) - p50(untraced_ms)
    report["trace"] = {"traced_e2e_ms": summary(traced_ms), "untraced_e2e_ms": summary(untraced_ms)}
    report["queries"] = {"traced": loop.attempted, "untraced_wg": len(untraced_ms)}
    report["errors"] = loop.errors
    return m, loop.attempted, loop.failed


def registered_units(trace: int) -> dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` registers them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(args, w: Workload, spark) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "cores": os.cpu_count(),
        "spark_master": spark.sparkContext.master,
        "mem_total_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": np.__version__,
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "testbed": w.testbed,
        "rows_scale": w.rows_scale,
        "size_scale": w.size_scale,
        "bert_sample": BERT_SAMPLE,
        "setup_reps": SETUP_REPS,
        "warmup_queries": WARMUP_QUERIES,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    units = registered_units(args.trace)
    spark = start_spark()
    try:
        model = pretrained_model(spark)
        report = {"env": environment(args, w, spark)}
        run = run_traced if args.trace else run_untraced
        values, attempted, failed = run(spark, model, w, args.seed, args.seconds, report)
    finally:
        stop_spark(spark)
        shutil.rmtree(WORK, ignore_errors=True)
    if set(values) - set(units):
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(set(values) - set(units))}")
    # A metric no query could measure (every query of a system failed) is
    # null, and makes the run incorrect.
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, math.nan)
        metrics[name] = {"value": value if math.isfinite(value) else None, "unit": unit}
    correct = (
        failed == 0 and attempted > 0 and all(m["value"] is not None for m in metrics.values())
    )
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
