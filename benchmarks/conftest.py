"""Benchmark fixtures: bench-scale corpora and pre-indexed systems.

Bench scale (see DESIGN.md §4): ``rows_scale`` defaults to
``repro.eval.experiments.BENCH_ROWS_SCALE``, which keeps the paper's
~15x S→M average-row ratio (testbedS ≈ 1k rows/table, testbedM ≈ 16k
rows/table) while fitting a 16-core local Spark. Override with
``REPRO_BENCH_ROWS_SCALE`` / ``REPRO_BENCH_SIZE_SCALE`` /
``REPRO_BENCH_MAX_QUERIES``.

Index builds are session fixtures — the paper's Table 2 measures *query*
time against already-built indexes, so builds are setup, not benchmark
body.
"""
from __future__ import annotations

import os

import pytest

from repro.eval import experiments
from repro.eval.experiments import ExperimentContext

BENCH_ROWS_SCALE = float(
    os.environ.get("REPRO_BENCH_ROWS_SCALE", experiments.BENCH_ROWS_SCALE)
)
BENCH_SIZE_SCALE = float(
    os.environ.get("REPRO_BENCH_SIZE_SCALE", experiments.BENCH_SIZE_SCALE)
)
BENCH_MAX_QUERIES = int(os.environ.get("REPRO_BENCH_MAX_QUERIES", "20"))


@pytest.fixture(scope="session")
def bench_ctx(spark):
    return ExperimentContext(
        spark=spark, rows_scale=BENCH_ROWS_SCALE, size_scale=BENCH_SIZE_SCALE
    )


def _indexed_systems(ctx, dataset):
    spec, wh = ctx.corpus(dataset)
    systems = ctx.systems()
    for s in systems.values():
        s.build_index(wh)
    return spec, wh, systems


@pytest.fixture(scope="session")
def indexed_s(bench_ctx):
    """(spec, warehouse, indexed systems) for testbedS at bench scale."""
    return _indexed_systems(bench_ctx, "S")


@pytest.fixture(scope="session")
def indexed_m(bench_ctx):
    """(spec, warehouse, indexed systems) for testbedM at bench scale."""
    return _indexed_systems(bench_ctx, "M")
