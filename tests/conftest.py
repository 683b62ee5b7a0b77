"""Shared fixtures: trained model and small materialized corpora.

Also ``spark_jobs``, a context manager that counts the Spark jobs a
block runs. Every fixture here is session-scoped — corpus
materialization and model training are the expensive parts of the
suite, and every test module reads them immutably.
"""
from __future__ import annotations

import uuid
from contextlib import contextmanager

import pytest

from repro.baselines.aurum import Aurum
from repro.baselines.d3l import D3L
from repro.core.warpgate import WarpGate
from repro.corpus.domains import default_universe
from repro.corpus.nextiajd import build_testbed
from repro.corpus.sigma import build_sigma
from repro.corpus.spider import build_spider
from repro.embed_model.pretrained import pretrained_model


@contextmanager
def spark_jobs(spark):
    """Collect the ids of the Spark jobs that run inside the block.

    The block runs in its own job group; its job ids are read from the
    status tracker when it exits (``with spark_jobs(spark) as jobs:``).
    """
    sc = spark.sparkContext
    group = f"test-{uuid.uuid4().hex}"
    jobs: list[int] = []
    sc.setJobGroup(group, "spark_jobs")
    try:
        yield jobs
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        jobs.extend(sc.statusTracker().getJobIdsForGroup(group))


@pytest.fixture(scope="session")
def model(spark):
    """The cached 'pre-trained' web-table embedding model."""
    return pretrained_model(spark)


@pytest.fixture(scope="session")
def universe():
    return default_universe()


@pytest.fixture(scope="session")
def xs_corpus(spark):
    """(spec, warehouse) for NextiaJD-lite testbedXS at unit-test scale."""
    return build_testbed(spark, "XS", rows_scale=0.05)


@pytest.fixture(scope="session")
def spider_corpus(spark):
    """(spec, warehouse) for a shrunken Spider-lite."""
    return build_spider(spark, rows_scale=0.02, size_scale=0.5)


@pytest.fixture(scope="session")
def sigma_corpus(spark):
    """(spec, warehouse) for a shrunken Sigma-lite."""
    return build_sigma(spark, rows_scale=0.0002, size_scale=0.5)


@pytest.fixture(scope="session")
def warpgate_xs(spark, model, xs_corpus):
    """A WarpGate instance indexed over testbedXS (full values)."""
    _, wh = xs_corpus
    wg = WarpGate(model=model)
    wg.build_index(wh)
    return wg


@pytest.fixture(scope="session")
def aurum_xs(xs_corpus):
    _, wh = xs_corpus
    a = Aurum()
    a.build_index(wh)
    return a


@pytest.fixture(scope="session")
def d3l_xs(model, xs_corpus):
    _, wh = xs_corpus
    d = D3L(model=model)
    d.build_index(wh)
    return d
