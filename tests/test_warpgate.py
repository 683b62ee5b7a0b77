"""System tests for WarpGate over testbedXS."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.simhash import N_BITS, THRESHOLD, band_params_for_threshold
from repro.core.warpgate import WarpGate, WarpGateConfig
from tests.conftest import spark_jobs


def test_index_covers_nonempty_columns(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    assert len(warpgate_xs.index.ids) >= 0.95 * spec.n_columns


def test_index_build_time_recorded(warpgate_xs):
    assert warpgate_xs.index_build_s > 0


def test_query_returns_k(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    results, timing = warpgate_xs.query(spec.queries[0].column, k=10)
    assert len(results) == 10
    assert timing.load_s > 0 and timing.lookup_s > 0
    assert timing.e2e_s == timing.load_s + timing.lookup_s


def test_query_excludes_self(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    for q in spec.queries[:10]:
        results, _ = warpgate_xs.query(q.column, k=10)
        assert q.column not in [r.col_id for r in results]


def test_query_scores_descending(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    results, _ = warpgate_xs.query(spec.queries[0].column, k=10)
    scores = [r.score for r in results]
    assert scores == sorted(scores, reverse=True)


def test_top1_is_usually_an_answer(warpgate_xs, xs_corpus):
    """Effectiveness floor: P@1 ≥ 0.7 on XS (paper's Fig. 4 regime)."""
    spec, _ = xs_corpus
    hits = 0
    for q in spec.queries:
        results, _ = warpgate_xs.query(q.column, k=1)
        hits += bool(results) and results[0].col_id in q.answers
    assert hits / len(spec.queries) >= 0.7


def test_recall_at_10_floor(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    recalls = []
    for q in spec.queries:
        results, _ = warpgate_xs.query(q.column, k=10)
        got = {r.col_id for r in results}
        recalls.append(len(got & q.answers) / len(q.answers))
    assert np.mean(recalls) >= 0.8


def test_answers_score_above_hard_negatives_mostly(warpgate_xs, xs_corpus):
    """Same-domain disjoint-slice columns may enter the top-k but true
    answers should usually outrank them."""
    spec, _ = xs_corpus
    wins = total = 0
    for q in spec.queries[:15]:
        results, _ = warpgate_xs.query(q.column, k=10)
        ranks = {r.col_id: i for i, r in enumerate(results)}
        ans_ranks = [ranks[a] for a in q.answers if a in ranks]
        other = [i for c, i in ranks.items() if c not in q.answers]
        if ans_ranks and other:
            total += 1
            wins += np.mean(ans_ranks) < np.mean(other)
    assert total and wins / total >= 0.7


def test_sampled_config_query(model, xs_corpus):
    spec, wh = xs_corpus
    wg = WarpGate(model=model, config=WarpGateConfig(sample=20))
    wg.build_index(wh)
    results, _ = wg.query(spec.queries[0].column, k=5)
    assert len(results) == 5


def test_sampling_preserves_ranking_quality(model, warpgate_xs, xs_corpus):
    """§4.4 at XS scale: R@10 with 20-row samples within a few points of
    full values."""
    spec, wh = xs_corpus
    wg = WarpGate(model=model, config=WarpGateConfig(sample=20))
    wg.build_index(wh)

    def r10(sys_):
        rec = []
        for q in spec.queries:
            res, _ = sys_.query(q.column, k=10)
            rec.append(len({r.col_id for r in res} & q.answers) / len(q.answers))
        return float(np.mean(rec))

    assert abs(r10(wg) - r10(warpgate_xs)) <= 0.12


def test_lookup_without_warehouse_raises(model):
    wg = WarpGate(model=model)
    with pytest.raises(AssertionError):
        wg.query("a.b.c")


def test_index_bands_match_threshold(warpgate_xs):
    index = warpgate_xs.index
    assert (index.n_bands, index.rows_per_band) == band_params_for_threshold(
        THRESHOLD, N_BITS
    )


def test_build_index_job_count(spark, model, xs_corpus):
    """Embedding and signing run as one Spark pass, collected once (two
    jobs on XS)."""
    _, wh = xs_corpus
    with spark_jobs(spark) as jobs:
        WarpGate(model=model).build_index(wh)
    assert 0 < len(jobs) <= 2


def test_empty_values_lookup(warpgate_xs):
    assert warpgate_xs.lookup([None, ""], k=5) == []
