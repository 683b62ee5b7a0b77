"""Tests for ``load_column``: the one column-load path, sampled by LIMIT."""
from __future__ import annotations

import pytest

from repro.core.sampling import load_column


@pytest.fixture(scope="module")
def col(xs_corpus):
    _, wh = xs_corpus
    cid = wh.entity_column_ids()[0]
    table, column = wh.column_map[cid]
    return wh, cid, wh.table_pdf(table.table_id)[column.name].tolist()


def test_full_returns_all(col):
    wh, cid, expected = col
    assert load_column(wh, cid, sample=None) == expected


def test_head_limits(col):
    """Sampling is ``LIMIT``: the first ``sample`` rows of the scan."""
    wh, cid, expected = col
    assert load_column(wh, cid, sample=7) == expected[:7]


def test_load_column_sampled(col):
    wh, cid, _ = col
    assert len(load_column(wh, cid, sample=6)) == 6


def test_load_column_full(col):
    """A sample larger than the column reads the whole column."""
    wh, cid, expected = col
    assert load_column(wh, cid, sample=len(expected) + 5) == expected


def test_load_column_unknown_id(col):
    """An id whose table exists but whose column does not is a KeyError,
    not a Spark analysis error."""
    wh, cid, _ = col
    with pytest.raises(KeyError):
        load_column(wh, cid + "_nope")
