"""Tests for the distributed column-embedding pipeline."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import pyspark.sql.functions as F

from repro.core.embedding import embed_columns_df
from repro.core.sampling import load_column
from repro.core.simhash import SimHashIndex
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def cells_pdf():
    return pd.DataFrame(
        {
            "col_id": ["X"] * 3 + ["Y"] * 3 + ["Z"] * 2,
            "value": [
                "Acme Corp", "Beta Inc", "Acme Corp",
                "red", "blue", "green",
                None, "",
            ],
        }
    )


@pytest.fixture(scope="module")
def emb_df(spark, cells_pdf, model):
    return embed_columns_df(spark, spark.createDataFrame(cells_pdf), model)


def test_one_row_per_nonempty_column(emb_df):
    rows = {r["col_id"] for r in emb_df.collect()}
    assert rows == {"X", "Y"}  # Z is all-null/empty → dropped


def test_matches_driver_side_embedding(emb_df, cells_pdf, model):
    """The distributed pipeline computes exactly model.embed_values."""
    got = {r["col_id"]: np.array(r["embedding"]) for r in emb_df.collect()}
    for cid in ("X", "Y"):
        vals = cells_pdf[cells_pdf["col_id"] == cid]["value"].dropna().tolist()
        expected = model.embed_values(vals)
        assert np.allclose(got[cid], expected, atol=1e-6)


def test_embeddings_normalized(emb_df):
    for r in emb_df.collect():
        assert np.isclose(np.linalg.norm(r["embedding"]), 1.0, atol=1e-5)


def test_embedding_dim(emb_df, model):
    assert all(len(r["embedding"]) == model.dim for r in emb_df.collect())


def test_index_collects_embeddings(emb_df, model):
    idx = SimHashIndex.build_from_df(emb_df, dim=model.dim)
    assert sorted(idx.ids) == ["X", "Y"]
    assert idx.matrix.shape == (2, model.dim)
    assert idx.matrix.dtype == np.float32
    got = {r["col_id"]: r["embedding"] for r in emb_df.collect()}
    for cid, row in zip(idx.ids, idx.matrix):
        assert np.allclose(row, got[cid], atol=1e-6)


def test_index_from_empty_embeddings(spark, model):
    empty = spark.createDataFrame([], "col_id string, value string")
    idx = SimHashIndex.build_from_df(
        embed_columns_df(spark, empty, model), dim=model.dim
    )
    assert idx.ids == [] and idx.matrix.shape == (0, model.dim)
    assert idx.query(np.ones(model.dim), 5) == []


def test_column_count_matches_oracle(spark, xs_corpus, model):
    """Every non-empty column of the XS warehouse gets exactly one
    embedding row — cross-checked by counting distinct columns in DuckDB
    over the same long frame."""
    spec, wh = xs_corpus
    cells = wh.cells_long_df(sample=20)
    emb = embed_columns_df(spark, cells, model)
    got = emb.select("col_id").groupBy().agg(
        F.count("*").alias("n_columns")
    )
    cells_pdf = cells.toPandas()
    assert_equivalent(
        got,
        "SELECT count(DISTINCT col_id) AS n_columns FROM cells WHERE value IS NOT NULL",
        cells=cells_pdf,
    )


def test_sampling_stability_of_embeddings(spark, xs_corpus, model):
    """§4.4 mechanism check: a 50-row sample's column embedding is close
    to the full-value embedding for entity columns."""
    from repro.embed_model.model import cosine

    spec, wh = xs_corpus
    ent = [c for c in wh.entity_column_ids()[:5]]
    for cid in ent:
        full = model.embed_values(load_column(wh, cid))
        samp = model.embed_values(load_column(wh, cid, sample=50))
        assert cosine(full, samp) > 0.9, cid
