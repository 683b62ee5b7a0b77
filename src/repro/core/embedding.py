"""Column embedding pipeline (Spark DataFrame → embeddings DataFrame).

The indexing half of WarpGate: every corpus column is encoded into a
d-dimensional vector by mean-pooling the token embeddings of its
*distinct* values (§3.1.1). The heavy lifting — tokenizing and pooling
millions of cells — runs distributed: the long-format ``(col_id,
value)`` cells frame is grouped per column and embedded inside
executors with the broadcast model.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.embed_model.model import EmbeddingModel


def embed_columns_df(
    spark: SparkSession, cells: DataFrame, model: EmbeddingModel
) -> DataFrame:
    """``(col_id, embedding)`` with one L2-normalized vector per column.

    Columns whose values yield no tokens (all-null, empty) are dropped —
    they cannot participate in similarity search.
    """
    bc = spark.sparkContext.broadcast(model)

    def _embed(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        m: EmbeddingModel = bc.value
        vec = m.embed_values(pdf["value"].dropna().tolist())
        if vec is None:
            # Object dtype keeps Arrow from seeing an empty float64
            # column where a list<double> is expected.
            return pd.DataFrame(
                {
                    "col_id": pd.Series([], dtype=str),
                    "embedding": pd.Series([], dtype=object),
                }
            )
        return pd.DataFrame(
            {"col_id": [key[0]], "embedding": [vec.astype(float).tolist()]}
        )

    return cells.groupBy("col_id").applyInPandas(
        _embed, schema="col_id string, embedding array<double>"
    )
