"""The table-batched Spark pass: every table whole, in col_idx order, once."""
from collections import Counter

import numpy as np
import pandas as pd
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.datalake.io import map_tables

SEEN = T.StructType(
    [
        T.StructField("table_id", T.StringType()),
        T.StructField("n_rows", T.IntegerType()),
        T.StructField("n_tables", T.IntegerType()),
        T.StructField("ordered", T.BooleanType()),
    ]
)


def _seen(pdf: pd.DataFrame) -> pd.DataFrame:
    """One row per call: what the per-table function was handed."""
    return pd.DataFrame(
        {
            "table_id": [pdf["table_id"].iloc[0]],
            "n_rows": [len(pdf)],
            "n_tables": [pdf["table_id"].nunique()],
            "ordered": [bool(np.all(np.diff(pdf["col_idx"].to_numpy()) > 0))],
        }
    )


def test_each_table_whole_once_in_col_order(tiny_santos, two_row_arrow_batches):
    df = tiny_santos.df.orderBy(F.col("col_idx").desc())
    calls = map_tables(df, _seen, SEEN).collect()
    n_cols = Counter(r["table_id"] for r in tiny_santos.rows)
    assert sorted(r["table_id"] for r in calls) == sorted(n_cols)
    for r in calls:
        assert r["n_tables"] == 1
        assert r["n_rows"] == n_cols[r["table_id"]]
        assert r["ordered"]


def test_empty_frame_keeps_schema(spark, tiny_santos):
    empty = spark.createDataFrame([], tiny_santos.df.schema)
    out = map_tables(empty, _seen, SEEN)
    assert out.schema == SEEN
    assert out.count() == 0
