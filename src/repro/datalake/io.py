"""The per-table Spark pass, and lake size and statistics for Tables 2 and 6.

Every runner regenerates its lake from the generator's seed, so lakes
are not persisted. A lake DataFrame holds one row per column, keyed by
``(table_id, col_idx)``; ``map_tables`` is the one way a pass runs a
pandas function on every whole table of it (preprocessing, encoder
inference and baseline featurization). ``parquet_bytes`` measures what
the column-wise lake DataFrame takes as parquet (the paper's
object-store format) by writing it to a temporary directory;
``lake_stats`` computes the Table 2 statistics (#tables, #cols, avg
#rows, size) with Spark SQL aggregations.
"""
from __future__ import annotations

import tempfile
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T


def map_tables(
    df: DataFrame,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    schema: T.StructType,
) -> DataFrame:
    """Run ``fn`` on every table of ``df``; its outputs make the result.

    ``fn`` gets one whole table, its rows in ``col_idx`` order, and
    returns rows of ``schema``. The rows are hash-partitioned by
    ``table_id`` into ``spark.sql.shuffle.partitions`` partitions (the
    exchange ``groupBy("table_id")`` makes) and sorted by ``(table_id,
    col_idx)`` within each, so one ``mapInPandas`` call serves a whole
    Arrow batch of tables, not one group per table, and the output keeps
    that row order. The last table of a batch may continue in the next
    batch, so its rows are carried over and ``fn`` sees it whole.
    """

    def _per_batch(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        carry = None
        for pdf in batches:
            if carry is not None:
                pdf = pd.concat([carry, pdf], ignore_index=True)
            tids = pdf["table_id"].to_numpy()
            starts = [0, *(np.flatnonzero(tids[1:] != tids[:-1]) + 1).tolist()]
            carry = pdf.iloc[starts[-1]:]
            if len(starts) > 1:
                yield pd.concat(
                    [fn(pdf.iloc[a:b]) for a, b in zip(starts, starts[1:])],
                    ignore_index=True,
                )
        if carry is not None and len(carry):
            yield fn(carry)

    return (
        df.repartition("table_id")
        .sortWithinPartitions("table_id", "col_idx")
        .mapInPandas(_per_batch, schema=schema)
    )


def parquet_bytes(df: DataFrame) -> int:
    """On-disk size of ``df`` written as parquet."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "lake.parquet"
        df.write.parquet(str(p))
        return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())


def lake_raw_bytes(df: DataFrame) -> int:
    """Raw data-lake size: total cell bytes + one delimiter per cell.

    This is the Table 6 denominator. The paper's '11 GB' is raw open-data
    CSV; parquet compresses our synthetic vocabulary ~50×, which would
    make any relative-overhead number meaningless.
    """
    row = df.select(
        F.sum(
            F.aggregate(
                "cells", F.lit(0).cast("long"),
                lambda acc, c: acc + F.length(c) + F.lit(1),
            )
        ).alias("raw")
    ).collect()[0]
    return int(row["raw"] or 0)


@dataclass
class LakeStats:
    """The Table 2 row for a benchmark."""

    name: str
    n_tables: int
    n_cols: int
    avg_rows: float
    size_mb: float

    def row(self) -> tuple:
        return (self.name, self.n_tables, self.n_cols, round(self.avg_rows, 1),
                round(self.size_mb, 2))


def lake_stats(df: DataFrame, name: str, size_bytes: int) -> LakeStats:
    """Compute Table 2 statistics via DataFrame aggregation."""
    agg = (
        df.select("table_id", F.size("cells").alias("n_rows"))
        .groupBy("table_id")
        .agg(F.count("*").alias("n_cols"), F.max("n_rows").alias("n_rows"))
        .agg(
            F.count("*").alias("n_tables"),
            F.sum("n_cols").alias("n_cols"),
            F.avg("n_rows").alias("avg_rows"),
        )
        .collect()[0]
    )
    return LakeStats(
        name=name,
        n_tables=int(agg["n_tables"]),
        n_cols=int(agg["n_cols"]),
        avg_rows=float(agg["avg_rows"]),
        size_mb=size_bytes / (1 << 20),
    )
