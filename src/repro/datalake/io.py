"""Lake size and statistics for Tables 2 and 6.

Every runner regenerates its lake from the generator's seed, so lakes
are not persisted. ``parquet_bytes`` measures what the column-wise lake
DataFrame takes as parquet (the paper's object-store format) by writing
it to a temporary directory; ``lake_stats`` computes the Table 2
statistics (#tables, #cols, avg #rows, size) with Spark SQL aggregations.
"""
from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


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
