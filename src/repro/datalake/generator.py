"""Synthetic data-lake benchmark construction.

Reproduces the *construction processes* of the paper's corpora at lite
scale (§5.1.2, Table 2):

- ``santos_lake``  — SANTOS-style: tables are fresh samples of a domain
  class; ground truth = all tables of the same class.
- ``tus_lake``     — TUS-style: data lake tables are row+column
  partitions of a small set of base tables; ground truth = partitions
  of the same base.
- ``wdc_lake``     — WDC-style: very many tiny tables (avg ~14 rows in
  the paper), no ground truth; used for scalability only.
- ``microbench_lake`` — the Table 4 micro-benchmark: 25% of tables from
  the query class, the rest split evenly among ``c`` negative classes.

The lake is represented *column-wise* as a Spark DataFrame with one row
per column — the natural unit for column encoders and the vector index:

    (table_id, domain, col_idx, col_name, sem_type, cells array<string>)

``domain`` and ``sem_type`` are hidden ground truth: they are used only
for evaluation (and by the SANTOS baseline's synthetic knowledge base),
never by Starmie itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from .vocab import DOMAINS, TYPES, Domain


def _specific_col_idxs(domain: Domain) -> list[int]:
    """Columns whose type is domain-specific text (not shared, not numeric).

    Real TUS partitions keep identifying columns; partitions made *only*
    of shared/numeric types (e.g. [city, state, stock]) are irreducibly
    ambiguous for every method, so each partition keeps at least one
    specific anchor column when the base has one.
    """
    return [
        i
        for i, (_, t) in enumerate(domain.columns)
        if TYPES[t].kind == "text" and not TYPES[t].shared
    ]


def _col_subset(domain: Domain, k: int, g: np.random.Generator) -> list[int]:
    """Random k-subset of columns that includes one specific anchor."""
    m = len(domain.columns)
    specific = _specific_col_idxs(domain)
    if not specific:
        return sorted(g.choice(m, size=k, replace=False).tolist())
    anchor = int(g.choice(specific))
    rest = [i for i in range(m) if i != anchor]
    chosen = g.choice(rest, size=k - 1, replace=False).tolist() if k > 1 else []
    return sorted([anchor] + chosen)

LAKE_SCHEMA = T.StructType(
    [
        T.StructField("table_id", T.StringType(), False),
        T.StructField("domain", T.StringType(), False),
        T.StructField("col_idx", T.IntegerType(), False),
        T.StructField("col_name", T.StringType(), False),
        T.StructField("sem_type", T.StringType(), False),
        T.StructField("cells", T.ArrayType(T.StringType()), False),
    ]
)


@dataclass
class Lake:
    """A generated benchmark: column-wise lake + queries + ground truth."""

    name: str
    df: DataFrame
    queries: list[str]
    ground_truth: dict[str, set[str]] | None = None
    # Driver-side copy of the column rows (list of dicts); generated
    # lakes are lite-scale so this is cheap and lets the online query
    # path avoid a Spark round-trip per query.
    rows: list[dict] = field(default_factory=list)

    def tables(self) -> dict[str, list[dict]]:
        """Group driver-side column rows by table_id (insertion order)."""
        out: dict[str, list[dict]] = {}
        for r in self.rows:
            out.setdefault(r["table_id"], []).append(r)
        for cols in out.values():
            cols.sort(key=lambda r: r["col_idx"])
        return out


def _domain_columns(
    domain: Domain,
    table_id: str,
    n_rows: int,
    g: np.random.Generator,
    col_subset: list[int] | None = None,
    empty_frac: float = 0.02,
) -> list[dict]:
    """Materialize one table of ``domain`` as column rows."""
    idxs = col_subset if col_subset is not None else list(range(len(domain.columns)))
    rows = []
    for out_idx, ci in enumerate(idxs):
        col_name, type_name = domain.columns[ci]
        spec = TYPES[type_name]
        cells = spec.sample(n_rows, g)
        if empty_frac > 0:
            mask = g.random(n_rows) < empty_frac
            cells = ["" if m else c for c, m in zip(cells, mask)]
        rows.append(
            {
                "table_id": table_id,
                "domain": domain.name,
                "col_idx": out_idx,
                "col_name": col_name,
                "sem_type": type_name,
                "cells": cells,
            }
        )
    return rows


def _partitions(
    domain: Domain,
    tid_prefix: str,
    count: int,
    base_rows: int,
    rows_range: tuple[int, int],
    g: np.random.Generator,
) -> tuple[list[dict], list[str]]:
    """TUS-style partitions of one base table of ``domain``.

    The base table's full column value arrays are materialized once, so
    partitions of the same base share the value distribution. Each
    partition keeps a column subset with an anchor (``_col_subset``) and
    a contiguous row window of the base.
    """
    base_cols = _domain_columns(domain, f"{domain.name}__base", base_rows, g)
    m = len(domain.columns)
    rows: list[dict] = []
    tids: list[str] = []
    for j in range(count):
        tid = f"{tid_prefix}{domain.name}__p{j:03d}"
        k = int(g.integers(max(2, (m + 1) // 2), m + 1))
        keep = _col_subset(domain, k, g)
        n_rows = int(g.integers(*rows_range))
        start = int(g.integers(0, base_rows - n_rows))
        for out_idx, ci in enumerate(keep):
            src = base_cols[ci]
            rows.append({**src, "table_id": tid, "col_idx": out_idx,
                         "cells": src["cells"][start : start + n_rows]})
        tids.append(tid)
    return rows, tids


def _to_lake(spark: SparkSession, name: str, rows: list[dict],
             queries: list[str], gt: dict[str, set[str]] | None) -> Lake:
    pdf = pd.DataFrame(rows)
    df = spark.createDataFrame(pdf, schema=LAKE_SCHEMA)
    return Lake(name=name, df=df, queries=queries, ground_truth=gt, rows=rows)


def santos_lake(
    spark: SparkSession,
    *,
    name: str = "santos_small_lite",
    n_domains: int = 24,
    tables_per_domain: int = 10,
    rows_range: tuple[int, int] = (40, 110),
    n_queries: int = 30,
    seed: int = 7,
) -> Lake:
    """SANTOS-style class-labeled lake: unionable iff same domain class."""
    g = np.random.default_rng(seed)
    domains = list(DOMAINS[:n_domains])
    rows: list[dict] = []
    by_domain: dict[str, list[str]] = {}
    for d in domains:
        for j in range(tables_per_domain):
            tid = f"{d.name}__t{j:03d}"
            m = len(d.columns)
            # Vary arity like real open data: drop up to 2 columns.
            n_drop = int(g.integers(0, min(3, m - 2)))
            keep = _col_subset(d, m - n_drop, g)
            n_rows = int(g.integers(*rows_range))
            rows.extend(_domain_columns(d, tid, n_rows, g, col_subset=keep))
            by_domain.setdefault(d.name, []).append(tid)
    all_tids = [t for ts in by_domain.values() for t in ts]
    queries = list(g.choice(all_tids, size=min(n_queries, len(all_tids)), replace=False))
    gt = {q: set(by_domain[q.split("__")[0]]) for q in queries}
    return _to_lake(spark, name, rows, queries, gt)


def tus_lake(
    spark: SparkSession,
    *,
    name: str = "tus_small_lite",
    n_bases: int = 10,
    partitions_per_base: int = 70,
    base_rows: int = 600,
    part_rows_range: tuple[int, int] = (20, 60),
    n_queries: int = 40,
    seed: int = 11,
) -> Lake:
    """TUS-style lake: partitions of base tables; unionable iff same base."""
    g = np.random.default_rng(seed)
    domains = list(DOMAINS[:n_bases])
    rows: list[dict] = []
    by_base: dict[str, list[str]] = {}
    for d in domains:
        part_rows, by_base[d.name] = _partitions(
            d, "", partitions_per_base, base_rows, part_rows_range, g
        )
        rows.extend(part_rows)
    all_tids = [t for ts in by_base.values() for t in ts]
    queries = list(g.choice(all_tids, size=min(n_queries, len(all_tids)), replace=False))
    gt = {q: set(by_base[q.split("__")[0]]) for q in queries}
    return _to_lake(spark, name, rows, queries, gt)


def wdc_lake(
    spark: SparkSession,
    *,
    name: str = "wdc_lite",
    n_tables: int = 8000,
    rows_range: tuple[int, int] = (8, 20),
    n_queries: int = 10,
    seed: int = 13,
) -> Lake:
    """WDC-style lake: many tiny web tables (paper: avg 14 rows), no labels."""
    g = np.random.default_rng(seed)
    rows: list[dict] = []
    tids: list[str] = []
    for i in range(n_tables):
        d = DOMAINS[int(g.integers(0, len(DOMAINS)))]
        tid = f"wdc{i:06d}__{d.name}"
        m = len(d.columns)
        k = int(g.integers(2, m + 1))
        keep = _col_subset(d, k, g)
        rows.extend(
            _domain_columns(d, tid, int(g.integers(*rows_range)), g, col_subset=keep)
        )
        tids.append(tid)
    queries = list(g.choice(tids, size=min(n_queries, len(tids)), replace=False))
    return _to_lake(spark, name, rows, queries, None)


def microbench_lake(
    spark: SparkSession,
    *,
    n_negative_classes: int,
    n_tables: int = 120,
    query_class_frac: float = 0.25,
    rows_range: tuple[int, int] = (30, 80),
    n_queries: int = 8,
    seed: int = 17,
) -> Lake:
    """Table 4 micro-benchmark lake.

    25% of tables come from the query class; the remaining 75% are split
    evenly among ``n_negative_classes`` other classes (paper §5.2.1).
    Built TUS-style (partitions of base tables) since the paper draws it
    from the TUS Small benchmark.
    """
    g = np.random.default_rng(seed + 100 * n_negative_classes)
    n_query_tables = int(round(n_tables * query_class_frac))
    n_neg_total = n_tables - n_query_tables
    per_neg = n_neg_total // n_negative_classes
    domains = list(DOMAINS)
    query_domain = domains[0]
    neg_domains = domains[1 : 1 + n_negative_classes]

    rows: list[dict] = []
    by_domain: dict[str, list[str]] = {}

    for d, count in [(query_domain, n_query_tables)] + [(d, per_neg) for d in neg_domains]:
        part_rows, by_domain[d.name] = _partitions(d, "mb_", count, 360, rows_range, g)
        rows.extend(part_rows)
    queries = list(
        g.choice(by_domain[query_domain.name], size=n_queries, replace=False)
    )
    gt = {q: set(by_domain[query_domain.name]) for q in queries}
    return _to_lake(
        spark, f"microbench_c{n_negative_classes}", rows, queries, gt
    )


# ---------------------------------------------------------------------------
# Registry used by jobs / experiments (lite scales of the paper's Table 2).
# ---------------------------------------------------------------------------

def build_benchmark(spark: SparkSession, name: str, scale: float = 1.0) -> Lake:
    """Build a named lite benchmark. ``scale`` multiplies table counts."""
    s = scale
    if name == "santos_small_lite":
        # 13 tables per class ≈ the paper's avg 13 ground-truth tables per
        # query, so IDEAL R@10 ≈ 0.77 (paper: 0.75) — k < |GT| as in §5.2.
        return santos_lake(
            spark, name=name, n_domains=24,
            tables_per_domain=max(3, int(13 * s)), n_queries=max(5, int(30 * s)),
        )
    if name == "tus_small_lite":
        return tus_lake(
            spark, name=name, n_bases=10,
            partitions_per_base=max(5, int(70 * s)), n_queries=max(5, int(40 * s)),
        )
    if name == "tus_large_lite":
        return tus_lake(
            spark, name=name, n_bases=32,
            partitions_per_base=max(5, int(65 * s)), n_queries=max(5, int(40 * s)),
            seed=19,
        )
    if name == "santos_large_lite":
        return santos_lake(
            spark, name=name, n_domains=36,
            tables_per_domain=max(4, int(60 * s)),
            rows_range=(60, 160), n_queries=max(4, int(10 * s)), seed=23,
        )
    if name == "wdc_lite":
        return wdc_lake(spark, name=name, n_tables=max(50, int(8000 * s)))
    raise ValueError(f"unknown benchmark {name!r}")


BENCHMARKS = (
    "santos_small_lite",
    "tus_small_lite",
    "tus_large_lite",
    "santos_large_lite",
    "wdc_lite",
)
