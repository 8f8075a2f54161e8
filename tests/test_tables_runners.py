"""Smoke tests for the per-table experiment runners at miniature scale."""
import pandas as pd
import pytest

from repro.experiments import tables as T


def test_table2_stats_runner(spark, tmp_path, monkeypatch):
    monkeypatch.setattr(T, "RESULTS_DIR", tmp_path)
    df = T.table2_stats(spark, scale=0.05, benchmarks=("santos_small_lite",))
    assert set(df.columns) == {"benchmark", "n_tables", "n_cols", "avg_rows", "size_mb"}
    assert (df["n_tables"] > 0).all()
    assert (df["size_mb"] > 0).all()
    assert (tmp_path / "table2_stats.csv").exists()


def test_table3_runner_tiny(spark, tmp_path, monkeypatch):
    monkeypatch.setattr(T, "RESULTS_DIR", tmp_path)
    df = T.table3_effectiveness(
        spark, scale=0.12, benchmarks=("tus_small_lite",),
        methods=("starmie", "sherlock"), epochs=4,
    )
    assert len(df) == 2
    assert df["map"].between(0, 1).all()
    starmie_map = df[df.method == "starmie"]["map"].iloc[0]
    assert starmie_map > 0.5


def test_table4_runner_tiny(spark, tmp_path, monkeypatch):
    monkeypatch.setattr(T, "RESULTS_DIR", tmp_path)
    df = T.table4_negative_classes(spark, classes=(2,), n_tables=40, epochs=4)
    assert list(df.columns) == ["n_negative_classes", "map_60", "map_120"]
    assert df["map_60"].iloc[0] > 0.3


def test_table5_runner_tiny(spark, tmp_path, monkeypatch):
    monkeypatch.setattr(T, "RESULTS_DIR", tmp_path)
    df = T.table5_design_choices(
        spark, scale=0.3, methods=("starmie",), k=5, epochs=4,
    )
    assert set(df["technique"]) == {"linear", "pruning", "lsh", "hnsw"}
    piv = df.set_index("technique")
    # exactness invariant of the pruning design choice
    assert piv.loc["pruning", "map"] == piv.loc["linear", "map"]
    assert piv.loc["pruning", "avg_verifications"] <= piv.loc["linear", "avg_verifications"]


def test_table6_runner_tiny(spark, tmp_path, monkeypatch):
    monkeypatch.setattr(T, "RESULTS_DIR", tmp_path)
    df = T.table6_memory(spark, scale=0.05, epochs=3)
    assert list(df["method"]) == ["No Index", "LSH Index", "HNSW Index"]
    assert (df["memory_mb"] > 0).all()
    no_idx = df.set_index("method")
    assert no_idx.loc["LSH Index", "memory_mb"] >= no_idx.loc["No Index", "memory_mb"]
    assert no_idx.loc["HNSW Index", "memory_mb"] >= no_idx.loc["No Index", "memory_mb"]


def test_table7_runner_tiny(spark, tmp_path, monkeypatch):
    monkeypatch.setattr(T, "RESULTS_DIR", tmp_path)
    summary, detail = T.table7_ml(spark, n_tasks=2, n_filler=4, gbt_iter=6)
    assert list(summary["method"]) == ["NoJoin", "Jaccard", "Overlap", "Starmie"]
    assert len(detail) == 2
    assert (summary["avg_mse"] > 0).all()


def test_table10_runner_tiny(spark, tmp_path, monkeypatch):
    monkeypatch.setattr(T, "RESULTS_DIR", tmp_path)
    df = T.table10_clustering(spark, scale=0.25, methods=("sherlock", "starmie"), epochs=3)
    assert set(df["method"]) == {"sherlock", "starmie"}
    assert df["purity_pct"].between(0, 100).all()
    assert (df["n_clusters"] > 0).all()


def test_scalability_runner_tiny(spark, tmp_path, monkeypatch):
    monkeypatch.setattr(T, "RESULTS_DIR", tmp_path)
    df = T.scalability_sweep(
        spark, bench="santos_large_lite", scale=0.08,
        modes=("linear", "hnsw"), ks=(5,), epochs=2,
    )
    piv = df.set_index("mode")
    assert piv.loc["hnsw", "query_time_s"] <= piv.loc["linear", "query_time_s"] * 2
