"""Benchmark behind Tables 5/8: per-query time of each design choice.

This is the paper's headline efficiency comparison: Linear vs Pruning vs
LSH index vs HNSW index on the same vector store.
"""
import numpy as np
import pytest

from repro.search.engine import SearchEngine


@pytest.mark.parametrize("mode", ["linear", "pruning", "lsh", "hnsw"])
def test_bench_query_mode(benchmark, bench_lake, bench_starmie, mode):
    engine = SearchEngine(store=bench_starmie.store, mode=mode,
                          tau=bench_starmie.tau, seed=0)
    queries = bench_lake.queries

    def run():
        out = []
        for q in queries:
            res, _ = engine.query(q, k=10)
            out.append(res)
        return out

    res = benchmark(run)
    benchmark.extra_info["n_tables"] = len(bench_starmie.store.table_ids)
    assert len(res) == len(queries)


def test_bench_verification(benchmark, bench_starmie):
    """The exact bipartite-matching Verify() kernel of Algorithm 3."""
    store = bench_starmie.store
    tids = store.table_ids
    q = store.mats[tids[0]]
    from repro.search.matching import table_union_score

    def verify_block():
        return [table_union_score(q @ store.mats[t].T, 0.6) for t in tids[:50]]

    scores = benchmark(verify_block)
    assert len(scores) == 50


@pytest.mark.parametrize("kernel", ["greedy_50_tables", "segment_all_tables"])
def test_bench_bounds(benchmark, bench_starmie, kernel):
    """The UB/LB pruning kernels (§4.3) — must be much cheaper than Verify:
    the greedy LB/UB pair for 50 tables, one table at a time, against the
    one segment-bound call that bounds every table of the store."""
    store = bench_starmie.store
    tids = store.table_ids
    q = store.mats[tids[0]]
    from repro.search.matching import lower_bound, upper_bound

    if kernel == "segment_all_tables":
        engine = SearchEngine(store=store, mode="pruning", tau=0.6)
        everything = np.arange(len(tids))
        out = benchmark(engine.candidate_upper_bounds, q, everything)
        assert len(out) == len(tids)
        return

    def bounds_block():
        return [
            (lower_bound(q @ store.mats[t].T, 0.6), upper_bound(q @ store.mats[t].T, 0.6))
            for t in tids[:50]
        ]

    out = benchmark(bounds_block)
    assert len(out) == 50
