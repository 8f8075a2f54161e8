"""Similarity graph + Spark connected components + purity (Table 10 machinery)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.clustering import (
    cluster_columns,
    connected_components,
    similarity_edges,
)


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def union_find_reference(edges, n):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(i) for i in range(n)]


def canonical(assign: dict[int, int], n: int) -> list[int]:
    seen: dict[int, int] = {}
    out = []
    for i in range(n):
        c = assign[i]
        out.append(seen.setdefault(c, len(seen)))
    return out


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 14), st.integers(0, 1_000_000))
def test_components_match_union_find(spark, n, seed):
    g = np.random.default_rng(seed)
    m = int(g.integers(0, n * 2))
    edges = [tuple(sorted(g.choice(n, 2, replace=False).tolist())) for _ in range(m)]
    got = connected_components(spark, edges, n)
    ref = union_find_reference(edges, n)
    ref_assign = {i: ref[i] for i in range(n)}
    assert canonical(got, n) == canonical(ref_assign, n)


def test_no_edges_all_singletons(spark):
    got = connected_components(spark, [], 5)
    assert sorted(got.values()) == [0, 1, 2, 3, 4]


def test_chain_single_component(spark):
    got = connected_components(spark, [(0, 1), (1, 2), (2, 3)], 4)
    assert len(set(got.values())) == 1


def test_similarity_edges_threshold():
    g = np.random.default_rng(0)
    a = unit(g.normal(size=8))
    vecs = np.stack([a, a, -a]).astype(np.float32)
    edges = similarity_edges(vecs, 0.9)
    assert (0, 1) in edges
    assert (0, 2) not in edges and (1, 2) not in edges


def test_similarity_edges_no_self_loops():
    vecs = unit(np.random.default_rng(1).normal(size=(10, 4))).astype(np.float32)
    edges = similarity_edges(vecs, -1.0)
    assert all(i < j for i, j in edges)
    assert len(edges) == 45  # complete graph at θ=-1


def test_similarity_edges_blocked_equals_unblocked():
    vecs = unit(np.random.default_rng(2).normal(size=(50, 8))).astype(np.float32)
    assert sorted(similarity_edges(vecs, 0.3, block=7)) == sorted(
        similarity_edges(vecs, 0.3, block=1024)
    )


def test_cluster_columns_end_to_end(spark, prep_santos):
    from repro.experiments.common import train_and_embed

    emb_df, _, _ = train_and_embed(prep_santos, "sherlock")
    res = cluster_columns(spark, emb_df, theta=0.95)
    assert res.n_clusters > 0
    assert 0.0 <= res.purity <= 1.0
    assert res.avg_size >= 1.0
