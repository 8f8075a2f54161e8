"""Similarity graph + union-find connected components + purity (Table 10 machinery)."""
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.clustering import (
    cluster_columns,
    similarity_edges,
    union_find_components,
)


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def bfs_components(edges, n):
    """Reference: breadth-first search from each unvisited node in
    ascending order, so every node is labeled with its component's
    smallest node."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    label = [None] * n
    for root in range(n):
        if label[root] is not None:
            continue
        label[root] = root
        queue = deque([root])
        while queue:
            for y in adj[queue.popleft()]:
                if label[y] is None:
                    label[y] = root
                    queue.append(y)
    return {i: label[i] for i in range(n)}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(0, 1_000_000))
def test_union_find_matches_bfs(n, seed):
    g = np.random.default_rng(seed)
    m = int(g.integers(0, n * 2)) if n > 1 else 0
    edges = [tuple(sorted(g.choice(n, 2, replace=False).tolist())) for _ in range(m)]
    assert union_find_components(edges, n) == bfs_components(edges, n)


def test_no_edges_all_singletons():
    assert union_find_components([], 5) == {i: i for i in range(5)}


def test_chain_single_component():
    # edges given end-first so the smallest node is not the first root
    got = union_find_components([(2, 3), (1, 2), (0, 1)], 4)
    assert got == {0: 0, 1: 0, 2: 0, 3: 0}


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


def test_cluster_columns_end_to_end(prep_santos):
    from repro.experiments.common import train_and_embed

    emb_df, _, _ = train_and_embed(prep_santos, "sherlock")
    res = cluster_columns(emb_df, theta=0.95)
    assert res.n_clusters > 0
    assert 0.0 <= res.purity <= 1.0
    assert res.avg_size >= 1.0
