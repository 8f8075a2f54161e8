"""Benchmark behind Table 10: similarity graph + union-find connected components."""
import numpy as np

from repro.eval.clustering import similarity_edges, union_find_components


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_bench_similarity_edges(benchmark):
    g = np.random.default_rng(0)
    centers = unit(g.normal(size=(20, 64)))
    # per-coordinate noise scaled by 1/sqrt(dim) so cluster members stay
    # at high cosine (0.2·N(0,1) over 64 dims would swamp the unit center)
    vecs = unit(
        centers[g.integers(0, 20, 1500)] + 0.04 * g.normal(size=(1500, 64))
    ).astype(np.float32)
    edges = benchmark(similarity_edges, vecs, 0.85)
    assert len(edges) > 0


def test_bench_union_find_components(benchmark):
    g = np.random.default_rng(1)
    n = 800
    edges = [tuple(sorted(g.choice(n, 2, replace=False).tolist())) for _ in range(1200)]
    comp = benchmark(union_find_components, edges, n)
    assert len(comp) == n
