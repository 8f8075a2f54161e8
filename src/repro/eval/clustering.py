"""Column clustering case study (paper §5.5, Tables 9/10).

From column embeddings we build a similarity graph (edges between
columns with cosine ≥ θ, paper uses θ=0.6) and cluster via connected
components. Both steps run on the driver: the dense pairwise similarity
is a blocked numpy GEMM (a few thousand columns) and the components come
from union-find over its edge list.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from .metrics import purity


def similarity_edges(vecs: np.ndarray, theta: float, block: int = 1024) -> list[tuple[int, int]]:
    """Undirected edges (i<j) with cosine ≥ θ, computed block-wise."""
    n = vecs.shape[0]
    edges: list[tuple[int, int]] = []
    for s in range(0, n, block):
        sim = vecs[s : s + block] @ vecs.T
        ii, jj = np.nonzero(sim >= theta)
        for i, j in zip(ii.tolist(), jj.tolist()):
            gi = s + i
            if gi < j:
                edges.append((gi, j))
    return edges


def union_find_components(edges: list[tuple[int, int]], n_nodes: int) -> dict[int, int]:
    """Connected components: node → the smallest node of its component."""
    parent = list(range(n_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {i: find(i) for i in range(n_nodes)}


@dataclass
class ClusteringResult:
    n_clusters: int
    avg_size: float
    purity: float


def cluster_columns(emb_df: DataFrame, *, theta: float) -> ClusteringResult:
    """The full Table 10 pipeline: graph → components → purity vs sem_type."""
    rows = emb_df.select("table_id", "col_idx", "sem_type", "emb").collect()
    ids = [f"{r['table_id']}#{r['col_idx']}" for r in rows]
    labels = {i: r["sem_type"] for i, r in zip(ids, rows)}
    vecs = np.asarray([r["emb"] for r in rows], dtype=np.float32)
    comp = union_find_components(similarity_edges(vecs, theta), len(ids))
    assignment = {ids[i]: comp[i] for i in range(len(ids))}
    n = len(set(assignment.values()))
    avg = len(assignment) / n if n else 0.0
    return ClusteringResult(
        n_clusters=n, avg_size=avg, purity=purity(assignment, labels)
    )
