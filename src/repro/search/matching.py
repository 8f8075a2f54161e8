"""Table unionability scoring (paper §4.1, §4.3).

- ``hungarian_max``: exact maximum-weight bipartite matching via the
  O(n³) Hungarian algorithm with potentials (scipy is unavailable in
  this container, so this is a from-scratch implementation; it is
  property-tested against brute-force permutation search).
- ``table_union_score``: the paper's U(S,T) — max-weight matching over
  the τ-thresholded column-similarity graph (Fig. 7).
- ``upper_bound`` / ``lower_bound``: the greedy O(|E|log|E|+n) bounds of
  §4.3 (Example 4.2: UB=3.0, LB=1.5 for the Fig. 7 instance).
- ``segment_upper_bounds``: a UB for many tables at once from one
  similarity matrix, never looser than the greedy UB (2.2 on Fig. 7).
"""
from __future__ import annotations

import numpy as np


def hungarian_min_assignment(cost: np.ndarray) -> list[int]:
    """Min-cost perfect assignment on a square matrix.

    Returns ``assign`` with ``assign[j] = i``: row i assigned to column j.
    Classic potentials formulation (Jonker–Volgenant style), O(n³).
    """
    n = cost.shape[0]
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (1-indexed, 0 = none)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return [p[j] - 1 for j in range(1, n + 1)]


def hungarian_max(weights: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Maximum-weight bipartite matching with nonnegative weights.

    Rectangular inputs are padded to square with zeros; zero-weight
    assignments are not part of the returned matching (they model
    "unmatched"), so the result is a maximum-weight *matching*, not a
    perfect assignment.
    """
    m, n = weights.shape
    if m == 0 or n == 0:
        return 0.0, []
    size = max(m, n)
    pad = np.zeros((size, size))
    pad[:m, :n] = weights
    assign = hungarian_min_assignment(-pad)
    matching = []
    total = 0.0
    for j, i in enumerate(assign):
        if i < m and j < n and weights[i, j] > 0:
            matching.append((i, j))
            total += float(weights[i, j])
    return total, matching


def threshold_edges(sim: np.ndarray, tau: float) -> np.ndarray:
    """Zero out column pairs below the unionability threshold τ (de-noising)."""
    w = np.where(sim >= tau, sim, 0.0)
    return np.maximum(w, 0.0)


def table_union_score(sim: np.ndarray, tau: float) -> float:
    """U(S,T): exact verification (the expensive ``Verify`` of Alg. 3).

    Hungarian runs only on the rows and columns with an edge ≥ τ: any
    other node can only be matched at weight 0, so the score is the same.
    """
    edge = sim >= tau
    if not edge.any():
        return 0.0
    sub = sim.compress(edge.any(axis=1), axis=0).compress(edge.any(axis=0), axis=1)
    score, _ = hungarian_max(threshold_edges(sub, tau))
    return score


def segment_upper_bounds(sim: np.ndarray, offsets: np.ndarray, tau: float) -> np.ndarray:
    """UB of U(S,T) for every table T side by side in ``sim`` (§4.3).

    ``sim`` is the (|S|, Σ|T|) similarity of the query columns to the
    columns of several tables; table ``t`` owns columns
    ``offsets[t]:offsets[t+1]``. A matching uses each node at most once,
    so U(S,T) is at most the sum of the per-row maxima of the thresholded
    block, and at most the sum of its per-column maxima; the bound is the
    smaller sum. It is never looser than ``upper_bound``: by the time the
    greedy UB covers S its edges include every row's maximum, and if it
    covers T first they include every column's maximum.
    """
    out = np.zeros(len(offsets) - 1)
    w = threshold_edges(sim, tau)
    if w.size == 0:
        return out
    # reduceat cannot express an empty segment: bound only the non-empty
    # ones (each then runs up to the next non-empty start).
    full = np.flatnonzero(np.diff(offsets) > 0)
    starts = offsets[full]
    rows = np.maximum.reduceat(w, starts, axis=1).sum(axis=0, dtype=np.float64)
    cols = np.add.reduceat(w.max(axis=0), starts, dtype=np.float64)
    out[full] = np.minimum(rows, cols)
    return out


def _sorted_edges(sim: np.ndarray, tau: float) -> list[tuple[float, int, int]]:
    ii, jj = np.nonzero(sim >= tau)
    edges = [(float(sim[i, j]), int(i), int(j)) for i, j in zip(ii, jj)]
    edges.sort(key=lambda e: -e[0])
    return edges


def upper_bound(sim: np.ndarray, tau: float) -> float:
    """Greedy UB (§4.3): drop the one-edge-per-node constraint; add edges in
    descending weight until one side is fully covered or edges run out."""
    m, n = sim.shape
    cov_s: set[int] = set()
    cov_t: set[int] = set()
    total = 0.0
    for w, i, j in _sorted_edges(sim, tau):
        total += w
        cov_s.add(i)
        cov_t.add(j)
        if len(cov_s) == m or len(cov_t) == n:
            break
    return total


def lower_bound(sim: np.ndarray, tau: float) -> float:
    """Greedy LB (§4.3): maximal matching by descending weight."""
    used_s: set[int] = set()
    used_t: set[int] = set()
    total = 0.0
    for w, i, j in _sorted_edges(sim, tau):
        if i in used_s or j in used_t:
            continue
        total += w
        used_s.add(i)
        used_t.add(j)
    return total
