"""Interpreter-speed probe for a shared host.

On the 4-vCPU VMs this benchmark was defined on, identical work runs up
to ≈40% slower for minutes at a time when other tenants load the host.
The guest sees no steal time and no gap between wall and thread CPU
time, so neither ``thread_time`` nor more samples remove it. The query
loop therefore runs this fixed kernel before every query round and
reports each pass's latencies scaled to the kernel's reference speed:

    reported = measured × REFERENCE_S / median(kernel samples of the pass)

The kernel is the benchmark's own frozen code: a pure-Python Hungarian
assignment on fixed small matrices, the same kind of single-thread
interpreter work that dominates the program's query path. Program
changes cannot alter it, so a faster program still reports a smaller
number. Set-up and ingest times, which are mostly multi-process JVM and
Spark work that the kernel does not model, are reported unscaled.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on an Intel Xeon 2.1 GHz VM (4 vCPUs) at quiet times.
REFERENCE_S = 70e-6

_MATS = [(-np.random.default_rng(n).random((n, n))).tolist() for n in (3, 4, 5, 6)]


def _assign(cost: list[list[float]]) -> list[int]:
    """Min-cost assignment with potentials, O(n^3)."""
    n = len(cost)
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = p[j0], inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
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
    return p[1:]


def sample() -> float:
    """Seconds for one run of the kernel."""
    t0 = time.perf_counter()
    for m in _MATS:
        _assign(m)
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor from measured to reference-speed times: REFERENCE_S / median sample."""
    return REFERENCE_S / statistics.median(samples)
