"""Bipartite matching, bounds, and the paper's worked example (Fig. 7 / Ex. 4.2)."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.engine import SearchEngine, TableStore
from repro.search.matching import (
    hungarian_max,
    lower_bound,
    segment_upper_bounds,
    table_union_score,
    threshold_edges,
    upper_bound,
)


def brute_force_max_matching(w: np.ndarray) -> float:
    """Reference: maximum-weight matching by exhaustive column subsets."""
    m, n = w.shape
    best = 0.0
    rows = list(range(m))
    for k in range(0, min(m, n) + 1):
        for rsub in itertools.combinations(rows, k):
            for csub in itertools.permutations(range(n), k):
                s = sum(w[i, j] for i, j in zip(rsub, csub))
                best = max(best, s)
    return best


@st.composite
def weight_matrices(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    vals = draw(
        st.lists(
            st.floats(0, 1, allow_nan=False, width=32), min_size=m * n, max_size=m * n
        )
    )
    return np.array(vals).reshape(m, n)


@settings(max_examples=120, deadline=None)
@given(weight_matrices())
def test_hungarian_matches_brute_force(w):
    score, matching = hungarian_max(w)
    assert score == pytest.approx(brute_force_max_matching(w), abs=1e-9)
    # matching validity: one edge per node, positive weights only
    rows = [i for i, _ in matching]
    cols = [j for _, j in matching]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    assert score == pytest.approx(sum(w[i, j] for i, j in matching), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(weight_matrices(), st.floats(0.1, 0.9))
def test_bounds_sandwich_exact(w, tau):
    exact = table_union_score(w, tau)
    lb = lower_bound(w, tau)
    ub = upper_bound(w, tau)
    assert lb <= exact + 1e-9
    assert exact <= ub + 1e-9


@settings(max_examples=120, deadline=None)
@given(weight_matrices(), st.floats(0.1, 0.9), st.data())
def test_segment_bound_between_exact_and_greedy(w, tau, data):
    """Split the columns into two tables (either may be empty): each
    table's segment UB sits between its exact score and its greedy UB."""
    cut = data.draw(st.integers(0, w.shape[1]))
    offsets = np.array([0, cut, w.shape[1]])
    seg = segment_upper_bounds(w, offsets, tau)
    for t in range(2):
        block = w[:, offsets[t]:offsets[t + 1]]
        assert table_union_score(block, tau) <= seg[t] + 1e-9
        assert seg[t] <= upper_bound(block, tau) + 1e-9


def fig7_matrix():
    sim = np.zeros((4, 3))
    sim[0, 0] = 0.8
    sim[0, 1] = 0.85
    sim[1, 1] = 0.7
    sim[2, 2] = 0.3  # below τ=0.5 — discarded (dashed edge in Fig. 7)
    sim[3, 2] = 0.65
    return sim


def test_fig7_exact_score():
    assert table_union_score(fig7_matrix(), 0.5) == pytest.approx(2.15)


def test_example_4_2_upper_bound():
    assert upper_bound(fig7_matrix(), 0.5) == pytest.approx(3.0)


def test_fig7_segment_bound():
    """Row maxima 0.85+0.7+0.65 = 2.2 < column maxima 0.8+0.85+0.65."""
    assert segment_upper_bounds(fig7_matrix(), np.array([0, 3]), 0.5)[0] == pytest.approx(2.2)


def test_flat_product_bound_covers_per_table_rounding():
    """The engine bounds every table from one product with the whole
    store, but verifies with one product per table; the two round
    differently. With τ set to similarities the per-table products hit
    exactly, no table's bound may fall below its exact score."""
    g = np.random.default_rng(5)
    dim = 64
    q = g.normal(size=(4, dim))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    mats = {}
    for t in range(150):
        rows = []
        for _ in range(int(g.integers(1, 6))):
            i = int(g.integers(0, 4))
            u = g.normal(size=dim)
            u -= (u @ q[i]) * q[i]
            u /= np.linalg.norm(u)
            rows.append(0.7 * q[i] + np.sqrt(1 - 0.7 ** 2) * u)  # cos ≈ 0.7
        mats[f"t{t:03d}"] = np.array(rows)
    store = TableStore.from_arrays(mats)
    q = q.astype(np.float32)
    sims = {t: q @ m.T for t, m in store.mats.items()}
    taus = np.unique(np.concatenate([s.ravel() for s in sims.values()]))
    taus = taus[np.abs(taus - 0.7) < 1e-6]
    assert len(taus) >= 5
    cands = np.arange(len(store.table_ids))
    for tau in taus:
        eng = SearchEngine(store=store, mode="pruning", tau=float(tau))
        ub = eng.candidate_upper_bounds(q, cands)
        exact = np.array([table_union_score(sims[t], float(tau)) for t in store.table_ids])
        assert np.all(ub >= exact)


def test_example_4_2_lower_bound():
    assert lower_bound(fig7_matrix(), 0.5) == pytest.approx(1.5)


def test_threshold_removes_subtau_edges():
    w = threshold_edges(fig7_matrix(), 0.5)
    assert w[2, 2] == 0.0
    assert w[0, 1] == pytest.approx(0.85)


def test_empty_matrix():
    assert table_union_score(np.zeros((0, 3)), 0.5) == 0.0
    assert table_union_score(np.zeros((3, 0)), 0.5) == 0.0
    assert upper_bound(np.zeros((2, 2)), 0.5) == 0.0
    assert lower_bound(np.zeros((2, 2)), 0.5) == 0.0
    assert segment_upper_bounds(np.zeros((0, 3)), np.array([0, 1, 3]), 0.5).tolist() == [0, 0]
    assert segment_upper_bounds(np.zeros((2, 0)), np.array([0]), 0.5).tolist() == []


def test_all_below_threshold():
    w = np.full((3, 3), 0.4)
    assert table_union_score(w, 0.5) == 0.0


def test_identity_similarity():
    w = np.eye(4)
    assert table_union_score(w, 0.5) == pytest.approx(4.0)


def test_rectangular_more_rows():
    w = np.array([[0.9, 0.0], [0.8, 0.7], [0.0, 0.95]])
    # best: (0,0)=0.9 + (2,1)=0.95
    assert table_union_score(w, 0.5) == pytest.approx(1.85)


def test_lb_equals_exact_when_disjoint():
    w = np.diag([0.9, 0.8, 0.7])
    assert lower_bound(w, 0.5) == pytest.approx(table_union_score(w, 0.5))


def test_ub_equals_exact_for_perfect_match():
    w = np.eye(3) * 0.9
    assert upper_bound(w, 0.5) == pytest.approx(2.7)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_hungarian_square_random(n):
    g = np.random.default_rng(n)
    w = g.random((n, n))
    score, matching = hungarian_max(w)
    assert len(matching) == n  # all weights positive → perfect matching
    if n <= 5:
        best = max(
            sum(w[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert score == pytest.approx(best)
