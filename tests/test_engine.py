"""Algorithm 3 engine: exactness of linear/pruning, index modes, stats."""
import numpy as np
import pytest

from repro.search.engine import MODES, SearchEngine, TableStore
from repro.search.matching import table_union_score


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def store():
    """60 synthetic tables from 5 column-archetype groups."""
    g = np.random.default_rng(7)
    archetypes = unit(g.normal(size=(5, 24)))
    mats = {}
    for t in range(60):
        grp = t % 5
        m = int(g.integers(3, 7))
        cols = unit(
            archetypes[grp] * 0.9
            + 0.25 * g.normal(size=(m, 24))
            + 0.15 * archetypes[(grp + t) % 5]
        )
        mats[f"tab{t:03d}_g{grp}"] = cols.astype(np.float32)
    return TableStore.from_arrays(mats)


def brute_force_topk(store, q, k, tau):
    q = store.mats[q] if isinstance(q, str) else q
    scored = [
        (tid, table_union_score(q @ store.mats[tid].T, tau))
        for tid in store.table_ids
    ]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def test_linear_matches_brute_force(store):
    eng = SearchEngine(store=store, mode="linear", tau=0.6)
    for q in ("tab000_g0", "tab007_g2", "tab033_g3"):
        res, _ = eng.query(q, k=8)
        expected = brute_force_topk(store, q, 8, 0.6)
        assert [t for t, _ in res] == [t for t, _ in expected]
        for (_, a), (_, b) in zip(res, expected):
            assert a == pytest.approx(b)


def test_pruning_identical_to_linear(store):
    """The paper's Table 5: Pruning preserves effectiveness exactly."""
    lin = SearchEngine(store=store, mode="linear", tau=0.6)
    prn = SearchEngine(store=store, mode="pruning", tau=0.6)
    for q in store.table_ids[:10]:
        r1, s1 = lin.query(q, k=6)
        r2, s2 = prn.query(q, k=6)
        assert r1 == r2
        assert s2.n_verifications <= s1.n_verifications


def test_pruning_reduces_verifications(store):
    lin = SearchEngine(store=store, mode="linear", tau=0.6)
    prn = SearchEngine(store=store, mode="pruning", tau=0.6)
    tot_lin = tot_prn = 0
    for q in store.table_ids[:10]:
        tot_lin += lin.query(q, k=5)[1].n_verifications
        tot_prn += prn.query(q, k=5)[1].n_verifications
    assert tot_prn < tot_lin


@pytest.mark.parametrize("mode", ["lsh", "hnsw"])
def test_index_modes_find_group_members(store, mode):
    eng = SearchEngine(store=store, mode=mode, tau=0.6, seed=0)
    res, stats = eng.query("tab000_g0", k=6)
    assert stats.n_candidates < len(store.table_ids)
    got = [t for t, _ in res]
    assert "tab000_g0" in got[:1]  # self is the best match
    same_group = sum(1 for t in got if t.endswith("_g0"))
    assert same_group >= 4


@pytest.mark.parametrize("mode", MODES)
def test_query_by_matrix(store, mode):
    eng = SearchEngine(store=store, mode=mode, tau=0.6, seed=0)
    q = store.mats["tab001_g1"]
    res, _ = eng.query(q, k=4)
    assert len(res) <= 4
    assert res[0][0] == "tab001_g1"


def test_scores_descending(store):
    eng = SearchEngine(store=store, mode="pruning", tau=0.6)
    res, _ = eng.query("tab010_g0", k=10)
    scores = [s for _, s in res]
    assert scores == sorted(scores, reverse=True)


def test_k_larger_than_lake(store):
    eng = SearchEngine(store=store, mode="linear", tau=0.6)
    res, _ = eng.query("tab000_g0", k=500)
    assert len(res) == len(store.table_ids)


def test_exclude_self(store):
    eng = SearchEngine(store=store, mode="linear", tau=0.6)
    res, _ = eng.query(store.mats["tab000_g0"], k=5, exclude_self="tab000_g0")
    assert "tab000_g0" not in [t for t, _ in res]


def test_memory_accounting(store):
    base = SearchEngine(store=store, mode="linear").memory_bytes()
    lsh = SearchEngine(store=store, mode="lsh", seed=0).memory_bytes()
    hnsw = SearchEngine(store=store, mode="hnsw", seed=0).memory_bytes()
    assert base == store.memory_bytes()
    assert lsh > base and hnsw > base


def test_store_layout(store):
    """One float32 matrix; each table's block is a view of its rows."""
    offs = store.offsets
    assert offs[0] == 0 and offs[-1] == store.vecs.shape[0]
    assert np.all(np.diff(offs) >= 0)
    assert store.vecs.shape[0] == sum(m.shape[0] for m in store.mats.values())
    for i, tid in enumerate(store.table_ids):
        m = store.mats[tid]
        assert m.base is store.vecs
        assert np.array_equal(m, store.vecs[offs[i]:offs[i + 1]])
    assert store.owners(np.arange(offs[-1])).tolist() == [
        i for i, t in enumerate(store.table_ids) for _ in range(store.mats[t].shape[0])
    ]
    assert store.memory_bytes() == store.vecs.nbytes + offs.nbytes


def test_invalid_mode_rejected(store):
    with pytest.raises(ValueError):
        SearchEngine(store=store, mode="fancy")


def test_hnsw_much_fewer_candidates_than_linear(store):
    eng = SearchEngine(store=store, mode="hnsw", tau=0.6, n_neighbors=5, seed=0)
    _, stats = eng.query("tab005_g0", k=5)
    assert stats.n_candidates <= len(store.table_ids) // 2


def _basis(n, dim=8):
    return np.eye(dim, dtype=np.float32)[:n]


@pytest.fixture(scope="module")
def tied_store():
    """k cuts through blocks of tied tables: duplicates, then zero scores.

    The query is e0,e1,e2. ``dup*`` score 1.0 each; ``two``/``three``
    score 2/3 and sort after the duplicates, ``zero*`` score 0.
    """
    e = _basis(8)
    mats = {f"dup{i}": e[[0]] for i in range(4)}
    mats.update({f"zero{i}": e[[5 + i % 3]] for i in range(4)})
    mats["two"] = e[[0, 1]]
    mats["three"] = e[[0, 1, 2]]
    mats["a_zero"] = e[[7, 6]]
    return TableStore.from_arrays(mats)


@pytest.mark.parametrize("k", range(1, 12))
def test_ties_resolved_by_table_id(tied_store, k):
    """The top k is the first k of the (-score, table_id) order, whatever
    order a mode visits the tables in."""
    q = _basis(3)
    want = brute_force_topk(tied_store, q, k, 0.6)
    for mode in ("linear", "pruning"):
        res, st = SearchEngine(store=tied_store, mode=mode, tau=0.6).query(q, k=k)
        assert res == want, mode
        assert st.n_verifications + st.n_ub_prunes == st.n_candidates


def _one_column_store():
    g = np.random.default_rng(3)
    return TableStore.from_arrays(
        {f"t{i:02d}": unit(g.normal(size=(1, 16))) for i in range(30)}
    )


@pytest.mark.parametrize("case", ["one_column", "below_tau", "k_over_lake"])
def test_edge_cases_match_brute_force(store, case):
    q, k, tau, lake = store.mats["tab002_g2"], 5, 0.6, store
    if case == "one_column":
        lake = _one_column_store()
        q = lake.mats["t04"]
    elif case == "below_tau":
        tau = 1.01
    else:
        k = 500
    want = brute_force_topk(lake, q, k, tau)
    for mode in ("linear", "pruning"):
        res, _ = SearchEngine(store=lake, mode=mode, tau=tau).query(q, k=k)
        assert [t for t, _ in res] == [t for t, _ in want], mode
        assert [s for _, s in res] == pytest.approx([s for _, s in want]), mode
    for mode in ("lsh", "hnsw"):
        res, _ = SearchEngine(store=lake, mode=mode, tau=tau, seed=0).query(q, k=k)
        for tid, s in res:
            assert s == pytest.approx(table_union_score(q @ lake.mats[tid].T, tau))


@pytest.mark.parametrize("mode", ["lsh", "hnsw"])
def test_no_index_hits_gives_empty_result(mode):
    """LSH: the opposite vector shares no bucket; HNSW: τ above every sim."""
    lake = TableStore.from_arrays({"only": _basis(1)})
    eng = SearchEngine(store=lake, mode=mode, tau=1.5 if mode == "hnsw" else 0.6, seed=0)
    res, st = eng.query(-_basis(1), k=3)
    assert res == [] and st.n_candidates == 0 and st.n_verifications == 0


@pytest.mark.parametrize("mode", MODES)
def test_exclude_self_removes_only_candidate(mode):
    lake = TableStore.from_arrays({"only": _basis(2)})
    res, st = SearchEngine(store=lake, mode=mode, seed=0).query(
        "only", k=3, exclude_self="only")
    assert res == [] and st.n_candidates == 0


@pytest.mark.parametrize("mode", MODES)
def test_empty_store(mode):
    lake = TableStore.from_arrays({})
    assert lake.table_ids == [] and lake.memory_bytes() == lake.offsets.nbytes
    res, st = SearchEngine(store=lake, mode=mode, seed=0).query(_basis(2), k=3)
    assert res == [] and st.n_candidates == 0
