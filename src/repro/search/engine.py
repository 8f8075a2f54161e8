"""Online query processing (paper Algorithm 3, §4).

``SearchEngine`` implements the filter-and-verification framework with
the paper's four design choices:

- ``linear``  — scan every lake table, exact verification each time;
- ``pruning`` — bound every table at once (one product of the query
  with the flat store, then ``segment_upper_bounds``), visit tables in
  descending UB order and stop at the first whose UB cannot beat the
  k-th best score. Survivors are still verified, so the scores and the
  ranking are exactly Linear's (the paper's Table 5), and a query
  verifies ≈k tables;
- ``lsh``     — candidates from a simHash LSH index per query column;
- ``hnsw``    — candidates from an HNSW index per query column.

LSH and HNSW candidates are bounded and visited like Pruning's.
Verification = exact max-weight bipartite matching on the τ-thresholded
cosine graph. Results are a min-heap top-k (Definition 2.1); ties in
score go to the smaller table id, so the result is the first k of the
``(−score, table_id)`` order whatever the visit order.
"""
from __future__ import annotations

import heapq
import time
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

from .hnsw import HNSW
from .lsh import SimHashLSH
# ``upper_bound`` is not called here, but the benchmark's traced run
# (perfbench/run.py) wraps all three names on this module.
from .matching import (  # noqa: F401
    lower_bound,
    segment_upper_bounds,
    table_union_score,
    upper_bound,
)

MODES = ("linear", "pruning", "lsh", "hnsw")


# Slack added to every similarity of the flat product before bounding.
# Verification multiplies the query with one table at a time, and a gemm
# over the whole store rounds differently, by at most 2·64·2⁻²⁴ ≈ 7.6e-6
# for dim-64 unit vectors. Thresholding ``S + δ`` at τ keeps every edge
# that verification keeps and never underestimates one.
_FLAT_SLACK = 1e-5


@dataclass
class TableStore:
    """The vector store: every column embedding in one float32 matrix.

    Table ``table_ids[i]`` (sorted) owns rows ``offsets[i]:offsets[i+1]``
    of ``vecs``; ``mats[tid]`` is a view of that row block.
    """

    table_ids: list[str]
    vecs: np.ndarray
    offsets: np.ndarray
    mats: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.mats = {
            t: self.vecs[a:b]
            for t, a, b in zip(self.table_ids, self.offsets[:-1], self.offsets[1:])
        }

    @property
    def dim(self) -> int:
        return self.vecs.shape[1]

    @classmethod
    def from_embeddings_df(cls, emb_df: DataFrame) -> "TableStore":
        rows = emb_df.select("table_id", "col_idx", "emb").collect()
        grouped: dict[str, list] = {}
        for r in rows:
            grouped.setdefault(r["table_id"], []).append((r["col_idx"], r["emb"]))
        return cls.from_arrays(
            {tid: [e for _, e in sorted(cols)] for tid, cols in grouped.items()}
        )

    @classmethod
    def from_arrays(cls, mats: dict[str, np.ndarray]) -> "TableStore":
        ids = sorted(mats)
        blocks = [np.asarray(mats[t], dtype=np.float32) for t in ids]
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum([b.shape[0] for b in blocks], out=offsets[1:])
        vecs = np.concatenate(blocks) if blocks else np.zeros((0, 0), dtype=np.float32)
        return cls(table_ids=ids, vecs=vecs, offsets=offsets)

    def owners(self, cols) -> np.ndarray:
        """Index in ``table_ids`` of the table owning each row of ``vecs``."""
        return np.searchsorted(self.offsets, cols, side="right") - 1

    def memory_bytes(self) -> int:
        return self.vecs.nbytes + self.offsets.nbytes


@dataclass
class QueryStats:
    n_candidates: int = 0
    n_verifications: int = 0
    n_ub_prunes: int = 0
    n_lb_accepts: int = 0
    seconds: float = 0.0


@dataclass
class SearchEngine:
    store: TableStore
    mode: str = "linear"
    tau: float = 0.6
    n_neighbors: int = 24
    ef_search: int = 48
    lsh_tables: int = 8
    lsh_bits: int = 12
    hnsw_M: int = 8
    hnsw_efc: int = 64
    seed: int = 0
    _index: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        vecs = self.store.vecs
        if self.mode == "lsh":
            self._index = SimHashLSH(
                self.store.dim, n_tables=self.lsh_tables,
                n_bits=self.lsh_bits, seed=self.seed,
            )
            self._index.add(np.arange(vecs.shape[0]), vecs)
        elif self.mode == "hnsw":
            self._index = HNSW(
                self.store.dim, M=self.hnsw_M,
                ef_construction=self.hnsw_efc, seed=self.seed,
            )
            self._index.add_batch(vecs)

    # -- findCandidates (§4.2) ---------------------------------------------
    def _find_candidates(self, q_mat: np.ndarray) -> np.ndarray:
        """Sorted indices into ``store.table_ids``."""
        if self.mode in ("linear", "pruning") or not self.store.table_ids:
            return np.arange(len(self.store.table_ids))
        hits: list[int] = []
        for s in q_mat:
            if self.mode == "lsh":
                hits.extend(self._index.query(s))
            else:
                hits.extend(
                    cid for cid, sim in self._index.search(s, self.n_neighbors, ef=self.ef_search)
                    if sim >= self.tau
                )
        return np.unique(self.store.owners(np.asarray(hits, dtype=np.int64)))

    def candidate_upper_bounds(self, q_mat: np.ndarray, cands: np.ndarray) -> np.ndarray:
        """UB of every candidate table from one product with its columns."""
        st = self.store
        lo, lens = st.offsets[cands], st.offsets[cands + 1] - st.offsets[cands]
        offsets = np.zeros(len(cands) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        if len(cands) == len(st.table_ids):
            vecs = st.vecs
        else:
            vecs = st.vecs[np.arange(offsets[-1]) + np.repeat(lo - offsets[:-1], lens)]
        return segment_upper_bounds(q_mat @ vecs.T + _FLAT_SLACK, offsets, self.tau)

    # -- Algorithm 3 ---------------------------------------------------------
    def query(
        self, q: np.ndarray | str, k: int = 10, exclude_self: str | None = None
    ) -> tuple[list[tuple[str, float]], QueryStats]:
        if isinstance(q, str):
            q_mat = self.store.mats[q]
        else:
            q_mat = np.asarray(q, dtype=np.float32)
        ids = self.store.table_ids
        stats = QueryStats()
        t0 = time.perf_counter()
        cands = self._find_candidates(q_mat)
        # query tables stay in the lake (as in the paper) unless excluded
        if exclude_self is not None:
            i = bisect_left(ids, exclude_self)
            cands = cands[cands != i] if i < len(ids) and ids[i] == exclude_self else cands
        stats.n_candidates = len(cands)
        if self.mode == "linear" or not len(cands):
            order, ubs = cands.tolist(), None
        else:
            ub = self.candidate_upper_bounds(q_mat, cands)
            by_ub = np.argsort(-ub, kind="stable")  # ties keep ascending index
            order, ubs = cands[by_ub].tolist(), ub[by_ub].tolist()
        heap: list[tuple[float, int]] = []  # min-heap of (score, -table index)
        for n, i in enumerate(order):
            bounded = ubs is not None and len(heap) == k
            if bounded and (ubs[n], -i) <= heap[0]:
                # (UB, -index) only falls from here on: nothing left can enter
                stats.n_ub_prunes = len(order) - n
                break
            sim = q_mat @ self.store.mats[ids[i]].T
            if bounded and lower_bound(sim, self.tau) > heap[0][0]:
                stats.n_lb_accepts += 1
            stats.n_verifications += 1
            entry = (table_union_score(sim, self.tau), -i)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
        stats.seconds = time.perf_counter() - t0
        return [(ids[-neg], s) for s, neg in sorted(heap, reverse=True)], stats

    def memory_bytes(self) -> int:
        b = self.store.memory_bytes()
        if self._index is not None:
            b += self._index.memory_bytes()
        return b
