"""Column encoders: corpus-pretrained token embeddings + contrastive training.

This is the substitution for the paper's RoBERTa-based encoder (see
DESIGN.md §2): we pre-train `pyspark.ml.feature.Word2Vec` on the
serialized lake columns (fully unsupervised, like the LM), pool token
vectors into per-column *base vectors*, and learn a linear-contextual
projection with the paper's exact contrastive objective (Alg. 1, Eq.
1–3) and augmentation operators (Table 1):

    MultiColumnEncoder (Starmie):  z_c = norm(W1·b_c + W2·b_ctx(c))
    SingleColEncoder   (SingleCol baseline): z_c = norm(W·b_c)

where ``b_ctx(c)`` is the mean base vector of the *other* columns of the
same table — the contextualization path. Ablating ``W2`` yields exactly
the paper's SingleCol baseline, so the Starmie-vs-SingleCol comparison
measures precisely what the paper measures: the value of table context.

``MultiColumnEncoder.encode`` is the one column-encoding kernel: it
pools each unit's tokens into a unit vector (``Embedder.unit_vecs``),
averages a column's unit vectors into its base vector, adds the context
vectors and projects (``forward``) to unit-norm embeddings. Training
runs the same steps on augmented views (plus gradients); lake inference
(``infer_embeddings``, a table-batched ``datalake.io.map_tables`` pass
with the broadcast embedder and encoder) and query-table embedding
(``eval.ml_discovery.embed_query_table``) call ``encode`` itself, so the
lake and the query are the same function of a table.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..datalake.io import map_tables
from .augment import ColumnView, TableView, aligned_pairs, apply_op
from .contrastive import Adam, TAU_DEFAULT, loss_and_grad, normalize_rows


@dataclass
class Embedder:
    """Token → dense vector map (the pre-trained 'LM' substitute)."""

    vectors: dict[str, np.ndarray]
    dim: int

    def tokens_vec(self, tokens: list[str]) -> np.ndarray:
        acc = np.zeros(self.dim, dtype=np.float32)
        k = 0
        for t in tokens:
            v = self.vectors.get(t)
            if v is not None:
                acc += v
                k += 1
        return acc / k if k else acc

    def unit_vecs(self, units: list[list[str]]) -> np.ndarray:
        if not units:
            return np.zeros((0, self.dim), dtype=np.float32)
        return np.stack([self.tokens_vec(u) for u in units])


def train_word2vec(
    prep_df: DataFrame,
    *,
    dim: int = 64,
    window: int = 8,
    min_count: int = 1,
    max_iter: int = 2,
    seed: int = 42,
) -> Embedder:
    """Pre-train token embeddings on the serialized lake (one sentence per column)."""
    # Imported here, not at module level: Spark's Python workers import
    # this module to run ``encode`` in the inference pass, and loading
    # MLlib in them slows that pass (≈0.3 s on a 12-table lake, 4 cores).
    from pyspark.ml.feature import Word2Vec

    sent = prep_df.select(F.col("tokens").alias("text")).where(F.size("tokens") > 0)
    w2v = Word2Vec(
        vectorSize=dim,
        windowSize=window,
        minCount=min_count,
        maxIter=max_iter,
        seed=seed,
        inputCol="text",
        outputCol="vec",
    )
    model = w2v.fit(sent)
    vecs = {
        r["word"]: np.asarray(r["vector"].toArray(), dtype=np.float32)
        for r in model.getVectors().collect()
    }
    return Embedder(vectors=vecs, dim=dim)


def collect_table_views(prep_df: DataFrame, embedder: Embedder) -> dict[str, TableView]:
    """Collect the preprocessed lake to driver-side TableViews for training.

    Lite lakes hold ≤ a few hundred thousand selected tokens, so this is
    small; the encoder's two 64×64 matrices make a distributed optimizer
    pure overhead (see DESIGN.md §3).
    """
    rows = prep_df.select(
        "table_id", "col_idx", "units", "numeric_frac", "empty_frac"
    ).collect()
    grouped: dict[str, list] = {}
    for r in rows:
        grouped.setdefault(r["table_id"], []).append(r)
    out: dict[str, TableView] = {}
    for tid, rs in grouped.items():
        rs.sort(key=lambda r: r["col_idx"])
        cols = [
            ColumnView(
                col_id=int(r["col_idx"]),
                units=[list(u) for u in r["units"]],
                vecs=embedder.unit_vecs([list(u) for u in r["units"]]),
                is_numeric=r["numeric_frac"] > 0.5,
                empty_frac=float(r["empty_frac"]),
            )
            for r in rs
        ]
        out[tid] = TableView(table_id=tid, cols=cols)
    return out


def base_vectors(col_vecs: list[np.ndarray], dim: int) -> np.ndarray:
    """Per-column base vector: mean of the column's unit vectors (zero if none)."""
    b = np.zeros((len(col_vecs), dim), dtype=np.float64)
    for i, vecs in enumerate(col_vecs):
        if len(vecs):
            b[i] = vecs.mean(axis=0)
    return b


def context_vectors(b: np.ndarray) -> np.ndarray:
    """Mean base vector of the *other* columns (zero for 1-column tables)."""
    m = b.shape[0]
    if m <= 1:
        return np.zeros_like(b)
    total = b.sum(axis=0, keepdims=True)
    return (total - b) / (m - 1)


@dataclass
class TrainStats:
    losses: list[float]
    seconds: float


class MultiColumnEncoder:
    """Starmie's contextualized column encoder (trainable W1, W2)."""

    def __init__(self, d_in: int, d_out: int = 64, seed: int = 0):
        g = np.random.default_rng(seed)
        self.d_in, self.d_out = d_in, d_out
        scale = 1.0 / np.sqrt(d_in)
        self.W1 = np.eye(d_out, d_in) + g.normal(0, 0.01, (d_out, d_in))
        self.W2 = g.normal(0, 0.01 * scale, (d_out, d_in))

    # -- forward ----------------------------------------------------------
    def _features(self, col_vecs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        b = base_vectors(col_vecs, self.d_in)
        return b, context_vectors(b)

    def forward(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return b @ self.W1.T + c @ self.W2.T

    def encode(self, embedder: Embedder, units: list[list[list[str]]]) -> np.ndarray:
        """Embed one table: ``units[i]`` holds column i's token lists.

        Returns one row per column: unit-norm, or zero for a column with
        no known token that gets no context.
        """
        b, c = self._features([embedder.unit_vecs(u) for u in units])
        return normalize_rows(self.forward(b, c))

    # -- training (Algorithm 1, multi-column variant of §3.3) -------------
    def train(
        self,
        tables: dict[str, TableView],
        *,
        op: str = "drop_col",
        n_epochs: int = 12,
        batch_tables: int = 8,
        lr: float = 5e-3,
        tau: float = TAU_DEFAULT,
        seed: int = 0,
        embedder: Embedder | None = None,
    ) -> TrainStats:
        rng = np.random.default_rng(seed)
        opt = Adam([self.W1, self.W2], lr=lr)
        tids = sorted(tables)
        losses: list[float] = []
        t0 = time.perf_counter()
        for _ in range(n_epochs):
            order = rng.permutation(len(tids))
            for s in range(0, len(tids), batch_tables):
                batch = [tables[tids[i]] for i in order[s : s + batch_tables]]
                loss = self._step(batch, op, rng, opt, tau, embedder)
                losses.append(loss)
        return TrainStats(losses=losses, seconds=time.perf_counter() - t0)

    def _step(self, batch, op, rng, opt, tau, embedder) -> float:
        views: list[tuple[TableView, TableView]] = []
        for v in batch:
            views.append((v, apply_op(v, op, rng, embedder=embedder)))
        b_blocks, c_blocks, pairs = [], [], []
        offset = 0
        for ori, aug in views:
            bo, co = self._features([c.vecs for c in ori.cols])
            ba, ca = self._features([c.vecs for c in aug.cols])
            pairs.extend(
                aligned_pairs(ori, aug, offset, offset + len(ori.cols))
            )
            b_blocks.extend([bo, ba])
            c_blocks.extend([co, ca])
            offset += len(ori.cols) + len(aug.cols)
        b = np.vstack(b_blocks)
        c = np.vstack(c_blocks)
        u = self.forward(b, c)
        loss, du = loss_and_grad(u, pairs, tau)
        opt.step([du.T @ b, du.T @ c])
        return loss


class SingleColEncoder(MultiColumnEncoder):
    """The paper's SingleCol baseline: same training, no context path."""

    def __init__(self, d_in: int, d_out: int = 64, seed: int = 0):
        super().__init__(d_in, d_out, seed)
        self.W2 = np.zeros_like(self.W2)

    def forward(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return b @ self.W1.T

    def _step(self, batch, op, rng, opt, tau, embedder) -> float:
        # Single-column training (§3.2): each column is an independent
        # item; augmentation transforms columns one at a time, so
        # column-level ops degrade to cell-level ones. A one-column table
        # has a zero context vector, so W2's gradient is zero and it
        # stays at 0.
        col_op = op if op in ("drop_cell", "drop_token", "swap_token",
                              "repl_token", "sample_row", "sample_row_ordered",
                              "shuffle_row") else "sample_row"
        singles = [TableView(v.table_id, [c]) for v in batch for c in v.cols]
        return super()._step(singles, col_op, rng, opt, tau, embedder)


EMB_SCHEMA = T.StructType(
    [
        T.StructField("table_id", T.StringType()),
        T.StructField("col_idx", T.IntegerType()),
        T.StructField("sem_type", T.StringType()),
        T.StructField("domain", T.StringType()),
        T.StructField("emb", T.ArrayType(T.FloatType())),
    ]
)


def infer_embeddings(
    prep_df: DataFrame, embedder: Embedder, encoder: MultiColumnEncoder
) -> DataFrame:
    """Lake-wide model inference: one contextualized embedding per column.

    Runs ``encoder.encode`` on every table (``map_tables``), with the
    embedder and encoder broadcast — the offline embedding pass of Fig. 2.
    """
    model_b = prep_df.sparkSession.sparkContext.broadcast((embedder, encoder))

    def _per_table(pdf: pd.DataFrame) -> pd.DataFrame:
        emb, enc = model_b.value
        # Arrow hands array columns over as numpy arrays; use plain lists.
        z = enc.encode(emb, [[list(u) for u in units] for units in pdf["units"]])
        return pd.DataFrame(
            {
                "table_id": pdf["table_id"].values,
                "col_idx": pdf["col_idx"].values,
                "sem_type": pdf["sem_type"].values,
                "domain": pdf["domain"].values,
                "emb": [r.astype(np.float32).tolist() for r in z],
            }
        )

    return map_tables(prep_df, _per_table, EMB_SCHEMA)
