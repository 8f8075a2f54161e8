"""End-to-end pipeline shared by the per-table experiment runners.

Offline stage (Fig. 2): generate lake → tokenize (Spark) →
TF-IDF (Spark) → preprocess (Spark) → Word2Vec pre-training (MLlib) →
contrastive training (driver, Alg. 1) → model inference (Spark) →
vector store / index. Online stage: Algorithm 3 via ``SearchEngine``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from ..baselines.featurize import feature_embeddings
from ..baselines.santos import SantosRanker
from ..core.encoder import (
    Embedder,
    MultiColumnEncoder,
    SingleColEncoder,
    collect_table_views,
    infer_embeddings,
    train_word2vec,
)
from ..core.preprocess import preprocess_lake
from ..core.tfidf import idf_map
from ..core.tokenize import tokenize_lake
from ..datalake.generator import Lake
from ..search.engine import QueryStats, SearchEngine, TableStore

VECTOR_METHODS = ("starmie", "singlecol", "sato", "sherlock", "d3l")
ALL_METHODS = VECTOR_METHODS + ("santos",)

# Column-unionability thresholds τ per representation. The trained
# encoders produce sharply separated cosines; the feature baselines'
# blocks (char distributions etc.) keep unrelated columns at higher
# baseline cosine, so their τ sits higher. Calibrated once on
# santos_small_lite and held fixed across benchmarks.
DEFAULT_TAU = {
    "starmie": 0.6,
    "singlecol": 0.6,
    "sato": 0.80,
    "sherlock": 0.80,
    "d3l": 0.70,
}


@dataclass
class Prepared:
    """Cached offline artifacts for one lake."""

    spark: SparkSession
    lake: Lake
    tokens_df: DataFrame
    idf: dict[str, float]
    prep_df: DataFrame
    embedder: Embedder
    timings: dict[str, float] = field(default_factory=dict)


def prepare(
    spark: SparkSession,
    lake: Lake,
    *,
    sampling: str = "tfidf_entity",
    budget: int = 40,
    dim: int = 64,
    w2v_iter: int = 2,
    seed: int = 0,
) -> Prepared:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    tokens_df = tokenize_lake(lake.df).persist()
    idf = idf_map(tokens_df)
    timings["tokenize_tfidf"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    prep_df = preprocess_lake(
        tokens_df, method=sampling, budget=budget, idf=idf, seed=seed
    ).persist()
    prep_df.count()  # materialize
    timings["preprocess"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    embedder = train_word2vec(prep_df, dim=dim, max_iter=w2v_iter, seed=42 + seed)
    timings["word2vec_pretrain"] = time.perf_counter() - t0
    return Prepared(spark, lake, tokens_df, idf, prep_df, embedder, timings)


@dataclass
class MethodBundle:
    """A ready-to-search representation: a vector store or the SANTOS ranker."""

    name: str
    tau: float
    store: TableStore | None = None
    ranker: SantosRanker | None = None
    train_seconds: float = 0.0
    infer_seconds: float = 0.0


def train_and_embed(
    prep: Prepared,
    method: str,
    *,
    op: str = "drop_col",
    epochs: int = 10,
    batch_tables: int = 8,
    lr: float = 5e-3,
    seed: int = 0,
) -> tuple[DataFrame, MultiColumnEncoder | None, float]:
    """Embed every lake column with one vector method, training it first.

    Returns the (lazy) embedding DataFrame, the trained encoder (``None``
    for the feature baselines, which have nothing to train) and the
    training seconds.
    """
    if method not in ("starmie", "singlecol"):
        return feature_embeddings(prep.tokens_df, prep.embedder, method), None, 0.0
    views = collect_table_views(prep.prep_df, prep.embedder)
    cls = MultiColumnEncoder if method == "starmie" else SingleColEncoder
    enc = cls(d_in=prep.embedder.dim, seed=seed)
    t0 = time.perf_counter()
    enc.train(
        views, op=op, n_epochs=epochs, batch_tables=batch_tables,
        lr=lr, seed=seed, embedder=prep.embedder,
    )
    train_s = time.perf_counter() - t0
    return infer_embeddings(prep.prep_df, prep.embedder, enc), enc, train_s


def build_method(
    prep: Prepared, method: str, *, tau: float | None = None, **train_kw
) -> MethodBundle:
    """Train/featurize one method on a prepared lake and load its vector store.

    ``train_kw`` are ``train_and_embed``'s keyword arguments.
    """
    tau = DEFAULT_TAU.get(method, 0.6) if tau is None else tau
    if method == "santos":
        t0 = time.perf_counter()
        ranker = SantosRanker(prep.lake.tables())
        return MethodBundle(
            name=method, tau=tau, ranker=ranker,
            train_seconds=time.perf_counter() - t0,
        )
    emb_df, _, train_s = train_and_embed(prep, method, **train_kw)
    t0 = time.perf_counter()
    store = TableStore.from_embeddings_df(emb_df)
    return MethodBundle(
        name=method, tau=tau, store=store,
        train_seconds=train_s, infer_seconds=time.perf_counter() - t0,
    )


@dataclass
class SearchRun:
    rankings: dict[str, list[str]]
    avg_query_seconds: float
    avg_verifications: float
    avg_candidates: float
    engine_memory_bytes: int = 0
    index_build_seconds: float = 0.0


def run_union_search(
    bundle: MethodBundle,
    queries: list[str],
    *,
    k: int = 10,
    mode: str = "pruning",
) -> SearchRun:
    """Top-k union search for all queries; aggregates Algorithm 3 stats."""
    if bundle.ranker is not None:
        t0 = time.perf_counter()
        rankings = {q: [t for t, _ in bundle.ranker.query(q, k)] for q in queries}
        dt = (time.perf_counter() - t0) / max(1, len(queries))
        return SearchRun(rankings, dt, 0.0, 0.0)
    t0 = time.perf_counter()
    engine = SearchEngine(store=bundle.store, mode=mode, tau=bundle.tau)
    build_s = time.perf_counter() - t0
    rankings: dict[str, list[str]] = {}
    agg = QueryStats()
    for q in queries:
        res, st = engine.query(q, k)
        rankings[q] = [t for t, _ in res]
        agg.n_candidates += st.n_candidates
        agg.n_verifications += st.n_verifications
        agg.seconds += st.seconds
    n = max(1, len(queries))
    return SearchRun(
        rankings,
        agg.seconds / n,
        agg.n_verifications / n,
        agg.n_candidates / n,
        engine.memory_bytes(),
        build_s,
    )
