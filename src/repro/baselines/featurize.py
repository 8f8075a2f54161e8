"""Shared feature blocks for the non-contrastive baseline encoders.

Each baseline (Sherlock, SATO, D3L) is reduced — as in the paper's
experiment design — to a dense column vector consumed by the *same*
search machinery as Starmie (Table 8 applies Linear/Pruning/LSH/HNSW to
every method). We build each method's vector as a concatenation of
L2-normalized feature *blocks*, each scaled by a weight with
``Σ w² = 1``; the cosine of two such vectors is then exactly the
weighted average of the per-block cosines — which is how D3L ensembles
per-feature distances.

Blocks:
- ``stats``    — column statistics (Sherlock's global statistics group)
- ``char``     — character distribution over [a-z0-9]
- ``format``   — regex-pattern histogram (D3L's formatting feature)
- ``emb``      — mean word-embedding of the column's tokens
- ``hashset``  — hashed distinct-token set (D3L's value-overlap feature:
  the cosine of two hashed set vectors estimates set cosine overlap)
- ``topic``    — table-level context vector (SATO's LDA stand-in): the
  mean of the table's per-column ``emb`` blocks

``feature_table`` builds one table's vectors on the driver;
``feature_embeddings`` runs it on every lake table in one table-batched
Spark pass (``datalake.io.map_tables``).
"""
from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..core.encoder import EMB_SCHEMA, Embedder
from ..datalake.io import map_tables

_ALPHANUM = "abcdefghijklmnopqrstuvwxyz0123456789"
_CHAR_IDX = {c: i for i, c in enumerate(_ALPHANUM)}
_PAT_RUNS = re.compile(r"[A-Z]+|[a-z]+|[0-9]+|[^A-Za-z0-9]+")


def _l2(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 1e-12 else v


def _hash_idx(s: str, dim: int) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:4], "little") % dim


def stats_block(cells: list[str], tokens: list[str]) -> np.ndarray:
    lens = np.array([len(c) for c in cells if c], dtype=float)
    if lens.size == 0:
        lens = np.zeros(1)
    n = max(1, len(cells))
    joined = "".join(cells)
    total_chars = max(1, len(joined))
    digits = sum(ch.isdigit() for ch in joined)
    alphas = sum(ch.isalpha() for ch in joined)
    numeric_cells = sum(
        1 for c in cells if c and c.replace(".", "", 1).replace("-", "", 1).isdigit()
    )
    feats = np.array(
        [
            lens.mean() / 40.0,
            lens.std() / 20.0,
            numeric_cells / n,
            len(set(cells)) / n,
            sum(1 for c in cells if not c) / n,
            len(tokens) / (4.0 * n),
            digits / total_chars,
            alphas / total_chars,
        ]
    )
    return _l2(np.clip(feats, 0, 3))


def char_block(cells: list[str]) -> np.ndarray:
    v = np.zeros(len(_ALPHANUM))
    for c in cells:
        for ch in c.lower():
            i = _CHAR_IDX.get(ch)
            if i is not None:
                v[i] += 1
    return _l2(v)


def pattern_signature(cell: str) -> str:
    out = []
    for run in _PAT_RUNS.findall(cell):
        ch = run[0]
        if ch.isupper():
            out.append("A")
        elif ch.islower():
            out.append("a")
        elif ch.isdigit():
            out.append("9" if len(run) < 4 else "9+")
        else:
            out.append(ch if ch in "./-:," else "_")
    return "".join(out)


def format_block(cells: list[str], dim: int = 16) -> np.ndarray:
    v = np.zeros(dim)
    for c in cells:
        if c:
            v[_hash_idx(pattern_signature(c), dim)] += 1
    return _l2(v)


def hashset_block(tokens: list[str], dim: int = 256) -> np.ndarray:
    v = np.zeros(dim)
    for t in set(tokens):
        v[_hash_idx(t, dim)] = 1.0
    return _l2(v)


def emb_block(tokens: list[str], embedder: Embedder) -> np.ndarray:
    return _l2(embedder.tokens_vec(tokens).astype(np.float64))


# ---------------------------------------------------------------------------
# Spark pass producing baseline embeddings in the common EMB_SCHEMA.
# ---------------------------------------------------------------------------

SPECS: dict[str, list[tuple[str, float]]] = {
    # (block, weight) lists; weights are squared-mass shares (Σ = 1).
    #
    # Sherlock-like baseline (paper §5.1.4, Hulsebos et al. [21]). Sherlock
    # learns column vectors from engineered features (statistics,
    # character distributions, word embeddings). Without its labeled
    # semantic-type training set (not reproducible offline, and the paper
    # uses it as a *representation*, not a classifier), we use the same
    # feature groups directly as the column vector — a single-column,
    # context-free encoder.
    "sherlock": [("stats", 0.2), ("char", 0.2), ("emb", 0.6)],
    # SATO-like baseline (paper §5.1.4, Zhang et al. [54]). SATO extends
    # Sherlock with *table context* captured by an LDA topic model over the
    # table's values. Our stand-in for the topic vector is the table-level
    # mean of the per-column embedding blocks — a fixed (untrained) context
    # signal, which is exactly the qualitative difference the paper
    # exploits: SATO has context but no contrastive training, so it lands
    # between Sherlock and Starmie.
    "sato": [("stats", 0.15), ("char", 0.15), ("emb", 0.4), ("topic", 0.3)],
    # D3L-like baseline (paper §5.1.4, Bogatu et al. [2]). D3L ensembles
    # per-feature distances: value overlap, formatting (regular
    # expressions), word embeddings, and distribution features (the
    # column-name feature is omitted, as the paper does for fairness).
    # Each feature is an L2-normalized block, so the cosine of the
    # concatenated vector is the ensemble average of per-feature cosines.
    "d3l": [("hashset", 0.3), ("format", 0.2), ("emb", 0.3), ("stats", 0.2)],
}


def feature_table(
    cells: list[list[str]],
    cell_tokens: list[list[list[str]]],
    embedder: Embedder,
    method: str,
) -> np.ndarray:
    """One table's ``method`` vectors, one unit-norm float32 row per column.

    ``cells[i]`` holds column i's cell strings, ``cell_tokens[i]`` one
    token list per cell.
    """
    spec = SPECS[method]
    per_col: list[dict[str, np.ndarray]] = []
    for col_cells, col_tokens in zip(cells, cell_tokens):
        col_cells = list(col_cells)
        tokens = [t for ct in col_tokens for t in ct]
        per_col.append(
            {
                "stats": stats_block(col_cells, tokens),
                "char": char_block(col_cells),
                "format": format_block(col_cells),
                "hashset": hashset_block(tokens),
                "emb": emb_block(tokens, embedder),
            }
        )
    if any(b == "topic" for b, _ in spec):
        topic = _l2(np.mean([c["emb"] for c in per_col], axis=0))
        for c in per_col:
            c["topic"] = topic
    return np.stack(
        [
            _l2(np.concatenate([np.sqrt(w) * blocks[b] for b, w in spec]))
            for blocks in per_col
        ]
    ).astype(np.float32)


def feature_embeddings(
    tokens_df: DataFrame, embedder: Embedder, method: str
) -> DataFrame:
    """Compute a baseline's column vectors lake-wide (``feature_table`` per table)."""
    if method not in SPECS:
        raise ValueError(f"unknown baseline method {method!r}")
    emb_b = tokens_df.sparkSession.sparkContext.broadcast(embedder)

    def _per_table(pdf: pd.DataFrame) -> pd.DataFrame:
        z = feature_table(pdf["cells"], pdf["cell_tokens"], emb_b.value, method)
        return pd.DataFrame(
            {
                "table_id": pdf["table_id"].values,
                "col_idx": pdf["col_idx"].values,
                "sem_type": pdf["sem_type"].values,
                "domain": pdf["domain"].values,
                "emb": [r.tolist() for r in z],
            }
        )

    return map_tables(tokens_df, _per_table, EMB_SCHEMA)
