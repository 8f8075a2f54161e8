"""Column encoders: Word2Vec pretraining, contrastive training, Spark inference."""
import numpy as np
import pandas as pd
import pytest

from repro.core.contrastive import normalize_rows
from repro.core.encoder import (
    MultiColumnEncoder,
    SingleColEncoder,
    base_vectors,
    collect_table_views,
    context_vectors,
    infer_embeddings,
)
from repro.eval.ml_discovery import embed_query_table


def units_of(view):
    return [c.units for c in view.cols]


@pytest.fixture(scope="module")
def views(prep_santos):
    return collect_table_views(prep_santos.prep_df, prep_santos.embedder)


def test_word2vec_vocabulary(prep_santos):
    emb = prep_santos.embedder
    assert emb.dim == 64
    assert len(emb.vectors) > 100
    v = next(iter(emb.vectors.values()))
    assert v.shape == (64,)


def test_word2vec_same_type_tokens_closer(prep_santos):
    """Tokens from one vocabulary pool should be closer than cross-pool."""
    from repro.datalake.vocab import TYPES

    emb = prep_santos.embedder

    def tok(pool_name, i):
        from repro.core.tokenize import tokenize_cell

        for v in TYPES[pool_name].pool[i:]:
            ts = tokenize_cell(v)
            if ts and ts[0] in emb.vectors:
                return emb.vectors[ts[0]] / np.linalg.norm(emb.vectors[ts[0]])
        return None

    cities = [tok("city", i) for i in (0, 3, 6, 9)]
    species = [tok("species_common", i) for i in (0, 3, 6, 9)]
    cities = [c for c in cities if c is not None]
    species = [s for s in species if s is not None]
    if len(cities) >= 2 and len(species) >= 2:
        within = np.mean([c1 @ c2 for c1 in cities for c2 in cities])
        cross = np.mean([c @ s for c in cities for s in species])
        assert within > cross


def test_collect_table_views_complete(views, tiny_santos):
    assert set(views) == set(tiny_santos.tables())
    for v in views.values():
        assert all(c.vecs.shape[1] == 64 for c in v.cols)
        assert [c.col_id for c in v.cols] == list(range(len(v.cols)))


def test_base_vectors_mean_of_units(views):
    v = next(iter(views.values()))
    b = base_vectors([c.vecs for c in v.cols], 64)
    for i, c in enumerate(v.cols):
        if len(c.vecs):
            assert np.allclose(b[i], c.vecs.mean(axis=0), atol=1e-6)


def test_context_vectors_excludes_self():
    b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = context_vectors(b)
    assert np.allclose(c[0], [0.5, 1.0])
    assert np.allclose(c[1], [1.0, 0.5])


def test_context_vector_single_column():
    assert not context_vectors(np.ones((1, 4))).any()


def test_training_reduces_loss(views, prep_santos):
    enc = MultiColumnEncoder(d_in=64, seed=0)
    stats = enc.train(views, op="drop_col", n_epochs=6, embedder=prep_santos.embedder, seed=0)
    first = np.mean(stats.losses[: len(stats.losses) // 5])
    last = np.mean(stats.losses[-len(stats.losses) // 5 :])
    assert last < first


def test_singlecol_training_reduces_loss(views, prep_santos):
    enc = SingleColEncoder(d_in=64, seed=0)
    stats = enc.train(views, op="drop_cell", n_epochs=4, embedder=prep_santos.embedder, seed=0)
    assert np.mean(stats.losses[-5:]) < np.mean(stats.losses[:5])


@pytest.mark.parametrize("op", ["drop_col", "repl_token"])
def test_singlecol_training_keeps_w2_zero(views, prep_santos, op):
    """SingleCol trains through the multi-column step on one-column
    tables: their context vector is zero, so W2 never moves."""
    enc = SingleColEncoder(d_in=64, seed=0)
    w1 = enc.W1.copy()
    enc.train(views, op=op, n_epochs=1, embedder=prep_santos.embedder, seed=0)
    assert not enc.W2.any()
    assert not np.array_equal(enc.W1, w1)


def test_encode_view_unit_norm(views, prep_santos):
    enc = MultiColumnEncoder(d_in=64, seed=0)
    z = enc.encode(prep_santos.embedder, units_of(next(iter(views.values()))))
    norms = np.linalg.norm(z, axis=1)
    assert np.allclose(norms[norms > 0], 1.0, atol=1e-5)


def test_singlecol_ignores_context(views, prep_santos):
    enc = SingleColEncoder(d_in=64, seed=0)
    units = units_of(next(v for v in views.values() if len(v.cols) >= 3))
    z_full = enc.encode(prep_santos.embedder, units)
    # dropping a column must not change the remaining columns' embeddings
    z_sub = enc.encode(prep_santos.embedder, units[:-1])
    assert np.allclose(z_full[: len(units) - 1], z_sub, atol=1e-6)


def test_multicolumn_uses_context(views, prep_santos):
    enc = MultiColumnEncoder(d_in=64, seed=0)
    enc.train(views, op="drop_col", n_epochs=4, embedder=prep_santos.embedder, seed=0)
    units = units_of(next(v for v in views.values() if len(v.cols) >= 3))
    z_full = enc.encode(prep_santos.embedder, units)
    z_sub = enc.encode(prep_santos.embedder, units[:-1])
    # contextual path: removing a column shifts the others' embeddings
    assert not np.allclose(z_full[: len(units) - 1], z_sub, atol=1e-6)


def test_encode_edge_cases(prep_santos):
    """One-column tables and unit-less columns: zero context, finite output."""
    emb = prep_santos.embedder
    tok = next(iter(emb.vectors))
    enc = MultiColumnEncoder(d_in=64, seed=0)
    assert enc.W2.any()
    alone = enc.encode(emb, [[[tok]]])
    # no other column: the embedding is the projected base vector alone
    want = normalize_rows(emb.vectors[tok][None].astype(np.float64) @ enc.W1.T)
    assert np.allclose(alone, want, atol=1e-6)
    # an empty column has a zero base vector, so it adds no context
    z = enc.encode(emb, [[], [["no-such-token"]], [[tok]]])
    assert np.isfinite(z).all()
    assert np.allclose(z[2], alone[0], atol=1e-6)
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-6)
    assert not enc.encode(emb, [[]]).any()
    assert enc.encode(emb, []).shape == (0, 64)


def _spark_rows(emb_df) -> dict[tuple[str, int], np.ndarray]:
    """``(table_id, col_idx)`` → embedding; each key must occur once."""
    rows = emb_df.select("table_id", "col_idx", "emb").collect()
    out = {(r["table_id"], r["col_idx"]): np.asarray(r["emb"]) for r in rows}
    assert len(out) == len(rows)
    return out


@pytest.mark.parametrize("cls", [MultiColumnEncoder, SingleColEncoder],
                         ids=lambda c: c.__name__)
def test_infer_matches_driver_encoding(prep_santos, views, cls):
    """Spark inference must agree with the encoding training computes
    from the driver-side views, for every column of the lake."""
    enc = cls(d_in=64, seed=3)
    got = _spark_rows(infer_embeddings(prep_santos.prep_df, prep_santos.embedder, enc))
    expected = {}
    for tid, view in views.items():
        z = normalize_rows(enc.forward(*enc._features([c.vecs for c in view.cols])))
        expected.update({(tid, c.col_id): z[i] for i, c in enumerate(view.cols)})
    assert sorted(got) == sorted(expected)
    for key, z in expected.items():
        assert np.allclose(got[key], z, atol=1e-6), key


def test_infer_tables_cross_batches(prep_santos, views, two_row_arrow_batches):
    """Tables cut by an Arrow batch boundary get ``encode``'s embeddings,
    which depend on every column of the table through the context path."""
    enc = MultiColumnEncoder(d_in=64, seed=3)
    got = _spark_rows(infer_embeddings(prep_santos.prep_df, prep_santos.embedder, enc))
    expected = {}
    for tid, view in views.items():
        z = enc.encode(prep_santos.embedder, units_of(view)).astype(np.float32)
        expected.update({(tid, c.col_id): z[i] for i, c in enumerate(view.cols)})
    assert sorted(got) == sorted(expected)
    for key, z in expected.items():
        assert np.array_equal(got[key], z), key


def test_query_path_matches_spark_inference(prep_santos, tiny_santos, views):
    """A lake table embedded as a query table gets its lake embeddings."""
    enc = MultiColumnEncoder(d_in=64, seed=0)
    enc.train(views, op="drop_col", n_epochs=2, embedder=prep_santos.embedder, seed=0)
    got = _spark_rows(infer_embeddings(prep_santos.prep_df, prep_santos.embedder, enc))
    for tid, cols in list(tiny_santos.tables().items())[:10]:
        pdf = pd.DataFrame({c["col_idx"]: c["cells"] for c in cols})
        z = embed_query_table(pdf, prep_santos.embedder, enc, prep_santos.idf)
        for i, c in enumerate(cols):
            assert np.allclose(z[i], got[(tid, c["col_idx"])], atol=1e-5), tid


def test_infer_schema_carries_ground_truth(prep_santos):
    enc = SingleColEncoder(d_in=64, seed=0)
    emb_df = infer_embeddings(prep_santos.prep_df, prep_santos.embedder, enc)
    assert {"table_id", "col_idx", "sem_type", "domain", "emb"} <= set(emb_df.columns)
    assert emb_df.count() == prep_santos.prep_df.count()


def test_trained_encoder_separates_ambiguous_columns(prep_santos, views):
    """The core claim (Fig. 1): context separates same-vocab columns from
    different domains; training must not collapse them together."""
    enc = MultiColumnEncoder(d_in=64, seed=0)
    enc.train(views, op="drop_col", n_epochs=8, embedder=prep_santos.embedder, seed=0)
    emb_df = infer_embeddings(prep_santos.prep_df, prep_santos.embedder, enc)
    rows = emb_df.where("sem_type = 'year'").collect()
    by_dom: dict[str, list[np.ndarray]] = {}
    for r in rows:
        by_dom.setdefault(r["domain"], []).append(np.asarray(r["emb"]))
    doms = [d for d, v in by_dom.items() if len(v) >= 2][:2]
    if len(doms) == 2:
        a = np.stack(by_dom[doms[0]])
        b = np.stack(by_dom[doms[1]])
        within = (np.mean(a @ a.T) + np.mean(b @ b.T)) / 2
        cross = np.mean(a @ b.T)
        assert within > cross
