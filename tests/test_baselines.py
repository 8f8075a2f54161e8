"""Baseline encoders: feature blocks, block-cosine identity, SANTOS KB ranker."""
import numpy as np
import pytest

from repro.baselines.featurize import (
    SPECS,
    char_block,
    emb_block,
    feature_embeddings,
    feature_table,
    format_block,
    hashset_block,
    pattern_signature,
    stats_block,
)
from repro.baselines.santos import SantosRanker, annotate_table, build_kb
from repro.core.tokenize import tokenize_lake
from repro.datalake.vocab import TYPES


# ---- blocks ----------------------------------------------------------------

def test_stats_block_unit_norm():
    v = stats_block(["abc", "de", ""], ["abc", "de"])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


def test_stats_block_numeric_fraction():
    v_num = stats_block(["1", "2", "3"], ["1"])
    v_txt = stats_block(["aa", "bb", "cc"], ["aa"])
    assert not np.allclose(v_num, v_txt)


def test_char_block_counts():
    v = char_block(["ab", "b1"])
    # a:1, b:2, 1:1
    assert v[0] > 0 and v[1] > v[0]
    assert np.linalg.norm(v) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "cell,sig",
    [
        ("Albany", "Aa"),
        ("NEW YORK", "A_A"),
        ("03/28/99", "9/9/9"),
        ("12000", "9+"),
        ("Brand#12", "Aa_9"),
    ],
)
def test_pattern_signature(cell, sig):
    assert pattern_signature(cell) == sig


def test_format_block_discriminates():
    dates = format_block(["03/28/99", "11/17/96"])
    words = format_block(["Albany", "Boston"])
    assert dates @ words < 0.99


def test_hashset_block_overlap_monotone():
    a = hashset_block(list("abcdefgh"))
    b = hashset_block(list("abcdwxyz"))
    c = hashset_block(list("qrstuvzy"))
    assert a @ b > a @ c


def test_emb_block_zero_for_unknown(prep_santos):
    v = emb_block(["zzzznotoken"], prep_santos.embedder)
    assert not v.any()


def test_specs_weights_sum_to_one():
    for name, spec in SPECS.items():
        assert sum(w for _, w in spec) == pytest.approx(1.0), name


@pytest.mark.parametrize("method", sorted(SPECS))
def test_feature_embeddings_schema(prep_santos, method):
    """Every (table_id, col_idx) of the lake appears once, with the unit
    vector ``feature_table`` gives its table on the driver."""
    df = feature_embeddings(prep_santos.tokens_df, prep_santos.embedder, method)
    rows = df.collect()
    got = {(r["table_id"], r["col_idx"]): np.asarray(r["emb"]) for r in rows}
    assert len(got) == len(rows)
    tables: dict[str, list] = {}
    for r in prep_santos.tokens_df.collect():
        tables.setdefault(r["table_id"], []).append(r)
    expected = {}
    for tid, cols in tables.items():
        cols.sort(key=lambda r: r["col_idx"])
        z = feature_table([r["cells"] for r in cols], [r["cell_tokens"] for r in cols],
                          prep_santos.embedder, method)
        expected.update({(tid, r["col_idx"]): v for r, v in zip(cols, z)})
    assert sorted(got) == sorted(expected)
    for key, v in expected.items():
        assert np.array_equal(got[key], v), key
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-3)


def test_feature_embeddings_unknown_method(prep_santos):
    with pytest.raises(ValueError):
        feature_embeddings(prep_santos.tokens_df, prep_santos.embedder, "starmie")


def test_sato_topic_shared_within_table(spark, prep_santos):
    """SATO's topic block is table-level: same suffix for all columns."""
    df = feature_embeddings(prep_santos.tokens_df, prep_santos.embedder, "sato")
    rows = df.orderBy("table_id", "col_idx").limit(12).collect()
    by_table = {}
    for r in rows:
        by_table.setdefault(r["table_id"], []).append(np.asarray(r["emb"]))
    spec = SPECS["sato"]
    lead = sum(
        {"stats": 8, "char": 36, "format": 16, "hashset": 256, "emb": 64, "topic": 64}[b]
        for b, _ in spec[:-1]
    )
    for vecs in by_table.values():
        if len(vecs) >= 2:
            tails = [v[lead:] for v in vecs]
            for t in tails[1:]:
                assert np.allclose(t, tails[0], atol=1e-5)


def test_cosine_is_weighted_block_average():
    """The construction guarantee behind all feature baselines."""
    g = np.random.default_rng(0)

    def blocks():
        a = g.normal(size=5)
        b = g.normal(size=7)
        return a / np.linalg.norm(a), b / np.linalg.norm(b)

    a1, b1 = blocks()
    a2, b2 = blocks()
    w1, w2 = 0.3, 0.7
    v1 = np.concatenate([np.sqrt(w1) * a1, np.sqrt(w2) * b1])
    v2 = np.concatenate([np.sqrt(w1) * a2, np.sqrt(w2) * b2])
    assert v1 @ v2 == pytest.approx(w1 * (a1 @ a2) + w2 * (b1 @ b2))


# ---- SANTOS ----------------------------------------------------------------

def test_kb_covers_text_types_only():
    kb = build_kb(coverage=1.0)
    assert all(TYPES[t].kind == "text" for t in set(kb.values()))
    for v in TYPES["city"].pool[:10]:
        assert kb[v.lower()] == "city"


def test_kb_partial_coverage():
    full = build_kb(coverage=1.0)
    part = build_kb(coverage=0.5)
    assert len(part) < len(full)
    assert set(part) <= set(full)


def test_annotate_table_majority_type():
    kb = build_kb(coverage=1.0)
    cols = [
        {"col_idx": 0, "cells": list(TYPES["city"].pool[:10])},
        {"col_idx": 1, "cells": ["1999", "2001", "2005"]},  # numeric: no KB type
    ]
    ann = annotate_table(cols, kb)
    assert ann.types == {0: "city"}
    assert ann.rels == set()


def test_annotate_relationships():
    kb = build_kb(coverage=1.0)
    cols = [
        {"col_idx": 0, "cells": list(TYPES["city"].pool[:8])},
        {"col_idx": 1, "cells": list(TYPES["species_common"].pool[:8])},
    ]
    ann = annotate_table(cols, kb)
    assert ann.rels == {("city", "species_common")}


def test_santos_ranker_prefers_same_domain(tiny_santos):
    ranker = SantosRanker(tiny_santos.tables())
    q = tiny_santos.queries[0]
    top = [t for t, _ in ranker.query(q, 5)]
    dom = q.split("__")[0]
    same = sum(1 for t in top if t.startswith(dom))
    assert same >= 3


def test_santos_score_self_maximal(tiny_santos):
    ranker = SantosRanker(tiny_santos.tables())
    q = tiny_santos.queries[0]
    self_score = ranker.score(q, q)
    assert all(ranker.score(q, t) <= self_score + 1e-9 for t in list(ranker.ann)[:50])
