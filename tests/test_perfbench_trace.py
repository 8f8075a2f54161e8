"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps program
functions by attribute name. These tests install its wrappers on the
program as the benchmark does, so a rename that would break the traced
run, or move a stage's time to another layer, fails here."""
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.encoder import MultiColumnEncoder
from repro.experiments import common
from repro.search.engine import SearchEngine, TableStore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def bench():
    """``run.py`` imports its sibling modules by bare name."""
    saved = {n: sys.modules.get(n) for n in ("calibrate", "tracing")}
    try:
        for n in saved:
            sys.modules[n] = _load(n)
        yield _load("run"), sys.modules["tracing"]
    finally:
        for n, mod in saved.items():
            if mod is None:
                sys.modules.pop(n, None)
            else:
                sys.modules[n] = mod


def test_trace_wrappers_install_and_restore(bench, spark):
    run, tracing = bench
    before = (common.collect_table_views, common.infer_embeddings,
              common.train_word2vec, MultiColumnEncoder.__dict__["train"],
              TableStore.__dict__["from_embeddings_df"], SearchEngine.query)
    tracer = tracing.Tracer()
    try:
        run._trace_ingest(tracer, spark.sparkContext)
        run._trace_queries(tracer)
        assert common.infer_embeddings is not before[1]
    finally:
        tracer.restore()
    after = (common.collect_table_views, common.infer_embeddings,
             common.train_word2vec, MultiColumnEncoder.__dict__["train"],
             TableStore.__dict__["from_embeddings_df"], SearchEngine.query)
    assert all(a is b for a, b in zip(before, after))


def test_traced_ingest_credits_each_encoder_layer(bench, spark, prep_santos):
    """``build_method`` must reach the encoder stages through the wrapped
    names, or the traced run reports zero seconds for them."""
    run, tracing = bench
    tracer = tracing.Tracer()
    try:
        run._trace_ingest(tracer, spark.sparkContext)
        store = common.build_method(prep_santos, "starmie", epochs=1).store
        run._trace_queries(tracer)
        common.SearchEngine(store=store, mode="pruning").query(store.table_ids[0], 3)
    finally:
        tracer.restore()
    for name in ("common.build_method", "encoder.collect_table_views",
                 "encoder.MultiColumnEncoder.train", "encoder.train_step",
                 "encoder.infer_embeddings", "engine.TableStore.from_embeddings_df",
                 "engine.SearchEngine.__init__", "engine.SearchEngine.query",
                 "matching.table_union_score"):
        assert tracer.total(name) > 0, name
