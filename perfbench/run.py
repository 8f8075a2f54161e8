"""Starmie benchmark: lake ingest plus Algorithm 3 query latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload santos_large --seed 1 --seconds 5 --trace 0

Each run generates its workload's lake from ``--seed``, ingests it
through the program's own pipeline (``experiments.common.prepare`` →
``build_method(..., "starmie")`` → ``SearchEngine`` with LSH and HNSW),
then times ``SearchEngine.query`` for every mode from one closed-loop
caller. Every output is checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 1`` makes a separate traced run that reports the per-layer
metrics instead. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import calibrate
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MODES = ("linear", "pruning", "lsh", "hnsw")
N_QUERIES = 200  # distinct query tables; p95 needs >= 200 samples per mode
SETUP_REPEATS = 3
SCORE_TOL = 1e-6

# Lake shapes, scaled down from the repository's *_lite lakes so that a
# run (≈30 s of fixed set-up, ingest, queries) takes about a minute on 4
# vCPUs; each keeps the shape that makes it stress its layers. ``passes``
# is how many times every query is timed (its fastest call counts).
WORKLOADS = {
    "santos_large": dict(
        kind="santos", k=10, passes=2,
        params=dict(n_domains=20, tables_per_domain=12, rows_range=(60, 160)),
    ),
    "tus_large_k60": dict(
        kind="tus", k=60, passes=3,
        params=dict(n_bases=6, partitions_per_base=65, base_rows=600,
                    part_rows_range=(20, 60)),
    ),
    "wdc_many_tables": dict(
        kind="wdc", k=10, passes=2,
        params=dict(n_tables=600, rows_range=(8, 20)),
    ),
}


_T0 = time.perf_counter()


def _log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - _T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


# -- process environment -------------------------------------------------------

def _configure_env(n_cores: int) -> None:
    """Point Spark, its Python workers and temp files at the checkout.

    ``repro`` is not installed, so Spark's Python workers (which inherit
    this environment through the JVM) need ``src`` on PYTHONPATH, or every
    pandas-UDF stage fails with ``No module named 'repro'``.
    """
    tmp = WORK / "tmp"
    local = WORK / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    pp = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + pp if pp else "")
    sys.path.insert(0, str(SRC))
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_DRIVER_MEM"] = "2g"
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = str(2 * n_cores)
    # Every JVM started (spark-submit's launcher and the Spark driver) keeps its
    # temp files in the checkout and writes no hsperfdata.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{n_cores}] --driver-memory 2g "
        f"--conf spark.local.dir={local} pyspark-shell"
    )


def _become_subreaper() -> None:
    """Adopt orphaned descendants (Spark's Python daemon) so we can reap them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _child_pids() -> list[int]:
    me = str(os.getpid())
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            out.append(int(d))
    return out


def _stop_spark(spark) -> None:
    """Stop the session, its JVM and every process they started; wait for all."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        try:
            proc.stdin.close()
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 20
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _child_pids():
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
            deadline = math.inf
        time.sleep(0.05)


# -- provenance ----------------------------------------------------------------

def _git(*args: str) -> str:
    return subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=10, check=True).stdout.strip()


def _provenance(args, spark, lake_counts: dict) -> dict:
    sha = dirty = None
    try:
        if Path(_git("rev-parse", "--show-toplevel")).resolve() == ROOT:
            sha = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: the source digest below still identifies it
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    sc = spark.sparkContext
    conf = sc.getConf()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "git_dirty": dirty,
        "src_sha256": h.hexdigest(), "nproc": os.cpu_count(),
        "spark_master": sc.master, "spark_default_parallelism": sc.defaultParallelism,
        "spark_driver_memory": conf.get("spark.driver.memory", None),
        "spark_shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "lake": lake_counts,
    }


# -- workloads -----------------------------------------------------------------

def _make_lake(spark, name: str, seed: int):
    from repro.datalake.generator import santos_lake, tus_lake, wdc_lake

    w = WORKLOADS[name]
    build = {"santos": santos_lake, "tus": tus_lake, "wdc": wdc_lake}[w["kind"]]
    return build(spark, name=name, seed=seed, n_queries=1, **w["params"])


def _warmup(spark, seed: int) -> None:
    """Tiny seeded ingest: pays first-job JVM and Python-worker start-up."""
    from repro.datalake.generator import santos_lake
    from repro.experiments import common
    from repro.search.engine import SearchEngine

    lake = santos_lake(spark, name="warmup", n_domains=4, tables_per_domain=3,
                       rows_range=(10, 20), n_queries=1, seed=seed)
    prep = common.prepare(spark, lake)
    bundle = common.build_method(prep, "starmie", epochs=1)
    SearchEngine(store=bundle.store, mode="lsh", tau=bundle.tau)
    SearchEngine(store=bundle.store, mode="hnsw", tau=bundle.tau)
    prep.tokens_df.unpersist()
    prep.prep_df.unpersist()


def _lake_counts(lake) -> dict:
    return {
        "tables": len({r["table_id"] for r in lake.rows}),
        "columns": len(lake.rows),
        "cells": sum(len(r["cells"]) for r in lake.rows),
    }


# -- correctness ---------------------------------------------------------------

def _check_store(store, lake) -> list[str]:
    import numpy as np

    errors = []
    want: dict[str, int] = {}
    for r in lake.rows:
        want[r["table_id"]] = want.get(r["table_id"], 0) + 1
    if set(store.mats) != set(want):
        errors.append(f"store holds {len(store.mats)} tables, lake has {len(want)}")
    for tid, n in want.items():
        m = store.mats.get(tid)
        if m is None or m.shape[0] != n:
            errors.append(f"{tid}: {0 if m is None else m.shape[0]} vectors for {n} columns")
            continue
        norms = np.linalg.norm(m.astype(np.float64), axis=1)
        if not np.all(np.abs(norms - 1.0) < 1e-4):
            errors.append(f"{tid}: vector norms {norms.round(5).tolist()}")
    return errors[:10]


def _check_query(mode, res, exact_res, q, store, tau, k) -> str | None:
    """Why one query result is wrong, or None."""
    from repro.search.matching import table_union_score

    ids = [t for t, _ in res]
    scores = [s for _, s in res]
    if len(set(ids)) != len(ids):
        return "duplicate table ids"
    if any(a < b for a, b in zip(scores, scores[1:])):
        return "ranking not sorted by score"
    if len(res) > k:
        return f"{len(res)} results for k={k}"
    if mode == "linear":
        return None if len(res) == min(k, len(store.mats)) else f"{len(res)} results"
    if mode == "pruning":
        ok = ids == [t for t, _ in exact_res] and all(
            abs(a - b) <= SCORE_TOL for a, b in zip(scores, (s for _, s in exact_res)))
        return None if ok else "pruning top-k differs from linear"
    q_mat = store.mats[q]
    for tid, s in res:
        exact = table_union_score(q_mat @ store.mats[tid].T, tau)
        if not abs(exact - s) <= SCORE_TOL:
            return f"{tid}: score {s} but exact U = {exact}"
    return None


# -- queries -------------------------------------------------------------------

def _sample_queries(lake, seed: int) -> list[str]:
    import numpy as np

    tids = sorted({r["table_id"] for r in lake.rows})
    g = np.random.default_rng([seed, 0x5EED])
    return [tids[i] for i in g.choice(len(tids), size=min(N_QUERIES, len(tids)), replace=False)]


def _timed_query(engine, q: str, k: int):
    """One timed ``SearchEngine.query`` call: (seconds, result, stats, error)."""
    t0 = time.perf_counter()
    try:
        res, st = engine.query(q, k)
    except Exception as e:  # a raising call is a failed query
        return time.perf_counter() - t0, None, None, repr(e)
    return time.perf_counter() - t0, res, st, None


def _percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


# -- tracing -------------------------------------------------------------------

INGEST_STAGES = ("tokenize_tfidf", "preprocess", "word2vec", "collect_views", "infer")


def _trace_ingest(tracer, sc) -> None:
    """Wrap the names ``experiments.common`` calls, the index builds and the
    ``SearchEngine`` constructor. Each wrapper of a Spark stage also sets
    that stage's job group, so job and task counts can be attributed."""
    from repro.core.encoder import MultiColumnEncoder
    from repro.experiments import common
    from repro.search.engine import SearchEngine, TableStore
    from repro.search.hnsw import HNSW
    from repro.search.lsh import SimHashLSH

    def group(stage):
        return lambda: sc.setJobGroup(f"ingest.{stage}", stage)

    tracer.wrap(common, "prepare", "common.prepare")
    tracer.wrap(common, "build_method", "common.build_method")
    tracer.wrap(common, "tokenize_lake", "tokenize.tokenize_lake", group("tokenize_tfidf"))
    tracer.wrap(common, "idf_map", "tfidf.idf_map", group("tokenize_tfidf"))
    # preprocess_lake only builds a plan; the pass itself is prepare's
    # prep_df.count(), which runs in this job group and in prepare's self time.
    tracer.wrap(common, "preprocess_lake", "preprocess.preprocess_lake", group("preprocess"))
    tracer.wrap(common, "train_word2vec", "encoder.train_word2vec", group("word2vec"))
    tracer.wrap(common, "collect_table_views", "encoder.collect_table_views",
                group("collect_views"))
    tracer.wrap(MultiColumnEncoder, "train", "encoder.MultiColumnEncoder.train")
    tracer.wrap(MultiColumnEncoder, "_step", "encoder.train_step")
    tracer.wrap(common, "infer_embeddings", "encoder.infer_embeddings", group("infer"))
    tracer.wrap(TableStore, "from_embeddings_df", "engine.TableStore.from_embeddings_df",
                group("infer"))
    tracer.wrap(SearchEngine, "__init__", "engine.SearchEngine.__init__")
    tracer.wrap(HNSW, "add_batch", "hnsw.add_batch")
    tracer.wrap(SimHashLSH, "add", "lsh.add")


def _trace_queries(tracer) -> None:
    """Wrap ``SearchEngine.query`` and the calls it makes into each layer."""
    from repro.search import engine
    from repro.search.hnsw import HNSW
    from repro.search.lsh import SimHashLSH

    tracer.wrap(engine.SearchEngine, "query", "engine.SearchEngine.query")
    tracer.wrap(engine, "table_union_score", "matching.table_union_score")
    tracer.wrap(engine, "upper_bound", "matching.upper_bound")
    tracer.wrap(engine, "lower_bound", "matching.lower_bound")
    tracer.wrap(HNSW, "search", "hnsw.search")
    tracer.wrap(SimHashLSH, "query", "lsh.query")


def _spark_counts(sc) -> dict:
    tracker = sc.statusTracker()
    out = {}
    for stage in INGEST_STAGES:
        jobs = tracker.getJobIdsForGroup(f"ingest.{stage}")
        tasks = 0
        for j in jobs:
            info = tracker.getJobInfo(j)
            for sid in (info.stageIds if info else ()):
                si = tracker.getStageInfo(sid)
                tasks += si.numTasks if si else 0
        out[f"spark.jobs.{stage}"] = len(jobs)
        out[f"spark.tasks.{stage}"] = tasks
    return out


# -- main ----------------------------------------------------------------------

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse(argv)
    if not (SRC / "repro" / "search" / "engine.py").is_file():
        _log(f"no program source under {SRC}; run from the root of a full checkout")
        return 2
    _configure_env(min(4, os.cpu_count() or 1))
    _become_subreaper()
    from repro.experiments.session import get_spark

    # Importing the pipeline builds the program's type vocabularies (pure
    # Python, ~12 s); do it while the JVM starts, which mostly waits.
    with ThreadPoolExecutor(max_workers=1) as pool:
        imported = pool.submit(importlib.import_module, "repro.experiments.common")
        spark = get_spark("starmie-perfbench")
    try:
        imported.result()
        return _run(args, spark, t_start)
    finally:
        _stop_spark(spark)
        _log("stopped")


def _run(args, spark, t_start: float) -> int:
    from repro.experiments import common

    w = WORKLOADS[args.workload]
    k = w["k"]
    sc = spark.sparkContext

    # Set-up = the one-time start (Spark, program imports, tiny warm-up
    # ingest) + the median of SETUP_REPEATS generations of the workload lake.
    _warmup(spark, args.seed)
    start_s = time.perf_counter() - t_start
    lake_gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lake = _make_lake(spark, args.workload, args.seed)
        lake_gen_s.append(time.perf_counter() - t0)
    setup_s = start_s + statistics.median(lake_gen_s)
    counts = _lake_counts(lake)
    prov = _provenance(args, spark, counts)
    _log(f"setup {setup_s:.2f}s (start + warm-up {start_s:.2f}s, lake generation "
         f"{[round(r, 2) for r in lake_gen_s]}s) lake {counts}")

    tracer = Tracer()
    if args.trace:
        _trace_ingest(tracer, sc)
    t0 = time.perf_counter()
    try:
        prep = common.prepare(spark, lake)
        bundle = common.build_method(prep, "starmie")
        engines = {m: common.SearchEngine(store=bundle.store, mode=m, tau=bundle.tau)
                   for m in MODES}
    finally:
        tracer.restore()
    ingest_s = time.perf_counter() - t0
    _log(f"ingest {ingest_s:.2f}s; program timings {prep.timings}, "
         f"train {bundle.train_seconds:.2f}s, infer {bundle.infer_seconds:.2f}s")
    store = bundle.store
    msgs = [f"ingest: {e}" for e in _check_store(store, lake)]
    failed = 1 if msgs else 0

    # Closed loop, one caller. A pass sends every query table through every
    # mode in turn, after one sample of the speed kernel (calibrate.py). The
    # workload's passes are made, and more until --seconds have passed. A
    # query's latency is its fastest call over the passes, each call scaled
    # to the reference speed by its pass's kernel samples. The first pass is
    # checked; later passes must reproduce it exactly. A traced run makes
    # four passes, the second and fourth with the query-path wrappers on.
    queries = _sample_queries(lake, args.seed)
    nq = len(queries)
    runs = []  # per pass: (traced, kernel samples, {mode: [seconds per query]})
    first = {m: [None] * nq for m in MODES}
    stats = {m: [] for m in MODES}
    n_passes = 4 if args.trace else w["passes"]
    t_q0 = time.perf_counter()
    passes = calls = 0
    while passes < n_passes or (not args.trace and time.perf_counter() - t_q0 < args.seconds):
        traced_pass = bool(args.trace) and passes % 2 == 1
        kernel, lat = [], {m: [] for m in MODES}
        runs.append((traced_pass, kernel, lat))
        if traced_pass:
            _trace_queries(tracer)
        try:
            for qi, q in enumerate(queries):
                kernel.append(calibrate.sample())
                for mi, mode in enumerate(MODES):
                    tracer.query_id = qi * len(MODES) + mi
                    dt, res, st, err = _timed_query(engines[mode], q, k)
                    calls += 1
                    lat[mode].append(dt)
                    if err is not None:
                        failed += 1
                        msgs.append(f"{mode} {q}: raised {err}")
                    elif passes == 0:
                        first[mode][qi] = res
                        stats[mode].append(st)
                    elif res != first[mode][qi]:
                        failed += 1
                        msgs.append(f"{mode} {q}: ranking changed between passes")
        finally:
            tracer.restore()
        passes += 1
    for mode in MODES:
        for q, res, exact in zip(queries, first[mode], first["linear"]):
            if res is None or exact is None:
                continue  # the raising call is already counted
            why = _check_query(mode, res, exact, q, store, bundle.tau, k)
            if why:
                failed += 1
                msgs.append(f"{mode} {q}: {why}")
    best, scales = _fastest(runs, nq, traced=False)

    lsh_mem = engines["lsh"].memory_bytes() - store.memory_bytes()
    hnsw_mem = engines["hnsw"].memory_bytes() - store.memory_bytes()
    record = {"provenance": prov, "start_s": start_s, "lake_generation_s": lake_gen_s,
              "passes": passes, "pass_speed_scales": scales}
    if args.trace:
        best_traced, traced_scales = _fastest(runs, nq, traced=True)
        metrics, residual_pct = _per_layer(tracer, sc, prep, store, counts, stats, best,
                                           best_traced, k, lsh_mem, hnsw_mem)
        # Span times are scaled like the latencies, by the traced passes' speed.
        ms_scale = statistics.mean(traced_scales)
        metrics = {n: (v * ms_scale if u == "ms" else v, u) for n, (v, u) in metrics.items()}
        record["query_span_residual_pct"] = residual_pct
        if residual_pct > 10:
            failed += 1
            msgs.append(f"trace: children + self time miss a query span by {residual_pct:.1f}%")
        tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
    else:
        metrics = _end_to_end(lake, queries, first, best, k, setup_s, ingest_s,
                              store.memory_bytes() + lsh_mem + hnsw_mem)
    for m in msgs[:20]:
        _log(f"FAILED {m}")
    _log(f"{passes} passes, {calls} timed queries, {failed} failed")

    _log(f"speed scale per pass {[round(x, 3) for x in scales]}")
    out = {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()}
    record.update(failures=msgs[:50], metrics=out)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": failed == 0, "attempted": 1 + calls, "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


def _fastest(runs, nq: int, traced: bool) -> tuple[dict, list[float]]:
    """Per mode, each query's fastest call at the reference speed; pass scales."""
    sel = [(calibrate.scale(kernel), lat) for tr, kernel, lat in runs if tr == traced]
    best = {m: [min(s * lat[m][qi] for s, lat in sel) for qi in range(nq)] for m in MODES}
    return best, [s for s, _ in sel]


def _end_to_end(lake, queries, first, best, k, setup_s, ingest_s, index_bytes) -> dict:
    from repro.eval.metrics import average_precision_at_k

    labels = {r["table_id"]: r["domain"] for r in lake.rows}
    by_label: dict[str, set[str]] = {}
    for tid, lab in labels.items():
        by_label.setdefault(lab, set()).add(tid)
    exact = [[t for t, _ in res] for res in first["linear"]]
    m = {"setup_s": (setup_s, "s"), "ingest_s": (ingest_s, "s")}
    for mode in MODES:
        ms = [x * 1e3 for x in best[mode]]
        m[f"query_p50_ms.{mode}"] = (statistics.median(ms), "ms")
        m[f"query_p95_ms.{mode}"] = (_percentile(ms, 95), "ms")
    m["map_k.exact"] = (statistics.mean(
        average_precision_at_k(ids, by_label[labels[q]], k)
        for q, ids in zip(queries, exact)), "ratio")
    for mode in ("lsh", "hnsw"):
        m[f"recall_k.{mode}"] = (statistics.mean(
            len({t for t, _ in res} & set(ex)) / k
            for res, ex in zip(first[mode], exact)), "ratio")
    m["index_mb"] = (index_bytes / 1e6, "MB")
    m["driver_rss_mb"] = (_peak_rss_mb(), "MB")
    return m


def _per_layer(tracer, sc, prep, store, counts, stats, untraced, traced, k,
               lsh_mem, hnsw_mem) -> tuple[dict, float]:
    """Per-layer metrics of a traced run, and the worst query-span residual.

    Query-path times are per traced call (two traced passes); counts are
    per query, from the first pass's ``QueryStats``.
    """
    nq = len(traced["linear"])
    n_calls = nq * 2
    tot = tracer.total
    selfs = tracer.self_times()
    prepare_id = tracer.name_id("common.prepare")
    query_id = tracer.name_id("engine.SearchEngine.query")
    step_id = tracer.name_id("encoder.train_step")
    # prepare's self time is prep_df.count(), the pass that runs preprocessing.
    prepare_self = sum(s for row, s in zip(tracer.spans, selfs) if row[0] == prepare_id)
    m = {
        "tokenize_tfidf.s": (tot("tokenize.tokenize_lake") + tot("tfidf.idf_map"), "s"),
        "preprocess.s": (tot("preprocess.preprocess_lake") + prepare_self, "s"),
        "encoder.word2vec_s": (tot("encoder.train_word2vec"), "s"),
        "encoder.collect_views_s": (tot("encoder.collect_table_views"), "s"),
        "encoder.train_s": (tot("encoder.MultiColumnEncoder.train"), "s"),
        "encoder.infer_s": (tot("encoder.infer_embeddings")
                            + tot("engine.TableStore.from_embeddings_df"), "s"),
        "hnsw.build_s": (tot("hnsw.add_batch"), "s"),
        "lsh.build_s": (tot("lsh.add"), "s"),
    }
    m.update({name: (v, "count") for name, v in _spark_counts(sc).items()})
    m.update({
        "lake.tables": (counts["tables"], "count"),
        "lake.columns": (counts["columns"], "count"),
        "lake.cells": (counts["cells"], "count"),
        "tfidf.vocab": (len(prep.idf), "count"),
        "encoder.train_steps": (sum(1 for row in tracer.spans if row[0] == step_id), "count"),
        "store.vectors": (sum(x.shape[0] for x in store.mats.values()), "count"),
        "store.mb": (store.memory_bytes() / 1e6, "MB"),
        "lsh.mb": (lsh_mem / 1e6, "MB"),
        "hnsw.mb": (hnsw_mem / 1e6, "MB"),
    })
    for mi, mode in enumerate(MODES):
        st = stats[mode]
        ver = sum(s.n_verifications for s in st)
        m[f"engine.candidates.{mode}"] = (sum(s.n_candidates for s in st) / nq, "count")
        m[f"engine.verifications.{mode}"] = (ver / nq, "count")
        m[f"engine.verify_yield.{mode}"] = (k * nq / ver if ver else 0.0, "ratio")
        qids = {qi * len(MODES) + mi for qi in range(nq)}
        if mode != "linear":  # linear never computes bounds
            m[f"engine.ub_prunes.{mode}"] = (sum(s.n_ub_prunes for s in st) / nq, "count")
            m[f"engine.lb_accepts.{mode}"] = (sum(s.n_lb_accepts for s in st) / nq, "count")
            bounds = tot("matching.upper_bound", qids) + tot("matching.lower_bound", qids)
            m[f"matching.bounds_ms.{mode}"] = (bounds * 1e3 / n_calls, "ms")
        q_self = sum(s for row, s in zip(tracer.spans, selfs)
                     if row[0] == query_id and row[4] in qids)
        m[f"matching.verify_ms.{mode}"] = (
            tot("matching.table_union_score", qids) * 1e3 / n_calls, "ms")
        m[f"engine.self_ms.{mode}"] = (q_self * 1e3 / n_calls, "ms")
        un, tr = sum(untraced[mode]), sum(traced[mode])
        m[f"trace.overhead_pct.{mode}"] = ((tr - un) / un * 100, "%")
    m["lsh.query_ms"] = (tot("lsh.query") * 1e3 / n_calls, "ms")
    m["hnsw.search_ms"] = (tot("hnsw.search") * 1e3 / n_calls, "ms")
    # Children plus self time must account for each query span.
    kids = tracer.child_totals()
    residual_pct = max(
        abs(kids[i] + selfs[i] - (row[2] - row[1])) / (row[2] - row[1]) * 100
        for i, row in enumerate(tracer.spans) if row[0] == query_id)
    return m, residual_pct


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
