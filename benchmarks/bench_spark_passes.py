"""Benchmarks of the per-table Spark passes of the offline stage (Fig. 2):
preprocessing (Alg. 2) and encoder inference, each over the whole bench lake."""
from repro.core.encoder import MultiColumnEncoder, infer_embeddings
from repro.core.preprocess import preprocess_lake


def test_bench_preprocess_pass(benchmark, bench_prep):
    def run():
        return preprocess_lake(bench_prep.tokens_df, idf=bench_prep.idf).count()

    n = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert n == bench_prep.prep_df.count()


def test_bench_inference_pass(benchmark, bench_prep):
    enc = MultiColumnEncoder(d_in=bench_prep.embedder.dim, seed=0)

    def run():
        return infer_embeddings(bench_prep.prep_df, bench_prep.embedder, enc).count()

    n = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert n == bench_prep.prep_df.count()
