"""Benchmark the artefact pipeline: cold vs warm cache, serial vs
forked substrate prefetch.

The cold benchmarks clear the substrate cache before every round so
they price a full regeneration; the warm benchmark prices the steady
state (every substrate already resident), which is what repeated
harness calls inside one process — tests, notebooks — actually pay.
"""

from repro.harness.cache import SUBSTRATE_CACHE
from repro.harness.pipeline import run_pipeline


def _cold_setup():
    SUBSTRATE_CACHE.clear()
    return (), {}


def _check(run):
    assert len(run.results) == 13
    assert all(meta["text_sha256"] for meta in run.manifest["artifacts"].values())


def bench_pipeline_cold_serial(benchmark):
    run = benchmark.pedantic(
        run_pipeline, setup=_cold_setup, rounds=3, iterations=1
    )
    _check(run)
    assert run.manifest["cache"]["misses"] == len(run.manifest["substrates"])


def bench_pipeline_cold_parallel(benchmark):
    run = benchmark.pedantic(
        lambda: run_pipeline(jobs=8), setup=_cold_setup, rounds=3, iterations=1
    )
    _check(run)
    assert run.manifest["jobs"] == 8


def bench_pipeline_warm(benchmark):
    run_pipeline()  # prime every substrate
    run = benchmark(run_pipeline)
    _check(run)
    assert run.manifest["cache"]["hits"] > 0
