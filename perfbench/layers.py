"""Per-layer probes for the traced run.

The numbers come from outside the program: each probe times calls into
one layer's public functions on the workload's own inputs and records
them as spans, one request id per question.  Every traced run makes the
same probes, so every workload reports every per-layer metric; the
load-dependent ones (engine and router ratios, generator lateness) come
from the workload's own traffic, see ``NOTES.md``.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

from perfbench.common import (
    AnswerChecker,
    GoldenChecker,
    HttpConn,
    Tracer,
    median,
    percentile,
    remainder_us,
)
from perfbench.traffic import KINDS, Request, probe_sample

Metrics = dict[str, tuple[float, str]]


def _median_us(tracer: Tracer, name: str) -> float:
    return median(tracer.durations_us(name))


def _substrate_factories() -> dict[str, Callable[[], Any]]:
    """The memoized factory behind each pipeline substrate."""
    from repro.hardware.registry import table_i_survey
    from repro.joblog import generate_k_year
    from repro.ozaki import emulated_gemm_performance
    from repro.spackdep import generate_spack_index
    from repro.workloads import profile_all_workloads

    return {
        "k_year": generate_k_year,
        "hw_registry": table_i_survey,
        "spack_index": generate_spack_index,
        "ozaki_splits": emulated_gemm_performance,
        "workload_profiles": profile_all_workloads,
    }


def probe_pipeline(
    tracer: Tracer, out_dir: Path, goldens: GoldenChecker, reps: int
) -> tuple[Metrics, int, int]:
    """Cold + warm regeneration with its cache counts and export cost,
    then each substrate factory cold and each artifact generator warm.

    Runs at ``jobs=1`` so it never forks, whatever threads the workload
    has started.  Returns the metrics, operations attempted and failed.
    """
    from repro.harness.cache import SUBSTRATE_CACHE
    from repro.harness.export import export_all
    from repro.harness.pipeline import SUBSTRATES, run_pipeline
    from repro.harness.runner import ARTIFACTS

    metrics: Metrics = {}
    failed = 0
    SUBSTRATE_CACHE.clear()
    exported = 0
    for label in ("cold", "warm"):
        outdir = out_dir / f"probe-{label}"
        with tracer.span("regen", request_id=f"regen-{label}"):
            with tracer.span("pipeline.run"):
                run = run_pipeline(None, jobs=1)
            with tracer.span("export.write"):
                export_all(run.results, outdir, run_manifest=run.manifest)
        failed += len(goldens.mismatches(outdir, list(ARTIFACTS)))
        exported = sum(f.stat().st_size for f in outdir.iterdir())
        shutil.rmtree(outdir)
    stats = SUBSTRATE_CACHE.stats()
    metrics["cache.hits"] = (stats.hits, "count")
    metrics["cache.misses"] = (stats.misses, "count")
    metrics["cache.evictions"] = (stats.evictions, "count")
    metrics["export.write_s"] = (_median_us(tracer, "export.write") / 1e6, "s")
    metrics["export.bytes"] = (exported, "bytes")

    factories = _substrate_factories()
    if set(factories) != set(SUBSTRATES):
        raise RuntimeError(
            f"substrates changed: pipeline has {sorted(SUBSTRATES)}, "
            f"the probe times {sorted(factories)}"
        )
    SUBSTRATE_CACHE.clear()
    for name in SUBSTRATES:
        with tracer.span(f"substrate.{name}", request_id=f"substrate-{name}"):
            factories[name]()
        metrics[f"pipeline.substrate_s.{name}"] = (
            _median_us(tracer, f"substrate.{name}") / 1e6, "s"
        )
    for rep in range(reps):
        for name, fn in ARTIFACTS.items():
            with tracer.span(
                f"artifact.{name}", request_id=f"artifact-{name}-{rep}"
            ):
                fn()
    for name in ARTIFACTS:
        metrics[f"pipeline.artifact_s.{name}"] = (
            _median_us(tracer, f"artifact.{name}") / 1e6, "s"
        )
    return metrics, 2 * len(ARTIFACTS), failed


def _body(kind: str, params: dict[str, Any]) -> bytes:
    return json.dumps({"kind": kind, "params": params}).encode("utf-8")


def _http_ok(
    checker: AnswerChecker, request: Request, reply: tuple, header: bool
) -> bool:
    status, headers, payload = reply
    if status != 200:
        return False
    body = json.loads(payload)
    if header and headers.get("x-repro-result-digest") != body.get("digest"):
        return False
    return checker.check(*request, body["value"], body.get("digest", ""))


@dataclass
class ProbeEngine:
    """What the probe's own engine did: its counters, the sweep-kernel
    passes made while it answered, and its deepest queue."""

    counters: dict[str, int]
    kernels: int
    queue_depth_max: float


class QueueSampler:
    """The deepest queue ``read()`` reports, sampled every ``interval_s``
    on ``loop`` while that loop runs."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        read: Callable[[], Awaitable[float]],
        interval_s: float,
    ) -> None:
        self.max_depth = 0.0
        self._read, self._interval = read, interval_s
        self._task = loop.create_task(self._run())

    async def _run(self) -> None:
        while True:
            self.max_depth = max(self.max_depth, await self._read())
            await asyncio.sleep(self._interval)

    async def stop(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


def engine_queue(engine) -> Callable[[], Awaitable[float]]:
    """Reads an in-process engine's queue-depth gauge."""
    gauge = engine.metrics.gauges["queue_depth"]

    async def read() -> float:
        return gauge.value

    return read


def probe_serve(
    tracer: Tracer,
    sample: list[Request],
    checker: AnswerChecker,
    router_url: str,
    workers: dict[int, str],
) -> tuple[Metrics, int, int, ProbeEngine]:
    """One question at a time through every serve layer: registry build,
    handler, answer check, seal, envelope verify, a fresh default engine
    uncached and cached, a worker's HTTP port and the router's, each a
    span under the question's request id.  The engine runs on an event
    loop in this thread, as the serve-fresh load's does."""
    from repro.analysis.arrays import kernel_invocations
    from repro.integrity import seal, verify_answer
    from repro.serve import QueryEngine, canonical_params
    from repro.serve.handlers import DEFAULT_REGISTRY

    failed = 0
    attempted = 0
    router = HttpConn(router_url)
    direct = {sid: HttpConn(url) for sid, url in workers.items()}
    loop = asyncio.new_event_loop()
    engine = QueryEngine()
    loop.run_until_complete(engine.start())
    sampler = QueueSampler(loop, engine_queue(engine), 0.005)
    kernels = 0

    async def one(i: int, kind: str, params: dict[str, Any]) -> list[bool]:
        nonlocal kernels
        with tracer.span("probe.request", request_id=f"probe-{i}"):
            with tracer.span("queries.build"):
                query = DEFAULT_REGISTRY.build(kind, params)
                canonical = canonical_params(query.params)
            with tracer.span(f"handlers.{kind}"):
                value = query.kind.handler(query.params)
            with tracer.span("integrity.verify_answer"):
                verify_answer(kind, canonical, value)
            with tracer.span("integrity.seal"):
                envelope = seal(value, kind=kind, params=canonical)
            with tracer.span("integrity.envelope_verify"):
                intact = envelope.verify()
            before = kernel_invocations()
            with tracer.span("engine.uncached"):
                fresh = await engine.submit(kind, params)
            with tracer.span("engine.cached"):
                cached = await engine.submit(kind, params)
            kernels += kernel_invocations() - before
            replies = []
            if i in owner:
                with tracer.span("http.worker"):
                    replies.append((direct[owner[i]].call(
                        "POST", "/query", _body(kind, params)
                    ), True))
                with tracer.span("http.router"):
                    replies.append((router.call(
                        "POST", "/query", _body(kind, params)
                    ), False))
        return [
            intact,
            checker.check(kind, params, fresh.value, fresh.digest),
            checker.check(kind, params, cached.value, cached.digest),
        ] + [
            _http_ok(checker, (kind, params), reply, header)
            for reply, header in replies
        ]

    try:
        # Put every answer in its owning shard's cache first; the replies
        # name the shard, whose port the probe then calls directly.
        owner = {}
        for i, request in enumerate(sample):
            reply = router.call("POST", "/query", _body(*request))
            attempted += 1
            if not _http_ok(checker, request, reply, header=False):
                failed += 1
                continue
            owner[i] = json.loads(reply[2])["shard"]
        for i, (kind, params) in enumerate(sample):
            ok = loop.run_until_complete(one(i, kind, params))
            attempted += len(ok)
            failed += ok.count(False)
        counters = engine.metrics.snapshot()["counters"]
    finally:
        loop.run_until_complete(sampler.stop())
        loop.run_until_complete(engine.stop())
        loop.close()
        router.close()
        for conn in direct.values():
            conn.close()

    metrics: Metrics = {
        "queries.build_us": (_median_us(tracer, "queries.build"), "us"),
        "integrity.verify_answer_us": (
            _median_us(tracer, "integrity.verify_answer"), "us"),
        "integrity.seal_us": (_median_us(tracer, "integrity.seal"), "us"),
        "integrity.envelope_verify_us": (
            _median_us(tracer, "integrity.envelope_verify"), "us"),
        "engine.solo_uncached_us": (
            _median_us(tracer, "engine.uncached"), "us"),
        "engine.cached_us": (_median_us(tracer, "engine.cached"), "us"),
        "engine.overhead_us": (remainder_us(
            tracer, "engine.uncached",
            ["queries.build", "handlers", "integrity.verify_answer",
             "integrity.seal"],
            "engine.overhead",
        ), "us"),
        "http.cached_rtt_us": (_median_us(tracer, "http.worker"), "us"),
        "http.self_us": (remainder_us(
            tracer, "http.worker", ["engine.cached"], "http.self"), "us"),
        "router.hop_us": (remainder_us(
            tracer, "http.router", ["http.worker"], "router.hop"), "us"),
    }
    for kind in KINDS:
        metrics[f"handlers.{kind}_us"] = (
            _median_us(tracer, f"handlers.{kind}"), "us")
    return metrics, attempted, failed, ProbeEngine(
        counters, kernels, sampler.max_depth
    )


def probe_arrays(tracer: Tracer, mean_batch: float, reps: int) -> Metrics:
    """``SweepGrid.evaluate`` on one machine at the workload's mean batch
    size; cells and bytes are computed from the array shapes."""
    from repro.extrapolate.scenarios import build_machine

    width = max(1, round(mean_batch))
    rng = random.Random(width)
    model = build_machine("k_computer")
    grids = [
        model.as_grid([rng.uniform(1.0, 64.0) for _ in range(width)])
        for _ in range(reps)
    ]
    for i, grid in enumerate(grids):
        with tracer.span("arrays.evaluate", request_id=f"arrays-{i}"):
            grid.evaluate()
    machines, domains = grids[0].shares.shape
    cells = machines * width
    # Inputs (shares, accelerable, mask, node-hours, speedups) plus the
    # four float64 output planes of one evaluation.
    nbytes = (
        grids[0].shares.nbytes + grids[0].accelerable.nbytes
        + grids[0].mask.nbytes + grids[0].total_node_hours.nbytes
        + grids[0].speedups.nbytes + 4 * cells * 8
    )
    return {
        "arrays.evaluate_us": (_median_us(tracer, "arrays.evaluate"), "us"),
        "arrays.cells": (cells, "count"),
        "arrays.bytes_computed": (nbytes, "bytes"),
    }


def engine_ratios(counters: dict[str, int], queue_depth_max: float) -> Metrics:
    """The engine's own counters, as ratios of the requests it admitted."""
    requests = counters.get("requests", 0)
    batches = counters.get("batches", 0)

    def ratio(n: int, d: int) -> float:
        return n / d if d else 0.0

    return {
        "engine.hit_ratio": (ratio(counters.get("cache_hits", 0), requests),
                             "ratio"),
        "engine.coalesce_ratio": (
            ratio(counters.get("coalesced", 0), requests), "ratio"),
        "engine.mean_batch": (ratio(counters.get("batched", 0), batches),
                              "count"),
        "engine.useful_ratio": (ratio(counters.get("computed", 0), requests),
                                "ratio"),
        "engine.shed": (counters.get("shed", 0), "count"),
        "engine.admission_rejected": (
            counters.get("admission_rejected", 0), "count"),
        "engine.retries": (counters.get("retries", 0), "count"),
        "engine.queue_depth_max": (queue_depth_max, "count"),
    }


def _cluster_metrics(sup) -> dict[str, Any]:
    """The router's aggregated ``GET /metrics``."""
    conn = HttpConn(sup.url)
    try:
        _, _, payload = conn.call("GET", "/metrics")
    finally:
        conn.close()
    return json.loads(payload)


def router_ratios(sup) -> Metrics:
    """The router's counters and the spread of requests over shards."""
    counters = sup.router.router_snapshot()["counters"]
    per_shard = [
        entry.get("requests", 0)
        for entry in _cluster_metrics(sup)["shards"].values()
    ]
    mean = sum(per_shard) / len(per_shard) if per_shard else 0.0
    requests = counters.get("requests", 0)
    return {
        "router.hedge_ratio": (
            counters.get("hedges", 0) / requests if requests else 0.0,
            "ratio"),
        "router.hedge_wins": (counters.get("hedge_wins", 0), "count"),
        "router.spilled": (counters.get("spilled", 0), "count"),
        "router.integrity_rejected": (
            counters.get("integrity_rejected", 0), "count"),
        "router.shard_skew": (max(per_shard) / mean if mean else 0.0,
                              "ratio"),
    }


def worker_counters(sup) -> dict[str, int]:
    """Summed engine counters of every shard."""
    return _cluster_metrics(sup)["aggregate"]["counters"]


def serve_probes(
    tracer: Tracer,
    rng: random.Random,
    sent: list[Request],
    checker: AnswerChecker,
    per_kind: int,
    sup=None,
) -> tuple[Metrics, int, int, ProbeEngine]:
    """:func:`probe_serve` plus the router's counters, on ``sup`` or on
    a two-shard cluster booted for the probe."""
    from perfbench import cluster

    own = sup is None
    if own:
        sup, _ = cluster.boot()
    try:
        metrics, attempted, failed, engine = probe_serve(
            tracer, probe_sample(rng, sent, per_kind), checker, sup.url,
            cluster.worker_urls(sup),
        )
        metrics.update(router_ratios(sup))
    finally:
        if own:
            sup.stop()
    return metrics, attempted, failed, engine


def generator_and_tail(phases: list, mid) -> Metrics:
    """How late the generator ran, and the ungated mid-rate p99."""
    late = [x for p in phases for x in p.late_s]
    return {
        "gen.late_p99_ms": (percentile(late, 0.99) * 1e3, "ms"),
        "p99_ms.mid": (mid.latency_ms(0.99), "ms"),
        "p99_ms.mid.samples": (mid.sent, "count"),
    }
