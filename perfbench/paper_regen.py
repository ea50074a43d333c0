"""paper-regen: the ``repro-paper`` path, 13 artifacts from 5 substrates.

``cold_s``/``warm_s`` time the calls ``repro-paper --jobs $(nproc)
--output DIR`` makes (``run_pipeline`` + ``export_all``) with the
substrate cache cleared / resident.  The rate metrics send single
artifacts on demand (the ``run_pipeline([NAME])`` of ``repro-paper
NAME``, substrates resident) open-loop to a process that answers them
one at a time.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from perfbench import layers
from perfbench.common import (
    ROOT,
    AnswerChecker,
    GoldenChecker,
    Outcome,
    Tracer,
    load_info,
    median,
    nproc,
)
from perfbench.load import LoadRunner, LoadSpec, interleaved_mid, run_rounds

#: The artifacts sent on demand: the eight that regenerate in
#: milliseconds.  With the five heavy ones (sec3a, fig2, table3, table4,
#: scaling; 55-190 ms each) the latency mix is bimodal and its median
#: jumps between the modes from run to run; those five are timed by
#: ``cold_s``/``warm_s`` and, one by one, in the traced run.  On-demand
#: requests are not exported: an fsync per file would make the median
#: the disk's, and ``cold_s``/``warm_s`` already time the store.
ON_DEMAND = ("table1", "table2", "table5", "table6", "table8", "fig1",
             "fig3", "fig4")
SPEC = LoadSpec(
    rates={"low": 40.0, "mid": 80.0, "high": 160.0},
    limit_s=0.050,
    backlog_cap=32,
    # Phases send whole cycles of ON_DEMAND, so each phase's artifact
    # mix is the same whatever the seed; the seed draws the arrivals.
    count_quantum=len(ON_DEMAND),
)
#: Warm regenerations per round; ``warm_s`` is the median of all.
WARM_REPS = 3


def _import_once() -> float:
    """A fresh interpreter importing ``repro.harness.runner``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.harness.runner"],
        check=True, env=env, cwd=ROOT, timeout=120,
    )
    return time.perf_counter() - start


class _Regen:
    """Full regenerations, each into a fresh directory under the work
    directory, checked against the goldens and removed after timing."""

    def __init__(self, out_dir: Path, goldens: GoldenChecker) -> None:
        self.out_dir = out_dir
        self.goldens = goldens
        self._ids = itertools.count()

    def timed(
        self, cold: bool, tracer: Tracer | None = None
    ) -> tuple[float, bool]:
        """One ``repro-paper --jobs $(nproc) --output DIR``: its wall
        time and whether every file matched the goldens."""
        from repro.harness.cache import SUBSTRATE_CACHE
        from repro.harness.export import export_all
        from repro.harness.pipeline import artifact_names, run_pipeline

        outdir = self.out_dir / f"regen-{next(self._ids)}"
        if cold:
            SUBSTRATE_CACHE.clear()
        span = (
            tracer.span("regen", request_id=outdir.name)
            if tracer is not None else contextlib.nullcontext()
        )
        start = time.perf_counter()
        with span:
            run = run_pipeline(None, jobs=nproc())
            export_all(run.results, outdir, run_manifest=run.manifest)
        elapsed = time.perf_counter() - start
        ok = not self.goldens.mismatches(outdir, list(artifact_names()))
        shutil.rmtree(outdir)
        return elapsed, ok


class _Load:
    """The open-loop generator and the requests it sends share one event
    loop in this thread: each request is generated inline, so requests
    due meanwhile wait, and that wait is part of their latency."""

    def __init__(self, opts, rng, goldens: GoldenChecker, tracer=None) -> None:
        from repro.harness.pipeline import run_pipeline

        self.loop = asyncio.new_event_loop()
        # The order is part of the workload, not of the seed: which
        # artifact queues behind the slowest one moves the median.
        cycle = itertools.cycle(ON_DEMAND)
        ids = itertools.count()

        async def send(name):
            return run_pipeline([name]).results[name]

        async def send_traced(name):
            with tracer.span("request", request_id=f"req-{next(ids)}"):
                with tracer.span("pipeline.on_demand"):
                    return await send(name)

        self.send_traced = send_traced
        self.runner = LoadRunner(
            SPEC, opts.seconds, rng,
            lambda n: [next(cycle) for _ in range(n)],
            send, goldens.text_matches,
        )
        self.run(self.runner.phase(SPEC.rates["low"], 0.05 * opts.seconds))

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def close(self) -> None:
        self.loop.close()


def run(opts) -> Outcome:
    rng = random.Random(opts.seed)
    goldens = GoldenChecker(wrong_reference=opts.wrong_reference)
    regen = _Regen(opts.out_dir, goldens)
    reps = 1 if opts.short else 3
    if not opts.trace:
        setup_s = median([_import_once() for _ in range(reps)])
        colds, warms, counts = [], [], [0, 0]
        load = _Load(opts, rng, goldens)

        def between(_round: int) -> None:
            for sink, cold, n in ((colds, True, 1), (warms, False, WARM_REPS)):
                for _ in range(n):
                    elapsed, ok = regen.timed(cold)
                    sink.append(elapsed)
                    counts[0] += 1
                    counts[1] += not ok

        try:
            result = run_rounds(load.loop, load.runner, between)
        finally:
            load.close()
        phases = result.all_phases()
        attempted = counts[0] + sum(p.sent for p in phases)
        failed = counts[1] + sum(p.failed for p in phases)
        return Outcome(
            end_to_end={
                "setup_s": (setup_s, "s"),
                "cold_s": (median(colds), "s"),
                "p50_ms.low": (result.p50_ms("low"), "ms"),
                "p50_ms.mid": (result.p50_ms("mid"), "ms"),
                "p50_ms.high": (result.p50_ms("high"), "ms"),
            },
            per_layer={},
            info=load_info(result, warm_s=warms),
            attempted=attempted, failed=failed,
            correct=goldens.mismatched == 0,
        )

    # Traced run.  The cold regenerations fork their substrate factories,
    # so they go first, before any thread of this run exists.
    tracer = Tracer()
    # Untraced and traced cold regenerations, alternating.
    colds: dict[bool, list[float]] = {False: [], True: []}
    failed = 0
    for _ in range(2):
        for traced_run in (False, True):
            elapsed, ok = regen.timed(True, tracer if traced_run else None)
            colds[traced_run].append(elapsed)
            failed += not ok
    attempted = 4
    per_layer, a, f = layers.probe_pipeline(
        tracer, opts.out_dir, goldens, reps
    )
    attempted, failed = attempted + a, failed + f
    load = _Load(opts, rng, goldens, tracer)
    try:
        plain, traced, _ = interleaved_mid(
            load.loop, load.runner, load.send_traced
        )
    finally:
        load.close()
    load_phases = [plain, traced]
    attempted += sum(p.sent for p in load_phases)
    failed += sum(p.failed for p in load_phases)

    # No serve engine carries this workload's traffic: the engine figures
    # come from the probe's own engine and its one-at-a-time questions.
    checker = AnswerChecker(wrong_reference=opts.wrong_reference)
    probe, a, f, engine = layers.serve_probes(
        tracer, rng, [], checker, 5 if opts.short else 20
    )
    per_layer.update(probe)
    attempted, failed = attempted + a, failed + f
    per_layer.update(
        layers.engine_ratios(engine.counters, engine.queue_depth_max)
    )
    per_layer["arrays.kernel_invocations"] = (engine.kernels, "count")
    per_layer.update(layers.probe_arrays(tracer, 1.0, reps=200))
    per_layer.update(layers.generator_and_tail(load_phases, plain))
    per_layer["trace.overhead_pct"] = (
        100.0 * (median(colds[True]) / median(colds[False]) - 1.0), "%"
    )
    tracer.write(opts.out_dir / f"spans-paper-regen-{opts.seed}.jsonl")
    return Outcome(
        end_to_end={}, per_layer=per_layer, info={},
        attempted=attempted, failed=failed,
        correct=goldens.mismatched == 0 and checker.mismatches == 0,
    )
