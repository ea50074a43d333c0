"""serve-fresh: the in-process engine under fresh, mostly uncached traffic."""

from __future__ import annotations

import asyncio
import itertools
import random
import time

from perfbench import layers
from perfbench.common import (
    AnswerChecker,
    EngineKernels,
    GoldenChecker,
    Outcome,
    Tracer,
    load_info,
    median,
)
from perfbench.load import LoadRunner, LoadSpec, interleaved_mid, run_rounds
from perfbench.traffic import FreshTraffic, distinct_fresh

SPEC = LoadSpec(
    rates={"low": 50.0, "mid": 200.0, "high": 400.0},
    limit_s=0.100,
    # Below the engine's 128-deep admission queue: a phase whose backlog
    # passes this is overloaded and stops before anything is shed.
    backlog_cap=100,
)
#: Per round: fresh engines, each answering the question set once cold
#: and ``WARM_PASSES`` times warm; ``cold_s``/``warm_s`` are the medians
#: over all rounds.
COLD_ENGINES = 2
WARM_PASSES = 5
#: Distinct questions answered one at a time for ``cold_s``/``warm_s``.
COLD_SET = 100
#: One question of each kind: ``setup_s`` ends with all six answered.
FIRST_ANSWERS = (
    ("node_hours", {"scenario": "k_computer", "speedup": 4.0}),
    ("costbenefit", {"scenario": "anl", "me_speedup": 4.0}),
    ("me_speedup", {"device": "v100", "fmt": "fp16"}),
    ("roofline", {"device": "a100", "flops": 2e12, "nbytes": 4e9}),
    ("density", {"device_a": "v100", "device_b": "a100"}),
    ("ozaki", {"implementation": "DGEMM-TC", "input_range": 1e8}),
)


def _setup_once(checker: AnswerChecker) -> tuple[float, int]:
    """Engine start plus the first answer of each kind, substrates cold;
    returns the time and the number of wrong answers."""
    from repro.harness.cache import SUBSTRATE_CACHE
    from repro.serve import ServeClient

    SUBSTRATE_CACHE.clear()
    start = time.perf_counter()
    with ServeClient() as client:
        answers = [client.query(k, p) for k, p in FIRST_ANSWERS]
        elapsed = time.perf_counter() - start
    return elapsed, sum(
        not checker.check(k, p, a.value, a.digest)
        for (k, p), a in zip(FIRST_ANSWERS, answers)
    )


def _cold_warm(
    loop: asyncio.AbstractEventLoop,
    questions,
    checker: AnswerChecker,
    warm_passes: int,
) -> tuple[float, list[float], int, int]:
    """The question set one at a time through a fresh default engine
    (cold), then ``warm_passes`` times more, answered from its cache
    (warm).  The engine runs on ``loop`` in this thread, as the load's
    engine does, so no thread hop is timed."""
    from repro.serve import QueryEngine

    async def passes() -> tuple[list[float], list[list]]:
        engine = QueryEngine()
        await engine.start()
        try:
            times, replies = [], []
            for _ in range(1 + warm_passes):
                start = time.perf_counter()
                answers = [await engine.submit(k, p) for k, p in questions]
                times.append(time.perf_counter() - start)
                replies.append(answers)
            return times, replies
        finally:
            await engine.stop()

    times, replies = loop.run_until_complete(passes())
    failed = sum(
        not checker.check(k, p, a.value, a.digest)
        for answers in replies
        for (k, p), a in zip(questions, answers)
    )
    return times[0], times[1:], len(questions) * len(replies), failed


class _Load:
    """A default ``QueryEngine`` and the open-loop generator, both on one
    event loop in this thread; the loop runs only while a phase does."""

    def __init__(self, opts, rng, checker, tracer=None) -> None:
        from repro.serve import QueryEngine

        self.loop = asyncio.new_event_loop()
        self.engine = QueryEngine()
        self.loop.run_until_complete(self.engine.start())
        ids = itertools.count()
        engine = self.engine

        async def send(request):
            return await engine.submit(*request)

        async def send_traced(request):
            with tracer.span("request", request_id=f"req-{next(ids)}"):
                with tracer.span("engine.submit"):
                    return await engine.submit(*request)

        self.send_traced = send_traced
        self.runner = LoadRunner(
            SPEC, opts.seconds, rng, FreshTraffic(rng).take, send,
            lambda request, response: checker.check(
                *request, response.value, response.digest),
        )
        # Executor threads and batch groups start lazily: warm them up.
        self._run(self.runner.phase(SPEC.rates["mid"], 0.05 * opts.seconds))
        self.counters_before = engine.metrics.snapshot()["counters"]

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    def counters(self) -> dict[str, int]:
        now = self.engine.metrics.snapshot()["counters"]
        return {k: v - self.counters_before.get(k, 0) for k, v in now.items()}

    def close(self) -> None:
        self._run(self.engine.stop())
        self.loop.close()


def run(opts) -> Outcome:
    rng = random.Random(opts.seed)
    checker = AnswerChecker(wrong_reference=opts.wrong_reference)
    reps = 1 if opts.short else 3
    if not opts.trace:
        setups = [_setup_once(checker) for _ in range(reps)]
        questions = distinct_fresh(rng, COLD_SET // (4 if opts.short else 1))
        colds, warms = [], []
        counts = [len(FIRST_ANSWERS) * reps, sum(bad for _, bad in setups)]

        def between(_round: int) -> None:
            for _ in range(1 if opts.short else COLD_ENGINES):
                cold, warm, a, f = _cold_warm(
                    load.loop, questions, checker, WARM_PASSES
                )
                colds.append(cold)
                warms.extend(warm)
                counts[0] += a
                counts[1] += f

        load = _Load(opts, rng, checker)
        try:
            result = run_rounds(load.loop, load.runner, between)
        finally:
            load.close()
        phases = result.all_phases()
        attempted = counts[0] + sum(p.sent for p in phases)
        failed = counts[1] + sum(p.failed for p in phases)
        return Outcome(
            end_to_end={
                "setup_s": (median([t for t, _ in setups]), "s"),
                "cold_s": (median(colds), "s"),
                "p50_ms.low": (result.p50_ms("low"), "ms"),
                "p50_ms.mid": (result.p50_ms("mid"), "ms"),
                "p50_ms.high": (result.p50_ms("high"), "ms"),
            },
            per_layer={},
            info=load_info(result, warm_s=warms),
            attempted=attempted, failed=failed,
            correct=checker.mismatches == 0,
        )

    tracer = Tracer()
    goldens = GoldenChecker(wrong_reference=opts.wrong_reference)
    per_layer, attempted, failed = layers.probe_pipeline(
        tracer, opts.out_dir, goldens, reps
    )
    load = _Load(opts, rng, checker, tracer)
    try:
        kernels = EngineKernels(checker)
        sampler = layers.QueueSampler(
            load.loop, layers.engine_queue(load.engine), 0.005
        )
        runner = load.runner
        plain, traced, overhead = interleaved_mid(
            load.loop, runner, load.send_traced
        )
        high = load._run(runner.named("high"))
        load._run(sampler.stop())
        counters = load.counters()
        # The checks after each phase compute reference answers with the
        # same kernels; only the engine's passes are counted.
        kernel_passes = kernels.count()
        width = load.engine.metrics.batch_size.summary()["mean"] or 1.0
    finally:
        load.close()
    load_phases = [plain, traced, high]
    attempted += sum(p.sent for p in load_phases)
    failed += sum(p.failed for p in load_phases)
    per_layer.update(layers.engine_ratios(counters, sampler.max_depth))
    per_layer["arrays.kernel_invocations"] = (kernel_passes, "count")
    per_layer.update(layers.probe_arrays(
        tracer, width, reps=200
    ))
    probe, a, f, _ = layers.serve_probes(
        tracer, rng, runner.sent, checker, 5 if opts.short else 20
    )
    per_layer.update(probe)
    attempted += a
    failed += f
    per_layer.update(layers.generator_and_tail(load_phases, plain))
    per_layer["trace.overhead_pct"] = (overhead, "%")
    tracer.write(opts.out_dir / f"spans-serve-fresh-{opts.seed}.jsonl")
    return Outcome(
        end_to_end={}, per_layer=per_layer, info={},
        attempted=attempted, failed=failed,
        correct=checker.mismatches == 0 and goldens.mismatched == 0,
    )
