"""serve-hot: the cache-hit path over HTTP through the router."""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time

from perfbench import cluster, layers
from perfbench.common import (
    AnswerChecker,
    AsyncHttpConn,
    GoldenChecker,
    HttpConn,
    Outcome,
    Tracer,
    load_info,
    median,
    nproc,
)
from perfbench.load import LoadRunner, LoadSpec, interleaved_mid, run_rounds
from perfbench.traffic import ZipfTraffic, hot_ranked

SPEC = LoadSpec(
    rates={"low": 40.0, "mid": 80.0, "high": 120.0},
    limit_s=0.050,
    # Waiting for one of the nproc connections counts as backlog too.
    backlog_cap=100,
)
#: Warm passes over the pool per round; ``warm_s`` is the median of all.
WARM_PASSES = 2


def _body(request) -> bytes:
    kind, params = request
    return json.dumps({"kind": kind, "params": params}).encode("utf-8")


def _reply_ok(checker: AnswerChecker, request, reply) -> bool:
    status, _, payload = reply
    if status != 200:
        return False
    body = json.loads(payload)
    return checker.check(*request, body["value"], body.get("digest", ""))


def _pass(url: str, pool, checker: AnswerChecker) -> tuple[float, int]:
    """The whole pool once, one question at a time, over one keep-alive
    connection: wall time and wrong answers."""
    conn = HttpConn(url)
    try:
        start = time.perf_counter()
        replies = [conn.call("POST", "/query", _body(r)) for r in pool]
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    return elapsed, sum(
        not _reply_ok(checker, r, reply) for r, reply in zip(pool, replies)
    )


class _Load:
    """One single-threaded asyncio generator over ``nproc`` keep-alive
    connections; a request waits for a free connection, and that wait
    counts against its latency.  The loop runs only while a phase does."""

    def __init__(self, opts, rng, url, ranked, checker, tracer=None) -> None:
        self.loop = asyncio.new_event_loop()
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.conns: list[AsyncHttpConn] = []
        self.free = self.run(self._open(host, int(port)))
        ids = itertools.count()

        async def send(request):
            conn = await self.free.get()
            try:
                reply = await conn.request("POST", "/query", _body(request))
            finally:
                self.free.put_nowait(conn)
            if reply[0] != 200:
                raise RuntimeError(f"HTTP {reply[0]}")
            return reply

        async def send_traced(request):
            with tracer.span("request", request_id=f"req-{next(ids)}"):
                with tracer.span("http.router.load"):
                    return await send(request)

        self.send_traced = send_traced
        self.runner = LoadRunner(
            SPEC, opts.seconds, rng, ZipfTraffic(rng, ranked).take, send,
            lambda request, reply: _reply_ok(checker, request, reply),
        )
        self.run(self.runner.phase(SPEC.rates["low"], 0.05 * opts.seconds))

    async def _open(self, host: str, port: int) -> asyncio.Queue:
        free: asyncio.Queue = asyncio.Queue()
        for _ in range(nproc()):
            conn = await AsyncHttpConn(host, port).open()
            self.conns.append(conn)
            free.put_nowait(conn)
        return free

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def sample_queues(self, workers: dict[int, str]) -> layers.QueueSampler:
        """Samples every worker's queue depth from its ``/metrics`` while
        the load runs, over connections of its own: the generator's
        ``nproc`` connections stay the generator's."""
        urls = [u.split("//", 1)[1].rsplit(":", 1) for u in workers.values()]

        async def open_all() -> list[AsyncHttpConn]:
            return [await AsyncHttpConn(h, int(p)).open() for h, p in urls]

        conns = self.run(open_all())
        self.conns.extend(conns)

        async def read() -> float:
            depths = []
            for conn in conns:
                _, _, payload = await conn.request("GET", "/metrics")
                depths.append(json.loads(payload)["gauges"]["queue_depth"])
            return max(depths)

        return layers.QueueSampler(self.loop, read, 0.025)

    def close(self) -> None:
        # Close every keep-alive connection before the cluster stops:
        # stopping the router under an open connection logs a spurious
        # "Event loop is closed" from its connection handler.
        for conn in self.conns:
            self.run(conn.close())
        self.loop.close()


def run(opts) -> Outcome:
    rng = random.Random(opts.seed)
    checker = AnswerChecker(wrong_reference=opts.wrong_reference)
    ranked = hot_ranked()
    reps = 1 if opts.short else 3
    attempted = failed = 0
    if not opts.trace:
        # Each boot is measured, then its cold caches answer the pool once;
        # the last cluster stays up for the warm passes and the load.
        setups, colds, warms, sup, load = [], [], [], None, None
        counts = [0, 0]

        def passes(n: int, sink: list) -> None:
            for _ in range(n):
                elapsed, bad = _pass(sup.url, ranked, checker)
                sink.append(elapsed)
                counts[0] += len(ranked)
                counts[1] += bad

        try:
            for _ in range(reps):
                if sup is not None:
                    sup.stop()
                sup, seconds = cluster.boot()
                setups.append(seconds)
                passes(1, colds)
            load = _Load(opts, rng, sup.url, ranked, checker)
            result = run_rounds(
                load.loop, load.runner,
                lambda _round: passes(1 if opts.short else WARM_PASSES, warms),
            )
        finally:
            if load is not None:
                load.close()
            if sup is not None:
                sup.stop()
        phases = result.all_phases()
        attempted = counts[0] + sum(p.sent for p in phases)
        failed = counts[1] + sum(p.failed for p in phases)
        return Outcome(
            end_to_end={
                "setup_s": (median(setups), "s"),
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
    # The pipeline probe forks; it runs before the cluster's threads.
    per_layer, attempted, failed = layers.probe_pipeline(
        tracer, opts.out_dir, goldens, reps
    )
    sup, _ = cluster.boot()
    load = None
    try:
        _, bad = _pass(sup.url, ranked, checker)
        attempted, failed = attempted + len(ranked), failed + bad
        load = _Load(opts, rng, sup.url, ranked, checker, tracer)
        runner = load.runner
        before = layers.worker_counters(sup)
        sampler = load.sample_queues(cluster.worker_urls(sup))
        plain, traced, overhead = interleaved_mid(
            load.loop, runner, load.send_traced
        )
        high = load.run(runner.named("high"))
        load.run(sampler.stop())
        load.close()
        load = None
        after = layers.worker_counters(sup)
        counters = {k: v - before.get(k, 0) for k, v in after.items()}
        probe, a, f, engine = layers.serve_probes(
            tracer, rng, runner.sent, checker, 5 if opts.short else 20, sup
        )
    finally:
        if load is not None:
            load.close()
        sup.stop()
    load_phases = [plain, traced, high]
    attempted += a + sum(p.sent for p in load_phases)
    failed += f + sum(p.failed for p in load_phases)
    per_layer.update(probe)
    per_layer.update(layers.engine_ratios(counters, sampler.max_depth))
    # The shard kernels run in worker processes, out of this process's
    # counter's sight: the count is the probe's own engine's.
    per_layer["arrays.kernel_invocations"] = (engine.kernels, "count")
    # Cache hits form no batches: the kernel probe runs one speedup.
    per_layer.update(layers.probe_arrays(tracer, 1.0, reps=200))
    per_layer.update(layers.generator_and_tail(load_phases, plain))
    per_layer["trace.overhead_pct"] = (overhead, "%")
    tracer.write(opts.out_dir / f"spans-serve-hot-{opts.seed}.jsonl")
    return Outcome(
        end_to_end={}, per_layer=per_layer, info={},
        attempted=attempted, failed=failed,
        correct=checker.mismatches == 0 and goldens.mismatched == 0,
    )
