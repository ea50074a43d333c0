"""The fixed-rate phases and the rate ladder, shared by every workload."""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from perfbench.common import (
    LADDER_STEP,
    Phase,
    max_rate_from,
    median,
    open_loop,
    poisson_offsets,
)

RATES = ("low", "mid", "high")
#: Share of ``--seconds`` each rate gets in total, split over
#: :data:`ROUNDS` visits; and the length of one ladder rung.
SHARE = {"low": 0.15, "mid": 0.2, "high": 0.12, "rung": 0.05}
#: The rates are visited in rounds, with the workload's cold and warm
#: repetitions in between, so a slow spell of the machine lands on every
#: metric a little instead of on one metric entirely.
ROUNDS = 3
#: The ladder climbs in strides of ``COARSE`` steps until a rung fails,
#: then walks the steps in between; it never climbs past ``TOP_STEPS``
#: steps above the high rate (8x) and never descends below the mid rate.
COARSE = 6
TOP_STEPS = 24
#: Idle gap after each phase, so one phase's backlog never spills into
#: the next one's timings.
GAP_S = 0.25


@dataclass
class LoadSpec:
    """One workload's open-loop settings (recorded in BENCHMARK.json)."""

    rates: dict[str, float]
    limit_s: float
    backlog_cap: int
    #: Requests per phase are rounded to a multiple of this, so a
    #: cycling request source sends each of its items equally often.
    count_quantum: int = 1


@dataclass
class LoadResult:
    #: Every visit to each rate, in order, and the visits merged.
    visits: dict[str, list[Phase]]
    phases: dict[str, Phase]
    rungs: list[Phase] = field(default_factory=list)
    max_rate: float = 0.0

    def all_phases(self) -> list[Phase]:
        return [p for v in self.visits.values() for p in v] + self.rungs

    def p50_ms(self, name: str) -> float:
        """Median over the visits of each visit's median latency: one
        visit caught in a slow spell of the host moves it least."""
        return median([p.latency_ms(0.5) for p in self.visits[name]])


def merge(parts: list[Phase]) -> Phase:
    """One phase from several visits to the same rate."""
    merged = Phase(
        rate=parts[0].rate, scheduled=sum(p.scheduled for p in parts),
        limit_s=parts[0].limit_s,
    )
    for p in parts:
        merged.sent += p.sent
        merged.failed += p.failed
        merged.latencies_s += p.latencies_s
        merged.late_s += p.late_s
        merged.aborted = merged.aborted or p.aborted
        merged.errors += p.errors
    return merged


class LoadRunner:
    """Runs phases for one workload: ``take(n)`` yields the next ``n``
    requests, ``send`` answers one, ``check`` judges an answer."""

    def __init__(
        self,
        spec: LoadSpec,
        seconds: float,
        rng: random.Random,
        take: Callable[[int], list[Any]],
        send: Callable[[Any], Awaitable[Any]],
        check: Callable[[Any, Any], bool],
    ) -> None:
        self.spec, self.seconds, self.rng = spec, seconds, rng
        self.take, self.send, self.check = take, send, check
        self.sent: list[Any] = []

    async def phase(self, rate: float, duration_s: float) -> Phase:
        quantum = self.spec.count_quantum
        count = max(quantum, round(rate * duration_s / quantum) * quantum)
        requests = self.take(count)
        self.sent.extend(requests)
        result = await open_loop(
            requests, poisson_offsets(self.rng, rate, count), self.send,
            rate=rate, limit_s=self.spec.limit_s,
            backlog_cap=self.spec.backlog_cap,
        )
        result.settle(self.check)
        await asyncio.sleep(GAP_S)
        return result

    async def named(self, name: str, rounds: int = 1) -> Phase:
        return await self.phase(
            self.spec.rates[name], SHARE[name] * self.seconds / rounds
        )

    async def visit(self) -> dict[str, Phase]:
        """One round: each rate once, for its share / :data:`ROUNDS`."""
        return {name: await self.named(name, ROUNDS) for name in RATES}

    async def ladder(self, high: Phase) -> tuple[float, list[Phase]]:
        """``max_rate_qps`` and the rungs measured for it, on the fixed
        ladder ``high_rate * LADDER_STEP ** k``; ``high`` is rung 0."""
        rung_s = SHARE["rung"] * self.seconds
        base = high.rate
        tried: dict[int, Phase] = {0: high}

        async def passes(k: int) -> bool:
            tried[k] = await self.phase(base * LADDER_STEP ** k, rung_s)
            return tried[k].passed

        if high.passed:
            k = 0
            while k < TOP_STEPS and await passes(k + COARSE):
                k += COARSE
            for j in range(k + 1, min(k + COARSE, TOP_STEPS)):
                if not await passes(j):
                    break
        else:
            floor = self.spec.rates["mid"] * 0.999
            k = 0
            while base * LADDER_STEP ** (k - 1) >= floor:
                k -= 1
                if await passes(k):
                    break
        rungs = [tried[k] for k in sorted(tried)]
        return max_rate_from(rungs), [p for p in rungs if p is not high]


def run_rounds(
    loop: asyncio.AbstractEventLoop,
    runner: LoadRunner,
    between: Callable[[int], None],
) -> LoadResult:
    """:data:`ROUNDS` visits to every rate on ``loop``, with
    ``between(r)`` before each, then the ladder from the merged
    high-rate phase."""
    visits: dict[str, list[Phase]] = {name: [] for name in RATES}
    for r in range(ROUNDS):
        between(r)
        for name, phase in loop.run_until_complete(runner.visit()).items():
            visits[name].append(phase)
    phases = {name: merge(parts) for name, parts in visits.items()}
    max_rate, rungs = loop.run_until_complete(runner.ladder(phases["high"]))
    return LoadResult(
        visits=visits, phases=phases, rungs=rungs, max_rate=max_rate
    )


def interleaved_mid(
    loop: asyncio.AbstractEventLoop,
    runner: LoadRunner,
    traced_send: Callable[[Any], Awaitable[Any]],
) -> tuple[Phase, Phase, float]:
    """:data:`ROUNDS` untraced and traced visits to the mid rate, taking
    turns, so a slow spell of the machine lands on both sides alike.

    Returns the untraced visits merged, the traced visits merged, and
    ``trace.overhead_pct``: the traced visits' median p50 over the
    untraced visits', less one, in percent.  The runner keeps sending
    traced afterwards.
    """
    plain_send = runner.send
    visits: dict[bool, list[Phase]] = {False: [], True: []}
    for _ in range(ROUNDS):
        for traced in (False, True):
            runner.send = traced_send if traced else plain_send
            visits[traced].append(
                loop.run_until_complete(runner.named("mid", ROUNDS))
            )
    p50 = {
        traced: median([p.latency_ms(0.5) for p in parts])
        for traced, parts in visits.items()
    }
    overhead = 100.0 * (p50[True] / p50[False] - 1.0)
    return merge(visits[False]), merge(visits[True]), overhead
