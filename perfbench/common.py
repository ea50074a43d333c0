"""Shared machinery: statistics, spans, the open-loop generator, the rate
ladder, answer checking and the result line."""

from __future__ import annotations

import asyncio
import contextvars
import http.client
import itertools
import json
import math
import os
import platform
import socket
import subprocess
import time
import urllib.parse
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: One step of the fixed geometric rate ladder behind ``max_rate_qps``.
LADDER_STEP = 2 ** 0.125
#: Share of the requests sent that must be answered correctly within
#: the latency limit for a rung to pass.
ON_TIME_SHARE = 0.99


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- statistics -------------------------------------------------------------


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# -- spans ------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    request_id: str | None
    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder.

    A span opened inside another becomes its child and inherits its
    request id, so every call made for one request shares an id.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.remainders: dict[str, dict[str, Any]] = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[tuple[int, str | None] | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    @contextmanager
    def span(self, name: str, request_id: str | None = None) -> Iterator[None]:
        parent = self._current.get()
        span_id = next(self._ids)
        if request_id is None and parent is not None:
            request_id = parent[1]
        token = self._current.set((span_id, request_id))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append(Span(
                span_id, parent[0] if parent else None, request_id,
                name, start, end,
            ))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations_us(self, name: str) -> list[float]:
        return [s.duration_ns / 1e3 for s in self.named(name)]

    def self_time_ns(self, span: Span) -> int:
        """The span's duration minus the part its children cover."""
        intervals = sorted(
            (max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns))
            for c in self.spans if c.parent_id == span.span_id
        )
        covered, cursor = 0, span.start_ns
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration_ns - covered

    def by_request(self, name: str) -> dict[str | None, Span]:
        return {s.request_id: s for s in self.named(name)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "span": s.span_id, "parent": s.parent_id,
                    "request": s.request_id, "name": s.name,
                    "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "self_ns": self.self_time_ns(s),
                }) + "\n")
            for name, entry in sorted(self.remainders.items()):
                fh.write(json.dumps({"remainder": name, **entry}) + "\n")


def remainder_us(
    tracer: Tracer, whole: str, parts: list[str], remainder: str
) -> float:
    """Median over requests of ``whole`` minus the sum of ``parts`` —
    an attribution by subtraction, kept under the name ``remainder``.
    A part names a span or, as ``handlers``, every ``handlers.*`` span."""

    def spans_of(part: str) -> dict[str | None, Span]:
        return {
            s.request_id: s for s in tracer.spans
            if s.name == part or s.name.startswith(part + ".")
        }

    wholes = tracer.by_request(whole)
    by_part = [spans_of(p) for p in parts]
    values = [
        (span.duration_ns - sum(bp[rid].duration_ns for bp in by_part)) / 1e3
        for rid, span in wholes.items()
        if all(rid in bp for bp in by_part)
    ]
    if not values:
        raise ValueError(f"no request has {whole} and all of {parts}")
    tracer.remainders[remainder] = {
        "whole": whole, "minus": parts, "median_us": median(values),
    }
    return median(values)


# -- open-loop load ---------------------------------------------------------


def poisson_offsets(rng: Any, rate: float, count: int) -> list[float]:
    """``count`` arrival offsets (s) of a Poisson process at ``rate``."""
    t, out = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


@dataclass
class Phase:
    """One open-loop phase at a fixed offered rate."""

    rate: float
    scheduled: int
    limit_s: float
    sent: int = 0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)  # correct only
    late_s: list[float] = field(default_factory=list)
    aborted: bool = False
    #: (latency, request, answer) awaiting :meth:`settle`.
    answers: list[Any] = field(default_factory=list)
    #: The first few exceptions of refused or failed requests.
    errors: list[str] = field(default_factory=list)

    @property
    def on_time(self) -> int:
        return sum(1 for x in self.latencies_s if x <= self.limit_s)

    @property
    def on_time_share(self) -> float:
        # Requests never sent after an abort count as missing the limit.
        return self.on_time / self.scheduled if self.scheduled else 0.0

    @property
    def passed(self) -> bool:
        return (
            not self.aborted
            and not self.answers
            and self.on_time_share >= ON_TIME_SHARE
        )

    def settle(self, check: Callable[[Any, Any], bool]) -> None:
        """Check every answer, outside the timed path: a wrong one
        counts as failed and as missing the limit."""
        for latency, request, answer in self.answers:
            if check(request, answer):
                self.latencies_s.append(latency)
            else:
                self.failed += 1
        self.answers.clear()

    def latency_ms(self, q: float) -> float:
        """Latency percentile over every request sent; a failed one
        counts as infinitely late."""
        values = self.latencies_s + [math.inf] * self.failed
        return percentile(values, q) * 1e3


async def open_loop(
    requests: list[Any],
    offsets: list[float],
    send: Callable[[Any], Awaitable[Any]],
    *,
    rate: float,
    limit_s: float,
    backlog_cap: int,
) -> Phase:
    """Send ``requests[i]`` at ``offsets[i]`` regardless of replies.

    Latency runs from each request's due time, so a stall also charges
    the requests queued behind it.  ``send`` returns the answer (checked
    later, outside the timed path) or raises for a refused or failed
    request.  When more than ``backlog_cap`` requests are outstanding the
    backlog is growing: the phase stops sending and is marked aborted,
    which also keeps the program's own admission queue from overflowing.
    """
    loop = asyncio.get_running_loop()
    phase = Phase(rate=rate, scheduled=len(requests), limit_s=limit_s)
    tasks: set[asyncio.Task] = set()
    done_tasks: list[asyncio.Task] = []

    async def one(request: Any, due: float) -> None:
        try:
            answer = await send(request)
        except Exception as exc:  # refused or failed: counted, reported
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append(repr(exc))
            return
        phase.answers.append((loop.time() - due, request, answer))

    start = loop.time() + 0.005
    for request, offset in zip(requests, offsets):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late_s.append(max(0.0, loop.time() - due))
        if len(tasks) > backlog_cap:
            phase.aborted = True
            break
        task = asyncio.ensure_future(one(request, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        done_tasks.append(task)
        phase.sent += 1
    if done_tasks:
        await asyncio.gather(*done_tasks)
    return phase


def max_rate_from(rungs: list[Phase]) -> float:
    """``max_rate_qps`` from the rungs of the fixed geometric ladder.

    The highest passing rate, interpolated on the share answered on time
    towards the first failing rung above it, so the figure moves
    continuously instead of in ladder steps.  With no passing rung, the
    lowest rate scaled by how far its share fell short.
    """
    passing = [r for r in rungs if r.passed]
    if not passing:
        low = min(rungs, key=lambda r: r.rate)
        return low.rate * low.on_time_share / ON_TIME_SHARE
    best = max(passing, key=lambda r: r.rate)
    above = [r for r in rungs if not r.passed and r.rate > best.rate]
    if not above:
        return best.rate
    fail = min(above, key=lambda r: r.rate)
    gap = best.on_time_share - fail.on_time_share
    frac = (best.on_time_share - ON_TIME_SHARE) / gap if gap > 0 else 0.0
    return best.rate + (fail.rate - best.rate) * min(1.0, frac)


# -- answers ----------------------------------------------------------------


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class AnswerChecker:
    """Checks serve answers against the direct handler call.

    The reference for (kind, params) is ``QueryKind.handler`` on the
    params the registry builds, in canonical JSON; an answer also has to
    carry ``payload_digest(value)`` as its digest.  ``wrong_reference``
    deliberately corrupts one reference (the harness self-check proves
    such a mismatch is counted as a failed operation).  The sweep-kernel
    passes the reference calls make are counted in ``kernel_calls``, so
    they can be left out of the program's process-wide kernel count.
    """

    def __init__(self, wrong_reference: bool = False) -> None:
        from repro.integrity import payload_digest
        from repro.serve.handlers import DEFAULT_REGISTRY

        self._registry = DEFAULT_REGISTRY
        self._digest = payload_digest
        self._refs: dict[str, str] = {}
        self._wrong = wrong_reference
        self.mismatches = 0
        self.kernel_calls = 0

    def reference(self, kind: str, params: dict[str, Any]) -> str:
        query = self._registry.build(kind, params)
        ref = self._refs.get(query.hash)
        if ref is None:
            from repro.analysis.arrays import kernel_invocations

            before = kernel_invocations()
            ref = canonical_json(query.kind.handler(query.params))
            self.kernel_calls += kernel_invocations() - before
            if self._wrong and not self._refs:
                ref = ref.replace("0", "1", 1) + " "
            self._refs[query.hash] = ref
        return ref

    def check(
        self, kind: str, params: dict[str, Any], value: Any, digest: str
    ) -> bool:
        ok = (
            canonical_json(value) == self.reference(kind, params)
            and digest == self._digest(value)
        )
        if not ok:
            self.mismatches += 1
        return ok


class EngineKernels:
    """The program's ``kernel_invocations()`` from now on, less the
    passes ``checker`` made for its reference answers meanwhile: the
    counter is global to the process, and the engine's passes are the
    ones wanted."""

    def __init__(self, checker: AnswerChecker) -> None:
        from repro.analysis.arrays import kernel_invocations

        self._now = kernel_invocations
        self._checker = checker
        self._start = kernel_invocations()
        self._refs = checker.kernel_calls

    def count(self) -> int:
        refs = self._checker.kernel_calls - self._refs
        return self._now() - self._start - refs


# -- keep-alive HTTP/1.1 clients -----------------------------------------


def _request_bytes(method: str, path: str, host: str, body: bytes) -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def _header(line: bytes, headers: dict[str, str]) -> bool:
    """Add one response header line; False at the blank line ending them."""
    if line in (b"\r\n", b"\n", b""):
        return False
    key, _, value = line.decode("latin-1").partition(":")
    headers[key.strip().lower()] = value.strip()
    return True


class AsyncHttpConn:
    """One keep-alive connection; each request leaves in a single write."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> "AsyncHttpConn":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, dict[str, str], bytes]:
        self._writer.write(_request_bytes(method, path, self.host, body))
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while _header(await self._reader.readline(), headers):
            pass
        payload = await self._reader.readexactly(
            int(headers.get("content-length", "0"))
        )
        return status, headers, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None


class HttpConn(http.client.HTTPConnection):
    """The standard library's keep-alive client with Nagle's algorithm
    off: it writes a request's header and body separately, and the body
    must not wait for the server's delayed ACK."""

    def __init__(self, url: str) -> None:
        parts = urllib.parse.urlsplit(url)
        super().__init__(parts.hostname, parts.port, timeout=30)

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, dict[str, str], bytes]:
        self.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        reply = self.getresponse()
        headers = {k.lower(): v for k, v in reply.getheaders()}
        return reply.status, headers, reply.read()


# -- provenance and output --------------------------------------------------


def cpu_steal_s() -> float | None:
    """CPU time the hypervisor took from this machine since boot — a
    slow spell of a shared host shows here, not in the program."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment() -> dict[str, Any]:
    import numpy

    sha = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_sha": sha,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


@dataclass
class Outcome:
    """What one workload run measured."""

    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    info: dict[str, Any]
    attempted: int
    failed: int
    correct: bool


class GoldenChecker:
    """Regenerated artifacts against the checked-in ``artifacts/``.

    Every exported file must be byte-identical to its golden copy, and
    the run manifest's ``text_sha256`` must equal the golden manifest's;
    ``manifest.json`` and ``journal.jsonl`` themselves hold wall times
    and are never compared byte for byte.  ``wrong_reference`` corrupts
    one golden file (the harness self-check).
    """

    def __init__(self, wrong_reference: bool = False) -> None:
        self._dir = ROOT / "artifacts"
        manifest = json.loads((self._dir / "manifest.json").read_text())
        self._artifacts = manifest["artifacts"]
        self._bytes: dict[str, bytes] = {}
        self._wrong = wrong_reference
        self.mismatched = 0

    def _golden(self, filename: str) -> bytes:
        data = self._bytes.get(filename)
        if data is None:
            data = (self._dir / filename).read_bytes()
            if self._wrong and not self._bytes:
                data += b"\n"
            self._bytes[filename] = data
        return data

    def text_matches(self, name: str, result: dict) -> bool:
        """An artifact generated in memory against its golden text hash."""
        from repro.harness.pipeline import text_sha256

        ok = text_sha256(result) == self._artifacts[name]["text_sha256"]
        self.mismatched += not ok
        return ok

    def mismatches(self, outdir: Path, names: list[str]) -> list[str]:
        """The artifacts in ``outdir`` that differ from the goldens."""
        manifest = json.loads((outdir / "manifest.json").read_text())
        made = manifest["artifacts"]
        bad = []
        for name in names:
            golden = self._artifacts[name]
            ok = (
                made.get(name, {}).get("text_sha256") == golden["text_sha256"]
                and sorted(made[name]["files"]) == sorted(golden["files"])
                and all(
                    (outdir / fn).read_bytes() == self._golden(fn)
                    for fn in golden["files"]
                )
            )
            if not ok:
                bad.append(name)
        self.mismatched += len(bad)
        return bad


def load_info(load: Any, warm_s: list[float]) -> dict[str, Any]:
    """Every visit and ladder rung, plus the ungated figures: the
    mid-rate p99, ``max_rate_qps`` and ``warm_s`` (the median of the
    warm repetitions)."""
    mid = load.phases["mid"]

    def row(p: Phase) -> dict[str, Any]:
        return {
            "rate": p.rate, "sent": p.sent, "failed": p.failed,
            "p50_ms": p.latency_ms(0.5) if p.sent else None,
            "on_time_share": p.on_time_share, "aborted": p.aborted,
            "passed": p.passed, "errors": p.errors,
        }

    # Every rung up to the ladder's top passed: the figure is a floor.
    capped = load.phases["high"].passed and all(r.passed for r in load.rungs)
    return {
        "warm_s": {"value": median(warm_s), "unit": "s",
                   "samples": len(warm_s), "gated": False},
        "p99_ms.mid": {"value": mid.latency_ms(0.99), "unit": "ms",
                       "samples": mid.sent, "gated": False},
        "max_rate_qps": {"value": load.max_rate, "unit": "1/s",
                         "samples": sum(r.sent for r in load.rungs),
                         "gated": False, "capped": capped},
        "visits": {
            name: [row(p) for p in parts]
            for name, parts in load.visits.items()
        },
        "ladder": [row(r) for r in load.rungs],
    }
