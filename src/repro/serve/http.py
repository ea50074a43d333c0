"""The ``repro-serve`` HTTP front end (stdlib-only).

A :class:`ThreadingHTTPServer` whose handler threads delegate to the
thread-safe :class:`~repro.serve.client.ServeClient`, which marshals
every request onto the engine's event loop — so concurrent HTTP
requests coalesce, batch, and shed exactly like in-process ones.

Endpoints (JSON in, JSON out):

* ``POST /query``  — ``{"kind": ..., "params": {...}}`` → the answer
  plus serving metadata (``cached``/``coalesced``/``batched``/latency);
  an optional ``"scenario"`` field (an inline ScenarioSpec object or
  the name of a ``--scenario``-registered one) overlays the evaluation;
* ``GET /kinds``   — every query kind and its parameter schema;
* ``GET /scenarios`` — the registered named scenarios;
* ``GET /metrics`` — the engine's metrics snapshot (JSON);
  ``GET /metrics?format=text`` — the same snapshot as plain-text
  ``name{labels} value`` exposition lines for scrapers;
* ``GET /healthz`` — liveness (the loop and HTTP thread are up);
* ``GET /readyz``  — readiness: breaker states, warm substrates, the
  active fault plan, and the draining flag; HTTP 503 while any breaker
  is non-closed or the process is draining.

Every error response carries the exception's machine-readable ``code``
(see :mod:`repro.errors`), and codes map to HTTP statuses from the one
:data:`STATUS_BY_CODE` table — invalid queries → 400, load shedding →
429, an open circuit breaker or a draining service → 503, deadline
expiry → 504; anything else in the taxonomy → 500 with its code, so a
bare unclassified 500 means exactly "an exception that escaped the
taxonomy".  Retryable rejections additionally carry a ``Retry-After``
header (:data:`RETRY_AFTER_BY_CODE`).

Lifecycle: SIGTERM/SIGINT start a graceful drain — readiness flips to
503 so load balancers stop routing here, new ``/query`` work is
refused with 503 + ``Retry-After``, in-flight queries (and the handler
threads carrying them) finish under ``--drain-timeout``, the result
cache is flushed to the ``--cache-snapshot`` file (checksummed; a
corrupt snapshot at next startup means a cold start, never a crash),
and the process exits 0.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.errors import (
    MalformedRequest,
    PayloadTooLarge,
    QueryValidationError,
    ReproError,
    ServiceDraining,
)

from repro.serve.client import ServeClient
from repro.serve.deadline import (
    DEADLINE_HEADER,
    DeadlineBudget,
    parse_deadline_header,
    parse_deadline_ms,
)
from repro.serve.metrics import render_text_metrics

__all__ = [
    "ServeHTTPServer",
    "MAX_BODY_BYTES",
    "NO_STORE_HEADER",
    "RESULT_DIGEST_HEADER",
    "STATUS_BY_CODE",
    "jittered_retry_after",
    "make_server",
    "main",
    "parse_content_length",
    "run_serve_loop",
    "parse_handler_concurrency",
]

#: Request header asking the engine not to cache the answer.  Sent by
#: the cluster router's hedged-request backup: a duplicate answer
#: inserted into the *backup* shard's LRU would evict entries that
#: shard is actually warm for (cache pollution).
NO_STORE_HEADER = "X-Repro-No-Store"

#: Response header carrying the answer's sealed canonical SHA-256 (see
#: :mod:`repro.integrity`): any downstream hop — the cluster router, an
#: HTTP client, a proxy with opinions — can re-hash the ``value`` field
#: and prove the bytes it received are the bytes the engine computed.
RESULT_DIGEST_HEADER = "X-Repro-Result-Digest"

#: The one code→HTTP-status table.  Codes absent here answer 500; the
#: ``code`` field still rides in the payload, so even a 500 is typed.
STATUS_BY_CODE: dict[str, int] = {
    "query_validation": 400,
    "malformed_request": 400,
    "payload_too_large": 413,
    "scenario_error": 400,
    "fault_plan_error": 400,
    "service_overloaded": 429,
    "circuit_open": 503,
    "service_draining": 503,
    "shard_unavailable": 503,
    "operation_cancelled": 503,
    "query_timeout": 504,
    "deadline_exhausted": 504,
    "integrity_error": 500,
}

#: Status for a :class:`ReproError` whose code has no table entry.
DEFAULT_ERROR_STATUS = 500

#: ``Retry-After`` seconds attached to retryable rejections: shedding
#: and draining clear in about a second (or a load balancer moves the
#: caller to another replica); an open breaker needs its recovery
#: window.
RETRY_AFTER_BY_CODE: dict[str, int] = {
    "service_overloaded": 1,
    "service_draining": 1,
    "circuit_open": 2,
}


#: Largest request body either HTTP server (this one and the cluster
#: router) reads.  A query is a few hundred bytes and an inline scenario
#: a few KiB; a larger declared body is refused before any of it is read.
MAX_BODY_BYTES = 1 << 20


def parse_content_length(value: str | None) -> int:
    """The body length a request's ``Content-Length`` header declares.

    No header means no body.  Anything but a plain decimal count
    (``abc``, ``-5``, ``+5``) raises :class:`MalformedRequest` (400);
    a count over :data:`MAX_BODY_BYTES` raises :class:`PayloadTooLarge`
    (413)."""
    if value is None:
        return 0
    text = value.strip()
    if not (text.isascii() and text.isdigit()):
        raise MalformedRequest(f"malformed Content-Length {value!r}")
    length = int(text)
    if length > MAX_BODY_BYTES:
        raise PayloadTooLarge(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    return length


def jittered_retry_after(seconds: float) -> float:
    """Spread one ``Retry-After`` hint uniformly across ±50%.

    Every client that hit the same breaker/drain rejection gets a
    *different* retry time, so they do not come back as one synchronized
    thundering herd exactly ``seconds`` later.  Deliberately *not*
    seeded: decorrelation is the point.
    """
    return max(0.05, seconds * random.uniform(0.5, 1.5))


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Small header + body writes otherwise collide with delayed ACK on
    # the peer (a ~40 ms stall per round trip through the cluster
    # router's keep-alive connections).
    disable_nagle_algorithm = True
    server: "ServeHTTPServer"

    def _send(
        self,
        status: int,
        payload: dict[str, Any],
        *,
        retry_after: float | None = None,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: ReproError) -> None:
        retry_after = exc.retry_after
        if retry_after is None:
            retry_after = RETRY_AFTER_BY_CODE.get(exc.code)
        if retry_after is not None:
            retry_after = jittered_retry_after(retry_after)
        self._send(
            STATUS_BY_CODE.get(exc.code, DEFAULT_ERROR_STATUS),
            exc.to_dict(),
            retry_after=retry_after,
        )

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.server.verbose:  # pragma: no cover - log formatting
            super().log_message(fmt, *args)

    def do_GET(self) -> None:
        with self.server.track_request():
            client = self.server.client
            parsed = urllib.parse.urlsplit(self.path)
            if self.path == "/healthz":
                self._send(200, client.health())
            elif self.path == "/readyz":
                readiness = client.readiness()
                self._send(200 if readiness["ready"] else 503, readiness)
            elif parsed.path == "/metrics":
                query = urllib.parse.parse_qs(parsed.query)
                if query.get("format", ["json"])[-1] == "text":
                    self._send_text(200, render_text_metrics(client.metrics()))
                else:
                    self._send(200, client.metrics())
            elif self.path == "/kinds":
                self._send(200, client.kinds())
            elif self.path == "/scenarios":
                self._send(200, client.scenarios())
            else:
                self._send(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:
        with self.server.track_request():
            if self.path != "/query":
                self._send(404, {"error": f"no such endpoint: {self.path}"})
                return
            if self.server.draining:
                # Rejected at the door: the drain sequence counts this
                # handler thread, but the engine never sees the query.
                self._send_error(ServiceDraining(
                    "service is draining for shutdown; retry against "
                    "another replica"
                ))
                return
            try:
                length = parse_content_length(
                    self.headers.get("Content-Length")
                )
            except MalformedRequest as exc:
                # The body's extent is unknown: answer, then close.
                self.close_connection = True
                self._send_error(exc)
                return
            try:
                request = json.loads(self.rfile.read(length) or b"{}")
                kind = request["kind"]
                params = request.get("params") or {}
                scenario = request.get("scenario")
                deadline_ms = request.get("deadline_ms")
            except (ValueError, KeyError, TypeError) as exc:
                self._send(400, {"error": f"malformed query request: {exc}"})
                return
            try:
                # The wire header (an upstream hop's remaining budget)
                # wins over the body field (a direct client's ask).
                budget = parse_deadline_header(
                    self.headers.get(DEADLINE_HEADER)
                )
                if budget is None and deadline_ms is not None:
                    budget = DeadlineBudget(parse_deadline_ms(deadline_ms))
            except QueryValidationError as exc:
                self.server.client.engine.metrics.inc("invalid")
                self._send_error(exc)
                return
            store = self.headers.get(NO_STORE_HEADER, "") in ("", "0")
            try:
                response = self.server.client.query(
                    kind, params, scenario=scenario, budget=budget,
                    store=store,
                )
            except ReproError as exc:
                self._send_error(exc)
            else:
                payload = response.to_dict()
                payload["ok"] = True
                extra = (
                    {RESULT_DIGEST_HEADER: response.digest}
                    if response.digest
                    else None
                )
                self._send(200, payload, extra_headers=extra)


class ServeHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one started :class:`ServeClient`.

    Tracks its in-flight request count so a graceful shutdown can wait
    for the handler threads — ``daemon_threads`` means nobody else
    will — and carries the ``draining`` flag the handlers consult to
    turn new ``/query`` work away with 503 + ``Retry-After``.
    """

    daemon_threads = True
    # The stdlib's listen backlog of 5 resets connections when a burst
    # of clients connects at once; a burst must reach the engine, which
    # sheds with typed 429s instead.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        client: ServeClient,
        *,
        verbose: bool = False,
    ) -> None:
        self.client = client
        self.verbose = verbose
        self.draining = False
        self._active_lock = threading.Lock()
        self._active_requests = 0
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def track_request(self) -> "_RequestTracker":
        return _RequestTracker(self)

    def active_requests(self) -> int:
        with self._active_lock:
            return self._active_requests

    def begin_drain(self) -> None:
        """Flip to draining: ``/readyz`` answers 503, new ``/query``
        requests are turned away, the engine stops admitting work."""
        self.draining = True
        self.client.begin_drain()

    def await_quiescence(self, timeout_s: float) -> bool:
        """Wait for the in-flight HTTP handlers to finish (``True``) or
        the deadline (``False``)."""
        deadline = time.monotonic() + timeout_s
        while self.active_requests() > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)
        return True


class _RequestTracker:
    def __init__(self, server: ServeHTTPServer) -> None:
        self._server = server

    def __enter__(self) -> None:
        with self._server._active_lock:
            self._server._active_requests += 1

    def __exit__(self, *exc: Any) -> None:
        with self._server._active_lock:
            self._server._active_requests -= 1


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    client: ServeClient | None = None,
    verbose: bool = False,
    **engine_kwargs: Any,
) -> ServeHTTPServer:
    """Build a server (and, unless given one, a started client).

    ``port=0`` binds an ephemeral port — read ``server.url`` for the
    actual address.  The caller owns shutdown: ``server.shutdown()``
    then ``server.client.close()``.
    """
    if client is None:
        client = ServeClient(**engine_kwargs).start()
    return ServeHTTPServer((host, port), client, verbose=verbose)


def _flag_value(args: list[str], flag: str, what: str) -> str | None:
    """Pop ``flag VALUE`` from ``args``; SystemExit when VALUE is missing."""
    if flag not in args:
        return None
    idx = args.index(flag)
    try:
        value = args[idx + 1]
    except IndexError:
        raise SystemExit(f"{flag} requires {what}")
    del args[idx : idx + 2]
    return value


def _int_flag(args: list[str], flag: str, default: int) -> int:
    raw = _flag_value(args, flag, "an integer argument")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{flag} expects an integer, got {raw!r}")


def _float_flag(args: list[str], flag: str, default: float) -> float:
    raw = _flag_value(args, flag, "a number of seconds")
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise SystemExit(f"{flag} expects a number, got {raw!r}")


def parse_handler_concurrency(args: list[str], default: int = 4) -> int:
    """Pop ``--handler-concurrency N`` (or its deprecated ``--workers``
    alias, with a warning) from ``args``."""
    concurrency = _int_flag(args, "--handler-concurrency", default)
    if "--workers" in args:
        legacy = _int_flag(args, "--workers", default)
        print(
            "warning: --workers is deprecated (it now means in-process "
            "handler concurrency, not cluster size); use "
            "--handler-concurrency N — or --cluster N for a sharded "
            "worker pool",
            file=sys.stderr,
            flush=True,
        )
        concurrency = legacy
    return concurrency


def load_fault_plan_arg(path: str | None):
    """``--fault-plan`` parsing shared by serve and cluster workers."""
    if path is None:
        return None
    from repro.errors import FaultPlanError
    from repro.resilience import load_fault_plan

    try:
        return load_fault_plan(path)
    except FaultPlanError as exc:
        raise SystemExit(f"--fault-plan: {exc}")


def register_scenario_files(server: ServeHTTPServer,
                            scenario_files: list[str]) -> None:
    """Register each ``--scenario`` file on the server's engine,
    tearing the server down on a bad spec."""
    if not scenario_files:
        return
    from repro.errors import ScenarioError
    from repro.scenario import load_scenario

    for path in scenario_files:
        try:
            spec = server.client.engine.register_scenario(load_scenario(path))
        except ScenarioError as exc:
            server.shutdown()
            server.server_close()
            server.client.close()
            raise SystemExit(f"--scenario {path}: {exc}")
        print(
            f"registered scenario {spec.name!r} ({spec.fingerprint[:12]})",
            flush=True,
        )


def restore_snapshot(server: ServeHTTPServer, snapshot_file: str) -> None:
    """Warm the cache from ``snapshot_file`` if it exists.  A
    structurally broken snapshot is reported and ignored (cold start,
    never a crash); entries failing their per-entry digest are
    quarantined and only the verified rest restored."""
    import os

    from repro.errors import SnapshotError

    if os.path.exists(snapshot_file):
        try:
            restored = server.client.load_cache_snapshot(snapshot_file)
        except SnapshotError as exc:
            # Cold start, by contract: warmth is optional, crashing
            # on a damaged snapshot is not.
            print(f"cache snapshot rejected, starting cold: {exc}",
                  flush=True)
        else:
            quarantined = server.client.engine.metrics.counters[
                "snapshot_entries_quarantined"
            ].value
            print(
                f"cache warmed from {snapshot_file} ({restored} entries, "
                f"{quarantined} quarantined)",
                flush=True,
            )
    else:
        print(f"no cache snapshot at {snapshot_file}, starting cold",
              flush=True)


def run_serve_loop(
    server: ServeHTTPServer,
    *,
    snapshot_file: str | None,
    drain_timeout: float,
    snapshot_interval: float = 0.0,
    name: str = "repro-serve",
    banner: str | None = None,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully and exit 0.

    The run loop shared by the single-process front end and every
    cluster worker: install the signal handlers, announce the bound
    address (``banner`` overrides the default ``"<name> listening on
    <url>"`` line — the cluster supervisor parses it), optionally flush
    the cache snapshot every ``snapshot_interval`` seconds so a
    SIGKILL'd worker still reboots warm from its last flush, and on the
    first signal run the drain sequence: refuse new work, wait for
    in-flight queries and their HTTP handler threads, flush the final
    snapshot, exit cleanly.
    """
    import signal

    shutdown_requested = threading.Event()

    def _request_shutdown(signum: int, _frame: Any) -> None:
        if not shutdown_requested.is_set():
            print(
                f"received {signal.Signals(signum).name}; "
                f"draining (grace {drain_timeout:g}s)",
                flush=True,
            )
            shutdown_requested.set()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)

    serve_thread = threading.Thread(
        target=server.serve_forever, name=f"{name}-http", daemon=True
    )
    serve_thread.start()
    print(banner or f"{name} listening on {server.url}", flush=True)

    if snapshot_file is not None and snapshot_interval > 0:
        # Periodic warm-boot insurance: a SIGKILL'd process never runs
        # its drain sequence, so the snapshot it reboots from is the
        # last periodic flush, not the graceful one.
        def _flush_periodically() -> None:
            while not shutdown_requested.wait(snapshot_interval):
                try:
                    server.client.save_cache_snapshot(snapshot_file)
                except ReproError as exc:
                    print(f"periodic cache snapshot failed: {exc}",
                          flush=True)

        threading.Thread(
            target=_flush_periodically,
            name=f"{name}-snapshot",
            daemon=True,
        ).start()

    shutdown_requested.wait()

    # The drain sequence: refuse new work first, then wait for what is
    # already running — engine in-flight queries AND the HTTP handler
    # threads carrying their responses (daemon threads; nobody else
    # waits for them) — then flush the cache and exit cleanly.
    t0 = time.monotonic()
    server.begin_drain()
    engine_idle = server.client.drain(drain_timeout)
    remaining = max(0.0, drain_timeout - (time.monotonic() - t0))
    http_idle = server.await_quiescence(remaining)
    if engine_idle and http_idle:
        print(
            f"drained in {time.monotonic() - t0:.2f}s "
            "(zero in-flight queries dropped)",
            flush=True,
        )
    else:
        print(
            f"drain deadline ({drain_timeout:g}s) struck with work "
            "in flight; shutting down anyway",
            flush=True,
        )
    if snapshot_file is not None:
        try:
            flushed = server.client.save_cache_snapshot(snapshot_file)
        except ReproError as exc:  # StoreError/SnapshotError: warmth lost
            print(f"cache snapshot flush failed: {exc}", flush=True)
        else:
            print(
                f"cache snapshot flushed to {snapshot_file} "
                f"({flushed} entries)",
                flush=True,
            )
    server.shutdown()
    serve_thread.join()
    server.server_close()
    server.client.close()
    print(f"{name} exited cleanly", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Console entry point for ``repro-serve``.

    ``--cluster N`` hands the whole invocation to the sharded
    multi-worker front end (:mod:`repro.cluster.cli`).  Otherwise one
    process serves directly, and SIGTERM/SIGINT trigger a graceful
    drain instead of an abrupt exit: ``/readyz`` flips to 503 and new
    ``/query`` work is refused with 503 + ``Retry-After`` immediately,
    in-flight queries run to completion under ``--drain-timeout``, the
    result cache is flushed to ``--cache-snapshot`` (checksummed,
    durably written), and the process exits 0.  A second signal during
    the drain is ignored — the drain deadline bounds shutdown either
    way.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    if "--cluster" in args:
        from repro.cluster.cli import main as cluster_main

        return cluster_main(args)
    if args and args[0] in ("-h", "--help"):
        print("usage: repro-serve [--host HOST] [--port PORT] [options]")
        print("options:")
        print("  --host HOST        bind address (default 127.0.0.1)")
        print("  --port PORT        bind port; 0 picks one (default 8077)")
        print("  --cluster N        serve through N sharded worker processes")
        print("                     (consistent-hash routed; see below)")
        print("  --handler-concurrency N  concurrent handler evaluations "
              "(default 4)")
        print("  --workers N        deprecated alias of --handler-concurrency")
        print("  --queue-size N     admission-queue bound (default 128)")
        print("  --cache-size N     result-cache entries (default 256)")
        print("  --scenario FILE    register a named what-if overlay (repeatable)")
        print("  --fault-plan FILE  inject a chaos experiment (JSON FaultPlan)")
        print("  --timeout SECONDS  per-query deadline (default 30)")
        print("  --cache-snapshot FILE  warm the cache from FILE at startup "
              "(damaged entries quarantined, the rest restored) and flush "
              "it back on graceful shutdown")
        print("  --verify-sample-rate R  fraction of cache hits whose sealed "
              "digest is re-verified before serving (default 0.125; 1 = "
              "every hit)")
        print("  --scrub-interval SECONDS  background cache-scrubber pass "
              "interval; corrupt entries are quarantined and recomputed "
              "(0 disables; default 0)")
        print("  --snapshot-interval SECONDS  also flush the cache snapshot "
              "periodically (0 disables; default 0)")
        print("  --drain-timeout SECONDS  in-flight grace on SIGTERM/SIGINT "
              "(default 10)")
        print("  --verbose          log every request")
        print("  --version          print the package version and exit")
        print("cluster mode accepts the same options plus --snapshot-dir, "
              "--spill, and --ring-seed; see repro-serve --cluster 2 --help")
        return 0
    if "--version" in args:
        from repro import package_version

        print(f"repro-serve {package_version()}")
        return 0
    host = _flag_value(args, "--host", "a bind address") or "127.0.0.1"
    port = _int_flag(args, "--port", 8077)
    handler_concurrency = parse_handler_concurrency(args)
    queue_size = _int_flag(args, "--queue-size", 128)
    cache_size = _int_flag(args, "--cache-size", 256)
    scenario_files = []
    while True:
        raw = _flag_value(args, "--scenario", "a JSON file argument")
        if raw is None:
            break
        scenario_files.append(raw)
    fault_plan_file = _flag_value(args, "--fault-plan", "a JSON file argument")
    timeout = _float_flag(args, "--timeout", 30.0)
    snapshot_file = _flag_value(
        args, "--cache-snapshot", "a snapshot file argument"
    )
    snapshot_interval = _float_flag(args, "--snapshot-interval", 0.0)
    verify_sample_rate = _float_flag(args, "--verify-sample-rate", 0.125)
    scrub_interval = _float_flag(args, "--scrub-interval", 0.0)
    drain_timeout = _float_flag(args, "--drain-timeout", 10.0)
    verbose = "--verbose" in args
    if verbose:
        args.remove("--verbose")
    if args:
        raise SystemExit(f"unknown argument {args[0]!r}; see repro-serve --help")
    fault_plan = load_fault_plan_arg(fault_plan_file)

    server = make_server(
        host,
        port,
        verbose=verbose,
        workers=handler_concurrency,
        max_queue=queue_size,
        cache_size=cache_size,
        default_timeout_s=timeout,
        fault_plan=fault_plan,
        verify_sample_rate=verify_sample_rate,
        scrub_interval_s=scrub_interval,
    )
    if fault_plan is not None:
        print(
            f"fault plan {fault_plan.label()!r} armed "
            f"({fault_plan.fingerprint[:12]}, {len(fault_plan.rules)} rule(s))",
            flush=True,
        )
    register_scenario_files(server, scenario_files)
    if snapshot_file is not None:
        restore_snapshot(server, snapshot_file)
    return run_serve_loop(
        server,
        snapshot_file=snapshot_file,
        drain_timeout=drain_timeout,
        snapshot_interval=snapshot_interval,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
