"""The ``repro-serve`` HTTP front end (stdlib-only).

An asyncio HTTP/1.1 server (:class:`~repro.serve.wire.HttpServer`) on
the event loop a started :class:`~repro.serve.client.ServeClient`
already owns: each request awaits the engine's ``submit`` directly, so
concurrent HTTP requests coalesce, batch, and shed exactly like
in-process ones, with no thread between the socket and the engine.

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
* ``GET /healthz`` — liveness (the engine's loop is up and answering);
* ``GET /readyz``  — readiness: breaker states, warm substrates, the
  active fault plan, and the draining flag; HTTP 503 while any breaker
  is non-closed or the process is draining.

Every error response carries the exception's machine-readable ``code``
(see :mod:`repro.errors`), and codes map to HTTP statuses from the one
:data:`~repro.serve.wire.STATUS_BY_CODE` table — invalid queries → 400,
bad framing → 400/413/431, load shedding → 429, an open circuit breaker
or a draining service → 503, deadline expiry → 504; anything else in
the taxonomy → 500 with its code, so a bare unclassified 500 means
exactly "an exception that escaped the taxonomy".  Retryable rejections
additionally carry a jittered ``Retry-After`` header.

Lifecycle: SIGTERM/SIGINT start a graceful drain — readiness flips to
503 so load balancers stop routing here, new ``/query`` work is
refused with 503 + ``Retry-After``, in-flight requests finish under
``--drain-timeout``, the result cache is flushed to the
``--cache-snapshot`` file (checksummed; a corrupt snapshot at next
startup means a cold start, never a crash), and the process exits 0.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.parse
from typing import Any

from repro.errors import QueryValidationError, ReproError

from repro.serve.client import ServeClient
from repro.serve.deadline import (
    DEADLINE_HEADER,
    DeadlineBudget,
    parse_deadline_header,
    parse_deadline_ms,
)
from repro.serve.metrics import render_text_metrics
from repro.serve.wire import (
    MAX_BODY_BYTES,
    STATUS_BY_CODE,
    HttpServer,
    Request,
    Response,
    json_response,
    text_response,
)

__all__ = [
    "ServeHTTPServer",
    "MAX_BODY_BYTES",
    "NO_STORE_HEADER",
    "RESULT_DIGEST_HEADER",
    "STATUS_BY_CODE",
    "make_server",
    "main",
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


class ServeHTTPServer(HttpServer):
    """HTTP server bound to one started :class:`ServeClient`, serving
    on the client's event loop."""

    def __init__(self, client: ServeClient, *, verbose: bool = False) -> None:
        super().__init__(verbose=verbose)
        self.client = client

    def begin_drain(self) -> None:
        """Flip to draining: ``/readyz`` answers 503 and the engine turns
        new ``/query`` work away with 503 + ``Retry-After``."""
        super().begin_drain()
        self.client.begin_drain()

    async def respond(self, request: Request) -> Response:
        engine = self.client.engine
        target = urllib.parse.urlsplit(request.target)
        if request.method == "POST" and target.path == "/query":
            return await self._query(request)
        listing = {
            "/healthz": engine.health,
            "/readyz": engine.readiness,
            "/metrics": engine.metrics.snapshot,
            "/kinds": engine.registry.describe,
            "/scenarios": engine.describe_scenarios,
        }.get(target.path)
        if request.method != "GET" or listing is None:
            return json_response(
                404, {"error": f"no such endpoint: {request.target}"}
            )
        payload = listing()
        fmt = urllib.parse.parse_qs(target.query).get("format", [""])[-1]
        if target.path == "/metrics" and fmt == "text":
            return text_response(200, render_text_metrics(payload))
        not_ready = target.path == "/readyz" and not payload["ready"]
        return json_response(503 if not_ready else 200, payload)

    async def _query(self, request: Request) -> Response:
        try:
            body = json.loads(request.body or b"{}")
            kind, params = body["kind"], body.get("params") or {}
        except (ValueError, KeyError, TypeError) as exc:
            return json_response(
                400, {"error": f"malformed query request: {exc}"}
            )
        engine = self.client.engine
        try:
            # The wire header (an upstream hop's remaining budget) wins
            # over the body field (a direct client's ask).
            budget = parse_deadline_header(request.header(DEADLINE_HEADER))
            if budget is None and body.get("deadline_ms") is not None:
                budget = DeadlineBudget(parse_deadline_ms(body["deadline_ms"]))
        except QueryValidationError:
            engine.metrics.inc("invalid")
            raise
        response = await engine.submit(
            kind, params, scenario=body.get("scenario"), budget=budget,
            store=request.header(NO_STORE_HEADER) in (None, "", "0"),
        )
        payload = response.to_dict()
        payload["ok"] = True
        headers = (
            {RESULT_DIGEST_HEADER: response.digest} if response.digest else {}
        )
        return json_response(200, payload, headers)


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    client: ServeClient | None = None,
    verbose: bool = False,
    **engine_kwargs: Any,
) -> ServeHTTPServer:
    """Build a bound server (and, unless given one, a started client).

    ``port=0`` binds an ephemeral port — read ``server.url`` for the
    actual address.  Serving begins at ``server.start()``.  The caller
    owns shutdown: ``server.stop()`` then ``server.client.close()``.
    """
    if client is None:
        client = ServeClient(**engine_kwargs).start()
    server = ServeHTTPServer(client, verbose=verbose)
    server.listen(host, port, client.loop)
    return server


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
            server.stop()
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


def shutdown_event(announce: str) -> threading.Event:
    """An event the first SIGTERM/SIGINT sets, printing ``received
    SIG…; <announce>``.  Later signals are ignored: the drain deadline
    bounds shutdown either way."""
    import signal

    event = threading.Event()

    def _request_shutdown(signum: int, _frame: Any) -> None:
        if not event.is_set():
            print(f"received {signal.Signals(signum).name}; {announce}",
                  flush=True)
            event.set()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)
    return event


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
    in-flight queries and the requests carrying them, flush the final
    snapshot, exit cleanly.
    """
    shutdown_requested = shutdown_event(f"draining (grace {drain_timeout:g}s)")
    server.start()
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
    # already running — engine in-flight queries AND the HTTP requests
    # still writing their responses — then flush the cache and exit
    # cleanly.
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
    server.stop()
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
