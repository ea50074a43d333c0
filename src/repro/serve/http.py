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

import argparse
import json
import threading
import time
import urllib.parse
from typing import Any, Callable

from repro.errors import QueryValidationError, ReproError
from repro.scenario.io import load_scenario_files

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
    NO_STORE_HEADER,
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
    "build_parser",
    "load_scenario_files",
]

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


def _bounded(cast: type, low: float, high: float | None = None, *,
             open_low: bool = False) -> Callable[[str], Any]:
    """An argparse ``type`` that rejects values outside ``[low, high]``
    (``(low, high]`` with ``open_low``; unbounded above by default)."""
    noun = "an integer" if cast is int else "a number"
    bound = (f">= {low:g}" if high is None
             else f"in {'(' if open_low else '['}{low:g}, {high:g}]")

    def convert(text: str) -> Any:
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {noun}, got {text!r}")
        above = low < value if open_low else low <= value
        if not (above and (high is None or value <= high)):  # NaN fails too
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return convert


#: The flags only one side of ``--cluster`` takes: flag -> (whether it
#: is the cluster's, its default there).  The parser leaves them
#: ``None``, so :func:`_check_mode` can tell a flag given on the wrong
#: side (a usage error naming it) from one left to default.
_ONE_SIDED: dict[str, tuple[bool, Any]] = {
    "--shard-id": (False, None),
    "--cache-snapshot": (False, None),
    "--fault-plan-shard": (True, None),
    "--snapshot-dir": (True, None),
    "--spill": (True, 1),
    "--ring-seed": (True, 0),
    "--no-hedge": (True, False),
    "--hedge-ratio": (True, 0.05),
}


def build_parser() -> argparse.ArgumentParser:
    """The one ``repro-serve`` command line for all three modes: one
    process (the default), ``--cluster N`` (router plus supervisor), and
    the hidden ``--shard-id K`` each worker the supervisor spawns gets."""
    count, seconds = _bounded(int, 1), _bounded(float, 0)
    parser = argparse.ArgumentParser(
        prog="repro-serve", add_help=False,
        description="Serve the cost-benefit model over HTTP, from one "
        "process or from N shards behind a consistent-hash router.",
    )
    add = parser.add_argument
    add("-h", "--help", action="store_true", help="show this help and exit")
    add("--version", action="store_true", help="print the version and exit")
    add("--host", default="127.0.0.1",
        help="bind address (default %(default)s)")
    add("--port", type=int, default=8077,
        help="bind port; 0 picks one (default %(default)s)")
    add("--handler-concurrency", type=count, default=4, metavar="N",
        help="concurrent handler evaluations (default %(default)s)")
    add("--queue-size", type=count, default=128, metavar="N",
        help="admission-queue bound per process (default %(default)s)")
    add("--cache-size", type=_bounded(int, 0), default=256, metavar="N",
        help="result-cache entries per process (default %(default)s)")
    add("--timeout", type=seconds, default=30.0, metavar="SECONDS",
        help="per-query deadline (default %(default)g)")
    add("--scenario", action="append", default=[], metavar="FILE",
        help="register a named what-if overlay (repeatable)")
    add("--fault-plan", metavar="FILE", help="inject a chaos experiment")
    add("--cache-snapshot", metavar="FILE",
        help="warm the cache from FILE at startup (damaged entries "
        "quarantined) and flush it back on graceful shutdown")
    add("--snapshot-interval", type=seconds, metavar="SECONDS",
        help="also flush the snapshot periodically; 0 disables (default 0, "
        "or 5 with --cluster)")
    add("--verify-sample-rate", type=_bounded(float, 0, 1), default=0.125,
        metavar="R", help="fraction of cache hits whose digest is "
        "re-verified before serving (default %(default)g)")
    add("--scrub-interval", type=seconds, default=0.0, metavar="SECONDS",
        help="background cache-scrubber pass interval; 0 disables (default 0)")
    add("--drain-timeout", type=seconds, default=10.0, metavar="SECONDS",
        help="in-flight grace on SIGTERM/SIGINT (default %(default)g)")
    add("--verbose", action="store_true",
        help="log every request (with --cluster: and forward worker logs)")
    add("--shard-id", type=_bounded(int, 0), help=argparse.SUPPRESS)
    add = parser.add_argument_group("cluster mode").add_argument
    add("--cluster", type=count, metavar="N",
        help="serve through N sharded worker processes")
    add("--fault-plan-shard", type=int, metavar="K",
        help="apply --fault-plan only in shard K")
    add("--snapshot-dir", metavar="DIR",
        help="per-shard cache snapshots (DIR/shard-K.json)")
    add("--spill", type=_bounded(int, 0), metavar="N",
        help="ring neighbours to try past an unavailable shard (default 1)")
    add("--ring-seed", type=int, metavar="N",
        help="consistent-hash ring seed (default 0)")
    add("--no-hedge", action="store_true", default=None,
        help="never race a slow shard's ring neighbour")
    add("--hedge-ratio", type=_bounded(float, 0, 1, open_low=True),
        metavar="R",
        help="cap hedged requests at R of all requests (default 0.05)")
    return parser


def _check_mode(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> None:
    """Fill in the one-sided flags' defaults; a flag the mode does not
    take is a usage error (exit 2) naming the flag."""
    cluster = args.cluster is not None
    for flag, (cluster_flag, default) in _ONE_SIDED.items():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif cluster_flag != cluster:
            side = "with" if cluster else "without"
            parser.error(f"{flag} is not accepted {side} --cluster")


def load_fault_plan_arg(path: str | None):
    """Load a ``--fault-plan`` file, or exit with its error."""
    if path is None:
        return None
    from repro.errors import FaultPlanError
    from repro.resilience import load_fault_plan

    try:
        return load_fault_plan(path)
    except FaultPlanError as exc:
        raise SystemExit(f"--fault-plan: {exc}")


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


class ShutdownEvent(threading.Event):
    """Set by the first SIGTERM/SIGINT, whose name it keeps.  Later
    signals are ignored: the drain deadline bounds shutdown either way."""

    signal_name = ""

    def announce(self, what: str) -> None:
        """Print ``received SIG…; <what>``.  Called once admission is
        closed, so a reader of the line knows later work is refused."""
        print(f"received {self.signal_name}; {what}", flush=True)


def shutdown_event() -> ShutdownEvent:
    """A :class:`ShutdownEvent` wired to SIGTERM and SIGINT."""
    import signal

    event = ShutdownEvent()

    def _request_shutdown(signum: int, _frame: Any) -> None:
        if not event.is_set():
            event.signal_name = signal.Signals(signum).name
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
    first signal run the drain sequence: refuse new work, then print
    ``received SIG…; draining``, wait for in-flight queries and the requests carrying them, flush the final
    snapshot, exit cleanly.
    """
    shutdown_requested = shutdown_event()
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
    shutdown_requested.announce(f"draining (grace {drain_timeout:g}s)")
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


def _serve_cluster(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> int:
    """``--cluster N``: run the router plus its supervisor until
    SIGTERM/SIGINT, then drain the router and every worker in turn."""
    from repro.cluster.supervisor import ClusterSupervisor
    from repro.errors import ClusterError

    try:
        supervisor = ClusterSupervisor(
            args.cluster,
            host=args.host,
            port=args.port,
            handler_concurrency=args.handler_concurrency,
            queue_size=args.queue_size,
            cache_size=args.cache_size,
            timeout_s=args.timeout,
            scenario_files=args.scenario,
            fault_plan_file=args.fault_plan,
            fault_plan_shard=args.fault_plan_shard,
            snapshot_dir=args.snapshot_dir,
            snapshot_interval_s=args.snapshot_interval,
            drain_timeout_s=args.drain_timeout,
            spill=args.spill,
            ring_seed=args.ring_seed,
            hedge=not args.no_hedge,
            hedge_ratio=args.hedge_ratio,
            verify_sample_rate=args.verify_sample_rate,
            scrub_interval_s=args.scrub_interval,
            verbose=args.verbose,
        )
    except ClusterError as exc:  # e.g. --fault-plan-shard out of range
        parser.error(str(exc))
    shutdown_requested = shutdown_event()
    supervisor.start()
    print(
        f"repro-serve cluster listening on {supervisor.url} "
        f"({args.cluster} shards, spill {args.spill})",
        flush=True,
    )
    shutdown_requested.wait()
    supervisor.router.begin_drain()
    shutdown_requested.announce(
        f"draining cluster (grace {args.drain_timeout:g}s)"
    )
    supervisor.stop()
    print("repro-serve cluster exited cleanly", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Console entry point for ``repro-serve``: one parse, three modes.

    ``--cluster N`` runs the sharded front end (:func:`_serve_cluster`);
    ``--shard-id K`` is one of its workers, announcing itself with the
    :func:`~repro.cluster.protocol.worker_banner` the supervisor parses.
    Otherwise one process serves directly.  Every mode drains gracefully
    on SIGTERM/SIGINT (see the module docstring and
    :func:`run_serve_loop`).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.help:
        parser.print_help()
        return 0
    if args.version:
        from repro import package_version

        print(f"repro-serve {package_version()}")
        return 0
    _check_mode(parser, args)
    fault_plan = load_fault_plan_arg(args.fault_plan)  # before any worker
    if args.cluster is not None:
        return _serve_cluster(parser, args)
    scenarios = load_scenario_files(args.scenario)
    server = make_server(
        args.host,
        args.port,
        verbose=args.verbose,
        workers=args.handler_concurrency,
        max_queue=args.queue_size,
        cache_size=args.cache_size,
        default_timeout_s=args.timeout,
        fault_plan=fault_plan,
        verify_sample_rate=args.verify_sample_rate,
        scrub_interval_s=args.scrub_interval,
    )
    if fault_plan is not None:
        print(
            f"fault plan {fault_plan.label()!r} armed "
            f"({fault_plan.fingerprint[:12]}, {len(fault_plan.rules)} rule(s))",
            flush=True,
        )
    name, banner = "repro-serve", None
    if args.shard_id is not None:
        from repro.cluster.protocol import worker_banner

        name = f"repro-cluster-worker shard {args.shard_id}"
        banner = worker_banner(args.shard_id, server.url)
        # Shard identity rides the worker's own metrics, so even a raw
        # per-worker /metrics scrape is attributable.
        server.client.engine.metrics.register_gauge(
            "shard_id", lambda: float(args.shard_id)
        )
    for spec in scenarios:
        server.client.engine.register_scenario(spec)
        print(f"registered scenario {spec.name!r} ({spec.fingerprint[:12]})",
              flush=True)
    if args.cache_snapshot is not None:
        restore_snapshot(server, args.cache_snapshot)
    return run_serve_loop(
        server,
        snapshot_file=args.cache_snapshot,
        drain_timeout=args.drain_timeout,
        snapshot_interval=args.snapshot_interval or 0.0,
        name=name,
        banner=banner,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
