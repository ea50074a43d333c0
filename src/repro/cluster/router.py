"""The asyncio cluster router: one front door, N shared-nothing shards.

The same asyncio HTTP server as every worker
(:class:`~repro.serve.wire.HttpServer`, stdlib only) on a loop of its
own, so it speaks the exact ``repro-serve`` wire protocol — framing,
limits, typed errors — and :class:`HttpServeClient`, curl, and the CI
smoke scripts work unchanged against a cluster.  For every
``POST /query`` it:

1. validates and canonicalises the query (malformed input is a typed
   400 *here*, before spending a network hop);
2. consistent-hashes the canonical fingerprint to a shard
   (:class:`~repro.cluster.ring.HashRing`), so each worker's LRU +
   substrate caches stay hot for its slice of the query space;
3. forwards over a keep-alive connection pool to the worker, and
   annotates the answer with ``"shard"`` and ``"spilled"``;
4. on a dead, draining, cooling-down, or breaker-open shard, spills to
   the next ring neighbour(s) — bounded by ``spill`` — and, when the
   whole preference list is unavailable, answers a typed 503
   ``shard_unavailable`` with a ``Retry-After`` hint.

Shard failure detection is two-layered: transport errors feed a
per-shard circuit breaker (repeatedly unreachable shards are skipped
without waiting for timeouts), and a worker answering 503
``service_draining`` has its ``Retry-After`` honoured as a routing
cooldown — the supervisor restarts it meanwhile.

Worker errors that are *query* outcomes (400/429/504, typed 500s) pass
through untouched: the router only reroutes infrastructure failures,
never retries failed computations.

Lifecycle: after ``begin_drain`` new queries answer 503 +
``Retry-After`` while probes keep working, and ``await_quiescence``
waits out the in-flight requests.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from typing import Any

from repro.cluster.protocol import (
    ShardTable,
    aggregate_metrics,
    routing_key,
)
from repro.cluster.ring import HashRing
from repro.errors import (
    CircuitOpen,
    DeadlineExhausted,
    IntegrityError,
    QueryValidationError,
    ServiceDraining,
    ShardUnavailable,
)
from repro.resilience.breaker import BreakerRegistry
from repro.serve.deadline import (
    DEADLINE_HEADER,
    DeadlineBudget,
    parse_deadline_header,
)
from repro.serve.client import verify_response_digest
from repro.serve.engine import describe_scenarios
from repro.serve.handlers import DEFAULT_REGISTRY
from repro.serve.metrics import Counter, Histogram, render_text_metrics
from repro.serve.wire import (
    NO_STORE_HEADER,
    HttpServer,
    Request,
    Response,
    error_response,
    json_response,
    read_response,
    text_response,
)

__all__ = ["ClusterRouter"]

#: One shard's verdict, ``(status, payload, retry_after, shard)``: the
#: payload of a 200 is its decoded reply, of any other status the bytes.
_Attempt = tuple[int, bytes | dict[str, Any], float | None, int]

#: Router-side counters (the worker lifecycle counters live on the
#: workers; these cover the routing layer itself).
ROUTER_COUNTERS = (
    "requests",          # /query requests reaching the router
    "routed",            # answered by some shard (any worker status)
    "spilled",           # answered by a ring neighbour, not the primary
    "shard_errors",      # transport failures talking to a shard
    "breaker_skipped",   # shards skipped because their breaker was open
    "cooldown_skipped",  # shards skipped inside a Retry-After cooldown
    "budget_skipped",    # shards skipped: their cooldown outlives the budget
    "unroutable",        # whole preference list unavailable (typed 503)
    "invalid",           # rejected at the router (bad kind/params)
    "drain_rejected",    # rejected because the router is draining
    "deadline_rejected",  # refused: the deadline budget died at the router
    "hedges",            # backup requests issued to a ring neighbour
    "hedge_wins",        # hedged queries answered by the backup first
    "integrity_rejected",  # 200 replies dropped: digest mismatch (spilled)
)

#: Longest wait on one forwarded query (a propagated deadline budget
#: shortens it) and on one fan-out probe (``/readyz``, ``/metrics``).
REQUEST_TIMEOUT_S = 75.0
PROBE_TIMEOUT_S = 5.0
#: The hedge delay is a kind's p95 latency clamped to
#: ``[HEDGE_DELAY_FLOOR_S, HEDGE_DELAY_CAP_S]``, once the kind has
#: ``HEDGE_MIN_OBSERVATIONS`` latencies behind it (no hedging before).
HEDGE_DELAY_FLOOR_S = 0.01
HEDGE_DELAY_CAP_S = 1.0
HEDGE_MIN_OBSERVATIONS = 20


class _WorkerPool:
    """Keep-alive connections to one worker URL (event-loop confined)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def request(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP exchange; a stale pooled connection is retried once
        on a fresh one, a fresh-connection failure propagates.

        ``headers`` are extra request headers (the propagated deadline
        budget rides here).  Any failure — a transport error, a
        malformed reply, a hedge loser's cancellation mid-exchange —
        closes the connection instead of re-pooling it: the rest of the
        worker's response would corrupt the next request on that socket.
        """
        extra = ""
        if headers:
            extra = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        for attempt in (0, 1):
            reused = bool(self._idle)
            if reused:
                reader, writer = self._idle.pop()
            else:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
            try:
                request = (
                    f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"{extra}"
                    "Connection: keep-alive\r\n\r\n"
                ).encode("latin-1") + body
                writer.write(request)
                await writer.drain()
                status, rheaders, payload = await read_response(reader)
            except BaseException as exc:
                writer.close()
                if reused and attempt == 0 and isinstance(exc, OSError):
                    continue  # the worker closed an idle connection
                raise
            if rheaders.get("connection", "").lower() == "close":
                writer.close()
            else:
                self._idle.append((reader, writer))
            return status, rheaders, payload
        raise ConnectionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        for _, writer in self._idle:
            writer.close()
        self._idle.clear()


class ClusterRouter(HttpServer):
    """The consistent-hash routing front end (owns its event loop)."""

    def __init__(
        self,
        table: ShardTable,
        ring: HashRing,
        *,
        registry: Any = None,
        scenarios: dict[str, Any] | None = None,
        spill: int = 1,
        breaker_threshold: int = 3,
        breaker_recovery_s: float = 1.0,
        hedge: bool = True,
        hedge_ratio: float = 0.05,
        verbose: bool = False,
    ) -> None:
        super().__init__(verbose=verbose)
        if spill < 0:
            raise ValueError(f"spill must be >= 0, got {spill}")
        if not 0.0 < hedge_ratio <= 1.0:
            raise ValueError(
                f"hedge_ratio must be in (0, 1], got {hedge_ratio}"
            )
        self.table = table
        self.ring = ring
        self.spill = spill
        self.hedge = hedge
        self.hedge_ratio = hedge_ratio
        self._registry = DEFAULT_REGISTRY if registry is None else registry
        self._scenarios = dict(scenarios or {})
        self.counters: dict[str, Counter] = {
            n: Counter() for n in ROUTER_COUNTERS
        }
        self.latency = Histogram()
        # Per-kind rolling latency reservoirs feeding the hedge delay
        # (hedge after the kind's p95: only the slowest ~5% of requests
        # ever hedge, which is what keeps hedge traffic under the cap).
        self._kind_latency: dict[str, Histogram] = {}
        self._breakers = BreakerRegistry(
            failure_threshold=breaker_threshold,
            recovery_s=breaker_recovery_s,
        )
        self._pools: dict[str, _WorkerPool] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> "ClusterRouter":
        if self._server is not None:
            raise RuntimeError("router already started")
        self.listen(host, port)
        super().start()
        return self

    async def _teardown(self) -> None:
        await super()._teardown()
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    # -- metrics -------------------------------------------------------------

    def _inc(self, counter: str, n: int = 1) -> None:
        self.counters[counter].inc(n)

    def router_snapshot(self) -> dict[str, Any]:
        return {
            "counters": {n: c.value for n, c in self.counters.items()},
            "latency_s": self.latency.summary(),
            "breakers": self._breakers.snapshot(),
            "draining": self._draining,
            "spill": self.spill,
            "hedge": {
                "enabled": self.hedge,
                "ratio": self.hedge_ratio,
                "delay_s_by_kind": {
                    kind: self._hedge_delay(kind)
                    for kind in sorted(self._kind_latency)
                },
            },
        }

    # -- endpoints -----------------------------------------------------------

    async def respond(self, request: Request) -> Response:
        parsed = urllib.parse.urlsplit(request.target)
        path = parsed.path
        if request.method == "POST" and path == "/query":
            return await self._handle_query(request)
        if request.method != "GET":
            return json_response(
                404, {"error": f"no such endpoint: {request.method} {path}"}
            )
        if path == "/healthz":
            return json_response(200, self._health())
        if path == "/readyz":
            readiness = await self._readiness()
            return json_response(200 if readiness["ready"] else 503, readiness)
        if path == "/metrics":
            aggregated = await self._metrics()
            fmt = urllib.parse.parse_qs(parsed.query).get("format", [""])[-1]
            if fmt == "text":
                text = self._render_cluster_text(aggregated)
                return text_response(200, text)
            return json_response(200, aggregated)
        if path == "/kinds":
            return json_response(200, self._registry.describe())
        if path == "/scenarios":
            return json_response(200, describe_scenarios(self._scenarios))
        if path == "/shards":
            return json_response(200, {
                "shards": {
                    str(sid): meta
                    for sid, meta in self.table.snapshot().items()
                },
                "ring": {
                    "members": list(self.ring.members()),
                    "vnodes": self.ring.vnodes,
                    "seed": self.ring.seed,
                },
                "spill": self.spill,
            })
        return json_response(404, {"error": f"no such endpoint: {path}"})

    # -- the routing path ----------------------------------------------------

    async def _handle_query(self, request: Request) -> Response:
        self._inc("requests")
        if self._draining:
            self._inc("drain_rejected")
            return error_response(ServiceDraining(
                "cluster is draining for shutdown; retry later"
            ))
        body = request.body
        try:
            budget = parse_deadline_header(
                request.header(DEADLINE_HEADER), clock=self._loop.time,
            )
        except QueryValidationError as exc:
            self._inc("invalid")
            return error_response(exc)
        try:
            query = json.loads(body or b"{}")
            kind = query["kind"]
            params = query.get("params") or {}
            scenario = query.get("scenario")
        except (ValueError, KeyError, TypeError) as exc:
            self._inc("invalid")
            return json_response(
                400, {"error": f"malformed query request: {exc}"}
            )
        try:
            key = routing_key(kind, params, scenario, registry=self._registry)
        except QueryValidationError as exc:
            self._inc("invalid")
            return error_response(exc)

        t0 = self._loop.time()
        if budget is not None and budget.exhausted(floor_ms=1.0):
            self._inc("deadline_rejected")
            return error_response(DeadlineExhausted(
                "deadline budget exhausted before routing",
                stage="router",
            ))
        preference = self.ring.preference(key, self.spill + 1)
        skipped: list[str] = []
        # Pre-filter the preference list into live candidates.  Budget
        # awareness happens here: a shard whose cooldown or breaker
        # open window outlasts the remaining budget cannot possibly
        # answer in time, so spilling to it would only burn the budget.
        candidates: list[tuple[int, int, str, Any]] = []
        for rank, shard in enumerate(preference):
            url = self.table.routable(shard, t0)
            if url is None:
                info = self.table.get(shard)
                if info.cooldown_until > t0:
                    if budget is not None and (
                        info.cooldown_until - t0 >= budget.remaining_s()
                    ):
                        self._inc("budget_skipped")
                        skipped.append(
                            f"shard {shard} cooling past the deadline"
                        )
                    else:
                        self._inc("cooldown_skipped")
                        skipped.append(f"shard {shard} cooling down")
                else:
                    skipped.append(f"shard {shard} {info.state}")
                continue
            breaker = self._breakers.get(f"shard:{shard}")
            open_s = breaker.remaining_open_s()
            if (
                open_s > 0.0
                and budget is not None
                and open_s >= budget.remaining_s()
            ):
                self._inc("budget_skipped")
                skipped.append(
                    f"shard {shard} breaker open past the deadline"
                )
                continue
            candidates.append((rank, shard, url, breaker))

        for idx, (rank, shard, url, breaker) in enumerate(candidates):
            if budget is not None and budget.exhausted(floor_ms=1.0):
                self._inc("deadline_rejected")
                return error_response(DeadlineExhausted(
                    f"deadline budget exhausted while routing "
                    f"(after {idx} attempt(s))",
                    stage="router",
                ))
            try:
                claimed = breaker.before_call()
            except CircuitOpen:
                self._inc("breaker_skipped")
                skipped.append(f"shard {shard} breaker open")
                continue
            hedged = False
            delay = self._hedge_delay(kind)
            if (
                idx == 0
                and not claimed
                and delay is not None
                and self._hedge_allowed()
            ):
                backup = self._pick_hedge(candidates[1:])
                if backup is not None:
                    result, hedged = await self._race_hedged(
                        shard, url, breaker, backup, delay,
                        body, budget, t0, skipped,
                    )
                else:
                    result = await self._attempt(
                        shard, url, breaker, claimed,
                        body, budget, t0, skipped,
                    )
            else:
                result = await self._attempt(
                    shard, url, breaker, claimed, body, budget, t0, skipped,
                )
            if result is None:
                continue
            status, payload, retry_after, won_shard = result
            self._inc("routed")
            won_rank = rank
            if won_shard != shard:
                for r, s, _u, _b in candidates:
                    if s == won_shard:
                        won_rank = r
                        break
            if won_rank > 0:
                self._inc("spilled")
            if status == 200:
                payload = self._annotate(
                    payload, won_shard,
                    spilled=won_rank > 0, hedged=hedged,
                )
            elapsed = self._loop.time() - t0
            self.latency.observe(elapsed)
            self._observe_kind_latency(kind, elapsed)
            return Response(status, payload, headers=(
                {} if retry_after is None
                else {"Retry-After": f"{retry_after:g}"}
            ))
        self._inc("unroutable")
        return error_response(ShardUnavailable(
            f"no shard available for this query "
            f"(tried {len(preference)}: {'; '.join(skipped)})"
        ))

    async def _attempt(
        self,
        shard: int,
        url: str,
        breaker: Any,
        claimed: bool,
        body: bytes,
        budget: DeadlineBudget | None,
        t0: float,
        skipped: list[str],
        store: bool = True,
    ) -> _Attempt | None:
        """One forwarded request to one shard.

        Returns ``(status, payload, retry_after, shard)`` when the shard
        gave a verdict worth returning to the client, or ``None`` when
        the caller should spill to the next ring neighbour.  A 200's
        ``payload`` is the reply decoded once and digest-verified; any
        other status keeps the raw bytes.
        ``store=False`` marks a hedged backup: the shard answers but
        keeps the duplicate result out of its caches.
        """
        timeout_s = REQUEST_TIMEOUT_S
        fwd_headers: dict[str, str] = {}
        if budget is not None:
            # Re-encode the *remaining* budget for the next hop — the
            # wire always carries a relative quantity, so worker clocks
            # never need to agree with the router's.
            timeout_s = min(timeout_s, max(0.001, budget.remaining_s()))
            fwd_headers[DEADLINE_HEADER] = budget.header_value()
        if not store:
            fwd_headers[NO_STORE_HEADER] = "1"
        try:
            status, headers, payload = await asyncio.wait_for(
                self._pool_for(url).request(
                    "POST", "/query", body, headers=fwd_headers
                ),
                timeout=timeout_s,
            )
        except asyncio.TimeoutError:
            if budget is not None and budget.exhausted(floor_ms=1.0):
                # The *budget* ran out, not the shard's patience: the
                # shard may be perfectly healthy, so don't charge its
                # breaker for the client's tight deadline.
                if claimed:
                    breaker.abort_trial()
                skipped.append(f"shard {shard} budget expired mid-request")
                return None
            breaker.record_failure()
            self._inc("shard_errors")
            skipped.append(f"shard {shard} unreachable (timed out)")
            return None
        except OSError as exc:  # unreachable, reset, or a malformed reply
            breaker.record_failure()
            self._inc("shard_errors")
            skipped.append(f"shard {shard} unreachable ({exc})")
            return None
        if status == 200:
            payload = self._intact_reply(payload)
        if payload is None:
            # The worker's 200 carried a value that no longer hashes to
            # the digest the worker's engine sealed — corruption on the
            # worker or on the wire.  Never forward it: charge the
            # breaker, drop the reply, spill to the next ring neighbour
            # (which recomputes rather than echoing the damage).
            breaker.record_failure()
            self._inc("integrity_rejected")
            skipped.append(
                f"shard {shard} returned a corrupt payload (digest mismatch)"
            )
            return None
        breaker.record_success()
        retry_after = self._retry_after(headers)
        if status == 503 and self._wire_code(payload) == \
                "service_draining":
            # The shard is going away (graceful restart/shutdown).
            # Honour its Retry-After as a routing cooldown and let
            # the next ring neighbour take the query.
            self.table.set_cooldown(
                shard, t0 + (retry_after or 1.0)
            )
            skipped.append(f"shard {shard} draining")
            return None
        return status, payload, retry_after, shard

    # -- hedging -------------------------------------------------------------

    def _hedge_allowed(self) -> bool:
        """Keep hedge traffic below ``hedge_ratio`` of all requests."""
        return (
            self.counters["hedges"].value + 1
            <= self.hedge_ratio * self.counters["requests"].value
        )

    def _hedge_delay(self, kind: str) -> float | None:
        """How long to wait on the primary before issuing the backup.

        ``None`` disables hedging for this request — either the feature
        is off or the kind has too little latency history to know what
        "slow" means yet.
        """
        if not self.hedge:
            return None
        hist = self._kind_latency.get(kind)
        if hist is None:
            return None
        stats = hist.summary()
        if stats["count"] < HEDGE_MIN_OBSERVATIONS:
            return None
        return min(HEDGE_DELAY_CAP_S, max(HEDGE_DELAY_FLOOR_S, stats["p95"]))

    def _pick_hedge(
        self, rest: list[tuple[int, int, str, Any]]
    ) -> tuple[int, int, str, Any] | None:
        """First spill candidate healthy enough to serve as the backup.

        Only a fully closed breaker qualifies: hedging into a half-open
        breaker would race real recovery probes for the trial slot, and
        an open one would reject the backup anyway.
        """
        for cand in rest:
            if cand[3].state == "closed":
                return cand
        return None

    async def _race_hedged(
        self,
        shard: int,
        url: str,
        breaker: Any,
        backup: tuple[int, int, str, Any],
        delay: float,
        body: bytes,
        budget: DeadlineBudget | None,
        t0: float,
        skipped: list[str],
    ) -> tuple[_Attempt | None, bool]:
        """Race the primary against a delayed backup; first verdict wins.

        Returns ``(result, hedged)`` where ``result`` follows the
        :meth:`_attempt` contract and ``hedged`` records whether the
        backup was actually launched (for the response annotation).
        """
        primary = asyncio.ensure_future(self._attempt(
            shard, url, breaker, False, body, budget, t0, skipped,
        ))
        done, _ = await asyncio.wait({primary}, timeout=delay)
        if done:
            return primary.result(), False
        b_rank, b_shard, b_url, b_breaker = backup
        try:
            b_claimed = b_breaker.before_call()
        except CircuitOpen:
            return await primary, False
        self._inc("hedges")
        secondary = asyncio.ensure_future(self._attempt(
            b_shard, b_url, b_breaker, b_claimed,
            body, budget, t0, skipped, store=False,
        ))
        pending = {primary, secondary}
        result: _Attempt | None = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                outcome = task.result()
                if outcome is not None and result is None:
                    result = outcome
                    if task is secondary:
                        self._inc("hedge_wins")
            if result is not None:
                break
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        return result, True

    def _observe_kind_latency(self, kind: str, elapsed: float) -> None:
        hist = self._kind_latency.get(kind)
        if hist is None:
            hist = self._kind_latency[kind] = Histogram(maxlen=512)
        hist.observe(elapsed)

    @staticmethod
    def _retry_after(headers: dict[str, str]) -> float | None:
        raw = headers.get("retry-after")
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            return None

    @staticmethod
    def _wire_code(payload: bytes) -> str | None:
        try:
            return json.loads(payload).get("code")
        except (ValueError, AttributeError):
            return None

    @staticmethod
    def _intact_reply(payload: bytes) -> dict[str, Any] | None:
        """A worker's 200 reply, decoded once, if it still hashes to its
        sealed digest; ``None`` if it does not.

        A reply without a digest fails the check like any mismatch;
        an unparseable 200 body is corrupt by definition."""
        try:
            parsed = json.loads(payload)
            verify_response_digest(
                parsed.get("value"), str(parsed.get("digest") or ""),
                where="shard",
            )
        except (ValueError, AttributeError, IntegrityError):
            return None
        return parsed

    @staticmethod
    def _annotate(
        parsed: dict[str, Any], shard: int, *, spilled: bool,
        hedged: bool = False,
    ) -> bytes:
        """Encode a verified 200 reply with its routing annotations."""
        parsed["shard"] = shard
        parsed["spilled"] = spilled
        parsed["hedged"] = hedged
        return json.dumps(parsed).encode("utf-8")

    def _pool_for(self, url: str) -> _WorkerPool:
        pool = self._pools.get(url)
        if pool is None:
            split = urllib.parse.urlsplit(url)
            pool = self._pools[url] = _WorkerPool(
                split.hostname, split.port
            )
        return pool

    # -- aggregated observability --------------------------------------------

    def _health(self) -> dict[str, Any]:
        states = [meta["state"] for meta in self.table.snapshot().values()]
        return {
            "ok": True,
            "role": "cluster-router",
            "draining": self._draining,
            "shards_up": states.count("up"),
            "cluster_size": len(states),
        }

    async def _fan_out_get(self, path: str) -> dict[int, Any]:
        """GET ``path`` from every up worker concurrently; a failing
        worker contributes ``None`` (down shards are reported, not
        errors)."""
        now = self._loop.time()
        targets = {
            sid: self.table.routable(sid, now)
            for sid in self.table.shard_ids()
        }

        async def _one(url: str | None) -> Any:
            if url is None:
                return None
            try:
                status, _, payload = await asyncio.wait_for(
                    self._pool_for(url).request("GET", path, b""),
                    timeout=PROBE_TIMEOUT_S,
                )
                return {"status": status, "payload": json.loads(payload)}
            except (OSError, asyncio.TimeoutError, ValueError):
                return None

        results = await asyncio.gather(
            *(_one(url) for url in targets.values())
        )
        return dict(zip(targets.keys(), results))

    async def _readiness(self) -> dict[str, Any]:
        """Cluster readiness: the router is not draining, every shard
        is up, and every worker's own ``/readyz`` agrees."""
        probes = await self._fan_out_get("/readyz")
        shards = {}
        all_ready = True
        for sid, meta in self.table.snapshot().items():
            probe = probes.get(sid)
            worker_ready = bool(
                probe and probe["payload"].get("ready", False)
            )
            shard_ready = meta["state"] == "up" and worker_ready
            all_ready = all_ready and shard_ready
            shards[str(sid)] = {
                "state": meta["state"],
                "restarts": meta["restarts"],
                "ready": shard_ready,
                "detail": probe["payload"] if probe else None,
            }
        return {
            "ready": all_ready and not self._draining,
            "draining": self._draining,
            "shards": shards,
        }

    async def _metrics(self) -> dict[str, Any]:
        probes = await self._fan_out_get("/metrics")
        shard_metrics = {
            sid: (probe["payload"] if probe and probe["status"] == 200
                  else None)
            for sid, probe in probes.items()
        }
        return aggregate_metrics(
            shard_metrics, self.table.snapshot(), self.router_snapshot()
        )

    @staticmethod
    def _render_cluster_text(aggregated: dict[str, Any]) -> str:
        """The aggregated snapshot as plain-text exposition: cluster
        lines, router counters, then every live shard's full snapshot
        under a ``shard="<id>"`` label."""
        cluster = aggregated["cluster"]
        agg = aggregated["aggregate"]
        lines = [
            f"repro_cluster_size {cluster['size']}",
            f"repro_cluster_shards_up {cluster['shards_up']}",
            f"repro_cluster_restarts_total {cluster['restarts']}",
            f"repro_cluster_qps {agg['qps']:.9g}",
            f"repro_cluster_requests_total {agg['requests']}",
            f"repro_cluster_cache_hit_ratio {agg['cache_hit_ratio']:.9g}",
            f"repro_cluster_p99_seconds {agg['p99_s']:.9g}",
        ]
        for name, value in sorted(
            cluster["router"]["counters"].items()
        ):
            lines.append(f"repro_cluster_router_{name}_total {value}")
        text = "\n".join(lines) + "\n"
        for sid, entry in sorted(aggregated["shards"].items()):
            snap = entry.get("metrics")
            if snap is not None:
                text += render_text_metrics(snap, labels={"shard": sid})
        return text
