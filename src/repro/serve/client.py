"""Clients for the what-if query engine.

:class:`ServeClient` is the in-process client: it owns an event loop on
a background thread and exposes a synchronous, thread-safe ``query``
API over a :class:`~repro.serve.engine.QueryEngine` — tests and the load
generator talk to the engine through it, so any number of caller
threads funnel onto the one loop the engine's state lives on.  The HTTP
front end serves on that same loop and calls the engine directly.

:class:`HttpServeClient` speaks the same protocol over HTTP (stdlib
``urllib``) against a running ``repro-serve`` server, translating the
error statuses back into the library's exception types.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request
from typing import Any, Sequence

from repro.errors import (
    CircuitOpen,
    DeadlineExhausted,
    IntegrityError,
    OperationCancelled,
    QueryTimeout,
    QueryValidationError,
    ServeError,
    ServiceDraining,
    ServiceOverloaded,
    ShardUnavailable,
)
from repro.integrity.digest import payload_digest
from repro.serve.deadline import DEADLINE_HEADER, DeadlineBudget
from repro.serve.engine import QueryEngine, QueryResponse

__all__ = ["ServeClient", "HttpServeClient", "verify_response_digest"]


def verify_response_digest(value: Any, digest: str, *, where: str) -> None:
    """End-to-end check: does a served ``value`` still hash to the
    ``digest`` the engine sealed over it?  Shared by both clients (and
    the cluster router) — raises :class:`~repro.errors.IntegrityError`
    on mismatch.  Every answer this program serves carries its digest,
    so an absent (empty) one is a mismatch too."""
    try:
        actual = payload_digest(value)
    except (TypeError, ValueError):
        actual = "<unencodable>"
    if actual != digest:
        raise IntegrityError(
            f"result digest mismatch from {where}: sealed {digest[:12]}…, "
            f"received bytes hash to {actual[:12]}… — the value was "
            f"corrupted in transit or at rest",
            check="response.digest",
        )


class ServeClient:
    """Synchronous, thread-safe facade over an in-process engine.

    The engine and all its state are confined to one event loop running
    on a daemon thread; every call marshals onto that loop, so hammering
    one client from many threads is safe by construction.
    """

    def __init__(
        self,
        engine: QueryEngine | None = None,
        *,
        verify_digest: bool = False,
        **engine_kwargs: Any,
    ):
        if engine is not None and engine_kwargs:
            raise ValueError("pass an engine or engine kwargs, not both")
        self.engine = engine or QueryEngine(**engine_kwargs)
        self.verify_digest = verify_digest
        #: The event loop the engine (and its HTTP front end) lives on;
        #: ``None`` until :meth:`start`.
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ServeClient":
        if self.loop is not None:
            raise ServeError("client already started")
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._run(self.engine.start())
        return self

    def close(self) -> None:
        if self.loop is None:
            return
        self._run(self.engine.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join()
        self.loop.close()
        self.loop = None
        self._thread = None

    def __enter__(self) -> "ServeClient":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _run(self, coro: Any) -> Any:
        if self.loop is None:
            raise ServeError("client not started; use 'with ServeClient()'")
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    # -- queries ------------------------------------------------------------

    def query(
        self,
        kind: str,
        params: dict[str, Any] | None = None,
        *,
        timeout: float | None = None,
        scenario: Any = None,
        budget: DeadlineBudget | None = None,
        store: bool = True,
    ) -> QueryResponse:
        """Answer one query (blocking); raises the engine's exceptions.

        ``scenario`` is a :class:`~repro.scenario.ScenarioSpec`, an
        inline spec dict, or a registered scenario name — the overlay
        the engine evaluates under.  ``budget`` is a propagated
        deadline budget: every engine stage refuses work the budget
        can no longer pay for (:class:`~repro.errors.DeadlineExhausted`).
        ``store=False`` keeps the answer out of the caches (hedged
        backups).  With ``verify_digest=True`` the response's sealed
        digest is recomputed client-side and a mismatch raises
        :class:`~repro.errors.IntegrityError` — end-to-end proof the
        bytes the caller holds are the bytes the engine computed.
        """
        response = self._run(
            self.engine.submit(
                kind, params, timeout=timeout, scenario=scenario,
                budget=budget, store=store,
            )
        )
        if self.verify_digest:
            verify_response_digest(
                response.value, response.digest, where="engine"
            )
        return response

    def query_many(
        self,
        requests: Sequence[tuple[str, dict[str, Any] | None]],
        *,
        timeout: float | None = None,
        return_exceptions: bool = False,
        scenario: Any = None,
    ) -> list[QueryResponse | BaseException]:
        """Submit many queries concurrently onto the engine's loop.

        Concurrent submission is what lets identical requests coalesce
        and batchable ones gather — a serial ``query`` loop would finish
        each answer before the next question is even asked.  An optional
        ``scenario`` applies to every query in the batch.
        """

        async def _gather() -> list[Any]:
            return await asyncio.gather(
                *(
                    self.engine.submit(
                        kind, params, timeout=timeout, scenario=scenario
                    )
                    for kind, params in requests
                ),
                return_exceptions=return_exceptions,
            )

        return self._run(_gather())

    def metrics(self) -> dict[str, Any]:
        """The engine's current metrics snapshot."""
        return self.engine.metrics.snapshot()

    def readiness(self) -> dict[str, Any]:
        """The engine's readiness payload (the ``/readyz`` body)."""
        return self.engine.readiness()

    # -- lifecycle: drain + cache snapshot ----------------------------------

    def begin_drain(self) -> None:
        """Stop the engine admitting new queries (thread-safe flag)."""
        self.engine.begin_drain()

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Refuse new work and wait for in-flight queries to settle;
        ``True`` when the engine went idle inside the deadline."""
        return self._run(self.engine.drain(timeout_s))

    def save_cache_snapshot(self, path: Any) -> int:
        """Flush the result cache to a checksummed snapshot file
        (durably written); returns the number of entries flushed."""
        from repro.serve.snapshot import save_snapshot

        async def _export() -> list:
            return self.engine.cache_entries()

        entries = self._run(_export())
        count = save_snapshot(path, entries)
        self.engine.metrics.inc("snapshot_saved", count)
        return count

    def load_cache_snapshot(self, path: Any) -> int:
        """Warm the result cache from a snapshot file; returns how many
        entries landed.  Raises :class:`~repro.errors.SnapshotError`
        when the file is structurally invalid — the caller's contract
        is to treat that as a cold start, never a crash.  Content
        damage is *salvaged*: entries failing their per-entry digest
        are quarantined (counted as ``snapshot_entries_quarantined``)
        and the undamaged rest restored."""
        from repro.serve.snapshot import load_snapshot

        loaded = load_snapshot(path)
        if loaded.quarantined:
            self.engine.metrics.inc(
                "snapshot_entries_quarantined", loaded.quarantined
            )
            self.engine.metrics.inc("integrity_detected", loaded.quarantined)

        async def _restore() -> int:
            return self.engine.restore_cache(loaded.entries)

        count = self._run(_restore())
        self.engine.metrics.inc("snapshot_restored", count)
        return count


#: Wire error code -> client-side exception type.  The payload's
#: ``code`` field is authoritative (one HTTP status can carry several
#: codes: 503 is both "circuit open" and "draining"); the HTTP status
#: is only the fallback for replies without one.
_ERROR_BY_CODE = {
    "query_validation": QueryValidationError,
    "service_overloaded": ServiceOverloaded,
    "circuit_open": CircuitOpen,
    "service_draining": ServiceDraining,
    "shard_unavailable": ShardUnavailable,
    "query_timeout": QueryTimeout,
    "deadline_exhausted": DeadlineExhausted,
    "operation_cancelled": OperationCancelled,
    "integrity_error": IntegrityError,
}

_ERROR_BY_STATUS = {
    400: QueryValidationError,
    429: ServiceOverloaded,
    503: CircuitOpen,
    504: QueryTimeout,
}


class HttpServeClient:
    """Minimal stdlib HTTP client for a running ``repro-serve`` server
    (single-process or the cluster router — same protocol)."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 60.0,
        verify_digest: bool = False,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Recompute each answer's sealed digest client-side and raise
        #: :class:`~repro.errors.IntegrityError` on mismatch — catches
        #: corruption anywhere between the engine's seal and this
        #: process, including inside intermediate hops.
        self.verify_digest = verify_digest

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> dict:
        data = None if body is None else json.dumps(body).encode("utf-8")
        all_headers = {"Content-Type": "application/json"}
        if headers:
            all_headers.update(headers)
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers=all_headers,
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            payload = exc.read().decode("utf-8", "replace")
            code = None
            retry_after = None
            try:
                parsed = json.loads(payload)
                message = parsed.get("error", payload)
                code = parsed.get("code")
                retry_after = parsed.get("retry_after")
            except (ValueError, AttributeError):
                message = payload
            header = exc.headers.get("Retry-After") if exc.headers else None
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass
            error_type = _ERROR_BY_CODE.get(code) or _ERROR_BY_STATUS.get(
                exc.code
            )
            if error_type is not None:
                err = error_type(message)
            else:
                err = ServeError(f"HTTP {exc.code}: {message}")
            if retry_after is not None:
                # Uniform surface: the wire hint (header or payload)
                # lands on the raised exception, exactly like the
                # in-process path's class default.
                err.retry_after = retry_after
            raise err from None

    def query(
        self,
        kind: str,
        params: dict[str, Any] | None = None,
        *,
        scenario: Any = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """POST one query; returns the response payload (``value`` plus
        serving metadata) as a dict.  ``scenario`` is an inline spec
        dict or a server-registered scenario name.  ``deadline_ms``
        starts a deadline budget that rides the
        ``X-Repro-Deadline-Ms`` header and is decremented at every hop
        — the server answers 504 ``deadline_exhausted`` (naming the
        stage that gave up) instead of doing work it cannot finish in
        time."""
        body: dict[str, Any] = {"kind": kind, "params": params or {}}
        if scenario is not None:
            from repro.scenario import ScenarioSpec, scenario_to_dict

            if isinstance(scenario, ScenarioSpec):
                scenario = scenario_to_dict(scenario)
            body["scenario"] = scenario
        headers = None
        if deadline_ms is not None:
            headers = {DEADLINE_HEADER: DeadlineBudget(deadline_ms).header_value()}
        payload = self._request("POST", "/query", body, headers=headers)
        if self.verify_digest and isinstance(payload, dict):
            verify_response_digest(
                payload.get("value"), str(payload.get("digest") or ""),
                where=self.base_url,
            )
        return payload

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def kinds(self) -> dict:
        return self._request("GET", "/kinds")

    def scenarios(self) -> dict:
        return self._request("GET", "/scenarios")

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def ready(self) -> dict:
        """The ``/readyz`` payload.  A not-ready server answers 503 with
        the same JSON body, so that case returns the payload (with
        ``"ready": False``) rather than raising."""
        req = urllib.request.Request(self.base_url + "/readyz", method="GET")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 503:
                return json.loads(exc.read().decode("utf-8"))
            raise ServeError(f"HTTP {exc.code} from /readyz") from None
