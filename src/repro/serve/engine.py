"""The async what-if query engine: coalescing, caching, batching,
backpressure.

One :class:`QueryEngine` owns an admission queue, a small asyncio
worker pool (handlers run on a thread-pool executor so the event loop
stays responsive), and four serving mechanisms:

* **result cache** — a bounded LRU keyed on the canonical query hash
  plus the governing substrate seeds; identical questions are answered
  from memory;
* **coalescing** — identical *in-flight* questions share one
  computation: later arrivals await the first one's future;
* **micro-batching** — fresh work is queued as a *group*: a query of
  a batchable kind joins a queued group that differs from it only
  along the kind's batch axis, and the group collapses into one
  vectorised evaluation.  Groups form while work waits in the queue,
  never on a timer, so an idle engine starts work at once and a busy
  one still batches;
* **backpressure** — the admission queue is bounded; when it is full
  new work is *shed* with :class:`~repro.errors.ServiceOverloaded`
  instead of queued, and every request carries a deadline
  (:class:`~repro.errors.QueryTimeout`).

Plus the resilience layer (:mod:`repro.resilience`):

* **retries** — a failed handler evaluation is re-invoked under seeded
  exponential backoff (validation errors are not retried);
* **circuit breakers** — one per query kind and one per substrate a
  kind consumes; a dependency failing repeatedly is rejected *before*
  doing work (:class:`~repro.errors.CircuitOpen`) until its recovery
  window elapses;
* **graceful degradation** — successful answers are also kept in a
  stale-while-revalidate store; a breaker rejection or a post-retry
  failure answers with the last good value flagged ``degraded: true``
  instead of an error, when one exists;
* **fault injection** — a :class:`~repro.resilience.FaultPlan` passed
  to the engine (or ambient at construction) fires at the
  ``handler:<kind>`` site inside every evaluation — and at the
  ``cache:result`` site on every cache hit — so chaos tests exercise
  exactly the production path.  No plan → one ``None`` check.

And the integrity layer (:mod:`repro.integrity`):

* **answer invariants** — every evaluation's answer passes its kind's
  algebraic self-checks before acceptance; a miscomputed answer (the
  ``wrong-answer`` fault) raises a typed error and is retried;
* **checksummed envelopes** — both caches hold
  :class:`~repro.integrity.ResultEnvelope`\\ s (value + canonical
  SHA-256); an envelope's digest is verified every time it leaves a
  cache — a hit, or a stale/degraded answer — and a failing entry is
  quarantined and the answer recomputed from the query that found it,
  never served.  Snapshot entries are verified once, by the loader.

Everything engine-side runs on one event loop — cross-thread callers go
through :class:`repro.serve.client.ServeClient`, which owns a loop in a
background thread.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    CircuitOpen,
    DeadlineExhausted,
    IntegrityError,
    OperationCancelled,
    QueryTimeout,
    QueryValidationError,
    ScenarioError,
    ServeError,
    ServiceDraining,
    ServiceOverloaded,
)
from repro.harness.cache import SUBSTRATE_CACHE
from repro.integrity.answers import verify_answer
from repro.integrity.digest import corrupt_payload, perturb_answer
from repro.integrity.envelope import ResultEnvelope, seal
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.cancel import CancellationToken, cancel_context
from repro.resilience.faultplan import (
    FaultInjector,
    FaultPlan,
    active_injector,
    fault_context,
)
from repro.resilience.retry import RetryPolicy, retry_call
from repro.scenario.context import scenario_context
from repro.scenario.io import scenario_from_dict
from repro.scenario.spec import ScenarioSpec
from repro.serve.admission import AIMDLimiter
from repro.serve.deadline import DeadlineBudget
from repro.serve.metrics import Metrics
from repro.serve.queries import Query, QueryRegistry

__all__ = [
    "QueryEngine", "QueryResponse", "SERVE_RETRY_POLICY", "describe_scenarios",
]

_STOP = object()

#: Default retry budget for handler evaluations: snappy, bounded, and
#: seeded so chaos runs replay the identical backoff schedule.
SERVE_RETRY_POLICY = RetryPolicy(
    attempts=3, base_delay_s=0.005, multiplier=2.0, max_delay_s=0.05
)

#: Entry bound of the stale-while-revalidate store backing degraded answers.
STALE_SIZE = 1024
#: CoDel-style queue-delay target of the adaptive admission controller.
ADMISSION_TARGET_S = 0.1


def describe_scenarios(scenarios: dict[str, ScenarioSpec]) -> dict[str, Any]:
    """JSON-encodable listing of named scenarios — the ``/scenarios``
    payload of a worker and of the cluster router alike."""
    return {
        name: {
            "description": spec.description,
            "fingerprint": spec.fingerprint,
            "devices": [d.name for d in spec.devices],
            "workloads": [w.qualified_name for w in spec.workloads],
            "machines": [m.name for m in spec.machines],
        }
        for name, spec in sorted(scenarios.items())
    }


@dataclass(frozen=True)
class QueryResponse:
    """One answered query plus its serving metadata.

    ``value`` is exactly what the underlying library call returns
    (JSON-encoded); the metadata says how the engine got it.
    """

    kind: str
    params: dict[str, Any]
    value: Any
    #: Canonical SHA-256 of ``value`` (see :mod:`repro.integrity`),
    #: sealed the moment the answer passed its integrity checks.  Rides
    #: the wire as ``X-Repro-Result-Digest`` so any downstream hop can
    #: recompute and compare.
    digest: str
    cached: bool = False
    coalesced: bool = False
    batched: bool = False
    degraded: bool = False
    latency_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "params": self.params,
            "value": self.value,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "batched": self.batched,
            "degraded": self.degraded,
            "latency_s": self.latency_s,
            "digest": self.digest,
        }


@dataclass
class _WorkUnit:
    """One in-flight computation's waiter ledger + cancellation token.

    Lives entirely on the event loop (no locking): every waiter —
    the submitter, coalesced late arrivals, group co-members —
    ``join()``s, and ``leave(abandoned=True)`` from the *last* waiter
    cancels the token so the evaluating thread stops consuming CPU.
    """

    token: CancellationToken = field(default_factory=CancellationToken)
    waiters: int = 0
    #: Whether the answer may enter the result/stale caches.  Hedged
    #: backup requests ask for ``False`` — caching a duplicate answer
    #: on the backup shard would evict genuinely warm entries (cache
    #: pollution); any regular waiter joining the unit upgrades it.
    store: bool = True

    def join(self) -> None:
        self.waiters += 1

    def leave(self, *, abandoned: bool) -> None:
        self.waiters -= 1
        if abandoned and self.waiters <= 0:
            self.token.cancel()


#: One member of a :class:`_Group`: ``(query, future, budget)``.
_Member = tuple[Query, asyncio.Future, DeadlineBudget | None]


@dataclass
class _Group:
    """One unit of queued work: the queries one evaluation answers.

    From admission until a worker takes it off the queue, a group is
    open: a fresh query with the same ``key`` (:meth:`Query.batch_group`
    — same kind, same non-axis params, same scenario) joins it, up to
    ``max_batch`` members.  An unbatchable kind has ``key=None``: a group
    of one that no other query can join.  All members share one
    :class:`_WorkUnit`: the evaluation is cancelled only once *every*
    member has been abandoned."""

    key: tuple | None
    work: _WorkUnit
    admitted_at: float
    members: list[_Member]  # in admission order


def _evaluate(
    queries: list[Query],
    token: CancellationToken,
    budget: DeadlineBudget | None,
) -> list[Any]:
    """Answer one group's queries, in order (executor thread).

    A batchable kind has one evaluator, its batch handler: the whole
    group, solo or not, is one ``batch_handler(params, values)`` call.
    Any other kind is a group of one and calls ``handler(params)``.
    Members share the first one's non-axis params and scenario — both
    are part of the group key.

    Pool threads never inherit the submitting thread's contextvars, so
    the overlay — and the cancellation token — is installed here,
    inside the worker.  The handler-stage budget check runs per retry
    attempt: a retry whose budget died while backing off is refused."""
    first = queries[0]
    kind = first.kind
    if budget is not None and budget.exhausted():
        raise DeadlineExhausted(
            f"{kind.name} handler refused: deadline budget exhausted",
            stage="handler",
        )
    with cancel_context(token), scenario_context(first.scenario):
        if kind.batch_axis is None:
            return [kind.handler(first.params)]
        values = tuple(getattr(q.params, kind.batch_axis) for q in queries)
        answers = kind.batch_handler(first.params, values)
    return [answers[value] for value in values]


def _evaluate_with_recovery(
    queries: list[Query],
    token: CancellationToken,
    budget: DeadlineBudget | None,
    injector: FaultInjector | None,
    policy: RetryPolicy,
    metrics: Metrics,
) -> list[Any]:
    """One group evaluation under fault injection + seeded retry
    (executor thread); the ``handler:<kind>`` fault site fires before
    each attempt.  Validation errors are never retried — they are the
    caller's bug, not a transient failure — and neither are
    cancellation or deadline exhaustion: retrying abandoned or
    out-of-time work only burns more CPU for nobody.

    Every attempt's answers pass :func:`repro.integrity.verify_answer`,
    each against its own member's canonical params, before they are
    accepted — a miscomputation (modelled by the ``wrong-answer`` fault
    kind, which perturbs the value *before* any checksum exists) raises
    :class:`IntegrityError` and is retried like any transient failure,
    so a single soft error costs one retry, not one wrong answer
    served."""
    kind_name = queries[0].kind.name
    site = f"handler:{kind_name}"

    def attempt() -> list[Any]:
        with fault_context(injector):
            fault = injector.fire(site) if injector is not None else None
            answers = _evaluate(queries, token, budget)
            if fault == "wrong-answer":
                answers = perturb_answer(answers)
            for query, answer in zip(queries, answers):
                verify_answer(kind_name, query.canonical, answer)
            return answers

    def on_retry(_attempt: int, exc: BaseException) -> None:
        metrics.inc("retries")
        if isinstance(exc, IntegrityError):
            metrics.inc("integrity_detected")

    seed = injector.plan.seed if injector is not None else 0
    try:
        answers, _retries = retry_call(
            attempt,
            policy=policy,
            seed=seed,
            site=site,
            no_retry_on=(
                QueryValidationError,
                OperationCancelled,
                DeadlineExhausted,
            ),
            on_retry=on_retry,
        )
    except IntegrityError:
        # The *final* attempt still failed verification (on_retry
        # counted the earlier ones); better a typed error than garbage.
        metrics.inc("integrity_detected")
        raise
    return answers


class QueryEngine:
    """Asyncio serving engine over the registered what-if queries.

    Parameters
    ----------
    registry:
        Query kinds to serve (defaults to every built-in kind).
    workers:
        Concurrent handler evaluations (worker tasks + executor threads).
    max_queue:
        Admission-queue bound; a full queue sheds with
        :class:`ServiceOverloaded`.
    cache_size:
        Result-cache entry bound (LRU eviction).
    max_batch:
        Largest micro-batch; further members start a new group.
    default_timeout_s:
        Per-query deadline when the caller does not pass one.
    fault_plan:
        A :class:`~repro.resilience.FaultPlan` (or prepared
        :class:`~repro.resilience.FaultInjector`) to fire at the
        ``handler:<kind>`` sites — chaos testing.  Defaults to whatever
        :func:`~repro.resilience.fault_context` has installed at
        construction time, i.e. normally nothing.
    retry_policy:
        Retry budget for handler evaluations (seeded backoff).
    breaker_threshold / breaker_recovery_s:
        Consecutive failures that open a per-kind (and per-substrate)
        circuit breaker, and how long it stays open before trialing.

    Admission is an AIMD concurrency limit per query kind, cut when
    queue delay exceeds :data:`ADMISSION_TARGET_S`; work above it is shed
    with a fast typed 429 *before* queueing, so overload never turns into
    a deep queue that blows every deadline.  The limit starts at the
    queue bound, never drops below ``workers``, and is capped at twice
    the queue bound.
    """

    def __init__(
        self,
        registry: QueryRegistry | None = None,
        *,
        workers: int = 4,
        max_queue: int = 128,
        cache_size: int = 256,
        max_batch: int = 64,
        default_timeout_s: float = 30.0,
        fault_plan: FaultPlan | FaultInjector | None = None,
        retry_policy: RetryPolicy = SERVE_RETRY_POLICY,
        breaker_threshold: int = 5,
        breaker_recovery_s: float = 2.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if registry is None:
            from repro.serve.handlers import DEFAULT_REGISTRY

            registry = DEFAULT_REGISTRY
        self.registry = registry
        self.workers = workers
        self.max_queue = max_queue
        self.cache_size = cache_size
        self.max_batch = max_batch
        self.default_timeout_s = default_timeout_s
        self.metrics = Metrics()
        self.retry_policy = retry_policy
        if isinstance(fault_plan, FaultPlan):
            self._injector = (
                None if fault_plan.is_empty else FaultInjector(fault_plan)
            )
        elif fault_plan is not None:
            self._injector = fault_plan
        else:
            self._injector = active_injector()
        self._breakers = BreakerRegistry(
            failure_threshold=breaker_threshold,
            recovery_s=breaker_recovery_s,
            on_open=lambda _name: self.metrics.inc("breaker_opened"),
        )
        # The limit starts at the queue bound: a healthy engine admits
        # every burst the queue would have absorbed anyway, and only
        # *observed* queue delay above target brings the limit down.
        # Starting lower would shed legitimate bursts a-priori, which
        # is the static-limit mistake this controller exists to avoid.
        initial = float(max(2 * workers, max_queue))
        self._admission = AIMDLimiter(
            initial=initial,
            min_limit=float(min(workers, initial)),
            max_limit=float(max(initial, 2 * max_queue)),
            target_delay_s=ADMISSION_TARGET_S,
        )
        self._created = time.perf_counter()

        self._cache: OrderedDict[Any, Any] = OrderedDict()
        self._stale: OrderedDict[Any, Any] = OrderedDict()
        # key -> (future, work unit) of every admitted computation.
        self._inflight: dict[Any, tuple[asyncio.Future, _WorkUnit]] = {}
        self._open_groups: dict[tuple, _Group] = {}
        self._scenarios: dict[str, ScenarioSpec] = {}
        self._queue: asyncio.Queue | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._draining = False

        self.metrics.register_gauge(
            "queue_depth", lambda: self._queue.qsize() if self._queue else 0
        )
        self.metrics.register_gauge("inflight", lambda: len(self._inflight))
        self.metrics.register_gauge("cache_entries", lambda: len(self._cache))
        self.metrics.register_gauge(
            "pending_batches", lambda: len(self._open_groups)
        )
        self.metrics.register_section("admission", self._admission.limits)

    # -- lifecycle ----------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._queue is not None

    async def start(self) -> None:
        if self.started:
            raise ServeError("engine already started")
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._worker_tasks = [
            asyncio.ensure_future(self._worker()) for _ in range(self.workers)
        ]

    async def stop(self) -> None:
        if not self.started:
            return
        queue = self._queue
        for _ in self._worker_tasks:
            await queue.put(_STOP)
        await asyncio.gather(*self._worker_tasks)
        self._worker_tasks = []
        self._queue = None
        self._executor.shutdown(wait=True)
        self._executor = None

    async def __aenter__(self) -> "QueryEngine":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- graceful drain -----------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new queries; in-flight work keeps running.

        A plain flag write, so it is safe to call from any thread (the
        signal-handling thread of the HTTP front end) — :meth:`submit`
        reads it on the event loop before touching any other state.
        """
        self._draining = True

    async def drain(self, timeout_s: float = 10.0) -> bool:
        """Refuse new work and wait for every in-flight query to settle.

        Returns ``True`` when the engine went idle within ``timeout_s``
        — no in-flight computations, which includes all queued work —
        and ``False`` when the deadline struck first (the caller shuts
        down anyway; the abandoned work was already rejected-or-running
        and its callers hold the futures).
        Idempotent: draining an idle engine returns immediately.
        """
        self._draining = True
        if not self.started:
            return True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while self._inflight:
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    # -- cache snapshot hand-off --------------------------------------------

    def cache_entries(self) -> list[tuple[Any, ResultEnvelope]]:
        """The result cache's ``(key, envelope)`` pairs, LRU-oldest
        first (call on the engine's loop — e.g. via ``ServeClient``)."""
        return list(self._cache.items())

    def restore_cache(
        self, entries: list[tuple[Any, ResultEnvelope]]
    ) -> int:
        """Seed the result (and stale) cache from snapshot entries,
        oldest first so the LRU order survives the round trip; returns
        how many entries landed (the cache bound may evict overflow).

        The entries are stored as given: the snapshot loader has
        already verified each one against its digest."""
        for key, envelope in entries:
            self._store(key, envelope)
        return len(self._cache)

    # -- quarantine ---------------------------------------------------------

    def _quarantine(self, key: Any) -> None:
        """Drop a corrupt entry from every store that could serve it."""
        self._cache.pop(key, None)
        self._stale.pop(key, None)

    def _verified_stale(self, key: Any) -> ResultEnvelope | None:
        """The stale store's envelope for ``key``, digest-verified like
        every envelope that leaves a cache.  Corrupt stale entries are
        quarantined and reported absent."""
        stale = self._stale.get(key)
        if stale is None:
            return None
        if not stale.verify():
            self.metrics.inc("integrity_detected")
            self._quarantine(key)
            return None
        return stale

    # -- health -------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Liveness: the process answers and the engine's state.

        Always ``ok: true`` if this returns at all — liveness is "the
        event loop and HTTP thread are alive", not "dependencies are
        healthy"; that is :meth:`readiness`."""
        return {
            "ok": True,
            "started": self.started,
            "uptime_s": time.perf_counter() - self._created,
        }

    def readiness(self) -> dict[str, Any]:
        """Readiness: should traffic be routed here right now?

        Not ready while the engine is stopped or any circuit breaker is
        non-closed (an open breaker means a dependency is failing and
        fresh answers for its kinds would be degraded or rejected).
        Also reports which substrates are warm in the process-wide cache
        and the active fault plan, so chaos runs are observable."""
        breakers = self._breakers.snapshot()
        ready = (
            self.started
            and not self._draining
            and all(b["state"] == "closed" for b in breakers.values())
        )
        return {
            "ready": ready,
            "started": self.started,
            "draining": self._draining,
            "breakers": breakers,
            "admission": self._admission.limits(),
            "warm_substrates": list(SUBSTRATE_CACHE.substrates()),
            "fault_plan": (
                self._injector.plan.label()
                if self._injector is not None
                else None
            ),
        }

    # -- scenarios ----------------------------------------------------------

    def register_scenario(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Make a named scenario referencable by queries (``scenario:
        "<name>"`` on the wire).  Re-registering a name replaces it."""
        if not spec.name:
            raise ScenarioError("a registered scenario needs a name")
        self._scenarios[spec.name] = spec
        return spec

    def scenario_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._scenarios))

    def describe_scenarios(self) -> dict[str, Any]:
        """JSON-encodable listing of the registered scenarios — the
        ``/scenarios`` endpoint payload."""
        return describe_scenarios(self._scenarios)

    def _resolve_scenario(
        self, scenario: ScenarioSpec | dict[str, Any] | str | None
    ) -> ScenarioSpec | None:
        """Wire scenario input → spec: a name references a registered
        scenario, an inline dict builds one, a spec passes through."""
        if scenario is None or isinstance(scenario, ScenarioSpec):
            return scenario
        if isinstance(scenario, str):
            spec = self._scenarios.get(scenario)
            if spec is None:
                raise QueryValidationError(
                    f"unknown scenario ref {scenario!r}; "
                    f"registered: {list(self.scenario_names())}"
                )
            return spec
        if isinstance(scenario, dict):
            try:
                return scenario_from_dict(scenario)
            except ScenarioError as exc:
                raise QueryValidationError(f"bad scenario: {exc}") from exc
        raise QueryValidationError(
            "scenario must be a name, an inline object, or null; "
            f"got {type(scenario).__name__}"
        )

    # -- the serving path ---------------------------------------------------

    async def submit(
        self,
        kind: str,
        params: dict[str, Any] | None = None,
        *,
        timeout: float | None = None,
        scenario: ScenarioSpec | dict[str, Any] | str | None = None,
        budget: DeadlineBudget | None = None,
        store: bool = True,
    ) -> QueryResponse:
        """Answer one query, from cache / a shared computation / fresh work.

        ``store=False`` answers without inserting the result into the
        caches — the hedged-request backup path, whose duplicate
        answers would otherwise pollute the backup shard's LRU.

        ``scenario`` overlays the evaluation: a :class:`ScenarioSpec`,
        an inline spec dict, or the name of a scenario registered with
        :meth:`register_scenario`.  ``budget`` is the propagated
        deadline budget (from the ``X-Repro-Deadline-Ms`` wire header):
        every lifecycle stage refuses work the budget can no longer pay
        for with :class:`DeadlineExhausted` naming the stage, and a
        waiter whose budget dies abandons the computation (the last
        abandoning waiter cancels it).  Raises
        :class:`QueryValidationError` for bad input,
        :class:`ServiceDraining` once :meth:`begin_drain`
        /:meth:`drain` has been called, :class:`ServiceOverloaded` when
        the admission queue is full or the adaptive concurrency limit
        refuses the kind, :class:`QueryTimeout` when the local
        deadline elapses first, and :class:`CircuitOpen` when the kind's
        (or one of its
        substrates') breaker is open and no stale answer exists — with
        a stale answer, the response carries ``degraded=True`` instead.
        """
        if not self.started:
            raise ServeError("engine not started; use 'async with QueryEngine()'")
        if self._draining:
            self.metrics.inc("drain_rejected")
            raise ServiceDraining(
                "service is draining for shutdown; retry against another "
                "replica"
            )
        try:
            query = self.registry.build(
                kind, params, scenario=self._resolve_scenario(scenario)
            )
        except QueryValidationError:
            self.metrics.inc("invalid")
            raise
        t0 = time.perf_counter()
        self.metrics.inc("requests")
        if budget is not None and budget.exhausted():
            # Even a cache hit would answer after the client's deadline:
            # refuse fast instead of doing work for nobody.
            self.metrics.inc("deadline_exhausted")
            raise DeadlineExhausted(
                f"{query.kind.name} query arrived with its deadline "
                f"budget already exhausted",
                stage="admission",
            )
        key = query.cache_key

        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            # The ``cache:result`` fault site models damage to a cached
            # value at rest: ``flip`` corrupts the held payload in place
            # (after its digest was sealed — exactly what a memory fault
            # does), ``evict`` silently loses the entry.
            fault = (
                self._injector.fire("cache:result")
                if self._injector is not None
                else None
            )
            if fault == "flip":
                corrupt_payload(entry.value)
            elif fault == "evict":
                self._quarantine(key)
                entry = None
            if entry is not None:
                if not entry.verify():
                    # Verify-on-read caught rot: quarantine and fall
                    # through to a fresh computation — the caller gets a
                    # recomputed answer, never the damaged bytes.
                    self.metrics.inc("integrity_detected")
                    self.metrics.inc("integrity_recomputed")
                    self._quarantine(key)
                else:
                    self.metrics.inc("cache_hits")
                    return self._respond(
                        query, entry.value, t0, cached=True,
                        digest=entry.digest,
                    )

        inflight = self._inflight.get(key)
        if inflight is not None:
            self.metrics.inc("coalesced")
            future, work = inflight
            work.join()
            if store:
                work.store = True
            env, _, degraded = await self._await_result(
                future, timeout, query, budget=budget, work=work
            )
            return self._respond(
                query, env.value, t0, coalesced=True,
                degraded=degraded, digest=env.digest,
            )

        # The circuit-breaker gate: a fresh computation is the only path
        # that exercises the dependency, so only fresh computations are
        # gated — cache hits and coalesced waits stay breaker-free.
        try:
            claimed = self._gate_breakers(query)
        except CircuitOpen:
            self.metrics.inc("breaker_rejected")
            stale = self._verified_stale(key)
            if stale is not None:
                self.metrics.inc("degraded")
                return self._respond(
                    query, stale.value, t0, degraded=True,
                    digest=stale.digest,
                )
            raise

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            work = self._admit(query, future, budget, store=store)
        except ServiceOverloaded:
            for breaker in claimed:
                breaker.abort_trial()  # the trial call never ran
            self.metrics.inc("shed")
            raise
        self._inflight[key] = (future, work)
        env, n_members, degraded = await self._await_result(
            future, timeout, query, budget=budget, work=work
        )
        return self._respond(
            query, env.value, t0, batched=n_members > 1,
            degraded=degraded, digest=env.digest,
        )

    def _breakers_for(self, query: Query) -> tuple[str, ...]:
        """Breaker names guarding one query: its kind plus every
        substrate the kind declares it consumes."""
        return (f"kind:{query.kind.name}",) + tuple(
            f"substrate:{s}" for s in query.kind.substrates
        )

    def _gate_breakers(self, query: Query) -> list:
        """Admission check against every breaker guarding ``query``.

        Raises :class:`CircuitOpen` if any is open; returns the breakers
        whose half-open trial slot this call claimed (so a downstream
        rejection can hand the slots back)."""
        claimed = []
        try:
            for name in self._breakers_for(query):
                if self._breakers.get(name).before_call():
                    claimed.append(self._breakers.get(name))
        except CircuitOpen:
            for breaker in claimed:
                breaker.abort_trial()
            raise
        return claimed

    def _record_outcome(self, query: Query, ok: bool) -> None:
        """Report one evaluation's verdict to the breakers guarding it."""
        for name in self._breakers_for(query):
            breaker = self._breakers.get(name)
            if ok:
                breaker.record_success()
            else:
                breaker.record_failure()

    def _respond(
        self,
        query: Query,
        value: Any,
        t0: float,
        *,
        digest: str,
        **flags: bool,
    ) -> QueryResponse:
        latency = time.perf_counter() - t0
        self.metrics.observe_latency(query.kind.name, latency)
        return QueryResponse(
            kind=query.kind.name,
            params=query.canonical,
            value=value,
            latency_s=latency,
            digest=digest,
            **flags,
        )

    def _admit(
        self,
        query: Query,
        future: asyncio.Future,
        budget: DeadlineBudget | None,
        *,
        store: bool = True,
    ) -> _WorkUnit:
        """Queue fresh work, joining an open group when possible.

        Returns the :class:`_WorkUnit` governing the computation this
        caller now waits on (the group's, when it joined one) with the
        caller already joined.  A new group passes the adaptive
        admission limiter; joining an already-admitted group adds no
        concurrency and bypasses it.
        """
        member = (query, future, budget)
        key = query.batch_group()
        # Unbatchable kinds (key None) never find a group to join.
        group = self._open_groups.get(key)
        if group is not None and len(group.members) < self.max_batch:
            group.work.join()
            if store:
                group.work.store = True
            group.members.append(member)
        else:
            kind_name = query.kind.name
            if not self._admission.try_acquire(kind_name):
                self.metrics.inc("admission_rejected")
                raise ServiceOverloaded(
                    f"adaptive concurrency limit reached for "
                    f"{kind_name!r}; query shed"
                )
            group = _Group(
                key, _WorkUnit(store=store), time.perf_counter(), [member]
            )
            group.work.join()
            try:
                self._enqueue(group)
            except ServiceOverloaded:
                self._admission.cancel_acquire(kind_name)
                raise
        return group.work

    def _enqueue(self, group: _Group) -> None:
        try:
            self._queue.put_nowait(group)
        except asyncio.QueueFull:
            raise ServiceOverloaded(
                f"admission queue full ({self.max_queue}); "
                f"{group.members[0][0].kind.name} query shed"
            ) from None
        if group.key is not None:
            self._open_groups[group.key] = group

    async def _await_result(
        self,
        future: asyncio.Future,
        timeout: float | None,
        query: Query,
        *,
        budget: DeadlineBudget | None = None,
        work: _WorkUnit | None = None,
    ) -> tuple[Any, int, bool]:
        """Wait for a computation with the per-query deadline.

        The future is shielded: one waiter timing out must not cancel
        the computation other coalesced waiters share.  A propagated
        ``budget`` tightens the local deadline and turns the timeout
        into a typed :class:`DeadlineExhausted`; either way a waiter
        that gives up *abandons* its work unit, and the last abandoning
        waiter cancels the computation.
        """
        deadline = self.default_timeout_s if timeout is None else timeout
        if budget is not None:
            deadline = min(deadline, budget.remaining_s())
        try:
            result = await asyncio.wait_for(asyncio.shield(future), deadline)
        except asyncio.TimeoutError:
            if work is not None:
                work.leave(abandoned=True)
            if budget is not None and budget.exhausted():
                self.metrics.inc("deadline_exhausted")
                raise DeadlineExhausted(
                    f"{query.kind.name} query's deadline budget ran out "
                    f"while awaiting its answer",
                    stage="await",
                ) from None
            self.metrics.inc("timeouts")
            raise QueryTimeout(
                f"{query.kind.name} query exceeded its {deadline}s deadline"
            ) from None
        if work is not None:
            work.leave(abandoned=False)
        return result

    # -- workers ------------------------------------------------------------

    def _store(self, key: Any, envelope: ResultEnvelope) -> None:
        if self.cache_size > 0:
            self._cache[key] = envelope
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        # The stale store backs degraded answers: bigger bound, never
        # invalidated by load — only by LRU against STALE_SIZE.
        self._stale[key] = envelope
        self._stale.move_to_end(key)
        while len(self._stale) > STALE_SIZE:
            self._stale.popitem(last=False)

    def _finish(
        self, query: Query, future: asyncio.Future, value: Any, n_members: int
    ) -> None:
        # Sealed now, while the value is known good.
        envelope = seal(value)
        inflight = self._inflight.pop(query.cache_key, None)
        if inflight is None or inflight[1].store:
            self._store(query.cache_key, envelope)
        if not future.done():
            future.set_result((envelope, n_members, False))

    def _fail(
        self, query: Query, future: asyncio.Future, exc: BaseException
    ) -> None:
        """Resolve a failed computation: stale answer if we have one
        (flagged degraded, digest-verified — a corrupt stale entry is
        quarantined, not served), the typed error otherwise.  Validation
        errors always propagate — serving stale data for a bad request
        would mask the caller's bug."""
        self._inflight.pop(query.cache_key, None)
        if not isinstance(exc, QueryValidationError):
            stale = self._verified_stale(query.cache_key)
            if stale is not None:
                self.metrics.inc("degraded")
                if not future.done():
                    future.set_result((stale, 1, True))
                return
        self.metrics.inc("errors")
        if not future.done():
            future.set_exception(exc)
            # Every waiter may already have abandoned this future; read
            # the exception so asyncio never logs "never retrieved".
            future.exception()

    def _resolve_rejected(
        self,
        members: list[_Member],
        exc: OperationCancelled | DeadlineExhausted,
    ) -> None:
        """Resolve computations that were *refused* (cancelled, budget
        dead) rather than failed: counted as ``cancelled`` or
        ``deadline_exhausted``, but no stale fallback, no ``errors``
        count, no breaker verdict — nobody is usually waiting."""
        self.metrics.inc(
            "cancelled"
            if isinstance(exc, OperationCancelled)
            else "deadline_exhausted",
            len(members),
        )
        for query, future, _ in members:
            self._inflight.pop(query.cache_key, None)
            if not future.done():
                future.set_exception(exc)
                future.exception()  # usually zero waiters; silence asyncio

    def _abort_breaker_trials(self, query: Query) -> None:
        """Hand back any half-open trial slots this query claimed when
        its evaluation ended without a verdict (cancelled / out of
        budget) — a stranded ``half_open_busy`` slot would reject the
        kind forever."""
        for name in self._breakers_for(query):
            self._breakers.get(name).abort_trial()

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            group = await self._queue.get()
            if group is _STOP:
                return
            await self._run_group(loop, group)

    async def _run_group(
        self, loop: asyncio.AbstractEventLoop, group: _Group
    ) -> None:
        """Evaluate one group a worker took off the queue: each member
        is refused, failed, or answered from one handler call."""
        # Off the queue the group is closed: a later arrival with the
        # same key starts a new group rather than join running work.
        if self._open_groups.get(group.key) is group:
            del self._open_groups[group.key]
        first = group.members[0][0]
        queue_delay = time.perf_counter() - group.admitted_at
        try:
            live = []
            if group.work.token.cancelled:
                # Every waiter left while this sat in the queue: the
                # whole evaluation is reclaimed, not just its tail.
                self._resolve_rejected(
                    group.members,
                    OperationCancelled(
                        f"{first.kind.name} query abandoned before "
                        f"evaluation started"
                    ),
                )
            else:
                # Budget-dead members are refused here; the survivors
                # still share one evaluation.
                for member in group.members:
                    budget = member[2]
                    if budget is not None and budget.exhausted():
                        self._resolve_rejected(
                            [member],
                            DeadlineExhausted(
                                f"{first.kind.name} query's deadline "
                                f"budget ran out waiting in the queue",
                                stage="worker",
                            ),
                        )
                    else:
                        live.append(member)
            if not live:
                self._abort_breaker_trials(first)
                return
            # The evaluation serves every live member, so it gets the
            # most generous live budget — and none at all if any member
            # is unbudgeted (cutting their answer short would be a
            # regression).
            budgets = [budget for _, _, budget in live]
            budget = None
            if all(b is not None for b in budgets):
                budget = max(budgets, key=lambda b: b.remaining_s())
            t_start = time.perf_counter()
            try:
                answers = await loop.run_in_executor(
                    self._executor,
                    _evaluate_with_recovery,
                    [query for query, _, _ in live],
                    group.work.token,
                    budget,
                    self._injector,
                    self.retry_policy,
                    self.metrics,
                )
            except (OperationCancelled, DeadlineExhausted) as exc:
                self._resolve_rejected(live, exc)
                self._abort_breaker_trials(first)
                if isinstance(exc, OperationCancelled):
                    # Reclaimed CPU: the handler ran this long, then
                    # stopped.  Counted on the loop after ``cancelled``,
                    # so a reader never sees one without the other.
                    elapsed_ms = (time.perf_counter() - t_start) * 1000.0
                    self.metrics.inc("cancelled_work_ms", int(elapsed_ms))
            except Exception as exc:
                self._record_outcome(first, ok=False)
                for query, future, _ in live:
                    self._fail(query, future, exc)
            else:
                self._record_outcome(first, ok=True)
                self.metrics.inc("computed", len(live))
                if group.key is not None:
                    self.metrics.inc("batches")
                    self.metrics.batch_size.observe(len(live))
                    if len(live) > 1:
                        self.metrics.inc("batched", len(live))
                for (query, future, _), answer in zip(live, answers):
                    self._finish(query, future, answer, len(live))
        finally:
            self._admission.release(first.kind.name, queue_delay)
