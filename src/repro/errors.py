"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without masking genuine Python bugs
(``TypeError`` from a misuse still propagates as-is).

Each public error carries a machine-readable ``code`` — a stable
snake_case identifier that survives serialization.  The serve layer
maps codes to HTTP statuses from one table
(:data:`repro.serve.wire.STATUS_BY_CODE`) and includes the code in
every error payload, so a client can branch on ``response["code"]``
instead of parsing messages, and "unclassified 500" means exactly
"an exception that escaped this taxonomy".
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FormatError",
    "DeviceError",
    "DispatchError",
    "ProfilingError",
    "WorkloadError",
    "OzakiError",
    "GraphError",
    "ScenarioError",
    "ServeError",
    "QueryValidationError",
    "MalformedRequest",
    "PayloadTooLarge",
    "HeadersTooLarge",
    "ServiceOverloaded",
    "QueryTimeout",
    "DeadlineExhausted",
    "OperationCancelled",
    "CircuitOpen",
    "FaultInjected",
    "FaultPlanError",
    "IntegrityError",
    "PipelineError",
    "SubstrateBuildError",
    "ArtifactError",
    "StoreError",
    "SnapshotError",
    "ServiceDraining",
    "ClusterError",
    "ShardUnavailable",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`.

    ``code`` is the machine-readable identity of the error class; it is
    inherited, so subclasses that do not declare their own share the
    parent's (``QueryValidationError`` without a code would report
    ``serve_error``).  ``to_dict`` is the canonical wire form.

    ``retry_after`` is the retry hint in seconds for rejections that
    clear with time (load shedding, draining, an open breaker, a shard
    mid-restart).  It rides both the wire payload and the HTTP
    ``Retry-After`` header, and clients re-attach it to the exceptions
    they raise, so in-process and HTTP callers see the same hint —
    the cluster router leans on it when a shard answers "draining".
    """

    code = "repro_error"
    retry_after: float | None = None

    def to_dict(self) -> dict:
        out = {"error": str(self), "code": self.code}
        if self.retry_after is not None:
            out["retry_after"] = self.retry_after
        return out


class FormatError(ReproError, ValueError):
    """Invalid or unsupported floating-point format specification."""

    code = "format_error"


class DeviceError(ReproError, ValueError):
    """A device model cannot satisfy the requested operation.

    Raised e.g. when a kernel requests a precision the device's matrix
    engine does not support, or when a device name is unknown to the
    registry.
    """

    code = "device_error"


class DispatchError(ReproError, RuntimeError):
    """BLAS dispatch failure (no active execution context, bad shapes)."""

    code = "dispatch_error"


class ProfilingError(ReproError, RuntimeError):
    """Misuse of the profiling API (unbalanced regions, closed profiles)."""

    code = "profiling_error"


class WorkloadError(ReproError, ValueError):
    """Unknown workload, or invalid workload configuration."""

    code = "workload_error"


class OzakiError(ReproError, ValueError):
    """Ozaki-scheme precondition violation (non-finite input, bad formats)."""

    code = "ozaki_error"


class GraphError(ReproError, ValueError):
    """Dependency-graph construction or analysis failure."""

    code = "graph_error"


class ScenarioError(ReproError, ValueError):
    """Invalid extrapolation scenario (domain shares not summing to one, …)."""

    code = "scenario_error"


class ServeError(ReproError, RuntimeError):
    """Base class for failures of the :mod:`repro.serve` query service."""

    code = "serve_error"


class QueryValidationError(ServeError, ValueError):
    """A what-if query names an unknown kind or carries invalid parameters."""

    code = "query_validation"


class MalformedRequest(ServeError, ValueError):
    """An HTTP request whose framing is unusable — a bad request line, a
    header line without a colon, a ``Content-Length`` that is not a
    plain decimal byte count.  The server answers and closes the
    connection: the stream cannot be resynchronised."""

    code = "malformed_request"


class PayloadTooLarge(MalformedRequest):
    """An HTTP request declares a body larger than the server reads
    (:data:`repro.serve.wire.MAX_BODY_BYTES`); refused unread."""

    code = "payload_too_large"


class HeadersTooLarge(MalformedRequest):
    """An HTTP request with more header lines
    (:data:`repro.serve.wire.MAX_HEADER_LINES`) or a longer line
    (:data:`repro.serve.wire.MAX_LINE_BYTES`) than the server reads."""

    code = "headers_too_large"


class ServiceOverloaded(ServeError):
    """The admission queue is full; the request was shed, not queued.

    Deliberate load-shedding: the serving engine rejects work it cannot
    start promptly instead of letting the queue grow without bound.
    """

    code = "service_overloaded"
    retry_after = 1.0


class QueryTimeout(ServeError, TimeoutError):
    """A query's per-request deadline elapsed before its answer arrived."""

    code = "query_timeout"


class DeadlineExhausted(ServeError, TimeoutError):
    """A query's propagated deadline budget ran out mid-lifecycle.

    Unlike :class:`QueryTimeout` (a local per-call deadline, checked
    only while awaiting the answer), this is the wire budget carried in
    ``X-Repro-Deadline-Ms`` and decremented at every stage — router,
    spill, worker admission, queued work, handler.  ``stage`` names the
    layer that refused to start (or continue) work it could no longer
    finish in time, so a 504 pinpoints where the budget died.
    """

    code = "deadline_exhausted"

    def __init__(self, message: str, *, stage: str = "") -> None:
        super().__init__(message)
        self.stage = stage

    def to_dict(self) -> dict:
        out = super().to_dict()
        if self.stage:
            out["stage"] = self.stage
        return out


class OperationCancelled(ServeError):
    """Every waiter abandoned this computation; it was stopped early.

    Raised *inside* an evaluation when its cooperative cancellation
    token fires (see :mod:`repro.resilience.cancel`): the handler or
    kernel observes the token and stops consuming CPU.  Normally nobody
    sees this on the wire — cancellation only triggers once the last
    waiter is gone — but a racing late joiner maps it to a retryable
    503.
    """

    code = "operation_cancelled"
    retry_after = 0.5


class CircuitOpen(ServeError):
    """A circuit breaker is open: the failing dependency is not called.

    The request was rejected *before* doing work, to give the dependency
    time to recover; the serve layer answers with stale data (flagged
    ``"degraded": true``) when it has any, or maps this to HTTP 503.
    """

    code = "circuit_open"
    retry_after = 2.0


class FaultInjected(ReproError, RuntimeError):
    """A deterministic fault-plan rule fired at this call site.

    Only ever raised while a :class:`repro.resilience.FaultPlan` is
    installed — production code paths with no plan cannot see it.
    """

    code = "fault_injected"

    def __init__(self, message: str, *, site: str = "") -> None:
        super().__init__(message)
        self.site = site


class FaultPlanError(ReproError, ValueError):
    """Invalid fault-plan specification (unknown keys, bad rule values)."""

    code = "fault_plan_error"


class IntegrityError(ReproError, RuntimeError):
    """A result failed an integrity check — never serve it.

    Raised by the :mod:`repro.integrity` layer when a kernel invariant
    is violated (:func:`repro.integrity.verify_sweep_result`), a handler
    answer fails its algebraic self-checks
    (:func:`repro.integrity.verify_answer`), or a checksummed result
    envelope no longer matches its digest.  The serve engine treats it
    like any transient handler failure — retried, then stale-fallback —
    because recomputing is exactly the right response to corruption;
    what it never does is return the damaged value.  ``check`` names
    the failed invariant for metrics and chaos-test assertions.
    """

    code = "integrity_error"

    def __init__(self, message: str, *, check: str = "") -> None:
        super().__init__(message)
        self.check = check

    def to_dict(self) -> dict:
        out = super().to_dict()
        if self.check:
            out["check"] = self.check
        return out


class StoreError(ReproError, RuntimeError):
    """A durable write or journal append could not complete.

    Raised by :mod:`repro.harness.store` when the fsync/replace sequence
    fails (a dying disk, a full filesystem, an injected ``fsync-error``
    fault) — the destination file is guaranteed untouched.
    """

    code = "store_error"


class SnapshotError(ReproError, ValueError):
    """A cache snapshot failed validation (bad format, checksum mismatch).

    The serve layer treats this as "cold start": a corrupt snapshot is
    reported and ignored, never trusted and never fatal.
    """

    code = "snapshot_error"


class ServiceDraining(ServeError):
    """The service is draining for shutdown; new work is not accepted.

    Mapped to HTTP 503 with a ``Retry-After`` header — callers should
    retry against another replica (or the restarted process).
    """

    code = "service_draining"
    retry_after = 1.0


class ClusterError(ReproError, RuntimeError):
    """Base class for failures of the :mod:`repro.cluster` layer
    (supervisor misconfiguration, a worker that never came up, an
    empty hash ring)."""

    code = "cluster_error"


class ShardUnavailable(ClusterError):
    """No shard could answer: the routed shard and its ring neighbours
    are all down, draining, or breaker-rejected.

    The cluster router's terminal 503 — spill-over is bounded, so a
    query whose whole preference list is unavailable is rejected with a
    retry hint rather than queued indefinitely.
    """

    code = "shard_unavailable"
    retry_after = 1.0


class PipelineError(ReproError, RuntimeError):
    """The artefact pipeline could not complete the requested run."""

    code = "pipeline_error"


class SubstrateBuildError(PipelineError):
    """A shared substrate failed to build after exhausting its retries."""

    code = "substrate_build_error"

    def __init__(self, message: str, *, substrate: str = "") -> None:
        super().__init__(message)
        self.substrate = substrate


class ArtifactError(PipelineError):
    """An artefact generator failed after exhausting its retries."""

    code = "artifact_error"

    def __init__(self, message: str, *, artifact: str = "") -> None:
        super().__init__(message)
        self.artifact = artifact
