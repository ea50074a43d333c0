"""Deterministic fault injection and recovery primitives.

Two halves, mirroring :mod:`repro.scenario`'s spec/ambient split:

* **Fault plans** (:mod:`repro.resilience.faultplan`) — a frozen,
  JSON-loadable :class:`FaultPlan` with a canonical fingerprint,
  installed ambiently via :func:`fault_context` and consulted by
  instrumented call sites through :func:`fault_point`.  No plan
  installed → a single contextvar read, effectively free.

* **Recovery** (:mod:`~repro.resilience.retry`,
  :mod:`~repro.resilience.breaker`) — seeded-deterministic exponential
  backoff (:func:`retry_call`) and per-dependency circuit breakers
  (:class:`CircuitBreaker`, :class:`BreakerRegistry`), wired into the
  pipeline's substrate warming / artefact generation and the serve
  engine's handler execution.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FaultRule": "repro.resilience.faultplan",
    "FaultPlan": "repro.resilience.faultplan",
    "FaultInjector": "repro.resilience.faultplan",
    "EMPTY_FAULT_PLAN": "repro.resilience.faultplan",
    "fault_plan_from_dict": "repro.resilience.faultplan",
    "fault_plan_to_dict": "repro.resilience.faultplan",
    "fault_plan_fingerprint": "repro.resilience.faultplan",
    "load_fault_plan": "repro.resilience.faultplan",
    "fault_context": "repro.resilience.faultplan",
    "active_injector": "repro.resilience.faultplan",
    "fault_point": "repro.resilience.faultplan",
    "RetryPolicy": "repro.resilience.retry",
    "DEFAULT_RETRY_POLICY": "repro.resilience.retry",
    "retry_call": "repro.resilience.retry",
    "CircuitBreaker": "repro.resilience.breaker",
    "BreakerRegistry": "repro.resilience.breaker",
    "CancellationToken": "repro.resilience.cancel",
    "cancel_context": "repro.resilience.cancel",
    "active_token": "repro.resilience.cancel",
    "cancel_point": "repro.resilience.cancel",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
