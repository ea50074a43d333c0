"""repro.serve — the async what-if query service.

The paper's contribution is a cost-benefit *methodology*: given a
machine's workload mix and an ME speedup, how many node-hours does the
engine save?  That is an interactive, parameterised question, and this
package serves it (and the other analysis layers: roofline pricing,
compute density, Ozaki emulation cost) as typed queries through an
asyncio engine with the core serving mechanics — request coalescing, a
bounded LRU result cache over the substrate cache, micro-batching of
sweep queries, bounded-queue backpressure with load shedding, per-query
deadlines, and a metrics snapshot — plus a stdlib HTTP front end
(``repro-serve``).

Queries may carry a scenario overlay (inline spec, spec dict, or the
name of an engine-registered scenario): the answer is then evaluated
under :func:`repro.scenario.scenario_context`, and the scenario's
fingerprint keys the result cache and batch groups so what-ifs never
share entries with the baseline.

A resilience layer (:mod:`repro.resilience`) rides underneath: handler
evaluations are retried on deterministic backoff, per-kind and
per-substrate circuit breakers shed calls to failing dependencies, and
a stale-while-revalidate store answers in degraded mode (the response
envelope carries ``"degraded": true``) instead of surfacing a 500 when
fresh computation is impossible.  ``/healthz`` and ``/readyz`` expose
liveness and breaker-aware readiness over HTTP.

>>> from repro.serve import ServeClient
>>> with ServeClient() as client:
...     r = client.query("node_hours", {"scenario": "anl", "speedup": 4.0})
...     print(f"{r.value['reduction']:.1%}")
11.2%
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "QueryEngine": "repro.serve.engine",
    "QueryResponse": "repro.serve.engine",
    "ServeClient": "repro.serve.client",
    "HttpServeClient": "repro.serve.client",
    "Metrics": "repro.serve.metrics",
    "Query": "repro.serve.queries",
    "QueryKind": "repro.serve.queries",
    "QueryRegistry": "repro.serve.queries",
    "canonical_hash": "repro.serve.queries",
    "canonical_params": "repro.serve.queries",
    "default_registry": "repro.serve.handlers",
    "DEFAULT_REGISTRY": "repro.serve.handlers",
    "SCENARIOS": "repro.serve.handlers",
    "ServeError": "repro.errors",
    "QueryValidationError": "repro.errors",
    "ServiceOverloaded": "repro.errors",
    "QueryTimeout": "repro.errors",
    "CircuitOpen": "repro.errors",
    "SERVE_RETRY_POLICY": "repro.serve.engine",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
