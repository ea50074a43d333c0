"""DAG-aware, memoized, *fault-isolated* artefact pipeline.

The paper's evidence is 13 regenerable artefacts.  Most of them sit on
a small set of shared *substrates* — the seeded K-computer year, the
hardware-registry density sweep, the Ozaki split/summation runs, the
synthetic Spack index, the 77-workload profile sweep — that the
generator functions pull through :mod:`repro.harness.cache`.  This
module makes that structure explicit:

* every artefact declares which substrates it consumes
  (:data:`ARTIFACT_SUBSTRATES`);
* :func:`run_pipeline` warms the substrates once, then runs the
  artefact generators in selection order, all in the calling thread.
  On a multi-CPU host with ``jobs > 1`` and no fault plan armed, the
  cold substrate builders are first prefetched in up to ``jobs``
  forked worker processes; whatever they do not deliver is built
  in-process;
* each run produces a ``manifest`` recording per-substrate and
  per-artefact wall time, status and retry count, the governing RNG
  seed, the SHA-256 of the rendered text, and the cache hit/miss
  counters — written as ``manifest.json`` by
  :func:`repro.harness.export.export_all` so pipeline performance is
  observable across PRs.

Because every generator is seeded and pulls shared state only through
the cache, the results are identical whatever ``jobs`` is; the
determinism suite (``tests/test_pipeline.py``) locks that in.

Resilience: substrate builds and artefact generators run under seeded
retry (:func:`repro.resilience.retry_call`; a failed build invalidates
its cache entry first, so the retry recomputes from scratch), and a
failure that survives its retries no longer aborts the run — the
artefact (plus anything depending on a failed substrate) is recorded as
``failed``/``skipped`` in the manifest while every healthy artefact
completes.  ``repro-paper --resume DIR`` re-runs just the failures.
Fault injection for chaos testing rides in via
:func:`repro.resilience.fault_context` (or the explicit ``fault_plan``
argument).  An armed plan turns the prefetch off, so every site —
``substrate:<name>``, ``artifact:<name>`` and the deeper ``cache:*``
lookups — fires in one injector, and the manifest is the same for
every ``jobs``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.harness.cache import SUBSTRATE_CACHE
from repro.integrity.digest import bytes_digest
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    active_injector,
    fault_context,
    retry_call,
)
from repro.scenario import (
    ScenarioSpec,
    active_scenario,
    scenario_context,
    scenario_to_dict,
)

__all__ = [
    "SubstrateSpec",
    "SUBSTRATES",
    "ARTIFACT_SUBSTRATES",
    "PipelineResult",
    "PIPELINE_RETRY_POLICY",
    "run_pipeline",
    "artifact_names",
]

#: v2 added the ``scenario`` block (label + fingerprint of the overlay
#: the run was produced under; baseline runs record a null fingerprint).
#: v3 added resilience: top-level ``status`` ("ok"/"partial") and
#: ``fault_plan``, the full canonical scenario ``spec`` (so ``--resume``
#: can reconstruct the overlay), and per-substrate/per-artefact
#: ``status`` + ``retries`` (+ ``error`` for failures).
#: v4 added durability: per-artefact ``files`` became a
#: ``{filename: sha256}`` map over the exact bytes the durable store
#: flushed, and the top-level ``journal`` pointer names the write-ahead
#: ``journal.jsonl`` the export ran under — together what
#: ``repro-paper --verify`` audits and ``--resume`` recovers from.
MANIFEST_SCHEMA_VERSION = 4

#: Default retry budget for substrate builds and artefact generators:
#: three attempts with a short seeded backoff.  Deliberately snappy —
#: the builders are deterministic, so a retry only helps against
#: injected faults and genuinely transient environment errors.
PIPELINE_RETRY_POLICY = RetryPolicy(
    attempts=3, base_delay_s=0.01, multiplier=2.0, max_delay_s=0.1
)


@dataclass(frozen=True)
class SubstrateSpec:
    """One shared input: how to warm it, and the seed that governs it.

    ``builder`` returns the owning module's *memoized factory* (imported
    lazily to keep this module import-light); calling that factory with
    no arguments computes — or fetches — the substrate's default entry.
    """

    name: str
    builder: Callable[[], Callable[..., Any]]
    seed: int | None
    description: str


def _k_year_factory() -> Callable[..., Any]:
    from repro.joblog import generate_k_year

    return generate_k_year


def _hw_registry_factory() -> Callable[..., Any]:
    from repro.hardware.registry import table_i_survey

    return table_i_survey


def _spack_index_factory() -> Callable[..., Any]:
    from repro.spackdep import generate_spack_index

    return generate_spack_index


def _ozaki_splits_factory() -> Callable[..., Any]:
    from repro.ozaki import emulated_gemm_performance

    return emulated_gemm_performance


def _workload_profiles_factory() -> Callable[..., Any]:
    from repro.workloads import profile_all_workloads

    return profile_all_workloads


def _compute_substrate(
    substrate: str, scenario: ScenarioSpec
) -> tuple[Any, float]:
    """Build one substrate's default entry; runs in a worker process.

    The scenario is passed explicitly (contextvars do not survive the
    trip into a pool worker), so seed overrides and overlay catalogues
    apply in the child exactly as in the parent.  Returns the value
    plus the child-side wall time, so the manifest records each
    substrate's own compute cost rather than the parent's
    wait-for-result time.
    """
    t0 = time.perf_counter()
    with scenario_context(scenario):
        value = SUBSTRATES[substrate].builder()()
    return value, time.perf_counter() - t0


#: Every substrate the artefact set consumes, in warm order.  Warming
#: calls the owning modules' memoized factories with default arguments,
#: so warming and in-artefact use share one cache entry.
SUBSTRATES: dict[str, SubstrateSpec] = {
    s.name: s
    for s in (
        SubstrateSpec(
            "k_year", _k_year_factory, 20180401,
            "seeded 20k-job year of K-computer batch records",
        ),
        SubstrateSpec(
            "hw_registry", _hw_registry_factory, None,
            "Table I registry sweep with derived compute densities",
        ),
        SubstrateSpec(
            "spack_index", _spack_index_factory, 20200715,
            "synthetic Spack 0.15.1 package index",
        ),
        SubstrateSpec(
            "ozaki_splits", _ozaki_splits_factory, 20210517,
            "Ozaki split/summation runs pricing Table VIII",
        ),
        SubstrateSpec(
            "workload_profiles", _workload_profiles_factory, None,
            "profile sweep of the 77-workload catalogue on System 1",
        ),
    )
}

#: Substrate dependencies per artefact (the DAG's edges).  Artefacts
#: not listed here are self-contained device simulations.
ARTIFACT_SUBSTRATES: dict[str, tuple[str, ...]] = {
    "table1": ("hw_registry",),
    "table2": (),
    "table3": ("spack_index",),
    "table4": (),
    "table5": (),
    "table6": (),
    "table8": ("ozaki_splits",),
    "fig1": (),
    "fig2": (),
    "fig3": ("workload_profiles",),
    "fig4": ("workload_profiles",),
    "sec3a": ("k_year",),
    "scaling": (),
}


def _artifact_functions() -> dict[str, Callable[[], dict]]:
    # Imported lazily: runner imports this module for run_pipeline, so a
    # top-level import here would cycle.
    from repro.harness.runner import ARTIFACTS

    return ARTIFACTS


def artifact_names() -> tuple[str, ...]:
    """Every runnable artefact, in registry order."""
    return tuple(_artifact_functions())


def _effective_seed(substrate: str, scenario: ScenarioSpec) -> int | None:
    """A substrate's governing seed under ``scenario`` (override wins)."""
    override = scenario.substrate_seeds.get(substrate)
    return override if override is not None else SUBSTRATES[substrate].seed


def _artifact_seed(name: str, scenario: ScenarioSpec) -> int | None:
    """The governing RNG seed of an artefact: its first seeded substrate."""
    for substrate in ARTIFACT_SUBSTRATES.get(name, ()):
        seed = _effective_seed(substrate, scenario)
        if seed is not None:
            return seed
    return None


def text_sha256(result: dict) -> str | None:
    """SHA-256 of an artefact's rendered text block, if it has one."""
    text = result.get("text")
    if not isinstance(text, str):
        return None
    return bytes_digest(text.encode("utf-8"))


def _cpu_capacity() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _prefetch(
    cold: list[str], jobs: int, scenario: ScenarioSpec
) -> dict[str, tuple[Any, float]]:
    """Build cold substrates in forked worker processes.

    Worker *processes* beat the GIL for the CPU-bound builders.  Returns
    ``{substrate: (value, child_seconds)}`` for the builds that
    succeeded.  A failed build, or every build once fork is denied or a
    worker dies, is simply missing, and the caller builds it in-process.
    """
    built: dict[str, tuple[Any, float]] = {}
    ctx = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(cold)), mp_context=ctx
        ) as pool:
            futures = {
                s: pool.submit(_compute_substrate, s, scenario) for s in cold
            }
            for substrate, future in futures.items():
                try:
                    built[substrate] = future.result()
                except Exception:
                    continue
    except (OSError, BrokenProcessPool):
        pass
    return built


@dataclass
class PipelineResult:
    """Results dict (in selection order) plus the run manifest.

    ``results`` holds only the artefacts that completed; ``failures``
    maps each failed or skipped artefact to its error description (the
    manifest carries the same per-artefact detail).
    """

    results: dict[str, dict]
    manifest: dict[str, Any] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _resolve(names: list[str] | None) -> list[str]:
    known = _artifact_functions()
    selected = list(names) if names else list(known)
    unknown = [n for n in selected if n not in known]
    if unknown:
        raise ValueError(
            f"unknown artefact {unknown[0]!r}; known: {sorted(known)}"
        )
    return selected


def run_pipeline(
    names: list[str] | None = None,
    *,
    jobs: int = 1,
    scenario: ScenarioSpec | None = None,
    fault_plan: FaultPlan | FaultInjector | None = None,
    retry_policy: RetryPolicy = PIPELINE_RETRY_POLICY,
) -> PipelineResult:
    """Regenerate the selected artefacts (all by default).

    Substrates are warmed and artefacts generated in the calling
    thread, in order.  ``jobs`` bounds the forked worker processes that
    prefetch cold substrates on a multi-CPU host; ``jobs=1`` forks
    nothing.  ``scenario`` overlays the run (default: whatever
    :func:`repro.scenario.scenario_context` has installed, else the
    baseline); the manifest records its label, fingerprint and full
    canonical spec.  ``fault_plan`` installs a chaos experiment
    (default: whatever :func:`repro.resilience.fault_context` has
    installed, else nothing).  Raises :class:`ValueError` for unknown
    artefact names or a non-positive ``jobs``.

    Failures are isolated, not fatal: a substrate or artefact that
    still fails after ``retry_policy`` is recorded in the manifest
    (``status: "failed"``; its dependants ``"skipped"``) and in
    ``PipelineResult.failures``, while every healthy artefact completes
    and the manifest's top-level ``status`` flips to ``"partial"``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    spec = scenario if scenario is not None else active_scenario()
    if isinstance(fault_plan, FaultPlan):
        injector = None if fault_plan.is_empty else FaultInjector(fault_plan)
    elif fault_plan is not None:
        injector = fault_plan
    else:
        injector = active_injector()
    jitter_seed = injector.plan.seed if injector is not None else 0
    selected = _resolve(names)
    functions = _artifact_functions()
    t_start = time.perf_counter()

    needed = [
        s for s in SUBSTRATES
        if any(s in ARTIFACT_SUBSTRATES.get(n, ()) for n in selected)
    ]
    substrate_meta: dict[str, dict] = {}
    failed_substrates: dict[str, str] = {}

    def warm(substrate: str, prefetched: tuple[Any, float] | None) -> None:
        """Prime a prefetched substrate, or build it under retry; either
        way record its manifest entry."""
        meta = {
            "wall_time_s": 0.0,
            "seed": _effective_seed(substrate, spec),
            "cached": substrate in SUBSTRATE_CACHE,
        }
        if prefetched is not None:
            value, meta["wall_time_s"] = prefetched
            SUBSTRATES[substrate].builder().prime(value)
            meta.update(status="ok", retries=0)
            substrate_meta[substrate] = meta
            return
        t0 = time.perf_counter()

        def attempt() -> Any:
            if injector is not None:
                injector.fire(f"substrate:{substrate}")
            return SUBSTRATES[substrate].builder()()

        def on_retry(_attempt: int, _exc: BaseException) -> None:
            # Never trust a half-built value: recompute from scratch.
            SUBSTRATE_CACHE.invalidate(substrate)

        try:
            _, retries = retry_call(
                attempt,
                policy=retry_policy,
                seed=jitter_seed,
                site=f"substrate:{substrate}",
                on_retry=on_retry,
            )
        except Exception as exc:
            SUBSTRATE_CACHE.invalidate(substrate)
            failed_substrates[substrate] = _describe(exc)
            meta.update(
                status="failed",
                retries=retry_policy.attempts - 1,
                error=_describe(exc),
            )
        else:
            meta.update(status="ok", retries=retries)
        meta["wall_time_s"] = time.perf_counter() - t0
        substrate_meta[substrate] = meta

    timings: dict[str, float] = {}
    artifact_meta: dict[str, dict] = {}
    failures: dict[str, str] = {}

    def generate(name: str) -> dict | None:
        broken = [
            s for s in ARTIFACT_SUBSTRATES.get(name, ())
            if s in failed_substrates
        ]
        if broken:
            timings[name] = 0.0
            error = (
                f"substrate {broken[0]!r} unavailable: "
                f"{failed_substrates[broken[0]]}"
            )
            artifact_meta[name] = {
                "status": "skipped", "retries": 0, "error": error,
            }
            failures[name] = error
            return None
        t0 = time.perf_counter()

        def attempt() -> dict:
            if injector is not None:
                injector.fire(f"artifact:{name}")
            return functions[name]()

        try:
            result, retries = retry_call(
                attempt,
                policy=retry_policy,
                seed=jitter_seed,
                site=f"artifact:{name}",
            )
        except Exception as exc:
            timings[name] = time.perf_counter() - t0
            artifact_meta[name] = {
                "status": "failed",
                "retries": retry_policy.attempts - 1,
                "error": _describe(exc),
            }
            failures[name] = _describe(exc)
            return None
        timings[name] = time.perf_counter() - t0
        artifact_meta[name] = {"status": "ok", "retries": retries}
        return result

    with fault_context(injector), scenario_context(spec):
        # Phase 1: warm every substrate the selection needs, exactly once.
        cold = [s for s in needed if s not in SUBSTRATE_CACHE]
        prefetched: dict[str, tuple[Any, float]] = {}
        if (
            jobs > 1
            and _cpu_capacity() > 1
            and "fork" in multiprocessing.get_all_start_methods()
            and len(cold) > 1
            and injector is None
        ):
            prefetched = _prefetch(cold, jobs, spec)
        for substrate in needed:
            warm(substrate, prefetched.get(substrate))

        # Phase 2: the artefact generators, in selection order.
        raw = {name: generate(name) for name in selected}
    results = {name: r for name, r in raw.items() if r is not None}

    stats = SUBSTRATE_CACHE.stats()
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "generator": "repro-paper",
        "status": "ok" if not failures else "partial",
        "jobs": jobs,
        "scenario": {
            "label": spec.label(),
            "fingerprint": spec.cache_token,
            "spec": scenario_to_dict(spec),
        },
        "fault_plan": injector.snapshot() if injector is not None else None,
        "total_wall_time_s": time.perf_counter() - t_start,
        "cache": {
            "hits": stats.hits,
            "misses": stats.misses,
            "entries": stats.entries,
            "evictions": stats.evictions,
        },
        "substrates": substrate_meta,
        "artifacts": {
            name: {
                "wall_time_s": timings[name],
                "seed": _artifact_seed(name, spec),
                "substrates": list(ARTIFACT_SUBSTRATES.get(name, ())),
                "text_sha256": (
                    text_sha256(results[name]) if name in results else None
                ),
                **artifact_meta[name],
            }
            for name in selected
        },
    }
    return PipelineResult(results=results, manifest=manifest, failures=failures)
