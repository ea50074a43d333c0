"""repro — reproduction of *Matrix Engines for High Performance
Computing: A Paragon of Performance or Grasping at Straws?* (Domke et
al., IPDPS 2021).

The public API re-exports the entry points a downstream user needs
(lazily: each name's module loads on first access):

* device models and the simulator (:mod:`repro.hardware`, :mod:`repro.sim`),
* the instrumented math library (:mod:`repro.blas`),
* workload profiling — the Fig. 3 machinery (:mod:`repro.workloads`),
* the DL mixed-precision study — Table IV / Fig. 2 (:mod:`repro.dl`),
* the Ozaki GEMM emulation — Table VIII (:mod:`repro.ozaki`),
* ecosystem analyses — Table III / Sec. III-A (:mod:`repro.spackdep`,
  :mod:`repro.joblog`),
* cost-benefit extrapolation — Fig. 4 (:mod:`repro.extrapolate`,
  :mod:`repro.analysis`),
* the artefact regeneration harness (:mod:`repro.harness`),
* the scenario overlay system — typed, fingerprinted what-ifs
  threaded through every layer above (:mod:`repro.scenario`),
* and the resilience layer — deterministic fault injection, retries,
  and circuit breakers (:mod:`repro.resilience`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ReproError": "repro.errors",
    "get_device": "repro.hardware.registry",
    "all_devices": "repro.hardware.registry",
    "KernelKind": "repro.sim.kernels",
    "KernelLaunch": "repro.sim.kernels",
    "SimulatedDevice": "repro.sim.engine",
    "execution_context": "repro.sim.context",
    "FP16": "repro.precision.formats",
    "BF16": "repro.precision.formats",
    "TF32": "repro.precision.formats",
    "FP32": "repro.precision.formats",
    "FP64": "repro.precision.formats",
    "quantize": "repro.precision.rounding",
    "me_gemm": "repro.precision.megemm",
    "get_workload": "repro.workloads.registry",
    "all_workloads": "repro.workloads.registry",
    "profile_workload": "repro.workloads.base",
    "build_model": "repro.dl.models",
    "train_step": "repro.dl.training",
    "profile_mixed_precision": "repro.dl.nvprof",
    "ozaki_gemm": "repro.ozaki.gemm",
    "k_computer_scenario": "repro.extrapolate.scenarios",
    "anl_scenario": "repro.extrapolate.scenarios",
    "future_scenario": "repro.extrapolate.scenarios",
    "assess_scenario": "repro.analysis.costbenefit",
    "assess_machine": "repro.analysis.costbenefit",
    "dark_silicon_analysis": "repro.analysis.silicon",
    "ScenarioSpec": "repro.scenario.spec",
    "scenario_context": "repro.scenario.context",
    "active_scenario": "repro.scenario.context",
    "scenario_from_dict": "repro.scenario.io",
    "load_scenario": "repro.scenario.io",
    "FaultPlan": "repro.resilience.faultplan",
    "FaultRule": "repro.resilience.faultplan",
    "fault_context": "repro.resilience.faultplan",
    "fault_point": "repro.resilience.faultplan",
    "load_fault_plan": "repro.resilience.faultplan",
    "RetryPolicy": "repro.resilience.retry",
    "retry_call": "repro.resilience.retry",
    "CircuitBreaker": "repro.resilience.breaker",
}

__version__ = "1.0.0"


def package_version() -> str:
    """The installed distribution's version, per package metadata.

    Source checkouts run with ``PYTHONPATH=src`` and no installed
    distribution; those fall back to the in-tree ``__version__``.
    """
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:
        return __version__


__all__ = [*_EXPORTS, "package_version", "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
