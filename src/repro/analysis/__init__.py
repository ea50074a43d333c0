"""The paper's core contribution: the ME cost-benefit methodology.

:mod:`repro.analysis.costbenefit` composes the measured workload
profiles, the device models and the extrapolation scenarios into the
per-machine assessment the paper's conclusion draws ("an overall science
throughput improvement of ~1.1x ... might justify the investment if all
other architectural options have been exhausted").
:mod:`repro.analysis.silicon` formalises the Sec. V-A1 dark-silicon
argument: reclaiming the Tensor Cores' area buys almost nothing because
the FPUs already saturate the TDP.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ScalingPoint": "repro.analysis.scaling",
    "hpl_strong_scaling": "repro.analysis.scaling",
    "SweepGrid": "repro.analysis.arrays",
    "SweepResult": "repro.analysis.arrays",
    "amdahl_grid": "repro.analysis.arrays",
    "consumed_fraction_grid": "repro.analysis.arrays",
    "CostBenefitReport": "repro.analysis.costbenefit",
    "assess_scenario": "repro.analysis.costbenefit",
    "assess_machine": "repro.analysis.costbenefit",
    "assess_grid": "repro.analysis.costbenefit",
    "me_speedup_estimate": "repro.analysis.costbenefit",
    "DarkSiliconReport": "repro.analysis.silicon",
    "dark_silicon_analysis": "repro.analysis.silicon",
    "CoExecutionReport": "repro.analysis.silicon",
    "co_execution_analysis": "repro.analysis.silicon",
    "TiledSpGemmResult": "repro.analysis.sparse",
    "tiled_spgemm": "repro.analysis.sparse",
    "spgemm_time_model": "repro.analysis.sparse",
    "crossover_density": "repro.analysis.sparse",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
