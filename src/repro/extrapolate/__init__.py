"""Node-hour-reduction extrapolation (Fig. 4).

Amdahl-style projection of a supercomputer's consumed node-hours when a
matrix engine accelerates the GEMM and (Sca)LAPACK portions of each
science domain's representative application.  The per-application
accelerable fractions are *measured* by the Fig. 3 profiling machinery,
not tabulated.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DomainWorkload": "repro.extrapolate.model",
    "NodeHourModel": "repro.extrapolate.model",
    "amdahl_time_fraction": "repro.extrapolate.model",
    "k_computer_scenario": "repro.extrapolate.scenarios",
    "anl_scenario": "repro.extrapolate.scenarios",
    "future_scenario": "repro.extrapolate.scenarios",
    "fugaku_scenario": "repro.extrapolate.scenarios",
    "MACHINE_BUILDERS": "repro.extrapolate.scenarios",
    "machine_names": "repro.extrapolate.scenarios",
    "build_machine": "repro.extrapolate.scenarios",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
