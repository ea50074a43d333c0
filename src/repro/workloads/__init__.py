"""The 77 HPC (proxy-)applications of Table V.

Each workload is a scaled-down mini-application that *executes* the
algorithmic pattern of the benchmark it stands for — blocked LU for HPL,
CG sweeps for HPCG/miniFE, spectral-element tensor contractions for
Nekbone, SU(3) link products for milc — emitting kernels through the
instrumented BLAS and profiler so that the Fig. 3 utilization fractions
*emerge from the algorithm structure and the device model* rather than
being tabulated.  GEMM-free benchmarks are expressed declaratively as
kernel mixes matching their dominant compute pattern.

Problem sizes and a small number of traffic constants are calibrated so
the simulated fractions land near the paper's measurements; every such
constant is marked CALIBRATED in its docstring and recorded in
EXPERIMENTS.md.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Workload": "repro.workloads.base",
    "WorkloadMeta": "repro.workloads.base",
    "KernelMixWorkload": "repro.workloads.base",
    "PhaseSpec": "repro.workloads.base",
    "profile_workload": "repro.workloads.base",
    "profile_all_workloads": "repro.workloads.base",
    "get_workload": "repro.workloads.registry",
    "all_workloads": "repro.workloads.registry",
    "workload_names": "repro.workloads.registry",
    "workloads_by_suite": "repro.workloads.registry",
    "suite_names": "repro.workloads.registry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
