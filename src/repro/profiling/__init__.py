"""Score-P-like measurement infrastructure.

The paper's Fig. 3 methodology wraps every dense-linear-algebra entry
point of MKL with Score-P, adds compiler instrumentation for hand-written
GEMM loops, excludes initialization/post-processing phases, and then
classifies region runtime into four buckets: GEMM, other BLAS,
(Sca)LAPACK, and everything else.  This subpackage reproduces that
pipeline on simulated time: a :class:`~repro.profiling.scorep.Profiler`
attributes every kernel's duration to the innermost open region, the
classifier maps region names onto the paper's buckets, and the report
layer computes the utilization fractions Fig. 3 plots.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "RegionClass": "repro.profiling.regions",
    "RegionStats": "repro.profiling.regions",
    "Profiler": "repro.profiling.scorep",
    "classify_region": "repro.profiling.classify",
    "UtilizationReport": "repro.profiling.report",
    "RooflineScan": "repro.profiling.advisor",
    "scan_trace": "repro.profiling.advisor",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
