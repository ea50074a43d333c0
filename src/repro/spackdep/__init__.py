"""Spack dependency-analysis substrate (Table III).

The paper walks Spack 0.15.1's package index: 14 packages *provide*
dense linear algebra (BLAS "distance 0"), and successive dependency
shells measure how much of the ecosystem could even reach a matrix
engine through a library.  We rebuild that experiment on a synthetic,
seeded package index shaped like Spack's (4,371 packages, the real 14
BLAS provider names, py-*/r-* sub-package skew) and run the *real*
analysis: multi-source BFS over the reversed dependency DAG, with and
without merging language sub-packages into their parents.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Package": "repro.spackdep.graph",
    "DependencyGraph": "repro.spackdep.graph",
    "BLAS_PROVIDERS": "repro.spackdep.generator",
    "generate_spack_index": "repro.spackdep.generator",
    "DistanceTable": "repro.spackdep.analysis",
    "dependency_distances": "repro.spackdep.analysis",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
