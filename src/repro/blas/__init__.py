"""Instrumented BLAS / LAPACK / ScaLAPACK substrate.

The paper's profiling methodology hinges on *wrapping* the math library:
a Score-P wrapper around every MKL dense-linear-algebra entry point
attributes runtime to GEMM / other BLAS / (Sca)LAPACK buckets.  This
subpackage is the math library being wrapped: a NumPy-backed BLAS whose
every call

1. opens a profiler region named like the classic routine (``dgemm``,
   ``daxpy``, ``pdgetrf``) so the classifier buckets it,
2. emits a priced :class:`~repro.sim.kernels.KernelLaunch` on the active
   simulated device, and
3. (optionally) performs the real arithmetic so workloads produce
   checkable numerical results.

Routine naming follows BLAS conventions: a precision prefix (``d``, ``s``,
``h``) is derived from the compute format.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "execute_kernel": "repro.blas.dispatch",
    "routine_name": "repro.blas.dispatch",
    "zero_stub": "repro.blas.stub",
    "axpy": "repro.blas.level1",
    "asum": "repro.blas.level1",
    "copy": "repro.blas.level1",
    "dot": "repro.blas.level1",
    "nrm2": "repro.blas.level1",
    "scal": "repro.blas.level1",
    "gemv": "repro.blas.level2",
    "ger": "repro.blas.level2",
    "trsv": "repro.blas.level2",
    "gemm": "repro.blas.level3",
    "syrk": "repro.blas.level3",
    "trsm": "repro.blas.level3",
    "getrf": "repro.blas.lapack",
    "getrs": "repro.blas.lapack",
    "gesv": "repro.blas.lapack",
    "potrf": "repro.blas.lapack",
    "geqrf": "repro.blas.lapack",
    "ProcessGrid": "repro.blas.scalapack",
    "pdgemm": "repro.blas.scalapack",
    "pdgetrf": "repro.blas.scalapack",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
