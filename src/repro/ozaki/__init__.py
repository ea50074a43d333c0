"""The Ozaki scheme: high-precision GEMM from low-precision matrix engines.

Implements the error-free-transformation GEMM emulation of Ozaki et al.
(Numer. Algor. 2012) as applied to Tensor Cores by Mukunoki et al.
(ISC 2020) — the method Sec. IV-B of the paper describes:

1. each input matrix is split element-wise into a sum of *slices* whose
   per-row (A) / per-column (B) scaled values are small integers;
2. every pairwise slice product is computed **exactly** on a hybrid
   matrix engine (fp16 multiply, fp32 accumulate), because the slice
   width is chosen so no rounding can occur;
3. the final result is recovered by a deterministic (optionally
   compensated) fp64 summation of the rescaled pair products.

The scheme is bit-reproducible (every intermediate is exact; the final
summation order is fixed) and its cost — the number of slice products —
grows with the exponent *range* of the input, which is exactly the
behaviour Table VIII measures (1e+8 / 1e+16 / 1e+32 input ranges).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SplitMatrix": "repro.ozaki.split",
    "split_matrix": "repro.ozaki.split",
    "OzakiPlan": "repro.ozaki.gemm",
    "OzakiResult": "repro.ozaki.gemm",
    "ozaki_gemm": "repro.ozaki.gemm",
    "plan_products": "repro.ozaki.gemm",
    "required_products": "repro.ozaki.gemm",
    "compensated_sum": "repro.ozaki.summation",
    "pairwise_fixed_sum": "repro.ozaki.summation",
    "OzakiPerfModel": "repro.ozaki.perf",
    "emulated_gemm_performance": "repro.ozaki.perf",
    "ozaki_dot": "repro.ozaki.blas_ext",
    "ozaki_gemv": "repro.ozaki.blas_ext",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
