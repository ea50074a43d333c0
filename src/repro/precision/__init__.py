"""Software-defined floating-point formats and matrix-engine numerics.

This subpackage is the numerical foundation of the reproduction: it models
the reduced-precision formats that matrix engines operate on (IEEE-754
binary16, bfloat16, NVIDIA's TF32, binary32, binary64), provides exact
round-to-nearest-even quantization onto those formats, and implements the
semantics of a *hybrid* matrix engine — one that multiplies in a narrow
format and accumulates in a wider one (Sec. II-B of the paper).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FloatFormat": "repro.precision.formats",
    "FP16": "repro.precision.formats",
    "BF16": "repro.precision.formats",
    "TF32": "repro.precision.formats",
    "FP32": "repro.precision.formats",
    "FP64": "repro.precision.formats",
    "parse_format": "repro.precision.formats",
    "quantize": "repro.precision.rounding",
    "representable": "repro.precision.rounding",
    "ulp": "repro.precision.rounding",
    "MatrixEngineGemm": "repro.precision.megemm",
    "me_gemm": "repro.precision.megemm",
    "max_relative_error": "repro.precision.analysis",
    "max_ulp_error": "repro.precision.analysis",
    "relative_frobenius_error": "repro.precision.analysis",
    "RefinementResult": "repro.precision.refinement",
    "lu_iterative_refinement": "repro.precision.refinement",
    "MarkidisResult": "repro.precision.markidis",
    "markidis_gemm": "repro.precision.markidis",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
