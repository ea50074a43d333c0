"""Ozaki-scheme GEMM: emulate wide-precision GEMM on a narrow engine.

``ozaki_gemm(a, b)`` computes ``a @ b`` for float64 operands using only
(emulated) fp16-multiply/fp32-accumulate matrix-engine products plus
fp64 split/rescale/summation — Sec. IV-B's SGEMM-TC / DGEMM-TC.

Accuracy modes mirror Mukunoki et al. (ISC 2020):

* ``"full"``   — all ``s_A * s_B`` pair products: the result is the
  compensated fp64 rounding of the *exact* product ("the most accurate
  result");
* ``"dgemm"``  — binary64-equivalent accuracy with fewer products;
* ``"sgemm"``  — binary32-equivalent accuracy with fewer still.

The reduced modes drop a slice pair (i, j) only when a rigorous bound on
its contribution, ``k * 2^(2 beta) * outer(g_A_i, g_B_j)``, falls below
the target unit roundoff times an ``|A| @ |B|`` magnitude estimate —
element-wise, so the result honours the standard GEMM forward-error
bound.  Because the row/column scale products overestimate the true
element magnitudes by the exponent *misalignment* of the data, inputs
spanning a wider magnitude range keep more pairs: this is precisely the
input-range-dependent cost Table VIII measures.

Every kept pair product is exact on the engine and the final summation
order is fixed, so results are bit-reproducible for a fixed mode.

The work is split into a plan and its execution: :func:`plan_products`
splits both operands and selects the pairs — everything that sets the
cost — and :func:`ozaki_gemm` runs that plan's products, rescales and
sums them.  The performance model prices a GEMM from the plan alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OzakiError
from repro.precision.formats import FP16, FP32
from repro.precision.megemm import MatrixEngineGemm
from repro.ozaki.split import SplitMatrix, split_matrix
from repro.ozaki.summation import compensated_sum, pairwise_fixed_sum

__all__ = [
    "OzakiPlan",
    "OzakiResult",
    "ozaki_gemm",
    "plan_products",
    "required_products",
]

_DEFAULT_ENGINE = MatrixEngineGemm(FP16, FP32)

_TARGET_BITS = {"sgemm": 24, "dgemm": 53, "full": None}

#: An exponent no pair reaches (or every pair reaches, negated).
_NEVER = 1 << 40


def required_products(
    s_a: int,
    s_b: int,
    beta: int,
    accuracy: str,
    *,
    scales_a: tuple[np.ndarray, ...] | None = None,
    scales_b: tuple[np.ndarray, ...] | None = None,
    magnitude: np.ndarray | None = None,
    k: int = 1,
) -> list[tuple[int, int]]:
    """The (i, j) slice pairs a given accuracy mode keeps (0-based).

    ``"full"`` returns the complete grid.  The reduced modes require the
    split scale vectors plus the ``|A| @ |B|`` magnitude estimate and
    keep a pair iff its contribution bound exceeds the target roundoff
    for at least one result element.
    """
    if accuracy not in _TARGET_BITS:
        raise OzakiError(
            f"accuracy must be one of {sorted(_TARGET_BITS)}, got {accuracy!r}"
        )
    if accuracy == "full":
        pairs = [(i, j) for i in range(s_a) for j in range(s_b)]
        pairs.sort(key=lambda ij: (ij[0] + ij[1], ij[0]))
        return pairs
    if scales_a is None or scales_b is None or magnitude is None:
        raise OzakiError(
            "reduced-accuracy modes need scale vectors and a magnitude estimate"
        )
    target_bits = _TARGET_BITS[accuracy]
    # Element-wise dropping threshold: u_target * |A||B| (floored to keep
    # exact-zero magnitudes from keeping every pair alive).  The floor
    # comes from the finite magnitudes: an element whose bound overflowed
    # must not raise every other element's threshold to inf.
    finite = magnitude[np.isfinite(magnitude)]
    mag_floor = float(finite.max()) * 2.0**-200 if finite.size else 0.0
    thresh = (2.0**-target_bits) * np.maximum(magnitude, mag_floor)
    # Every scale is a power of two, so the bound on element (r, q) of
    # pair (i, j) is factor * 2^(ea[i,r] + eb[j,q]).  With factor =
    # mf * 2^ef and thresh = mt * 2^et (mantissas in [0.5, 1)), the test
    # bound > thresh is exactly ea + eb >= et - ef + [mf <= mt]: integer
    # arithmetic, no products formed.
    mf, ef = np.frexp(float(k) * 4.0**beta)
    mt, et = np.frexp(thresh)
    need = et.astype(np.int64) - int(ef) + (mf <= mt)
    # A zero threshold is beaten by every (positive) bound, an infinite
    # one by none.
    need[thresh == 0.0] = -_NEVER
    need[np.isinf(thresh)] = _NEVER
    ea = np.frexp(np.stack(scales_a[:s_a]))[1].astype(np.int64) - 1  # (s_a, m)
    eb = np.frexp(np.stack(scales_b[:s_b]))[1].astype(np.int64) - 1  # (s_b, n)
    # Keep (i, j) iff some (r, q) has ea[i,r] + eb[j,q] >= need[r,q]: two
    # max-plus reductions, first over r (one m x n pass per slice of A),
    # then over q.
    u = np.stack([(ea_i[:, None] - need).max(axis=0) for ea_i in ea])
    keep = (u[:, None, :] + eb[None, :, :]).max(axis=2) >= 0
    pairs = list(zip(*(idx.tolist() for idx in np.nonzero(keep))))
    pairs.sort(key=lambda ij: (ij[0] + ij[1], ij[0]))
    return pairs


def _magnitude_lower_bound(
    a: np.ndarray, b: np.ndarray, *, chunk: int = 64
) -> np.ndarray:
    """Max-plus lower bound on ``|A| @ |B|``: ``max_l |A_rl| |B_lq|``.

    Sandwiched within a factor ``k`` of the true magnitude
    (``M <= |A||B| <= k M``), so thresholding against ``u * M`` keeps
    the forward-error bound while staying overflow-free at any input
    range (no summation is performed).  One O(mnk) streaming pass —
    priced by the perf model as a single reduced-precision GEMM, which
    is what keeps the emulation profitable on fp64-starved GPUs (the
    Titan RTX observation in Sec. IV-B).
    """
    a_abs = np.abs(a)
    b_abs = np.abs(b)
    m, _ = a_abs.shape
    n = b_abs.shape[1]
    out = np.empty((m, n))
    for j0 in range(0, n, chunk):
        blk = b_abs[:, j0 : j0 + chunk]  # (k, c)
        out[:, j0 : j0 + chunk] = np.max(
            a_abs[:, :, None] * blk[None, :, :], axis=1
        )
    return out


@dataclass(frozen=True)
class OzakiPlan:
    """The splits and kept slice pairs of one emulated GEMM — everything
    that sets its cost, before any engine product runs."""

    split_a: SplitMatrix
    split_b: SplitMatrix
    pairs: tuple[tuple[int, int], ...]
    beta: int
    accuracy: str

    @property
    def num_products(self) -> int:
        """Matrix-engine GEMMs the plan consumes — the cost driver of
        Table VIII."""
        return len(self.pairs)


@dataclass(frozen=True)
class OzakiResult:
    """Result and cost accounting of one emulated GEMM."""

    c: np.ndarray
    split_a: SplitMatrix
    split_b: SplitMatrix
    pairs: tuple[tuple[int, int], ...]
    beta: int
    accuracy: str

    @property
    def num_products(self) -> int:
        """Matrix-engine GEMMs consumed — the cost driver of Table VIII."""
        return len(self.pairs)


def plan_products(
    a: np.ndarray,
    b: np.ndarray,
    *,
    engine: MatrixEngineGemm = _DEFAULT_ENGINE,
    accuracy: str = "dgemm",
    max_slices: int = 64,
    beta: int | None = None,
) -> OzakiPlan:
    """Split both operands and select the slice pairs ``accuracy`` keeps.

    Parameters are those of :func:`ozaki_gemm`.  No engine product runs:
    this is what prices an emulated GEMM (see :mod:`repro.ozaki.perf`).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise OzakiError(f"non-conformable operands: {a.shape} @ {b.shape}")
    k = a.shape[1]
    beta_max = engine.exact_slice_bits(k)
    if beta is None:
        beta = beta_max
    elif beta > beta_max:
        raise OzakiError(
            f"beta={beta} exceeds the exact width {beta_max} for k={k}"
        )
    if beta < 1:
        raise OzakiError(
            f"engine accumulator too narrow for k={k}: no exact slice width"
        )
    sa = split_matrix(a, beta, axis=0, max_slices=max_slices)
    sb = split_matrix(b, beta, axis=1, max_slices=max_slices)
    magnitude = None
    if accuracy != "full":
        magnitude = _magnitude_lower_bound(a, b)
    pairs = required_products(
        sa.num_slices,
        sb.num_slices,
        beta,
        accuracy,
        scales_a=sa.scales,
        scales_b=sb.scales,
        magnitude=magnitude,
        k=k,
    )
    return OzakiPlan(
        split_a=sa, split_b=sb, pairs=tuple(pairs), beta=beta, accuracy=accuracy
    )


def ozaki_gemm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    engine: MatrixEngineGemm = _DEFAULT_ENGINE,
    accuracy: str = "dgemm",
    max_slices: int = 64,
    compensated: bool = True,
    beta: int | None = None,
) -> OzakiResult:
    """Emulate a high-precision GEMM with low-precision engine products.

    Parameters
    ----------
    a, b:
        Finite float64 operands, shapes (m, k) and (k, n).
    engine:
        The hybrid matrix engine slice products run on (default:
        V100-style fp16 x fp16 + fp32).
    accuracy:
        ``"full"``, ``"dgemm"`` or ``"sgemm"`` (see module docstring).
    max_slices:
        Cap on slices per operand; wide-exponent-range inputs need more.
    compensated:
        Use Neumaier summation for the final reduction (the "accurate"
        variant); plain fixed-order fp64 otherwise.
    beta:
        Override the slice significand width — used by the performance
        model to study a large-``k`` configuration on small sample
        matrices.  Must not exceed the engine's exact width for this
        ``k``.
    """
    plan = plan_products(
        a, b, engine=engine, accuracy=accuracy, max_slices=max_slices, beta=beta
    )
    sa, sb = plan.split_a, plan.split_b
    terms: list[np.ndarray] = []
    for i, j in plan.pairs:
        # Exact engine product of integer-valued scaled slices …
        p = engine(sa.scaled[i], sb.scaled[j], pre_rounded=True)
        # … rescaled by the (power-of-two, hence exact) row/col factors.
        terms.append(p * sa.scales[i][:, None] * sb.scales[j][None, :])
    if not terms:
        c = np.zeros((sa.scaled[0].shape[0], sb.scaled[0].shape[1]))
    elif compensated:
        c = compensated_sum(terms)
    else:
        c = pairwise_fixed_sum(terms)
    return OzakiResult(
        c=c,
        split_a=sa,
        split_b=sb,
        pairs=plan.pairs,
        beta=plan.beta,
        accuracy=plan.accuracy,
    )
