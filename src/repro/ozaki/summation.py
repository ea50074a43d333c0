"""Deterministic final summation for the Ozaki scheme.

Every slice product is exact, so the *only* rounding in the whole scheme
happens when the rescaled pair products are summed into the fp64 result.
Two strategies are provided:

* :func:`pairwise_fixed_sum` — plain fp64 accumulation in a fixed
  (i+j, i) order: fast, and already bit-reproducible because the order
  never depends on thread counts or blocking;
* :func:`compensated_sum` — Knuth two-sum compensation (vectorized over
  matrix elements), which makes the final sum faithful even when pair
  products differ by many orders of magnitude — this is what the paper
  means by the scheme's "accurate and reproducible versions".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["pairwise_fixed_sum", "compensated_sum"]


def pairwise_fixed_sum(terms: Sequence[np.ndarray]) -> np.ndarray:
    """Sum matrices in the given (fixed) order with plain fp64 adds.

    An element whose partial sum has overflowed keeps it: the later,
    smaller terms cannot bring it back, and adding an opposite-signed
    infinity would turn it into nan.
    """
    if not terms:
        raise ValueError("nothing to sum")
    out = terms[0].astype(np.float64, copy=True)
    for t in terms[1:]:
        np.add(out, t, out=out, where=np.isfinite(out))
    return out


def compensated_sum(terms: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise Kahan-Babuska (Neumaier) compensated summation.

    Vectorized: the running compensation is carried per matrix element.
    The result equals the fp64 rounding of the exact sum for all
    practically occurring magnitude spreads, and is independent of any
    internal blocking — the "bit-wise reproducibility" feature called out
    in Sec. IV-B.  An overflowed (infinite) partial sum is kept as it is,
    as in :func:`pairwise_fixed_sum`, and not compensated: it has no
    low-order part, and the update would compute ``inf - inf``.
    """
    if not terms:
        raise ValueError("nothing to sum")
    s = terms[0].astype(np.float64, copy=True)
    c = np.zeros_like(s)
    with np.errstate(invalid="ignore"):  # inf - inf, masked out below
        for t in terms[1:]:
            t = np.asarray(t, dtype=np.float64)
            new = np.where(np.isinf(s), s, s + t)
            big = np.abs(s) >= np.abs(t)
            # Neumaier update: the rounded-away low-order part of each add.
            low = np.where(big, (s - new) + t, (t - new) + s)
            c += np.where(np.isinf(new), 0.0, low)
            s = new
    return s + c
