"""Performance/power model of the emulated GEMM (Table VIII).

The cost of the Ozaki scheme on a device is dominated by the slice
products on the matrix engine; split, rescale and summation are
bandwidth-bound fp64 passes.  This module prices one emulated GEMM on a
simulated device and reports the Table VIII quantities: effective
Tflop/s (``2 n^3 / walltime``), average Watt, and Gflop/J.

Slice and product counts come from running the real splitter and the
real pair selection (:func:`repro.ozaki.gemm.plan_products`, the plan
half of :func:`repro.ozaki.gemm.ozaki_gemm`; no product is formed) on a
small matrix sampled with the target input distribution (log-uniform
magnitudes across the stated range), using the slice width ``beta`` that
the full-size ``k`` dictates — the counts depend on the distribution,
not the matrix size, so a 96x96 sample prices an 8192^3 emulation
honestly.  The cost grows with the input's exponent *range*, the effect
Table VIII's 1e+8/1e+16/1e+32 rows measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from repro.errors import OzakiError
from repro.harness.cache import memoize_substrate
from repro.hardware.registry import get_device
from repro.hardware.specs import DeviceSpec
from repro.precision.formats import FP16, FP32
from repro.precision.megemm import MatrixEngineGemm
from repro.precision.rounding import quantize
from repro.ozaki.gemm import plan_products
from repro.sim.engine import SimulatedDevice
from repro.sim.kernels import KernelKind, KernelLaunch
from repro.units import GIGA, TERA

__all__ = ["OzakiPerfModel", "emulated_gemm_performance", "EmulatedGemmReport"]

_TARGET_MANTISSA = {"sgemm": 24, "dgemm": 53}


def _range_bits(input_range: float) -> float:
    """Exponent spread (bits) of inputs drawn across ``input_range`` decades
    of magnitude, e.g. 1e+8 -> ~26.6 bits."""
    if input_range < 1.0:
        raise OzakiError("input_range must be >= 1 (a magnitude ratio)")
    return math.log2(input_range)


def sample_input(
    shape: tuple[int, int], input_range: float, rng: np.random.Generator
) -> np.ndarray:
    """Matrix with normal mantissas and magnitudes log-uniform over
    ``[1, input_range]`` — the Table VIII input model."""
    mant = rng.normal(size=shape)
    expo = rng.uniform(0.0, math.log(max(input_range, 1.0)), size=shape)
    return mant * np.exp(expo)


@dataclass(frozen=True)
class EmulatedGemmReport:
    """One Table VIII row."""

    implementation: str
    condition: str
    n: int
    num_slices: int
    num_products: int
    walltime_s: float
    tflops: float
    watts: float
    gflops_per_joule: float


class OzakiPerfModel:
    """Price emulated GEMMs on a device's matrix engine.

    Parameters
    ----------
    device:
        Device spec or registry name (default the paper's V100).
    engine:
        Numeric contract of the matrix engine (fp16 x fp16 + fp32).
    """

    #: Ratio of the production implementation's kept pair count to our
    #: element-wise global criterion.  cuozblas selects pairs block-wise
    #: and drops more of them; 0.55 calibrates our counts to the product
    #: counts implied by Mukunoki et al.'s measured V100 throughputs.
    PAIR_EFFICIENCY = 0.55

    def __init__(
        self,
        device: DeviceSpec | str = "v100",
        *,
        engine: MatrixEngineGemm | None = None,
        pair_efficiency: float | None = None,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.engine = engine or MatrixEngineGemm(FP16, FP32)
        self.pair_efficiency = (
            self.PAIR_EFFICIENCY if pair_efficiency is None else pair_efficiency
        )
        me = self.device.matrix_engine
        if me is None:
            raise OzakiError(
                f"device {self.device.name!r} has no matrix engine to emulate on"
            )
        self._me_unit = me.name

    # -- slice/product accounting via the real algorithm --------------------

    def sample_counts(
        self,
        k: int,
        target: str,
        input_range: float,
        *,
        sample_size: int = 96,
        seed: int = 20210517,
    ) -> tuple[int, int]:
        """(slices, products) measured by running the real splitter and
        pair selection on a distribution-matched sample, with the slice
        width ``beta`` the full-size ``k`` dictates.  Pricing needs the
        counts only, so no engine product or summation runs.

        For the SGEMM-TC rows the operands are binary32 data, so the
        sample is quantized to fp32 before splitting (fewer mantissa
        bits => fewer slices).
        """
        if target not in _TARGET_MANTISSA:
            raise OzakiError(f"target must be sgemm or dgemm, got {target!r}")
        beta = self.engine.exact_slice_bits(k)
        if beta < 1:
            raise OzakiError(f"no exact slice width for k={k}")
        slices: list[int] = []
        products: list[int] = []
        for trial in range(3):  # average out sampling noise
            rng = default_rng(seed + trial)
            a = sample_input((sample_size, sample_size), input_range, rng)
            b = sample_input((sample_size, sample_size), input_range, rng)
            if target == "sgemm":
                a = quantize(a, FP32)
                b = quantize(b, FP32)
            plan = plan_products(
                a, b, engine=self.engine, accuracy=target, beta=beta
            )
            slices.append(max(plan.split_a.num_slices, plan.split_b.num_slices))
            products.append(plan.num_products)
        s = round(sum(slices) / len(slices))
        mean_products = sum(products) / len(products)
        return s, max(1, round(mean_products * self.pair_efficiency))

    # -- simulation --------------------------------------------------------

    def emulate(
        self,
        n: int,
        *,
        target: str = "dgemm",
        input_range: float = 1e8,
    ) -> EmulatedGemmReport:
        """Simulate one ``n x n x n`` emulated GEMM and report Table VIII
        quantities."""
        k = n
        s, n_products = self.sample_counts(k, target, input_range)
        sim = SimulatedDevice(self.device)
        e64 = 8

        # Split: one read-modify-write fp64 pass over each operand per
        # slice (extract + residual update), plus the fp16 store.
        for operand in ("a", "b"):
            for i in range(s):
                sim.launch(
                    KernelLaunch(
                        KernelKind.ELEMENTWISE,
                        f"ozaki_split_{operand}",
                        flops=4.0 * n * n,
                        nbytes=float((3 * e64 + 2) * n * n),
                        fmt="fp64",
                    )
                )
        # Magnitude estimate guiding the pair selection: one product of
        # the leading (fp16-representable) slices on the matrix engine.
        sim.launch(
            KernelLaunch.gemm(
                n, n, k, fmt="fp16", unit=self._me_unit, name="ozaki_magnitude"
            )
        )
        # Slice products on the matrix engine.
        for p in range(n_products):
            sim.launch(
                KernelLaunch.gemm(
                    n, n, k, fmt="fp16", unit=self._me_unit,
                    name="cublasGemmEx", tag="ozaki_product",
                )
            )
            # Rescale + accumulate the pair product into the fp64 result.
            sim.launch(
                KernelLaunch(
                    KernelKind.ELEMENTWISE,
                    "ozaki_accumulate",
                    flops=3.0 * n * n,
                    nbytes=float((2 * e64 + 4) * n * n),
                    fmt="fp64",
                )
            )
        walltime = sim.elapsed
        energy = sim.energy
        eff_flops = 2.0 * float(n) ** 3
        return EmulatedGemmReport(
            implementation=f"{target.upper()}-TC",
            condition=f"input range: {input_range:.0e}",
            n=n,
            num_slices=s,
            num_products=n_products,
            walltime_s=walltime,
            tflops=eff_flops / walltime / TERA,
            watts=energy / walltime,
            gflops_per_joule=eff_flops / energy / GIGA,
        )

    def native(self, n: int, *, fmt: str, name: str) -> EmulatedGemmReport:
        """Price a native cuBLAS GEMM for the comparison rows."""
        sim = SimulatedDevice(self.device)
        unit = self._me_unit if fmt == "fp16" else None
        sim.launch(KernelLaunch.gemm(n, n, n, fmt=fmt, unit=unit, name=name))
        walltime = sim.elapsed
        energy = sim.energy
        eff = 2.0 * float(n) ** 3
        return EmulatedGemmReport(
            implementation=name,
            condition="FP16/FP32-mixed" if fmt == "fp16" else "—",
            n=n,
            num_slices=0,
            num_products=1,
            walltime_s=walltime,
            tflops=eff / walltime / TERA,
            watts=energy / walltime,
            gflops_per_joule=eff / energy / GIGA,
        )


@memoize_substrate("ozaki_splits")
def emulated_gemm_performance(
    n: int = 8192,
    device: DeviceSpec | str = "v100",
) -> tuple[EmulatedGemmReport, ...]:
    """Regenerate the full Table VIII row set for one device.

    Memoized as the ``ozaki_splits`` substrate: the six emulation rows
    each split and select pairs on three sampled operand pairs, so the
    reports are computed once per ``(n, device)`` and shared.
    """
    model = OzakiPerfModel(device)
    rows = [
        model.native(n, fmt="fp16", name="cublasGemmEx"),
        model.native(n, fmt="fp32", name="cublasSgemm"),
        model.native(n, fmt="fp64", name="cublasDgemm"),
    ]
    for target in ("sgemm", "dgemm"):
        for input_range in (1e8, 1e16, 1e32):
            rows.append(model.emulate(n, target=target, input_range=input_range))
    return tuple(rows)
