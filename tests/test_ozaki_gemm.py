"""Tests for the Ozaki-scheme GEMM emulation and its perf model."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ozaki.gemm as gemm_module
from repro.errors import OzakiError
from repro.harness.cache import SUBSTRATE_CACHE
from repro.harness.tables import table_viii
from repro.ozaki import (
    OzakiPerfModel,
    emulated_gemm_performance,
    ozaki_gemm,
    plan_products,
    required_products,
    split_matrix,
)
from repro.ozaki.gemm import _magnitude_lower_bound
from repro.ozaki.summation import compensated_sum, pairwise_fixed_sum
from repro.precision import FP16, FP32, MatrixEngineGemm
from repro.precision.rounding import quantize

GOLDEN_TABLE8 = Path(__file__).resolve().parent.parent / "artifacts" / "table8.json"


def wide(rng, shape, decades):
    mant = rng.normal(size=shape)
    expo = rng.uniform(0.0, decades * np.log(10.0), size=shape)
    return mant * np.exp(expo)


def exact_matmul(a, b):
    """Exact rational reference (small matrices only)."""
    m, k = a.shape
    n = b.shape[1]
    af = [[Fraction(float(x)) for x in row] for row in a]
    bf = [[Fraction(float(x)) for x in row] for row in b]
    return np.array(
        [
            [float(sum(af[i][l] * bf[l][j] for l in range(k))) for j in range(n)]
            for i in range(m)
        ]
    )


@pytest.fixture
def rng():
    return np.random.default_rng(2021)


class TestFullAccuracy:
    @pytest.mark.parametrize("decades", [0, 8, 32])
    def test_full_mode_is_exact_to_fp64(self, rng, decades):
        a = wide(rng, (12, 18), decades)
        b = wide(rng, (18, 10), decades)
        res = ozaki_gemm(a, b, accuracy="full")
        exact = exact_matmul(a, b)
        scale = np.abs(a) @ np.abs(b)
        assert (np.abs(res.c - exact) <= 2.0**-50 * scale).all()

    def test_full_mode_beats_numpy_on_adversarial_input(self, rng):
        # Cancellation-heavy input where plain fp64 GEMM loses digits.
        n = 10
        big = rng.normal(size=(n, n)) * 1e18
        a = np.hstack([big, -big, rng.normal(size=(n, n))])
        b = np.vstack(
            [rng.normal(size=(n, n)), rng.normal(size=(n, n)), np.eye(n)]
        )
        # Exact: big rows cancel only if multiplied by equal blocks — use
        # the rational oracle.
        exact = exact_matmul(a, b)
        ours = ozaki_gemm(a, b, accuracy="full").c
        np_res = a @ b
        our_err = np.abs(ours - exact).max()
        np_err = np.abs(np_res - exact).max()
        assert our_err <= np_err

    def test_integer_inputs_exact(self, rng):
        a = np.floor(rng.uniform(-100, 100, size=(9, 9)))
        b = np.floor(rng.uniform(-100, 100, size=(9, 9)))
        res = ozaki_gemm(a, b, accuracy="full")
        np.testing.assert_array_equal(res.c, a @ b)


class TestReducedAccuracy:
    @pytest.mark.parametrize("decades", [0, 8, 16, 32])
    def test_dgemm_mode_honours_fp64_error_bound(self, rng, decades):
        a = wide(rng, (14, 20), decades)
        b = wide(rng, (20, 11), decades)
        exact = exact_matmul(a, b)
        res = ozaki_gemm(a, b, accuracy="dgemm")
        scale = np.abs(a) @ np.abs(b)
        # DGEMM-equivalent: within k*u64*|A||B| (factor 4 margin).
        assert (np.abs(res.c - exact) <= 4 * 20 * 2.0**-53 * scale).all()

    @pytest.mark.parametrize("decades", [0, 16])
    def test_sgemm_mode_honours_fp32_error_bound(self, rng, decades):
        a = wide(rng, (10, 16), decades)
        b = wide(rng, (16, 10), decades)
        exact = exact_matmul(a, b)
        res = ozaki_gemm(a, b, accuracy="sgemm")
        scale = np.abs(a) @ np.abs(b)
        assert (np.abs(res.c - exact) <= 4 * 16 * 2.0**-24 * scale).all()

    def test_reduced_modes_cost_less(self, rng):
        a = wide(rng, (16, 16), 16)
        b = wide(rng, (16, 16), 16)
        full = ozaki_gemm(a, b, accuracy="full").num_products
        d = ozaki_gemm(a, b, accuracy="dgemm").num_products
        s = ozaki_gemm(a, b, accuracy="sgemm").num_products
        assert s < d < full

    def test_cost_grows_with_input_range(self, rng):
        counts = []
        for decades in (0, 16, 32):
            a = wide(rng, (32, 32), decades)
            b = wide(rng, (32, 32), decades)
            counts.append(ozaki_gemm(a, b, accuracy="dgemm").num_products)
        assert counts[0] < counts[1] < counts[2]


class TestReproducibility:
    def test_bitwise_reproducible_across_runs(self, rng):
        a = wide(rng, (20, 20), 12)
        b = wide(rng, (20, 20), 12)
        c1 = ozaki_gemm(a, b, accuracy="dgemm").c
        c2 = ozaki_gemm(a, b, accuracy="dgemm").c
        assert np.array_equal(c1, c2)

    def test_engine_blocking_does_not_change_result(self, rng):
        # Pair products are exact, so computing them in two k-halves and
        # adding must give bit-identical results — the Sec. IV-B
        # reproducibility claim.
        a = wide(rng, (8, 16), 6)
        b = wide(rng, (16, 8), 6)
        whole = ozaki_gemm(a, b, accuracy="full", compensated=False)
        # Recompute every pair product in two halves of k.
        terms = []
        sa, sb = whole.split_a, whole.split_b
        eng = MatrixEngineGemm(FP16, FP32)
        for i, j in whole.pairs:
            qa, qb = sa.scaled[i], sb.scaled[j]
            p = eng(qa[:, :8], qb[:8, :], pre_rounded=True) + eng(
                qa[:, 8:], qb[8:, :], pre_rounded=True
            )
            terms.append(p * sa.scales[i][:, None] * sb.scales[j][None, :])
        halved = pairwise_fixed_sum(terms)
        assert np.array_equal(whole.c, halved)


class TestValidation:
    def test_rejects_nonconformable(self):
        with pytest.raises(OzakiError):
            ozaki_gemm(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_unknown_accuracy(self, rng):
        with pytest.raises(OzakiError):
            ozaki_gemm(np.ones((2, 2)), np.ones((2, 2)), accuracy="hgemm")

    def test_rejects_beta_above_exact_width(self):
        with pytest.raises(OzakiError):
            ozaki_gemm(np.ones((4, 4)), np.ones((4, 4)), beta=12)

    def test_required_products_full_grid(self):
        pairs = required_products(3, 2, 5, "full")
        assert len(pairs) == 6
        # Diagonal-major order.
        assert pairs[0] == (0, 0)

    def test_required_products_reduced_needs_scales(self):
        with pytest.raises(OzakiError):
            required_products(3, 3, 5, "dgemm")


def required_products_loop(s_a, s_b, beta, accuracy, *, scales_a,
                           scales_b, magnitude, k):
    """Reference pair selection: form every pair's element-wise bound
    and compare it with the threshold, one pair at a time."""
    if accuracy == "full":
        pairs = [(i, j) for i in range(s_a) for j in range(s_b)]
    else:
        target_bits = {"sgemm": 24, "dgemm": 53}[accuracy]
        finite = magnitude[np.isfinite(magnitude)]
        mag_floor = float(finite.max()) * 2.0**-200 if finite.size else 0.0
        thresh = (2.0**-target_bits) * np.maximum(magnitude, mag_floor)
        factor = float(k) * 4.0**beta
        pairs = [
            (i, j)
            for i in range(s_a)
            for j in range(s_b)
            if (factor * np.multiply.outer(scales_a[i], scales_b[j]) > thresh).any()
        ]
    pairs.sort(key=lambda ij: (ij[0] + ij[1], ij[0]))
    return pairs


@st.composite
def pair_selection_cases(draw):
    """Operands and a pair-selection configuration: magnitudes spread
    over up to 120 decades, optionally zero rows/columns or an all-zero
    operand, optionally fp32 or power-of-two data, a ``k`` that need
    not be a power of two, and any exact slice width for it."""
    m = draw(st.integers(1, 8))
    inner = draw(st.integers(1, 10))
    n = draw(st.integers(1, 8))
    fp32 = draw(st.booleans())
    # log10 of the largest magnitude, kept inside the data format.
    top = draw(st.floats(0.0, 36.0 if fp32 else 120.0))
    decades = draw(st.floats(0.0, 70.0 if fp32 else 120.0))
    # Signed powers of two make bound and threshold tie in mantissa.
    dyadic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(shape):
        x = rng.normal(size=shape) * 10.0 ** (
            top - rng.uniform(0.0, decades, size=shape)
        )
        if dyadic:
            x = np.sign(x) * 2.0 ** np.round(np.log2(np.abs(x)))
        return quantize(x, FP32) if fp32 else x

    a = operand((m, inner))
    b = operand((inner, n))
    a[draw(st.lists(st.integers(0, m - 1), max_size=m)), :] = 0.0
    b[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    zero = draw(st.sampled_from([None, "a", "b"]))
    if zero == "a":
        a[:] = 0.0
    elif zero == "b":
        b[:] = 0.0
    accuracy = draw(st.sampled_from(["sgemm", "dgemm", "full"]))
    k = draw(st.sampled_from([inner, 3, 96, 1000, 8192]))
    beta = draw(st.integers(1, MatrixEngineGemm(FP16, FP32).exact_slice_bits(k)))
    return a, b, accuracy, k, beta


class TestPairSelection:
    @settings(max_examples=300, deadline=None)
    @given(pair_selection_cases())
    def test_matches_the_per_pair_loop(self, case):
        a, b, accuracy, k, beta = case
        sa = split_matrix(a, beta, axis=0)
        sb = split_matrix(b, beta, axis=1)
        kwargs = dict(
            scales_a=sa.scales,
            scales_b=sb.scales,
            magnitude=_magnitude_lower_bound(a, b),
            k=k,
        )
        expected = required_products_loop(
            sa.num_slices, sb.num_slices, beta, accuracy, **kwargs
        )
        got = required_products(
            sa.num_slices, sb.num_slices, beta, accuracy, **kwargs
        )
        assert got == expected
        assert all(type(i) is int and type(j) is int for i, j in got)

    @pytest.mark.parametrize("magnitude, kept", [
        (0.0, [(0, 0), (0, 1), (1, 0), (1, 1)]),  # every bound beats it
        (np.inf, []),  # an overflowed |A||B| estimate: no bound beats it
    ])
    def test_degenerate_thresholds(self, magnitude, kept):
        scales = (np.full(2, 2.0**900), np.full(2, 0.5))
        kwargs = dict(
            scales_a=scales, scales_b=scales,
            magnitude=np.full((2, 2), magnitude), k=5,
        )
        assert required_products(2, 2, 3, "dgemm", **kwargs) == kept
        assert required_products_loop(2, 2, 3, "dgemm", **kwargs) == kept

    def test_an_overflowed_element_does_not_raise_the_others_thresholds(self):
        # One inf element of |A||B| keeps no pair alive for itself but
        # must leave the finite elements' selection as if it were absent.
        scales = (np.full(2, 1.0), np.full(2, 2.0**-30))
        magnitude = np.array([[np.inf, 1.0], [1.0, 1.0]])
        kwargs = dict(
            scales_a=scales, scales_b=scales, magnitude=magnitude, k=2,
        )
        kept = required_products(2, 2, 3, "dgemm", **kwargs)
        with np.errstate(over="ignore"):
            assert kept == required_products_loop(2, 2, 3, "dgemm", **kwargs)
        assert kept == required_products(
            2, 2, 3, "dgemm", **{**kwargs, "magnitude": np.ones((2, 2))}
        )
        assert kept

    @pytest.mark.parametrize("accuracy", ["sgemm", "dgemm"])
    def test_finite_entries_survive_an_overflowing_entry(self, accuracy):
        a = np.array([[1e160, 1.0], [1.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = a @ a
            c = ozaki_gemm(a, a, accuracy=accuracy).c
        finite = np.isfinite(expected)
        assert finite.sum() == 3
        np.testing.assert_array_equal(c[finite], expected[finite])

    @pytest.mark.parametrize("k", [1, 3, 96])
    def test_a_bound_equal_to_the_threshold_drops_the_pair(self, k):
        # dgemm threshold = 2^-53 * magnitude; one slice, unit scales,
        # beta = 1: the bound is 4k, so 4k * 2^53 ties it exactly.
        tie = 4.0 * k * 2.0**53
        for magnitude, kept in ((tie, []), (np.nextafter(tie, 0.0), [(0, 0)])):
            kwargs = dict(
                scales_a=(np.ones(1),), scales_b=(np.ones(1),),
                magnitude=np.full((1, 1), magnitude), k=k,
            )
            assert required_products(1, 1, 1, "dgemm", **kwargs) == kept
            assert required_products_loop(1, 1, 1, "dgemm", **kwargs) == kept

    def test_plan_is_the_products_ozaki_gemm_runs(self, rng):
        a = wide(rng, (12, 12), 16)
        b = wide(rng, (12, 12), 16)
        plan = plan_products(a, b, accuracy="dgemm")
        res = ozaki_gemm(a, b, accuracy="dgemm")
        assert plan.pairs == res.pairs
        assert plan.num_products == res.num_products
        assert plan.beta == res.beta
        assert plan.split_a.num_slices == res.split_a.num_slices


class TestSummation:
    def test_compensated_beats_plain_on_spread_terms(self):
        terms = [np.array([[1e20]]), np.array([[1.0]]), np.array([[-1e20]])]
        assert compensated_sum(terms)[0, 0] == 1.0
        assert pairwise_fixed_sum(terms)[0, 0] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            compensated_sum([])
        with pytest.raises(ValueError):
            pairwise_fixed_sum([])


class TestPerfModel:
    def test_table_viii_orderings(self):
        rows = {(r.implementation, r.condition): r for r in emulated_gemm_performance(8192)}
        gemmex = rows[("cublasGemmEx", "FP16/FP32-mixed")]
        sgemm = rows[("cublasSgemm", "—")]
        dgemm = rows[("cublasDgemm", "—")]
        assert gemmex.tflops > sgemm.tflops > dgemm.tflops
        # Native rates match the paper's measurements.
        assert gemmex.tflops == pytest.approx(92.28, rel=0.01)
        assert sgemm.tflops == pytest.approx(14.54, rel=0.01)
        assert dgemm.tflops == pytest.approx(7.20, rel=0.01)
        # Emulations are below native cuBLAS on the V100 (Sec. IV-B).
        for target in ("SGEMM-TC", "DGEMM-TC"):
            for cond in ("1e+08", "1e+16", "1e+32"):
                r = rows[(target, f"input range: {cond}")]
                assert r.tflops < dgemm.tflops
        # SGEMM-TC outperforms DGEMM-TC at every range.
        for cond in ("1e+08", "1e+16", "1e+32"):
            s = rows[("SGEMM-TC", f"input range: {cond}")]
            d = rows[("DGEMM-TC", f"input range: {cond}")]
            assert s.tflops > d.tflops

    def test_throughput_degrades_with_range(self):
        model = OzakiPerfModel("v100")
        t = [
            model.emulate(8192, target="dgemm", input_range=r).tflops
            for r in (1e8, 1e16, 1e32)
        ]
        assert t[0] > t[1] > t[2]

    def test_energy_efficiency_ordering(self):
        rows = emulated_gemm_performance(8192)
        gemmex, sgemm, dgemm = rows[0], rows[1], rows[2]
        assert gemmex.gflops_per_joule > sgemm.gflops_per_joule > dgemm.gflops_per_joule

    def test_requires_matrix_engine(self):
        with pytest.raises(OzakiError):
            OzakiPerfModel("gtx1060")

    def test_pricing_runs_no_engine_product_or_summation(self, monkeypatch):
        # Table VIII is priced from the pair plan alone: an engine
        # product or a summation on this path is full emulation whose
        # result is thrown away.
        def forbidden(*args, **kwargs):
            raise AssertionError("pricing ran an emulated GEMM")

        monkeypatch.setattr(MatrixEngineGemm, "__call__", forbidden)
        monkeypatch.setattr(gemm_module, "compensated_sum", forbidden)
        monkeypatch.setattr(gemm_module, "pairwise_fixed_sum", forbidden)
        SUBSTRATE_CACHE.clear()
        try:
            rows = table_viii()["rows"]
        finally:
            SUBSTRATE_CACHE.clear()
        assert rows == json.loads(GOLDEN_TABLE8.read_text())["rows"]

    def test_dgemm_tc_wins_on_fp64_starved_device(self):
        # Sec. IV-B: "DGEMM-TC outperforms cublasDgemm on a Titan RTX,
        # where 64-bit FPUs are limited."  The RTX 2080 Ti shares that
        # trait (fp64 at 1/32 rate): the emulation must beat native fp64.
        model = OzakiPerfModel("rtx2080ti")
        emu = model.emulate(8192, target="dgemm", input_range=1e8)
        native = model.native(8192, fmt="fp64", name="cublasDgemm")
        assert emu.tflops > native.tflops
