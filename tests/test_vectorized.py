"""Scalar-vs-vectorized parity for the Amdahl sweep kernel layer.

The vectorized kernels (:mod:`repro.analysis.arrays`) promise
*bit-identical* results to the scalar reference arithmetic — the golden
artifacts and the serve layer's byte-identity claim both ride on it.
The reference implementation here is deliberately independent of the
kernels: plain :func:`amdahl_time_fraction` calls plus Python ``sum()``,
exactly the pre-vectorization hot loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SweepGrid, assess_grid, assess_scenario
from repro.analysis.arrays import (
    amdahl_grid,
    consumed_fraction_grid,
    kernel_invocations,
)
from repro.errors import ScenarioError
from repro.extrapolate import (
    DomainWorkload,
    NodeHourModel,
    amdahl_time_fraction,
    anl_scenario,
    build_machine,
    k_computer_scenario,
)

# -- reference scalar engine (the pre-vectorization hot loop) ---------------


def scalar_consumed(model, speedup):
    return sum(
        d.share * amdahl_time_fraction(d.accelerable, speedup)
        for d in model.domains
    )


def scalar_series(model, speedups):
    return [scalar_consumed(model, s) for s in speedups]


# -- hypothesis strategies ---------------------------------------------------

finite_speedups = st.floats(1.0, 1e9)
speedup_values = st.one_of(
    finite_speedups, st.just(1.0), st.just(math.inf)
)
accelerable_values = st.one_of(
    st.floats(0.0, 1.0), st.just(0.0), st.just(1.0)
)


@st.composite
def domain_mixes(draw, max_domains=11):
    n = draw(st.integers(1, max_domains))
    raw = draw(
        st.lists(
            st.floats(1e-3, 1.0), min_size=n, max_size=n
        )
    )
    total = sum(raw)
    shares = [r / total for r in raw]
    accelerable = draw(
        st.lists(accelerable_values, min_size=n, max_size=n)
    )
    domains = tuple(
        DomainWorkload(f"d{i}", shares[i], f"rep{i}", accelerable[i])
        for i in range(n)
    )
    hours = draw(st.floats(1e-3, 1e9))
    return NodeHourModel(f"mix{n}", domains, total_node_hours=hours)


@st.composite
def speedup_grids(draw, max_points=12):
    n = draw(st.integers(1, max_points))
    return draw(
        st.lists(speedup_values, min_size=n, max_size=n)
    )


# -- exact parity ------------------------------------------------------------


class TestScalarVectorParity:
    @given(st.floats(0.0, 1.0), speedup_values)
    @settings(max_examples=200, deadline=None)
    def test_amdahl_grid_matches_scalar_exactly(self, accelerable, speedup):
        grid = amdahl_grid(
            np.array([[accelerable]]), np.array([speedup])
        )
        assert float(grid[0, 0]) == amdahl_time_fraction(accelerable, speedup)

    @given(domain_mixes(), speedup_grids())
    @settings(max_examples=150, deadline=None)
    def test_consumed_fraction_parity_is_exact(self, model, speedups):
        reference = scalar_series(model, speedups)
        vectorized = model.consumed_fraction_grid(speedups)
        assert [float(v) for v in vectorized] == reference

    @given(domain_mixes(), speedup_grids())
    @settings(max_examples=100, deadline=None)
    def test_all_four_tensors_parity(self, model, speedups):
        result = model.as_grid(speedups).evaluate()
        for i, s in enumerate(speedups):
            consumed = scalar_consumed(model, s)
            assert float(result.consumed_fraction[0, i]) == consumed
            assert float(result.reduction[0, i]) == 1.0 - consumed
            assert float(result.node_hours_saved[0, i]) == (
                model.total_node_hours * (1.0 - consumed)
            )
            if consumed == 0.0:
                # Fully-accelerable mix at infinite speedup: the scalar
                # division limit, exposed as +inf instead of a crash.
                assert math.isinf(
                    float(result.throughput_improvement[0, i])
                )
            else:
                assert float(result.throughput_improvement[0, i]) == (
                    1.0 / consumed
                )

    @given(
        st.lists(domain_mixes(), min_size=1, max_size=5),
        speedup_grids(),
    )
    @settings(max_examples=50, deadline=None)
    def test_stacked_machines_keep_exactness_under_padding(
        self, models, speedups
    ):
        """Mixes of different widths share one zero-padded plane; the
        padding must never perturb a single bit of any machine's row."""
        grid = SweepGrid.from_models(models, speedups)
        consumed = grid.consumed_fraction()
        for m, model in enumerate(models):
            assert [float(v) for v in consumed[m]] == scalar_series(
                model, speedups
            )

    def test_scalar_methods_are_views_of_the_kernels(self):
        """Exact float equality where the scalar path is a view."""
        model = anl_scenario()
        for s in (1.0, 2.0, 4.0, 8.0, 1e6, math.inf):
            assert model.consumed_fraction(s) == scalar_consumed(model, s)
            assert model.reduction(s) == 1.0 - scalar_consumed(model, s)
            grid_row = model.as_grid((s,)).evaluate()
            assert model.throughput_improvement(s) == float(
                grid_row.throughput_improvement[0, 0]
            )
            assert model.node_hours_saved(s) == float(
                grid_row.node_hours_saved[0, 0]
            )

    def test_paper_machines_grid_matches_scalar(self):
        speedups = (2.0, 4.0, 8.0, math.inf)
        models = [build_machine(n) for n in ("k_computer", "anl", "future",
                                             "fugaku")]
        reduction = SweepGrid.from_models(models, speedups).reduction()
        for m, model in enumerate(models):
            for i, s in enumerate(speedups):
                assert float(reduction[m, i]) == 1.0 - scalar_consumed(
                    model, s
                )


class TestAssessGrid:
    def test_one_cell_view_equals_assess_scenario(self):
        model = k_computer_scenario()
        grid_report = assess_grid((model,), me_speedups=(4.0,))[0][0]
        assert grid_report == assess_scenario(model, me_speedup=4.0)

    def test_plane_of_reports(self):
        speedups = (2.0, 4.0, 8.0)
        names = ("k_computer", "anl", "future")
        plane = assess_grid(names, me_speedups=speedups)
        assert len(plane) == len(names)
        for m, name in enumerate(names):
            model = build_machine(name)
            for s, speedup in enumerate(speedups):
                assert plane[m][s] == assess_scenario(
                    model, me_speedup=speedup
                )

    def test_inf_me_speedup_reuses_the_ideal_column(self):
        report = assess_grid(("anl",), me_speedups=(math.inf,))[0][0]
        assert report.node_hour_reduction == report.node_hour_reduction_ideal


# -- validation: ScenarioError with the offending grid index ----------------


class TestGridValidation:
    def test_bad_speedup_reports_grid_index(self):
        model = anl_scenario()
        with pytest.raises(ScenarioError, match=r"speedup grid index 2"):
            model.consumed_fraction_grid((2.0, 4.0, 0.5))

    def test_nan_speedup_rejected(self):
        with pytest.raises(ScenarioError, match="speedup"):
            anl_scenario().consumed_fraction_grid((math.nan,))

    def test_scalar_view_still_raises_scenario_error(self):
        model = anl_scenario()
        with pytest.raises(ScenarioError):
            model.consumed_fraction(0.25)
        with pytest.raises(ScenarioError):
            amdahl_time_fraction(1.5, 4.0)

    def test_bad_share_reports_machine_and_domain_index(self):
        with pytest.raises(
            ScenarioError, match=r"worse.*share out of range.*\(1, 1\)"
        ):
            SweepGrid.from_arrays(
                ("fine", "worse"),
                shares=[[0.5, 0.5], [0.5, 1.5]],
                accelerable=[[0.1, 0.2], [0.1, 0.2]],
                speedups=(4.0,),
            )

    def test_bad_accelerable_reports_grid_index(self):
        with pytest.raises(
            ScenarioError,
            match=r"accelerable fraction out of range.*\(0, 1\)",
        ):
            SweepGrid.from_arrays(
                ("m",),
                shares=[[0.5, 0.5]],
                accelerable=[[0.1, 1.2]],
                speedups=(4.0,),
            )

    def test_share_sum_validation_reports_machine_index(self):
        with pytest.raises(
            ScenarioError, match=r"shares sum to.*machine grid index 1"
        ):
            SweepGrid.from_arrays(
                ("ok", "broken"),
                shares=[[0.5, 0.5], [0.5, 0.1]],
                accelerable=[[0.1, 0.2], [0.1, 0.2]],
                speedups=(4.0,),
            )

    def test_padded_slots_are_exempt_from_validation(self):
        grid = SweepGrid.from_arrays(
            ("a", "b"),
            shares=[[1.0, 7.7], [0.5, 0.5]],
            accelerable=[[0.3, 9.9], [0.2, 0.4]],
            mask=[[True, False], [True, True]],
            speedups=(2.0, math.inf),
        )
        consumed = grid.consumed_fraction()
        assert float(consumed[0, 0]) == 1.0 * amdahl_time_fraction(0.3, 2.0)

    def test_model_share_sum_error_names_the_domains(self):
        with pytest.raises(
            ScenarioError, match=r"alpha=0\.5.*beta=0\.1"
        ):
            NodeHourModel(
                "bad",
                (
                    DomainWorkload("alpha", 0.5, "x", 0.1),
                    DomainWorkload("beta", 0.1, "y", 0.2),
                ),
            )


class TestSweepGridApi:
    def test_shape_and_with_speedups(self):
        grid = SweepGrid.from_models(
            (anl_scenario(), k_computer_scenario()), (2.0, 4.0)
        )
        assert grid.shape == (2, 2)
        wider = grid.with_speedups((2.0, 4.0, 8.0, math.inf))
        assert wider.shape == (2, 4)
        assert float(wider.reduction()[0, 0]) == float(
            grid.reduction()[0, 0]
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(ScenarioError, match="no machines"):
            SweepGrid.from_models((), (4.0,))

    def test_kernel_invocation_counter_moves(self):
        before = kernel_invocations()
        SweepGrid.from_models((anl_scenario(),), (2.0, 4.0)).evaluate()
        assert kernel_invocations() == before + 1

    def test_raw_kernel_matches_padded_rows(self):
        consumed = consumed_fraction_grid(
            [[0.25, 0.75]], [[1.0, 0.5]], (2.0, math.inf)
        )
        expected = [
            0.25 * amdahl_time_fraction(1.0, s)
            + 0.75 * amdahl_time_fraction(0.5, s)
            for s in (2.0, math.inf)
        ]
        assert [float(v) for v in consumed[0]] == expected


# -- serve: batched queries must run on the kernels, bit-identically --------


class TestServeVectorizedRouting:
    def test_node_hours_batches_run_on_the_kernels_exactly(self):
        """Concurrent node_hours queries over a speedup sweep must gather
        into a micro-batch, exercise the vectorized kernel layer, and
        return values equal to the scalar engine's arithmetic exactly."""
        from repro.serve.client import ServeClient

        speedups = [2.0, 3.0, 4.0, 6.0, 8.0, 16.0, math.inf]
        model = anl_scenario()
        before = kernel_invocations()
        with ServeClient(workers=2) as client:
            responses = client.query_many(
                [
                    ("node_hours", {"scenario": "anl", "speedup": s})
                    for s in speedups
                ]
            )
            counters = client.metrics()["counters"]
        assert counters["batches"] >= 1
        assert kernel_invocations() > before
        for s, resp in zip(speedups, responses):
            consumed = scalar_consumed(model, s)
            value = resp.value
            assert value["consumed_fraction"] == consumed
            assert value["reduction"] == 1.0 - consumed
            assert value["throughput_improvement"] == 1.0 / consumed
            assert value["node_hours_saved"] == (
                model.total_node_hours * (1.0 - consumed)
            )

    def test_costbenefit_batches_match_scalar_reports(self):
        from repro.serve.client import ServeClient

        me_speedups = [2.0, 4.0, 8.0]
        model = k_computer_scenario()
        with ServeClient(workers=2) as client:
            responses = client.query_many(
                [
                    ("costbenefit", {"scenario": "k_computer",
                                     "me_speedup": s})
                    for s in me_speedups
                ]
            )
        for s, resp in zip(me_speedups, responses):
            report = assess_scenario(model, me_speedup=s)
            assert resp.value["node_hour_reduction"] == (
                report.node_hour_reduction
            )
            assert resp.value["node_hours_saved"] == report.node_hours_saved

    def test_me_speedup_batches_match_scalar_estimates(self):
        from repro.analysis.costbenefit import me_speedup_estimate
        from repro.serve.client import ServeClient

        fmts = ["fp16", "fp64"]
        with ServeClient(workers=2) as client:
            responses = client.query_many(
                [("me_speedup", {"device": "a100", "fmt": f}) for f in fmts]
            )
        for f, resp in zip(fmts, responses):
            assert resp.value["me_speedup"] == me_speedup_estimate("a100", f)
