"""Machine-level cost-benefit assessment of adding a matrix engine.

The scalar entry points (:func:`assess_scenario`, :func:`assess_machine`)
assess one (machine, speedup) pair; :func:`assess_grid` assesses a whole
machines x ME-speedups plane through the vectorized kernel layer
(:mod:`repro.analysis.arrays`) in one broadcast evaluation, returning
the same :class:`CostBenefitReport` objects bit-identically — the
scalar API is a one-cell view of the grid one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.arrays import SweepGrid, _ensure_inf_column
from repro.errors import DeviceError
from repro.extrapolate.model import NodeHourModel
from repro.extrapolate.scenarios import build_machine
from repro.hardware.registry import get_device
from repro.hardware.specs import DeviceSpec

__all__ = [
    "me_speedup_estimate",
    "CostBenefitReport",
    "assess_scenario",
    "assess_machine",
    "assess_grid",
]


def me_speedup_estimate(
    device: DeviceSpec | str, fmt: str = "fp64"
) -> float:
    """How much faster the device's matrix engine runs GEMM in ``fmt``
    than its vector units — the realistic value of Fig. 4's speedup
    parameter (~4x is what the paper assumes for near-term MEs)."""
    spec = get_device(device) if isinstance(device, str) else device
    me = spec.matrix_engine
    if me is None or not me.supports(fmt):
        raise DeviceError(
            f"{spec.name} has no matrix engine supporting {fmt!r}"
        )
    vector = spec.peak(fmt, allow_matrix=False)
    return me.peak(fmt) / vector


@dataclass(frozen=True)
class CostBenefitReport:
    """The assessment of one machine/scenario pair."""

    machine: str
    me_speedup: float
    node_hour_reduction: float
    node_hour_reduction_ideal: float  # infinitely fast ME
    throughput_improvement: float
    node_hours_saved: float

    @property
    def worthwhile(self) -> bool:
        """The paper's bar: a ~10 % throughput gain is the point at which
        an ME 'might justify the investment if all other architectural
        options have been exhausted'."""
        return self.throughput_improvement >= 1.10

    def verdict(self) -> str:
        """One-sentence assessment in the paper's voice."""
        pct = self.node_hour_reduction * 100.0
        if self.worthwhile:
            return (
                f"{self.machine}: a {self.me_speedup:.1f}x ME reduces "
                f"node-hours by {pct:.1f}% — may justify the silicon if "
                "all other architectural options are exhausted."
            )
        return (
            f"{self.machine}: a {self.me_speedup:.1f}x ME reduces "
            f"node-hours by only {pct:.1f}% — the silicon is better "
            "invested elsewhere."
        )


def assess_scenario(
    scenario: NodeHourModel,
    *,
    me_speedup: float = 4.0,
) -> CostBenefitReport:
    """Run the paper's cost-benefit arithmetic on one machine.

    A one-cell view of :func:`assess_grid` — the report's floats come
    from the same vectorized kernels, bit-identically.
    """
    return assess_grid((scenario,), me_speedups=(me_speedup,))[0][0]


def assess_grid(
    scenarios: Sequence[NodeHourModel | str],
    *,
    me_speedups: Sequence[float] = (4.0,),
) -> list[list[CostBenefitReport]]:
    """Assess a whole machines x ME-speedups plane in one evaluation.

    ``scenarios`` may mix built :class:`NodeHourModel` mixes and wire
    names (resolved through :func:`repro.extrapolate.build_machine`
    under the active scenario overlay).  Returns one row of
    :class:`CostBenefitReport` views per machine, one column per entry
    of ``me_speedups`` — ``result[m][s]`` is bit-identical to
    ``assess_scenario(scenarios[m], me_speedup=me_speedups[s])``.

    The ideal (infinitely fast) engine column every report carries is
    folded into the same grid evaluation, so the full Fig. 4-style
    sweep is a handful of broadcast operations regardless of plane
    size.
    """
    models = []
    for scenario in scenarios:
        if isinstance(scenario, str):
            scenario = build_machine(scenario)
        models.append(scenario)
    speedups, inf_col = _ensure_inf_column(me_speedups)
    result = SweepGrid.from_models(models, speedups).evaluate()
    reports = []
    for m, model in enumerate(models):
        row = []
        for s, me_speedup in enumerate(me_speedups):
            row.append(
                CostBenefitReport(
                    machine=model.name,
                    me_speedup=float(me_speedup),
                    node_hour_reduction=float(result.reduction[m, s]),
                    node_hour_reduction_ideal=float(
                        result.reduction[m, inf_col]
                    ),
                    throughput_improvement=float(
                        result.throughput_improvement[m, s]
                    ),
                    node_hours_saved=float(result.node_hours_saved[m, s]),
                )
            )
        reports.append(row)
    return reports


def assess_machine(name: str, *, me_speedup: float = 4.0) -> CostBenefitReport:
    """Assess one machine by wire name under the active scenario.

    Resolves through :func:`repro.extrapolate.build_machine`, so the
    name may be a built-in Fig. 4 machine (possibly overlay-edited) or
    a machine the active :class:`~repro.scenario.ScenarioSpec` defines.
    """
    return assess_scenario(build_machine(name), me_speedup=me_speedup)
