"""Handler adapters: the analysis layers as registered what-if queries.

Each handler is a pure function from a validated params dataclass to a
JSON-encodable answer, thin enough that the answer is *byte-identical*
to calling the underlying library directly (the load generator and the
CI smoke job assert exactly that).  Expensive shared state — the
77-workload profile sweep behind the Fig. 4 scenarios, the Ozaki
split/summation runs behind Table VIII — flows through the process-wide
substrate cache, so a cold first query warms the same entries a
``repro-paper`` run would and every later query reuses them.

The batchable kinds (``costbenefit``, ``node_hours``, ``me_speedup``)
register only their batch handler: a solo query is a batch of one, so
every answer of such a kind comes from one code path.

Purity is also what makes the resilience layer sound: the engine's
retry wrapper may invoke a handler two or three times for one query,
and its stale-while-revalidate store may replay an old answer — both
are only correct because handlers are deterministic functions of
(params, scenario) with no side effects beyond the idempotent substrate
cache.  A new handler must keep that contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.costbenefit import assess_grid, me_speedup_estimate
from repro.errors import DeviceError, QueryValidationError
from repro.extrapolate.model import NodeHourModel
from repro.errors import ScenarioError
from repro.extrapolate.scenarios import (
    MACHINE_BUILDERS,
    build_machine,
    machine_names,
)
from repro.harness.export import to_jsonable
from repro.hardware.density import compute_density, density_ratio, peak_ratio
from repro.hardware.registry import get_device, list_device_names
from repro.hardware.roofline import (
    KIND_EFFICIENCY,
    achievable_flops,
    arithmetic_intensity,
    machine_balance,
    roofline_time,
)
from repro.ozaki.perf import emulated_gemm_performance
from repro.resilience.cancel import cancel_point
from repro.serve.queries import QueryKind, QueryRegistry
from repro.units import TERA

__all__ = ["SCENARIOS", "default_registry", "DEFAULT_REGISTRY"]

#: The built-in Fig. 4 machines (plus the beyond-the-paper Fugaku
#: what-if) a planner can interrogate, by wire name.  Kept as a public
#: alias of :data:`repro.extrapolate.scenarios.MACHINE_BUILDERS`; name
#: resolution goes through :func:`repro.extrapolate.build_machine`, so
#: an active scenario overlay can edit these mixes or add new machines.
SCENARIOS: dict[str, Callable[[], NodeHourModel]] = MACHINE_BUILDERS


def _scenario(name: str) -> NodeHourModel:
    try:
        return build_machine(name)
    except ScenarioError as exc:  # e.g. an unresolvable overlay edit
        raise QueryValidationError(str(exc)) from None


def _check_scenario(name: str) -> None:
    names = machine_names()
    if name not in names:
        raise QueryValidationError(
            f"unknown scenario {name!r}; known: {sorted(names)}"
        )


def _check_speedup(value: float, field: str) -> None:
    if not isinstance(value, (int, float)) or math.isnan(value) or value < 1.0:
        raise QueryValidationError(
            f"{field} must be a number >= 1 (inf allowed), got {value!r}"
        )


def _check_device(name: str) -> None:
    try:
        get_device(name)
    except DeviceError:
        raise QueryValidationError(
            f"unknown device {name!r}; known: {list_device_names()}"
        ) from None


# -- costbenefit (batchable) ------------------------------------------------


@dataclass(frozen=True)
class CostBenefitParams:
    """Params of the paper's machine-level verdict (Table-less Fig. 4+)."""

    scenario: str = "k_computer"
    me_speedup: float = 4.0

    def __post_init__(self) -> None:
        _check_scenario(self.scenario)
        _check_speedup(self.me_speedup, "me_speedup")


def _costbenefit_answer(report: Any) -> Any:
    answer = to_jsonable(report)
    answer["worthwhile"] = report.worthwhile
    answer["verdict"] = report.verdict()
    return answer


def handle_costbenefit_batch(
    params: CostBenefitParams, me_speedups: tuple[float, ...]
) -> dict[float, Any]:
    """Assess a whole ME-speedup sweep as one vectorized grid evaluation.

    The reports come from :func:`repro.analysis.assess_grid`, whose
    kernels are bit-identical to :func:`repro.analysis.assess_scenario`
    — batching changes *when* work happens, never the bytes that come
    back.
    """
    cancel_point()
    reports = assess_grid(
        (_scenario(params.scenario),), me_speedups=me_speedups
    )[0]
    return {
        s: _costbenefit_answer(report)
        for s, report in zip(me_speedups, reports)
    }


# -- node_hours (batchable) -------------------------------------------------


@dataclass(frozen=True)
class NodeHoursParams:
    """One Fig. 4 sweep point: a machine's saving at one ME speedup."""

    scenario: str = "k_computer"
    speedup: float = 4.0

    def __post_init__(self) -> None:
        _check_scenario(self.scenario)
        _check_speedup(self.speedup, "speedup")


def handle_node_hours_batch(
    params: NodeHoursParams, speedups: tuple[float, ...]
) -> dict[float, Any]:
    """Answer a whole speedup sweep as one vectorized grid evaluation.

    One scenario construction, one :class:`~repro.analysis.SweepGrid`
    kernel pass over every requested speedup — a solo query, a batch of
    one, is one pass too.  The kernels are bit-identical to
    :class:`~repro.extrapolate.NodeHourModel`'s scalar methods —
    batching changes *when* work happens, never the bytes that come
    back.
    """
    cancel_point()
    scenario = _scenario(params.scenario)
    result = scenario.as_grid(speedups).evaluate()
    return {
        s: to_jsonable(
            {
                "machine": scenario.name,
                "speedup": s,
                "reduction": float(result.reduction[0, i]),
                "consumed_fraction": float(result.consumed_fraction[0, i]),
                "throughput_improvement": float(
                    result.throughput_improvement[0, i]
                ),
                "node_hours_saved": float(result.node_hours_saved[0, i]),
            }
        )
        for i, s in enumerate(speedups)
    }


# -- me_speedup (batchable) -------------------------------------------------


@dataclass(frozen=True)
class MeSpeedupParams:
    """Realistic ME-vs-vector GEMM speedup of a registry device."""

    device: str = "v100"
    fmt: str = "fp16"

    def __post_init__(self) -> None:
        _check_device(self.device)


def handle_me_speedup_batch(
    params: MeSpeedupParams, fmts: tuple[str, ...]
) -> dict[str, Any]:
    """Estimate one device's ME speedup across a whole format axis.

    Coalesced queries differing only in ``fmt`` evaluate as one call;
    each answer is :func:`~repro.analysis.costbenefit.me_speedup_estimate`
    of its format.
    """
    cancel_point()
    try:
        speedups = [me_speedup_estimate(params.device, fmt) for fmt in fmts]
    except DeviceError as exc:  # device lacks an ME or a format
        raise QueryValidationError(str(exc)) from None
    return {
        fmt: to_jsonable(
            {"device": params.device, "fmt": fmt, "me_speedup": speedup}
        )
        for fmt, speedup in zip(fmts, speedups)
    }


# -- roofline ---------------------------------------------------------------


@dataclass(frozen=True)
class RooflineParams:
    """Price one kernel on a device with the two-bound roofline."""

    device: str
    flops: float
    nbytes: float
    fmt: str = "fp64"
    kind: str = "gemm"
    allow_matrix: bool = True

    def __post_init__(self) -> None:
        _check_device(self.device)
        if self.flops < 0 or self.nbytes < 0:
            raise QueryValidationError("flops and nbytes must be >= 0")
        if self.kind not in KIND_EFFICIENCY:
            raise QueryValidationError(
                f"unknown kernel kind {self.kind!r}; "
                f"known: {sorted(KIND_EFFICIENCY)}"
            )


def handle_roofline(params: RooflineParams) -> Any:
    cancel_point()
    device = get_device(params.device)
    unit = device.best_unit(params.fmt, allow_matrix=params.allow_matrix)
    duration, t_comp, t_mem = roofline_time(
        device,
        unit,
        flops=params.flops,
        nbytes=params.nbytes,
        fmt=params.fmt,
        kind=params.kind,
    )
    return to_jsonable(
        {
            "device": params.device,
            "unit": unit.name,
            "duration_s": duration,
            "t_compute_s": t_comp,
            "t_memory_s": t_mem,
            "bound": "compute" if t_comp >= t_mem else "memory",
            "arithmetic_intensity": arithmetic_intensity(
                params.flops, params.nbytes
            ),
            "machine_balance": machine_balance(device, params.fmt),
            "achievable_flops": achievable_flops(unit, params.fmt, params.kind),
        }
    )


# -- density ----------------------------------------------------------------


@dataclass(frozen=True)
class DensityParams:
    """Table I-style compute-density comparison of two devices."""

    device_a: str
    device_b: str
    fmt: str = "fp16"

    def __post_init__(self) -> None:
        _check_device(self.device_a)
        _check_device(self.device_b)


def handle_density(params: DensityParams) -> Any:
    cancel_point()
    a = get_device(params.device_a)
    b = get_device(params.device_b)

    def density_of(spec: Any) -> float | None:
        try:
            tflops = spec.peak(params.fmt) / TERA
        except DeviceError:
            return None
        return compute_density(tflops, spec.die_mm2)

    try:
        peaks = peak_ratio(a, b, params.fmt)
    except DeviceError:  # one side lacks the format entirely
        peaks = None
    return to_jsonable(
        {
            "device_a": params.device_a,
            "device_b": params.device_b,
            "fmt": params.fmt,
            "density_a_gflops_mm2": density_of(a),
            "density_b_gflops_mm2": density_of(b),
            "density_ratio": density_ratio(a, b, params.fmt),
            "peak_ratio": peaks,
        }
    )


# -- ozaki ------------------------------------------------------------------

_OZAKI_NATIVE = {"cublasGemmEx", "cublasSgemm", "cublasDgemm"}
_OZAKI_EMULATED = {"SGEMM-TC", "DGEMM-TC"}


@dataclass(frozen=True)
class OzakiParams:
    """One Table VIII row: native or emulated GEMM price on a device."""

    implementation: str = "DGEMM-TC"
    input_range: float = 1e8
    n: int = 8192
    device: str = "v100"

    def __post_init__(self) -> None:
        _check_device(self.device)
        if self.implementation not in _OZAKI_NATIVE | _OZAKI_EMULATED:
            raise QueryValidationError(
                f"unknown implementation {self.implementation!r}; known: "
                f"{sorted(_OZAKI_NATIVE | _OZAKI_EMULATED)}"
            )
        if self.n < 1:
            raise QueryValidationError(f"n must be >= 1, got {self.n}")
        if self.input_range < 1.0:
            raise QueryValidationError(
                f"input_range must be >= 1, got {self.input_range}"
            )


def handle_ozaki(params: OzakiParams) -> Any:
    cancel_point()
    rows = emulated_gemm_performance(params.n, params.device)
    for row in rows:
        cancel_point()
        if row.implementation != params.implementation:
            continue
        if (
            params.implementation in _OZAKI_NATIVE
            or row.condition == f"input range: {params.input_range:.0e}"
        ):
            return to_jsonable(row)
    conditions = sorted(
        {r.condition for r in rows if r.implementation == params.implementation}
    )
    raise QueryValidationError(
        f"no Table VIII row for {params.implementation!r} at input_range "
        f"{params.input_range:.0e}; available conditions: {conditions}"
    )


# -- the default registry ---------------------------------------------------


def default_registry() -> QueryRegistry:
    """A fresh registry of every built-in query kind."""
    return QueryRegistry(
        (
            QueryKind(
                name="costbenefit",
                params_type=CostBenefitParams,
                description=(
                    "Machine-level ME cost-benefit verdict "
                    "(node-hour reduction, throughput, worthwhileness)"
                ),
                substrates=("workload_profiles",),
                batch_axis="me_speedup",
                batch_handler=handle_costbenefit_batch,
            ),
            QueryKind(
                name="node_hours",
                params_type=NodeHoursParams,
                description=(
                    "One Fig. 4 sweep point: node-hour reduction of a "
                    "scenario at one ME speedup"
                ),
                substrates=("workload_profiles",),
                batch_axis="speedup",
                batch_handler=handle_node_hours_batch,
            ),
            QueryKind(
                name="me_speedup",
                params_type=MeSpeedupParams,
                description="Realistic ME-vs-vector GEMM speedup of a device",
                batch_axis="fmt",
                batch_handler=handle_me_speedup_batch,
            ),
            QueryKind(
                name="roofline",
                params_type=RooflineParams,
                handler=handle_roofline,
                description="Two-bound roofline price of one kernel",
            ),
            QueryKind(
                name="density",
                params_type=DensityParams,
                handler=handle_density,
                description="Compute-density comparison of two devices",
            ),
            QueryKind(
                name="ozaki",
                params_type=OzakiParams,
                handler=handle_ozaki,
                description="Table VIII row: native or Ozaki-emulated GEMM",
                substrates=("ozaki_splits",),
            ),
        )
    )


#: The shared default registry; the engine uses it unless given another.
DEFAULT_REGISTRY = default_registry()
