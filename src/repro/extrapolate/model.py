"""The Amdahl node-hour model behind Fig. 4.

Since the vectorized kernel layer (:mod:`repro.analysis.arrays`) landed,
this model is a *thin view over array programs*: the grid methods
(`consumed_fraction_grid` and friends) evaluate a whole speedup grid as
one broadcast kernel, and every scalar method delegates to them with a
one-point grid.  The kernels are bit-identical to the original scalar
loops, so artifacts and serve answers are byte-identical either way.
:func:`amdahl_time_fraction` stays pure-scalar — it is the reference
implementation the parity tests and benchmarks compare the kernels
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from repro.analysis.arrays import SweepGrid, consumed_fraction_grid
from repro.errors import ScenarioError

__all__ = ["amdahl_time_fraction", "DomainWorkload", "NodeHourModel"]


def amdahl_time_fraction(accelerable: float, speedup: float) -> float:
    """Remaining time fraction when ``accelerable`` of the runtime is
    sped up by ``speedup`` (``math.inf`` allowed)."""
    if not 0.0 <= accelerable <= 1.0:
        raise ScenarioError(f"accelerable fraction out of range: {accelerable}")
    if speedup < 1.0 or math.isnan(speedup):
        raise ScenarioError(f"speedup must be >= 1, got {speedup}")
    if math.isinf(speedup):
        return 1.0 - accelerable
    return (1.0 - accelerable) + accelerable / speedup


@dataclass(frozen=True)
class DomainWorkload:
    """One science domain of a machine's node-hour mix.

    ``accelerable`` is the GEMM + (Sca)LAPACK runtime fraction of the
    domain's representative application (the paper's idealised
    assumption that *all* of it maps to the ME).
    """

    domain: str
    share: float  # of total node-hours
    representative: str
    accelerable: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.share <= 1.0:
            raise ScenarioError(f"{self.domain}: share out of range")
        if not 0.0 <= self.accelerable <= 1.0:
            raise ScenarioError(f"{self.domain}: accelerable out of range")


@dataclass(frozen=True)
class NodeHourModel:
    """A machine's domain mix plus total node-hours."""

    name: str
    domains: tuple[DomainWorkload, ...]
    total_node_hours: float = 1.0

    def __post_init__(self) -> None:
        total_share = sum(d.share for d in self.domains)
        if not math.isclose(total_share, 1.0, abs_tol=1e-6):
            mix = ", ".join(
                f"{d.domain}={d.share}" for d in self.domains
            ) or "(no domains)"
            raise ScenarioError(
                f"{self.name}: domain shares sum to {total_share}, not 1 "
                f"(mix: {mix})"
            )

    # -- the vectorized substrate -------------------------------------------

    @cached_property
    def _mix_planes(self) -> tuple[np.ndarray, np.ndarray]:
        """The mix as one-machine ``(1, D)`` share/accelerable planes."""
        shares = np.array([d.share for d in self.domains], dtype=np.float64)
        accelerable = np.array(
            [d.accelerable for d in self.domains], dtype=np.float64
        )
        return shares[None, :], accelerable[None, :]

    def as_grid(self, speedups: Sequence[float] | Any) -> Any:
        """This mix over a speedup grid, as an evaluable
        :class:`~repro.analysis.arrays.SweepGrid`."""
        return SweepGrid.from_models((self,), speedups)

    def consumed_fraction_grid(
        self, speedups: Sequence[float] | Any
    ) -> np.ndarray:
        """Node-hour fractions still consumed, for a whole speedup grid
        in one broadcast evaluation: ``(S,)`` for ``S`` speedups."""
        shares, accelerable = self._mix_planes
        return consumed_fraction_grid(
            shares,
            accelerable,
            speedups,
            machines=(self.name,),
        )[0]

    def reduction_grid(self, speedups: Sequence[float] | Any) -> np.ndarray:
        """Fractional node-hour savings over a speedup grid: ``(S,)``."""
        return 1.0 - self.consumed_fraction_grid(speedups)

    def node_hours_saved_grid(
        self, speedups: Sequence[float] | Any
    ) -> np.ndarray:
        return self.total_node_hours * self.reduction_grid(speedups)

    def throughput_improvement_grid(
        self, speedups: Sequence[float] | Any
    ) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 1.0 / self.consumed_fraction_grid(speedups)

    # -- the scalar API: thin views over one-point grids --------------------

    def consumed_fraction(self, speedup: float) -> float:
        """Node-hour fraction still consumed with an ME of ``speedup``."""
        return float(self.consumed_fraction_grid((speedup,))[0])

    def reduction(self, speedup: float) -> float:
        """Fractional node-hour saving (Fig. 4's y-axis)."""
        return 1.0 - self.consumed_fraction(speedup)

    def node_hours_saved(self, speedup: float) -> float:
        return self.total_node_hours * self.reduction(speedup)

    def throughput_improvement(self, speedup: float) -> float:
        """Science-throughput factor (the conclusion's '~1.1x')."""
        return float(self.throughput_improvement_grid((speedup,))[0])

    def sweep(self, speedups: tuple[float, ...] = (2.0, 4.0, 8.0, math.inf)):
        """(speedup, reduction) series for the figure — one grid call."""
        reductions = self.reduction_grid(speedups)
        return [(s, float(r)) for s, r in zip(speedups, reductions)]
