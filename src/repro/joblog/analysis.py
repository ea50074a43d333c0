"""GEMM node-hour attribution (the Sec. III-A analysis)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.joblog.generator import KComputerYear, sequential_sum

__all__ = ["GemmAttribution", "attribute_gemm_node_hours"]


@dataclass(frozen=True)
class GemmAttribution:
    """Result of grepping the year's symbol tables for GEMM."""

    total_node_hours: float
    covered_node_hours: float
    gemm_node_hours: float
    total_jobs: int
    gemm_jobs: int

    @property
    def coverage(self) -> float:
        """Node-hour fraction with symbol data (paper: 96 %)."""
        if self.total_node_hours <= 0:
            return 0.0
        return self.covered_node_hours / self.total_node_hours

    @property
    def gemm_fraction(self) -> float:
        """GEMM-linked share of *covered* node-hours (paper: 53.4 %)."""
        if self.covered_node_hours <= 0:
            return 0.0
        return self.gemm_node_hours / self.covered_node_hours

    @property
    def best_case_halving(self) -> bool:
        """The paper's headline: 'in the absolute best case, the
        inclusion of MEs could have halved the number of node hours' —
        true when the GEMM-linked share is about one half."""
        return 0.4 <= self.gemm_fraction <= 0.65


def estimate_energy_savings(
    attribution: GemmAttribution,
    *,
    node_power_w: float = 153.0,
    gemm_runtime_share: float = 0.25,
    me_speedup: float = 4.0,
) -> dict[str, float]:
    """Sec. III-A's energy angle: "a significant reduction in energy
    consumption (and, possibly, repair-costs)".

    The symbol analysis only shows which jobs *could* run GEMM; to turn
    that into Joules we need an assumed average GEMM runtime share
    within those jobs (``gemm_runtime_share``; the paper's own Fig. 3
    average for GEMM-positive apps is ~25 %) and a node power
    (K computer: 12.7 MW over 82,944 nodes ~ 153 W).

    Returns node-hours saved, MWh saved, and the machine-level fraction.
    """
    if node_power_w <= 0 or not 0 <= gemm_runtime_share <= 1:
        raise ValueError("bad node power or runtime share")
    from repro.extrapolate.model import amdahl_time_fraction

    per_job_saving = 1.0 - amdahl_time_fraction(gemm_runtime_share, me_speedup)
    node_hours_saved = attribution.gemm_node_hours * per_job_saving
    return {
        "node_hours_saved": node_hours_saved,
        "mwh_saved": node_hours_saved * node_power_w / 1e6,
        "machine_fraction": (
            node_hours_saved / attribution.total_node_hours
            if attribution.total_node_hours
            else 0.0
        ),
    }


def attribute_gemm_node_hours(year: KComputerYear) -> GemmAttribution:
    """Aggregate GEMM-linkage over a job population.

    The nm grep runs once per distinct symbol table, not once per job,
    and each total adds its jobs' node-hours in job order.
    """
    # One flag per table, plus a trailing False that table_id -1 (no
    # symbol data) indexes.
    table_gemm = np.array([t.has_gemm() for t in year.tables] + [False])
    gemm = table_gemm[year.table_id]
    hours = year.node_hours
    return GemmAttribution(
        total_node_hours=sequential_sum(hours),
        covered_node_hours=sequential_sum(hours[year.table_id >= 0]),
        gemm_node_hours=sequential_sum(hours[gemm]),
        total_jobs=len(hours),
        gemm_jobs=int(np.count_nonzero(gemm)),
    )
