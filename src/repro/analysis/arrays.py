"""Vectorized array-program kernels for the Amdahl sweep hot path.

The paper's central artifact (Fig. 4 / Sec. V) is a cost-benefit sweep
over machines x workload mixes x ME-speedup grids.  The scalar API
(:class:`repro.extrapolate.model.NodeHourModel`,
:func:`repro.analysis.costbenefit.assess_scenario`) evaluates one point
per Python call; this module evaluates the *whole* grid as a handful of
NumPy broadcast operations and the scalar layers sit on top of it as
thin views.

Bit-exactness contract
----------------------
Every tensor this module returns is **bit-identical** to the scalar
arithmetic it replaces — the golden artifacts and the serve layer's
"byte-identical to the library" claim both depend on it.  Two rules
make that possible:

* per-element operations mirror the scalar expressions exactly
  (``(1 - a) + a / s`` with the ``inf`` branch selected by mask, never
  algebraically rearranged);
* the reduction over the domain axis accumulates **left to right**,
  one domain at a time, exactly like the scalar ``sum()`` — NumPy's
  pairwise ``np.sum`` would round differently for mixes of more than
  eight domains.

The domain axis is small (the paper's machines have 6–10 domains), so
looping over it costs nothing; the big machine x speedup plane is what
vectorizes.

Padding and masking
-------------------
Machines with different domain counts stack into one ``(M, D)`` plane
zero-padded on the right; a boolean ``mask`` marks the real entries.
Padded slots have ``share == 0`` so they contribute exactly ``+0.0`` to
the left-to-right accumulation — the sum over a padded row is
bit-identical to the unpadded scalar sum.  Validation only looks at
masked (real) entries and reports the offending grid index in every
:class:`~repro.errors.ScenarioError`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import ScenarioError
from repro.integrity.invariants import verify_sweep_result
from repro.resilience.cancel import cancel_point

__all__ = [
    "SweepGrid",
    "SweepResult",
    "amdahl_grid",
    "consumed_fraction_grid",
    "kernel_invocations",
]

#: Share sums may drift from 1 by this much (matches the scalar
#: ``NodeHourModel`` validation's ``abs_tol``).
SHARE_SUM_TOLERANCE = 1e-6

_kernel_invocations = itertools.count()
_kernel_invocations_seen = 0


def kernel_invocations() -> int:
    """How many grid evaluations this process has run.

    Observability hook for tests and benchmarks: a caller that claims to
    route through the vectorized path can assert this counter moved.
    """
    return _kernel_invocations_seen


def _count_invocation() -> None:
    global _kernel_invocations_seen
    _kernel_invocations_seen = next(_kernel_invocations) + 1


def _as_grid_array(values: Any, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ScenarioError(
            f"{name} must be a (machines, domains) plane, got shape "
            f"{arr.shape}"
        )
    return arr


def _validate_speedups(speedups: np.ndarray) -> None:
    # ``~(s >= 1)`` catches NaN as well as undershoot.
    bad = ~(speedups >= 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ScenarioError(
            f"speedup must be >= 1, got {speedups[i]} "
            f"(speedup grid index {i})"
        )


def _validate_fraction_plane(
    values: np.ndarray, mask: np.ndarray, what: str, machines: Sequence[str]
) -> None:
    bad = mask & ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        m, d = np.unravel_index(int(np.argmax(bad)), bad.shape)
        label = machines[m] if m < len(machines) else f"machine {m}"
        raise ScenarioError(
            f"{label}: {what} out of range: {values[m, d]} "
            f"(grid index ({m}, {d}))"
        )


def _validate_share_sums(
    shares: np.ndarray, mask: np.ndarray, machines: Sequence[str]
) -> None:
    totals = np.where(mask, shares, 0.0).sum(axis=1)
    bad = np.abs(totals - 1.0) > SHARE_SUM_TOLERANCE
    if bad.any():
        m = int(np.argmax(bad))
        label = machines[m] if m < len(machines) else f"machine {m}"
        raise ScenarioError(
            f"{label}: domain shares sum to {totals[m]}, not 1 "
            f"(machine grid index {m})"
        )


def amdahl_grid(accelerable: Any, speedups: Any) -> np.ndarray:
    """Remaining-time-fraction plane: broadcast Amdahl over a grid.

    ``accelerable`` and ``speedups`` broadcast against each other; the
    result holds ``(1 - a) + a / s`` with the paper's ``inf``-speedup
    limit ``1 - a`` selected exactly (never computed as ``a / inf``
    plus a rearranged sum).  Bit-identical per element to
    :func:`repro.extrapolate.model.amdahl_time_fraction`.
    """
    a = np.asarray(accelerable, dtype=np.float64)
    s = np.asarray(speedups, dtype=np.float64)
    a_flat = np.atleast_1d(a)
    bad_a = ~((a_flat >= 0.0) & (a_flat <= 1.0))
    if bad_a.any():
        idx = np.unravel_index(int(np.argmax(bad_a)), bad_a.shape)
        raise ScenarioError(
            f"accelerable fraction out of range: {a_flat[idx]} "
            f"(grid index {idx})"
        )
    _validate_speedups(np.atleast_1d(s))
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(s), 1.0 - a, (1.0 - a) + a / s)


def consumed_fraction_grid(
    shares: Any,
    accelerable: Any,
    speedups: Any,
    *,
    mask: np.ndarray | None = None,
    machines: Sequence[str] = (),
    validate: bool = True,
) -> np.ndarray:
    """Consumed node-hour fraction tensor: ``(M, D) x (S,) -> (M, S)``.

    The core sweep kernel.  ``shares``/``accelerable`` are the stacked
    domain mixes (zero-padded; ``mask`` marks real entries), ``speedups``
    the ME-speedup grid (``inf`` allowed).  Element ``[m, i]`` is
    bit-identical to
    ``NodeHourModel.consumed_fraction``'s scalar loop for machine ``m``
    at speedup ``i``.
    """
    sh = _as_grid_array(shares, "shares")
    acc = _as_grid_array(accelerable, "accelerable")
    sp = np.atleast_1d(np.asarray(speedups, dtype=np.float64))
    if sh.shape != acc.shape:
        raise ScenarioError(
            f"shares {sh.shape} and accelerable {acc.shape} planes disagree"
        )
    if mask is None:
        mask = np.ones(sh.shape, dtype=bool)
    if validate:
        _validate_fraction_plane(sh, mask, "share", machines)
        _validate_fraction_plane(acc, mask, "accelerable fraction", machines)
        _validate_share_sums(sh, mask, machines)
        _validate_speedups(sp)
    _count_invocation()
    n_machines, n_domains = sh.shape
    sp_row = sp[None, :]
    inf_row = np.isinf(sp_row)
    consumed = np.zeros((n_machines, sp.shape[0]))
    for d in range(n_domains):
        # Kernel-row cancellation granularity: an abandoned sweep stops
        # within one domain's worth of arithmetic instead of finishing
        # the whole grid for nobody.
        cancel_point()
        a = acc[:, d, None]
        remaining = np.where(inf_row, 1.0 - a, (1.0 - a) + a / sp_row)
        # Left-to-right accumulation: exactly the scalar ``sum()``.
        consumed = consumed + sh[:, d, None] * remaining
    return consumed


@dataclass(frozen=True)
class SweepResult:
    """Every Fig. 4 tensor of one grid evaluation, in one shot.

    All four payload tensors are ``(machines, speedups)`` planes whose
    elements are bit-identical to the corresponding scalar
    :class:`~repro.extrapolate.model.NodeHourModel` methods.
    """

    machines: tuple[str, ...]
    speedups: np.ndarray  # (S,)
    consumed_fraction: np.ndarray  # (M, S)
    reduction: np.ndarray  # (M, S)
    throughput_improvement: np.ndarray  # (M, S)
    node_hours_saved: np.ndarray  # (M, S)

    def machine_index(self, name: str) -> int:
        try:
            return self.machines.index(name)
        except ValueError:
            raise ScenarioError(
                f"unknown machine {name!r}; grid has {list(self.machines)}"
            ) from None


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """A stacked Amdahl sweep: machine mixes x an ME-speedup grid.

    ``shares``/``accelerable`` are ``(M, D)`` planes zero-padded on the
    right (``mask`` marks real domains), ``total_node_hours`` is ``(M,)``
    and ``speedups`` is the shared ``(S,)`` speedup grid — ``inf`` is a
    regular grid point handled by masking inside the kernels.

    Build one with :meth:`from_models` (stacking
    :class:`~repro.extrapolate.model.NodeHourModel` mixes) or
    :meth:`from_arrays` (raw planes, fully validated with grid-indexed
    errors); evaluate with :meth:`evaluate` for all four tensors in one
    shot, or with the per-tensor views.
    """

    machines: tuple[str, ...]
    shares: np.ndarray
    accelerable: np.ndarray
    mask: np.ndarray
    total_node_hours: np.ndarray
    speedups: np.ndarray
    domains: tuple[tuple[str, ...], ...] = field(default=())

    @classmethod
    def from_arrays(
        cls,
        machines: Sequence[str],
        shares: Any,
        accelerable: Any,
        speedups: Any,
        *,
        mask: Any | None = None,
        total_node_hours: Any | None = None,
        domains: Sequence[Sequence[str]] = (),
    ) -> "SweepGrid":
        """Validated grid from raw planes (zero-padded + masked)."""
        sh = _as_grid_array(shares, "shares")
        acc = _as_grid_array(accelerable, "accelerable")
        if sh.shape != acc.shape:
            raise ScenarioError(
                f"shares {sh.shape} and accelerable {acc.shape} planes "
                "disagree"
            )
        names = tuple(machines)
        if len(names) != sh.shape[0]:
            raise ScenarioError(
                f"{len(names)} machine names for {sh.shape[0]} mix rows"
            )
        if mask is None:
            mask_arr = np.ones(sh.shape, dtype=bool)
        else:
            mask_arr = np.asarray(mask, dtype=bool)
            if mask_arr.shape != sh.shape:
                raise ScenarioError(
                    f"mask {mask_arr.shape} does not match mixes {sh.shape}"
                )
        # Padded slots must stay arithmetically inert (+0.0 terms).
        sh = np.where(mask_arr, sh, 0.0)
        acc = np.where(mask_arr, acc, 0.0)
        if total_node_hours is None:
            hours = np.ones(len(names))
        else:
            hours = np.atleast_1d(
                np.asarray(total_node_hours, dtype=np.float64)
            )
            if hours.shape != (len(names),):
                raise ScenarioError(
                    f"total_node_hours {hours.shape} does not match "
                    f"{len(names)} machines"
                )
        sp = np.atleast_1d(np.asarray(speedups, dtype=np.float64))
        _validate_fraction_plane(sh, mask_arr, "share", names)
        _validate_fraction_plane(
            acc, mask_arr, "accelerable fraction", names
        )
        _validate_share_sums(sh, mask_arr, names)
        _validate_speedups(sp)
        return cls(
            machines=names,
            shares=sh,
            accelerable=acc,
            mask=mask_arr,
            total_node_hours=hours,
            speedups=sp,
            domains=tuple(tuple(d) for d in domains),
        )

    @classmethod
    def from_models(
        cls, models: Iterable[Any], speedups: Any
    ) -> "SweepGrid":
        """Stack :class:`NodeHourModel` mixes into one padded grid.

        Models validated their own mixes at construction; only the
        speedup grid is re-checked here.
        """
        models = list(models)
        if not models:
            raise ScenarioError("cannot build a sweep grid from no machines")
        width = max(len(m.domains) for m in models)
        n = len(models)
        sh = np.zeros((n, width))
        acc = np.zeros((n, width))
        mask = np.zeros((n, width), dtype=bool)
        hours = np.ones(n)
        for i, model in enumerate(models):
            k = len(model.domains)
            sh[i, :k] = [d.share for d in model.domains]
            acc[i, :k] = [d.accelerable for d in model.domains]
            mask[i, :k] = True
            hours[i] = model.total_node_hours
        sp = np.atleast_1d(np.asarray(speedups, dtype=np.float64))
        _validate_speedups(sp)
        return cls(
            machines=tuple(m.name for m in models),
            shares=sh,
            accelerable=acc,
            mask=mask,
            total_node_hours=hours,
            speedups=sp,
            domains=tuple(
                tuple(d.domain for d in m.domains) for m in models
            ),
        )

    # -- kernels ------------------------------------------------------------

    @cached_property
    def _result(self) -> SweepResult:
        consumed = consumed_fraction_grid(
            self.shares,
            self.accelerable,
            self.speedups,
            mask=self.mask,
            machines=self.machines,
            validate=False,  # validated at construction
        )
        reduction = 1.0 - consumed
        # A fully-accelerable mix at infinite speedup consumes nothing;
        # its throughput factor is the mathematical limit, +inf.
        with np.errstate(divide="ignore"):
            throughput = 1.0 / consumed
        saved = self.total_node_hours[:, None] * reduction
        result = SweepResult(
            machines=self.machines,
            speedups=self.speedups,
            consumed_fraction=consumed,
            reduction=reduction,
            throughput_improvement=throughput,
            node_hours_saved=saved,
        )
        # ABFT-style self-checks after every kernel pass: a corrupted
        # tensor raises IntegrityError instead of flowing downstream.
        verify_sweep_result(self, result)
        return result

    def evaluate(self) -> SweepResult:
        """All four Fig. 4 tensors from one broadcast evaluation."""
        return self._result

    def consumed_fraction(self) -> np.ndarray:
        return self._result.consumed_fraction

    def reduction(self) -> np.ndarray:
        return self._result.reduction

    def throughput_improvement(self) -> np.ndarray:
        return self._result.throughput_improvement

    def node_hours_saved(self) -> np.ndarray:
        return self._result.node_hours_saved

    @property
    def shape(self) -> tuple[int, int]:
        """(machines, speedups) — the evaluated plane's shape."""
        return (len(self.machines), int(self.speedups.shape[0]))

    def with_speedups(self, speedups: Any) -> "SweepGrid":
        """The same stacked mixes over a different speedup grid."""
        sp = np.atleast_1d(np.asarray(speedups, dtype=np.float64))
        _validate_speedups(sp)
        return SweepGrid(
            machines=self.machines,
            shares=self.shares,
            accelerable=self.accelerable,
            mask=self.mask,
            total_node_hours=self.total_node_hours,
            speedups=sp,
            domains=self.domains,
        )


def _ensure_inf_column(speedups: Sequence[float]) -> tuple[np.ndarray, int]:
    """The speedup grid with an ``inf`` column guaranteed, plus its index
    (the ideal-engine column backing ``node_hour_reduction_ideal``)."""
    sp = list(float(s) for s in speedups)
    for i, s in enumerate(sp):
        if math.isinf(s):
            return np.asarray(sp, dtype=np.float64), i
    sp.append(math.inf)
    return np.asarray(sp, dtype=np.float64), len(sp) - 1
