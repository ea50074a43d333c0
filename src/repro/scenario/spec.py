"""The typed scenario overlay: one :class:`ScenarioSpec` describes a
complete what-if — hypothetical devices, extra workloads, edited
machine mixes, extrapolation constants, substrate seeds — as data.

A spec is *declarative*: nothing here touches the catalogues.  The
consumers (:mod:`repro.hardware.registry`, :mod:`repro.workloads.registry`,
:mod:`repro.extrapolate.scenarios`, the harness cache, the serve layer)
resolve through the active spec installed by
:func:`repro.scenario.context.scenario_context`.

Every spec has a canonical SHA-256 **fingerprint** over its semantic
content (the ``name``/``description`` labels are excluded), computed
with the same canonicalization rules the serve layer applies to query
params — field order never matters, fields left at their defaults hash
identically to fields set explicitly, ints in float positions coerce,
and non-finite floats take their ``"inf"``/``"-inf"`` wire spelling.
The fingerprint is what keys every cache seam, so two spellings of the
same what-if always share work and two different what-ifs never do.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from repro.errors import ScenarioError
from repro.integrity.digest import payload_digest

__all__ = [
    "UnitOverlay",
    "MemoryOverlay",
    "DeviceOverlay",
    "KernelEdit",
    "PhaseEdit",
    "WorkloadOverlay",
    "DomainEdit",
    "MachineOverlay",
    "ExtrapolationOverlay",
    "ScenarioSpec",
    "EMPTY_SCENARIO",
    "canonical_scenario",
    "scenario_fingerprint",
]


def _astuple(value: Any) -> tuple:
    """Coerce list/tuple field input to a tuple (JSON arrives as lists)."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, list):
        return tuple(value)
    raise ScenarioError(f"expected a sequence, got {type(value).__name__}")


@dataclass(frozen=True)
class UnitOverlay:
    """Add, edit, or remove one compute unit of an overlaid device.

    A ``name`` matching an existing unit edits it (``None`` fields keep
    the base value); an unmatched name adds a new unit, which must then
    declare at least ``kind`` and ``peak_flops``.  ``remove=True`` drops
    the named unit instead.
    """

    name: str
    kind: str | None = None  # "scalar" | "vector" | "matrix"
    peak_flops: Mapping[str, float] | None = None
    gemm_efficiency: float | None = None
    active_power_w: Mapping[str, float] | None = None
    multiply_format: str | None = None
    accumulate_format: str | None = None
    tile: tuple[int, int, int] | None = None
    remove: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("unit overlay needs a non-empty name")
        if self.kind is not None and self.kind not in ("scalar", "vector", "matrix"):
            raise ScenarioError(
                f"unit {self.name!r}: kind must be scalar/vector/matrix, "
                f"got {self.kind!r}"
            )
        if self.tile is not None:
            object.__setattr__(self, "tile", tuple(int(x) for x in _astuple(self.tile)))


@dataclass(frozen=True)
class MemoryOverlay:
    """Field edits on a device's :class:`~repro.hardware.specs.MemorySpec`."""

    capacity_bytes: float | None = None
    bandwidth_bps: float | None = None
    host_link_bps: float | None = None
    active_power_w: float | None = None
    stream_efficiency: float | None = None


@dataclass(frozen=True)
class DeviceOverlay:
    """Add a hypothetical device or override an existing one.

    When ``name`` (or ``base``) names a catalogue device the overlay
    starts from that spec and ``None`` fields keep the base values; a
    novel ``name`` with no ``base`` defines the device from scratch and
    must supply ``vendor``, ``category``, ``tdp_w``, ``idle_w``, a
    ``memory`` block, and at least one unit.
    """

    name: str
    base: str | None = None
    vendor: str | None = None
    category: str | None = None
    process_nm: float | None = None
    die_mm2: float | None = None
    me_size: str | None = None
    tdp_w: float | None = None
    idle_w: float | None = None
    launch_latency_s: float | None = None
    year: int | None = None
    notes: str | None = None
    memory: MemoryOverlay | None = None
    units: tuple[UnitOverlay, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("device overlay needs a non-empty name")
        object.__setattr__(self, "units", _astuple(self.units))


@dataclass(frozen=True)
class KernelEdit:
    """One kernel launch of a declarative scenario workload."""

    kind: str  # KernelKind value, e.g. "gemm", "spmv", "memcpy"
    name: str
    flops: float = 0.0
    nbytes: float = 0.0
    fmt: str = "fp64"

    def __post_init__(self) -> None:
        if self.flops < 0 or self.nbytes < 0:
            raise ScenarioError(
                f"kernel {self.name!r}: flops and nbytes must be >= 0"
            )


@dataclass(frozen=True)
class PhaseEdit:
    """One profiled region of a declarative scenario workload."""

    region: str
    kernels: tuple[KernelEdit, ...] = ()
    repeat: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", _astuple(self.kernels))
        if self.repeat < 1:
            raise ScenarioError(f"phase {self.region!r}: repeat must be >= 1")
        if not self.kernels:
            raise ScenarioError(f"phase {self.region!r}: no kernels")


@dataclass(frozen=True)
class WorkloadOverlay:
    """A declarative kernel-mix workload added to the Table V catalogue.

    Resolved into a :class:`repro.workloads.base.KernelMixWorkload`;
    a ``SUITE/name`` matching a catalogue entry shadows it.
    """

    name: str
    suite: str = "WHATIF"
    domain: str = "Synthetic"
    description: str = ""
    iterations: int = 10
    phases: tuple[PhaseEdit, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("workload overlay needs a non-empty name")
        object.__setattr__(self, "phases", _astuple(self.phases))
        if not self.phases:
            raise ScenarioError(f"workload {self.name!r}: no phases")
        if self.iterations < 1:
            raise ScenarioError(f"workload {self.name!r}: iterations must be >= 1")

    @property
    def qualified_name(self) -> str:
        return f"{self.suite}/{self.name}"


@dataclass(frozen=True)
class DomainEdit:
    """Edit, add, or remove one science domain of a machine's mix.

    A new domain needs a ``share`` plus either an explicit
    ``accelerable`` fraction or a ``representative`` (qualified workload
    name, e.g. ``"RIKEN/NTChem"``) whose measured GEMM+(Sca)LAPACK
    fraction is used.
    """

    domain: str
    share: float | None = None
    representative: str | None = None
    accelerable: float | None = None
    remove: bool = False

    def __post_init__(self) -> None:
        if not self.domain:
            raise ScenarioError("domain edit needs a non-empty domain label")
        if self.share is not None and not 0.0 <= self.share <= 1.0:
            raise ScenarioError(f"{self.domain}: share out of range")
        if self.accelerable is not None and not 0.0 <= self.accelerable <= 1.0:
            raise ScenarioError(f"{self.domain}: accelerable out of range")


@dataclass(frozen=True)
class MachineOverlay:
    """Edit a built-in Fig. 4 machine mix or define a new one.

    ``name`` is the wire name (``"k_computer"``, ``"anl"``, ``"future"``,
    ``"fugaku"``, or a new name); new machines start from ``base`` (a
    built-in wire name) or, without one, entirely from ``domains``.
    ``renormalize`` rescales all shares to sum to one after the edits —
    how "add a 20 % AI slice" stays a valid mix.
    """

    name: str
    base: str | None = None
    display_name: str | None = None
    total_node_hours: float | None = None
    renormalize: bool = False
    domains: tuple[DomainEdit, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("machine overlay needs a non-empty name")
        object.__setattr__(self, "domains", _astuple(self.domains))


@dataclass(frozen=True)
class ExtrapolationOverlay:
    """Overrides of the extrapolation model's global constants."""

    other_gemm_assumption: float | None = None  # the paper's 10 % "other"
    bert_gemm_occupancy: float | None = None  # footnote 15's 83.2 %

    def __post_init__(self) -> None:
        for fname in ("other_gemm_assumption", "bert_gemm_occupancy"):
            v = getattr(self, fname)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ScenarioError(f"{fname} out of range: {v}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete what-if overlay.

    The default spec is **empty**: it resolves every lookup to the
    built-in catalogues and keys every cache exactly as if no scenario
    machinery existed, so the baseline artefacts stay byte-identical.
    """

    name: str = ""
    description: str = ""
    devices: tuple[DeviceOverlay, ...] = ()
    workloads: tuple[WorkloadOverlay, ...] = ()
    machines: tuple[MachineOverlay, ...] = ()
    extrapolation: ExtrapolationOverlay = field(default_factory=ExtrapolationOverlay)
    substrate_seeds: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for fname in ("devices", "workloads", "machines"):
            object.__setattr__(self, fname, _astuple(getattr(self, fname)))
        for fname, keyof in (
            ("devices", lambda o: o.name),
            ("workloads", lambda o: o.qualified_name),
            ("machines", lambda o: o.name),
        ):
            names = [keyof(o) for o in getattr(self, fname)]
            if len(names) != len(set(names)):
                dupes = sorted({n for n in names if names.count(n) > 1})
                raise ScenarioError(f"duplicate {fname} overlay: {dupes}")
        for substrate, seed in dict(self.substrate_seeds).items():
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ScenarioError(
                    f"substrate seed for {substrate!r} must be an int, "
                    f"got {seed!r}"
                )

    @cached_property
    def fingerprint(self) -> str:
        """Canonical SHA-256 over the semantic content (labels excluded)."""
        return scenario_fingerprint(self)

    @property
    def is_empty(self) -> bool:
        """True when the spec changes nothing (pure baseline)."""
        return not (
            self.devices
            or self.workloads
            or self.machines
            or dict(self.substrate_seeds)
            or canonical_scenario(self).get("extrapolation")
        )

    @property
    def cache_token(self) -> str | None:
        """The component cache keys carry: ``None`` for the baseline (so
        baseline keys are exactly the pre-scenario ones), else the
        fingerprint — which is what keeps overlay entries disjoint."""
        return None if self.is_empty else self.fingerprint

    def label(self) -> str:
        """Human-readable identity for logs and manifests."""
        if self.is_empty:
            return "baseline"
        return self.name or self.fingerprint[:12]


#: The shared baseline spec (no overlay at all).
EMPTY_SCENARIO = ScenarioSpec()


# -- canonicalization --------------------------------------------------------


def _is_default(f: dataclasses.Field, value: Any) -> bool:
    if f.default is not dataclasses.MISSING:
        return value == f.default
    if f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return value == f.default_factory()  # type: ignore[misc]
    return False


def _canon_float(value: float, where: str) -> Any:
    if math.isnan(value):
        raise ScenarioError(f"{where}: NaN is not allowed in a scenario spec")
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _canon(value: Any, annot: str = "", where: str = "scenario") -> Any:
    """Recursively canonicalise one field value.

    ``annot`` is the field's (string) type annotation: an int in a
    float-typed position coerces to float, so ``tdp_w=300`` and
    ``tdp_w=300.0`` fingerprint identically — the same int/float rule
    :meth:`repro.serve.queries.QueryKind.build_params` applies on the
    query wire.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            if _is_default(f, v):
                continue
            out[f.name] = _canon(v, str(f.type), f"{where}.{f.name}")
        return out
    if isinstance(value, Mapping):
        coerce = "float" in annot
        return {
            str(k): _canon(
                float(v) if coerce and isinstance(v, int) and not isinstance(v, bool) else v,
                "float" if coerce else "",
                f"{where}[{k}]",
            )
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_canon(v, annot, where) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return _canon_float(value, where)
    if isinstance(value, int):
        if "float" in annot:
            return float(value)
        return value
    raise ScenarioError(
        f"{where}: unsupported value {value!r} in a scenario spec"
    )


def canonical_scenario(spec: ScenarioSpec, *, include_label: bool = False) -> dict:
    """The spec as a canonical, JSON-encodable dict.

    Fields left at their defaults are omitted (defaults-vs-explicit
    identity); ``include_label`` keeps the ``name``/``description``
    labels, which the fingerprint excludes.
    """
    out = _canon(spec)
    if not include_label:
        out.pop("name", None)
        out.pop("description", None)
    # Prune semantically-empty sub-dicts (e.g. extrapolation at defaults).
    return {k: v for k, v in out.items() if v != {} and v != []}


def scenario_fingerprint(spec: ScenarioSpec) -> str:
    """SHA-256 of the canonical semantic encoding."""
    return payload_digest(canonical_scenario(spec))
