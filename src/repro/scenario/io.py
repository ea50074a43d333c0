"""Scenario wire/file format: JSON <-> :class:`ScenarioSpec`.

The file format is the canonical dict shape of :mod:`repro.scenario.spec`
(see ``examples/scenarios/`` for worked files).  Construction is strict
— unknown keys are rejected with the accepted field list, exactly like
the serve layer's query validation — and wire-lenient: ints build
float fields, JSON lists build tuples, and the canonical ``"inf"`` /
``"-inf"`` strings build infinities, so a round-tripped canonical dict
reconstructs a spec with the identical fingerprint.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ScenarioError
from repro.scenario.spec import (
    DeviceOverlay,
    DomainEdit,
    ExtrapolationOverlay,
    KernelEdit,
    MachineOverlay,
    MemoryOverlay,
    PhaseEdit,
    ScenarioSpec,
    UnitOverlay,
    WorkloadOverlay,
    canonical_scenario,
)

__all__ = [
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "load_scenario_files",
    "dump_scenario",
]

#: Which field of which dataclass nests which overlay type.
_NESTED: dict[tuple[type, str], type] = {
    (ScenarioSpec, "devices"): DeviceOverlay,
    (ScenarioSpec, "workloads"): WorkloadOverlay,
    (ScenarioSpec, "machines"): MachineOverlay,
    (ScenarioSpec, "extrapolation"): ExtrapolationOverlay,
    (DeviceOverlay, "memory"): MemoryOverlay,
    (DeviceOverlay, "units"): UnitOverlay,
    (MachineOverlay, "domains"): DomainEdit,
    (WorkloadOverlay, "phases"): PhaseEdit,
    (PhaseEdit, "kernels"): KernelEdit,
}


def _coerce_float(value: Any, where: str) -> Any:
    if isinstance(value, bool):
        return value  # let the dataclass reject it
    if isinstance(value, int):
        return float(value)
    if isinstance(value, str):
        if value == "inf":
            return float("inf")
        if value == "-inf":
            return float("-inf")
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    return value


def _build(cls: type, data: Any, where: str) -> Any:
    if not isinstance(data, Mapping):
        raise ScenarioError(
            f"{where}: expected an object, got {type(data).__name__}"
        )
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ScenarioError(
            f"{where}: unknown key {unknown[0]!r}; accepts {sorted(fields)}"
        )
    kwargs: dict[str, Any] = {}
    for key, raw in data.items():
        f = fields[key]
        nested = _NESTED.get((cls, key))
        annot = str(f.type)
        if nested is not None and raw is not None:
            if isinstance(raw, list):
                raw = tuple(
                    _build(nested, item, f"{where}.{key}[{i}]")
                    for i, item in enumerate(raw)
                )
            else:
                raw = _build(nested, raw, f"{where}.{key}")
        elif isinstance(raw, Mapping) and "float" in annot:
            raw = {
                str(k): _coerce_float(v, f"{where}.{key}[{k}]")
                for k, v in raw.items()
            }
        elif "float" in annot and not isinstance(raw, Mapping):
            if isinstance(raw, list):
                pass  # e.g. tile-like sequences — no float coercion
            elif raw is not None:
                raw = _coerce_float(raw, f"{where}.{key}")
        kwargs[key] = raw
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Construct and validate a spec from wire/file input."""
    return _build(ScenarioSpec, data, "scenario")


def scenario_to_dict(spec: ScenarioSpec) -> dict[str, Any]:
    """The spec's canonical dict, labels included (round-trips through
    :func:`scenario_from_dict` to the identical fingerprint)."""
    return canonical_scenario(spec, include_label=True)


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario overlay file (JSON)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def load_scenario_files(paths: list[str]) -> list[ScenarioSpec]:
    """Load each ``--scenario`` file for registration, exiting with the
    first bad one's error before anything starts."""
    specs = []
    for path in paths:
        try:
            spec = load_scenario(path)
            if not spec.name:
                raise ScenarioError("a registered scenario needs a name")
        except ScenarioError as exc:
            raise SystemExit(f"--scenario {path}: {exc}")
        specs.append(spec)
    return specs


def dump_scenario(spec: ScenarioSpec, path: str | Path) -> Path:
    """Write the canonical JSON form of ``spec`` to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(scenario_to_dict(spec), indent=2, sort_keys=True) + "\n")
    return path
