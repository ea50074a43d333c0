"""Workload catalogue: every row of Table V, queryable by name or suite.

All lookups resolve through the active scenario overlay
(:mod:`repro.scenario`): overlay workloads extend — or, on a qualified
name collision, shadow — the built-in Table V catalogue.  With no
scenario installed the catalogue is exactly the paper's 77 rows.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import WorkloadError
from repro.scenario.context import active_scenario
from repro.scenario.resolve import resolve_workloads
from repro.workloads.base import Workload
from repro.workloads.ecp import ECP_WORKLOADS
from repro.workloads.riken import RIKEN_WORKLOADS
from repro.workloads.speccpu import SPEC_CPU_WORKLOADS
from repro.workloads.specmpi import SPEC_MPI_WORKLOADS
from repro.workloads.specomp import SPEC_OMP_WORKLOADS
from repro.workloads.top500 import HPCG, HPL

__all__ = [
    "all_workloads",
    "get_workload",
    "workload_names",
    "workloads_by_suite",
    "workloads_by_domain",
    "domain_names",
    "suite_names",
    "EXPECTED_COUNTS",
]

#: Benchmarks per suite, as the paper states them (Sec. III-D1).
EXPECTED_COUNTS = {
    "TOP500": 2,
    "ECP": 11,
    "RIKEN": 8,
    "SPEC CPU": 24,
    "SPEC OMP": 14,
    "SPEC MPI": 18,
}


def _build() -> dict[str, Workload]:
    catalogue: dict[str, Workload] = {}
    for w in (
        (HPL(), HPCG())
        + ECP_WORKLOADS
        + RIKEN_WORKLOADS
        + SPEC_CPU_WORKLOADS
        + SPEC_OMP_WORKLOADS
        + SPEC_MPI_WORKLOADS
    ):
        key = f"{w.meta.suite}/{w.meta.name}"
        if key in catalogue:
            raise WorkloadError(f"duplicate workload {key!r}")
        catalogue[key] = w
    return catalogue


_CATALOGUE: dict[str, Workload] | None = None

_OVERLAY_CACHE_MAX = 32
_overlay_cache: OrderedDict[str, dict[str, Workload]] = OrderedDict()
_overlay_mutex = threading.Lock()


def _builtin_catalogue() -> dict[str, Workload]:
    global _CATALOGUE
    if _CATALOGUE is None:
        _CATALOGUE = _build()
    return _CATALOGUE


def _overlay_workloads() -> dict[str, Workload]:
    """The active scenario's resolved workloads (``{}`` for baseline),
    cached per scenario fingerprint."""
    spec = active_scenario()
    if not spec.workloads:
        return {}
    token = spec.fingerprint
    with _overlay_mutex:
        if token in _overlay_cache:
            _overlay_cache.move_to_end(token)
            return _overlay_cache[token]
    resolved = resolve_workloads(spec)
    with _overlay_mutex:
        _overlay_cache[token] = resolved
        _overlay_cache.move_to_end(token)
        while len(_overlay_cache) > _OVERLAY_CACHE_MAX:
            _overlay_cache.popitem(last=False)
    return resolved


def _catalogue() -> dict[str, Workload]:
    builtin = _builtin_catalogue()
    overlay = _overlay_workloads()
    if not overlay:
        return builtin
    merged = dict(builtin)
    merged.update(overlay)  # overlays shadow on qualified-name collision
    return merged


def all_workloads() -> tuple[Workload, ...]:
    """All benchmarks in Table V order (the paper's 77 at baseline),
    plus any active scenario-overlay workloads."""
    return tuple(_catalogue().values())


def workload_names() -> list[str]:
    """Qualified names, ``"SUITE/name"``."""
    return list(_catalogue())


def suite_names() -> tuple[str, ...]:
    return tuple(EXPECTED_COUNTS)


def workloads_by_suite(suite: str) -> tuple[Workload, ...]:
    """All benchmarks of one suite, preserving order."""
    found = tuple(
        w for w in _catalogue().values() if w.meta.suite == suite
    )
    if not found:
        raise WorkloadError(
            f"unknown suite {suite!r}; known: {sorted(EXPECTED_COUNTS)}"
        )
    return found


def domain_names() -> list[str]:
    """Sorted distinct Table V domain labels."""
    return sorted({w.meta.domain for w in _catalogue().values()})


def workloads_by_domain(domain: str) -> tuple[Workload, ...]:
    """All benchmarks of one science/engineering domain (exact label
    or case-insensitive substring, e.g. ``"chem"``)."""
    low = domain.lower()
    found = tuple(
        w for w in _catalogue().values() if low in w.meta.domain.lower()
    )
    if not found:
        raise WorkloadError(
            f"no workloads in domain {domain!r}; known: {domain_names()}"
        )
    return found


def get_workload(name: str) -> Workload:
    """Look up by qualified (``"ECP/Nekbone"``) or bare (``"Nekbone"``)
    name, case-insensitively.  Bare names shared across suites (pop2,
    bwaves, imagick, nab) require qualification."""
    cat = _catalogue()
    low = name.lower()
    if "/" in name:
        for key, w in cat.items():
            if key.lower() == low:
                return w
        raise WorkloadError(f"unknown workload {name!r}")
    matches = [w for k, w in cat.items() if k.split("/", 1)[1].lower() == low]
    if not matches:
        raise WorkloadError(f"unknown workload {name!r}")
    if len(matches) > 1:
        suites = [w.meta.suite for w in matches]
        raise WorkloadError(
            f"ambiguous workload {name!r} (in suites {suites}); "
            f"qualify as 'SUITE/name'"
        )
    return matches[0]
