"""The Fig. 4 machines, built from *measured* Fig. 3 fractions.

Per the paper's method, each science domain is represented by the
suite application with the highest GEMM + (Sca)LAPACK share; "other"
workloads are assumed to spend 10 % in GEMM.  The accelerable fractions
are taken live from :func:`repro.workloads.profile_workload`, so any
change to the workload models propagates here automatically.

All of it resolves through the active scenario overlay
(:mod:`repro.scenario`): a :class:`~repro.scenario.spec.MachineOverlay`
whose name matches a builder's wire name edits that machine's mix,
a novel name defines a new machine (optionally starting from a built-in
``base``), and an :class:`~repro.scenario.spec.ExtrapolationOverlay`
replaces the two global constants.  With no scenario installed every
builder returns exactly the paper's mix.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ScenarioError
from repro.extrapolate.model import DomainWorkload, NodeHourModel
from repro.scenario.context import active_cache_token, active_scenario
from repro.workloads.base import profile_all_workloads, profile_workload
from repro.workloads.registry import get_workload

__all__ = [
    "k_computer_scenario",
    "anl_scenario",
    "future_scenario",
    "fugaku_scenario",
    "MACHINE_BUILDERS",
    "machine_names",
    "build_machine",
]

_OTHER_GEMM_ASSUMPTION = 0.10  # the paper's "other spend 10 % in GEMM"

#: BERT's assumed GEMM occupancy for the future system: derived in the
#: paper's footnote 15 from its %TC-comp via 4*p/(4*p + (100-p)).
_BERT_GEMM_OCCUPANCY = 0.832


def _other_gemm() -> float:
    """The "other" domains' assumed GEMM share, scenario-overridable."""
    ov = active_scenario().extrapolation.other_gemm_assumption
    return _OTHER_GEMM_ASSUMPTION if ov is None else ov


def _bert_occupancy() -> float:
    """BERT's assumed GEMM occupancy, scenario-overridable."""
    ov = active_scenario().extrapolation.bert_gemm_occupancy
    return _BERT_GEMM_OCCUPANCY if ov is None else ov


@lru_cache(maxsize=512)
def _accelerable_cached(token: str | None, qualified_name: str) -> float:
    by_name = {
        f"{r.suite}/{r.workload}": r for r in profile_all_workloads()
    }
    report = by_name.get(qualified_name)
    if report is None:  # not in the Table V catalogue — profile directly
        report = profile_workload(get_workload(qualified_name))
    return report.gemm_fraction + report.lapack_fraction


def _accelerable(qualified_name: str) -> float:
    """Measured GEMM + (Sca)LAPACK fraction of one workload.

    The paper's idealisation maps GEMM and (Sca)LAPACK time onto the
    engine; level-1/2 BLAS stays off it (Sec. V-B1).  Reports come from
    the shared ``workload_profiles`` substrate (the same sweep Fig. 3
    renders), so building the scenarios never re-profiles a catalogue
    workload.  The memo is keyed by the active scenario's cache token
    so overlay workloads (or edited mixes) never poison the baseline.
    """
    return _accelerable_cached(active_cache_token(), qualified_name)


def _domain_accelerable(edit, where: str) -> float | None:
    """An edit's accelerable fraction: explicit value, else measured
    from its representative, else ``None`` (keep the base value)."""
    if edit.accelerable is not None:
        return edit.accelerable
    if edit.representative is not None:
        try:
            return _accelerable(edit.representative)
        except Exception as exc:
            raise ScenarioError(
                f"{where}: cannot profile representative "
                f"{edit.representative!r}: {exc}"
            ) from exc
    return None


def _apply_machine_overlay(ov, base: NodeHourModel | None) -> NodeHourModel:
    """Apply one :class:`MachineOverlay` to a (possibly absent) base mix."""
    where = f"machine overlay {ov.name!r}"
    domains: list[DomainWorkload] = list(base.domains) if base else []
    by_label = {d.domain: i for i, d in enumerate(domains)}
    for edit in ov.domains:
        if edit.remove:
            if edit.domain not in by_label:
                raise ScenarioError(
                    f"{where}: cannot remove unknown domain "
                    f"{edit.domain!r}; has {sorted(by_label)}"
                )
            domains[by_label[edit.domain]] = None
            continue
        accelerable = _domain_accelerable(edit, where)
        if edit.domain in by_label:
            idx = by_label[edit.domain]
            cur = domains[idx]
            domains[idx] = DomainWorkload(
                domain=cur.domain,
                share=cur.share if edit.share is None else edit.share,
                representative=edit.representative or cur.representative,
                accelerable=cur.accelerable if accelerable is None else accelerable,
            )
        else:
            if edit.share is None or accelerable is None:
                raise ScenarioError(
                    f"{where}: new domain {edit.domain!r} needs a 'share' "
                    "plus 'accelerable' or a 'representative'"
                )
            domains.append(
                DomainWorkload(
                    domain=edit.domain,
                    share=edit.share,
                    representative=edit.representative or "(assumed)",
                    accelerable=accelerable,
                )
            )
            by_label[edit.domain] = len(domains) - 1
    kept = [d for d in domains if d is not None]
    if not kept:
        raise ScenarioError(f"{where}: no domains left")
    if ov.renormalize:
        total = sum(d.share for d in kept)
        if total <= 0.0:
            raise ScenarioError(f"{where}: shares sum to {total}")
        kept = [
            DomainWorkload(d.domain, d.share / total, d.representative, d.accelerable)
            for d in kept
        ]
    name = ov.display_name or (base.name if base else ov.name)
    total_node_hours = (
        ov.total_node_hours
        if ov.total_node_hours is not None
        else (base.total_node_hours if base else 1.0)
    )
    try:
        return NodeHourModel(name, tuple(kept), total_node_hours=total_node_hours)
    except ScenarioError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _overlay_for(wire_name: str):
    for ov in active_scenario().machines:
        if ov.name == wire_name:
            return ov
    return None


def _finish(wire_name: str, model: NodeHourModel) -> NodeHourModel:
    """Apply the active scenario's overlay for this wire name, if any."""
    ov = _overlay_for(wire_name)
    return model if ov is None else _apply_machine_overlay(ov, model)


def _k_computer_raw() -> NodeHourModel:
    matsc = (
        _accelerable("RIKEN/FFB")
        + _accelerable("RIKEN/MODYLAS")
        + _accelerable("RIKEN/QCD")
    ) / 3.0
    domains = (
        DomainWorkload("Material Science", 0.45, "FFB+MODYLAS+QCD", matsc),
        DomainWorkload("Chemistry", 0.23, "NTChem", _accelerable("RIKEN/NTChem")),
        DomainWorkload("Geoscience", 0.13, "NICAM", _accelerable("RIKEN/NICAM")),
        DomainWorkload("Biology", 0.12, "NGSA", _accelerable("RIKEN/NGSA")),
        DomainWorkload("Physics", 0.065, "mVMC", _accelerable("RIKEN/mVMC")),
        DomainWorkload("Other", 0.005, "(assumed)", _other_gemm()),
    )
    return NodeHourModel("K computer", domains, total_node_hours=543e6)


def k_computer_scenario() -> NodeHourModel:
    """Fig. 4a: the K computer's historical domain mix with RIKEN Fiber
    representatives (FFB + MODYLAS + QCD sharing material science)."""
    return _finish("k_computer", _k_computer_raw())


def _fugaku_raw() -> NodeHourModel:
    reps = {
        "Drug discovery (genomics)": ("RIKEN/NGSA", None),
        "Personalized medicine": ("RIKEN/NGSA", None),
        "Disaster prediction": ("RIKEN/NICAM", None),
        "Environment/climate": ("RIKEN/NICAM", None),
        "Energy (materials)": ("RIKEN/MODYLAS", None),
        "Industrial design (CFD)": ("RIKEN/FFB", None),
        "Fundamental physics": ("RIKEN/QCD", None),
        "Condensed matter": ("RIKEN/mVMC", None),
        "Quantum chemistry": ("RIKEN/NTChem", None),
    }
    ai_share = 0.10
    share = (1.0 - ai_share) / len(reps)
    domains = [DomainWorkload("AI/DL", ai_share, "BERT", _bert_occupancy())]
    domains += [
        DomainWorkload(dom, share, name.split("/", 1)[1], _accelerable(name))
        for dom, (name, _) in reps.items()
    ]
    return NodeHourModel("Fugaku (what-if)", tuple(domains))


def fugaku_scenario() -> NodeHourModel:
    """What-if beyond the paper: Fugaku, procured with the same RIKEN
    Fiber miniapps but with a broader 9-priority-area mix (the Japanese
    flagship program's equal-weight target areas), and a modest AI
    slice.  A64FX shipped without an ME — this scenario quantifies what
    one would have bought."""
    return _finish("fugaku", _fugaku_raw())


def _anl_raw() -> NodeHourModel:
    domains = (
        DomainWorkload("Physics", 0.30, "Laghos", _accelerable("ECP/Laghos")),
        DomainWorkload("Engineering", 0.22, "Nekbone", _accelerable("ECP/Nekbone")),
        DomainWorkload("Materials", 0.14, "CoMD", _accelerable("ECP/CoMD")),
        DomainWorkload("Chemistry", 0.07, "miniFE", _accelerable("ECP/miniFE")),
        DomainWorkload("Earth Science", 0.05, "miniAMR", _accelerable("ECP/miniAMR")),
        DomainWorkload("Biology", 0.04, "XSBench", _accelerable("ECP/XSBench")),
        DomainWorkload("Computer Science", 0.05, "miniTRI", _accelerable("ECP/miniTRI")),
        DomainWorkload("Other", 0.13, "(assumed)", _other_gemm()),
    )
    return NodeHourModel("ANL", domains)


def anl_scenario() -> NodeHourModel:
    """Fig. 4b: Argonne Leadership Computing Facility's 2016 mix with
    ECP representatives (Laghos for the 30 % physics, Nekbone for the
    22 % engineering)."""
    return _finish("anl", _anl_raw())


def _future_raw() -> NodeHourModel:
    # Math/CS is represented by botsspar, the domain's highest-GEMM
    # *application* — HPL is a ranking benchmark, not a workload, and
    # including it would inflate the projection well past the paper's
    # numbers (reproducing 23.8 %/32.8 % requires excluding it).
    reps = {
        "Physics": "ECP/Laghos",
        "Math/Computer Science": "SPEC OMP/botsspar",
        "Chemistry": "RIKEN/NTChem",
        "Material Science/Engineering": "SPEC MPI/socorro",
        "Engineering (CFD)": "SPEC OMP/bt331",
        "Lattice QCD": "SPEC MPI/milc",
        "Geoscience/Earthscience": "RIKEN/NICAM",
        "Bioscience": "RIKEN/NGSA",
    }
    share = 0.8 / len(reps)
    domains = [
        DomainWorkload("AI/DL", 0.20, "BERT", _bert_occupancy()),
    ]
    domains += [
        DomainWorkload(dom, share, name.split("/", 1)[1], _accelerable(name))
        for dom, name in reps.items()
    ]
    return NodeHourModel("Future system", tuple(domains))


def future_scenario() -> NodeHourModel:
    """Fig. 4c: a fictional future system running 20 % AI/DL (BERT at
    83.2 % GEMM), the rest split equally across eight science domains,
    each represented by its highest-GEMM benchmark."""
    return _finish("future", _future_raw())


_RAW_BUILDERS = {
    "k_computer": _k_computer_raw,
    "anl": _anl_raw,
    "future": _future_raw,
    "fugaku": _fugaku_raw,
}

#: Wire name → overlay-aware builder for the built-in Fig. 4 machines.
MACHINE_BUILDERS = {
    "k_computer": k_computer_scenario,
    "anl": anl_scenario,
    "future": future_scenario,
    "fugaku": fugaku_scenario,
}


def machine_names() -> list[str]:
    """Built-in wire names plus the active scenario's new machines."""
    names = list(MACHINE_BUILDERS)
    names += [
        ov.name for ov in active_scenario().machines
        if ov.name not in MACHINE_BUILDERS
    ]
    return names


def build_machine(name: str) -> NodeHourModel:
    """Build one machine mix by wire name under the active scenario.

    Built-in names resolve through their (overlay-aware) builders; a
    scenario-defined machine builds from its ``base``'s raw mix (or from
    scratch) with its edits applied.
    """
    if name in MACHINE_BUILDERS:
        return MACHINE_BUILDERS[name]()
    ov = _overlay_for(name)
    if ov is None:
        raise ScenarioError(
            f"unknown machine {name!r}; known: {machine_names()}"
        )
    base: NodeHourModel | None = None
    if ov.base is not None:
        if ov.base not in _RAW_BUILDERS:
            raise ScenarioError(
                f"machine overlay {name!r}: unknown base {ov.base!r}; "
                f"known: {sorted(_RAW_BUILDERS)}"
            )
        base = _RAW_BUILDERS[ov.base]()
    return _apply_machine_overlay(ov, base)
