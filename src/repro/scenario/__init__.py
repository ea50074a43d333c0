"""repro.scenario — the typed, fingerprinted what-if overlay system.

The paper's contribution is a cost-benefit *methodology*; this package
makes the reproduction re-runnable under different assumptions without
forking code.  A :class:`ScenarioSpec` declares hypothetical devices,
extra workloads, edited machine mixes, extrapolation constants, and
substrate seeds; installing it with :func:`scenario_context` makes
every catalogue lookup, substrate computation, pipeline run, and serve
query resolve through the overlay.  The empty spec is the baseline and
changes nothing — byte-identical artefacts, untouched cache keys.

Every spec carries a canonical SHA-256 :attr:`ScenarioSpec.fingerprint`
(field order, defaults-vs-explicit, int/float, and inf spellings all
canonicalise), which joins substrate- and result-cache keys so distinct
what-ifs never share entries and a what-if never poisons the baseline.

>>> from repro.scenario import load_scenario, scenario_context
>>> from repro.hardware import get_device
>>> with scenario_context(load_scenario("examples/scenarios/int8_matrix_engine.json")):
...     get_device("v100-int8me").matrix_engine.name
'int8me'
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ScenarioSpec": "repro.scenario.spec",
    "EMPTY_SCENARIO": "repro.scenario.spec",
    "DeviceOverlay": "repro.scenario.spec",
    "MemoryOverlay": "repro.scenario.spec",
    "UnitOverlay": "repro.scenario.spec",
    "WorkloadOverlay": "repro.scenario.spec",
    "PhaseEdit": "repro.scenario.spec",
    "KernelEdit": "repro.scenario.spec",
    "MachineOverlay": "repro.scenario.spec",
    "DomainEdit": "repro.scenario.spec",
    "ExtrapolationOverlay": "repro.scenario.spec",
    "canonical_scenario": "repro.scenario.spec",
    "scenario_fingerprint": "repro.scenario.spec",
    "active_scenario": "repro.scenario.context",
    "active_cache_token": "repro.scenario.context",
    "scenario_context": "repro.scenario.context",
    "scenario_from_dict": "repro.scenario.io",
    "scenario_to_dict": "repro.scenario.io",
    "load_scenario": "repro.scenario.io",
    "load_scenario_files": "repro.scenario.io",
    "dump_scenario": "repro.scenario.io",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
