"""Benchmark the scenario overlay seam.

Two claims are priced and asserted here.  First, resolving every
catalogue lookup through the active :class:`ScenarioSpec` is free at
the baseline and within the noise floor under an overlay: a warm
``repro-paper`` run with a non-empty scenario installed must stay
within 5% of the warm baseline run.  Second, the overlay never
contaminates shared state: distinct scenarios partition the substrate
cache (every overlay key carries its scenario's fingerprint, no key
appears in two partitions) and the serving layer's result cache keeps
one entry per (query, scenario) pair.
"""

import pathlib
import time

from repro.harness.cache import SUBSTRATE_CACHE
from repro.harness.pipeline import run_pipeline
from repro.scenario import load_scenario, scenario_from_dict
from repro.serve import ServeClient

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples" / "scenarios"

#: Per the issue: a warm overlay run may cost at most 5% over baseline.
MAX_OVERLAY_OVERHEAD = 0.05


def _snapshot_keys():
    with SUBSTRATE_CACHE._mutex:
        return set(SUBSTRATE_CACHE._values)


def _scenario_token(full_key):
    """The scenario fingerprint a cache key carries, or None (baseline)."""
    _, key = full_key
    if key and isinstance(key[0], tuple) and key[0] and key[0][0] == "__scenario__":
        return key[0][1]
    return None


def bench_scenario_overlay_overhead(benchmark):
    """A warm full run under an overlay costs <5% over the warm baseline."""
    overlay = load_scenario(EXAMPLES / "int8_matrix_engine.json")
    SUBSTRATE_CACHE.clear()
    run_pipeline()                    # warm the baseline partition
    run_pipeline(scenario=overlay)    # warm the overlay partition

    def paired_round():
        t0 = time.perf_counter()
        run_pipeline()
        t1 = time.perf_counter()
        run_pipeline(scenario=overlay)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1

    rounds = [paired_round() for _ in range(7)]
    base = min(b for b, _ in rounds)
    over = min(o for _, o in rounds)
    overhead = over / base - 1.0
    assert overhead <= MAX_OVERLAY_OVERHEAD, (
        f"overlay resolution added {overhead:.1%} to a warm run "
        f"(baseline {base:.3f}s, overlay {over:.3f}s)"
    )

    run = benchmark.pedantic(
        lambda: run_pipeline(scenario=overlay), rounds=3, iterations=1
    )
    scenario = run.manifest["scenario"]
    assert (scenario["label"], scenario["fingerprint"]) == (
        overlay.label(), overlay.fingerprint
    )
    assert run.manifest["cache"]["hits"] > 0  # served from the warm partition


def bench_scenario_cache_isolation(benchmark):
    """Distinct scenarios never share a cache entry, at either layer."""
    spec_a = scenario_from_dict(
        {"name": "seed-a", "substrate_seeds": {"k_year": 11}})
    spec_b = scenario_from_dict(
        {"name": "seed-b", "substrate_seeds": {"k_year": 17}})
    assert spec_a.fingerprint != spec_b.fingerprint

    SUBSTRATE_CACHE.clear()
    run_pipeline()
    baseline_keys = _snapshot_keys()
    run_pipeline(scenario=spec_a)
    keys_a = _snapshot_keys() - baseline_keys
    run_pipeline(scenario=spec_b)
    keys_b = _snapshot_keys() - baseline_keys - keys_a

    # Every partition is fully populated and tagged with its own owner.
    assert len(keys_a) == len(baseline_keys) == len(keys_b) > 0
    assert {_scenario_token(k) for k in baseline_keys} == {None}
    assert {_scenario_token(k) for k in keys_a} == {spec_a.fingerprint}
    assert {_scenario_token(k) for k in keys_b} == {spec_b.fingerprint}
    assert not keys_a & keys_b

    # The serving layer keeps one result-cache entry per scenario too:
    # the first query under each scenario computes, the repeats hit.
    params = {"scenario": "k_computer", "speedup": 4.0}
    with ServeClient(workers=2, cache_size=64) as client:
        first_a = client.query("node_hours", params, scenario=spec_a)
        first_b = client.query("node_hours", params, scenario=spec_b)
        again_a = client.query("node_hours", params, scenario=spec_a)
        again_b = client.query("node_hours", params, scenario=spec_b)
    assert not first_a.cached and not first_b.cached
    assert again_a.cached and again_b.cached
    assert first_a.value == first_b.value  # seeds don't touch Fig. 4 math

    # Timing: one warm re-run of each partition back to back.
    def warm_pair():
        run_pipeline(scenario=spec_a)
        run_pipeline(scenario=spec_b)

    benchmark.pedantic(warm_pair, rounds=3, iterations=1)
    assert _snapshot_keys() == baseline_keys | keys_a | keys_b
