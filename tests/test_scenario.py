"""The scenario overlay system, end to end.

Covers the resolution seams one layer at a time — device and workload
registries, machine builders, substrate cache keys and seed overrides,
pipeline manifests — and then the acceptance property: one what-if
question answered identically through the direct library call, a
``repro-paper --scenario`` run, and a ``repro-serve`` query, while the
baseline stays byte-identical and cache-disjoint throughout.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import ScenarioError, WorkloadError
from repro.extrapolate import build_machine, machine_names
from repro.harness.cache import SUBSTRATE_CACHE, SubstrateCache, memoize_substrate
from repro.hardware.registry import get_device, list_device_names
from repro.scenario import (
    EMPTY_SCENARIO,
    ScenarioSpec,
    active_cache_token,
    active_scenario,
    load_scenario,
    scenario_context,
    scenario_from_dict,
)
from repro.workloads import get_workload, workload_names

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples" / "scenarios"

AI_MIX = {
    "name": "ai20",
    "machines": [{
        "name": "k_computer",
        "renormalize": True,
        "domains": [
            {"domain": "AI/DL", "share": 0.25, "accelerable": 0.832}
        ],
    }],
}


class TestContext:
    def test_default_is_empty_baseline(self):
        assert active_scenario() is EMPTY_SCENARIO
        assert active_cache_token() is None

    def test_context_installs_and_restores(self):
        spec = scenario_from_dict(AI_MIX)
        with scenario_context(spec):
            assert active_scenario() is spec
            assert active_cache_token() == spec.fingerprint
        assert active_scenario() is EMPTY_SCENARIO

    def test_empty_spec_has_no_cache_token(self):
        with scenario_context(ScenarioSpec(name="label-only")):
            assert active_cache_token() is None


class TestDeviceOverlay:
    def test_override_scalar_in_place(self):
        spec = scenario_from_dict(
            {"devices": [{"name": "v100", "tdp_w": 450.0}]})
        with scenario_context(spec):
            assert get_device("v100").tdp_w == 450.0
        assert get_device("v100").tdp_w == 300.0

    def test_new_device_from_base_with_unit_edit(self):
        spec = scenario_from_dict({"devices": [{
            "name": "v100-fast", "base": "v100",
            "units": [{"name": "tensorcore",
                       "peak_flops": {"fp16": 250e12}}],
        }]})
        with scenario_context(spec):
            d = get_device("v100-fast")
            assert d.matrix_engine.peak("fp16") == 250e12
            assert "v100-fast" in list_device_names()
        with pytest.raises(Exception):
            get_device("v100-fast")

    def test_unknown_base_rejected(self):
        spec = scenario_from_dict(
            {"devices": [{"name": "x", "base": "nope"}]})
        with scenario_context(spec), pytest.raises(ScenarioError):
            get_device("x")

    def test_new_device_requires_core_fields(self):
        spec = scenario_from_dict({"devices": [{"name": "scratch"}]})
        with scenario_context(spec), pytest.raises(ScenarioError):
            get_device("scratch")


class TestWorkloadOverlay:
    SPEC = {
        "workloads": [{
            "name": "gemmstorm",
            "domain": "Synthetic",
            "phases": [{"region": "core", "repeat": 2, "kernels": [
                {"kind": "gemm", "name": "dgemm", "flops": 2e9,
                 "nbytes": 1e7},
            ]}],
        }],
    }

    def test_overlay_extends_catalogue(self):
        baseline = workload_names()
        with scenario_context(scenario_from_dict(self.SPEC)):
            assert workload_names() == baseline + ["WHATIF/gemmstorm"]
            w = get_workload("gemmstorm")
            assert w.meta.suite == "WHATIF"
        assert workload_names() == baseline
        with pytest.raises(WorkloadError):
            get_workload("gemmstorm")


class TestMachineOverlay:
    def test_edit_builtin_and_restore(self):
        base = build_machine("k_computer")
        with scenario_context(scenario_from_dict(AI_MIX)):
            edited = build_machine("k_computer")
            ai = next(d for d in edited.domains if d.domain == "AI/DL")
            assert ai.share == pytest.approx(0.20)
            assert edited.reduction(4.0) > base.reduction(4.0)
        assert build_machine("k_computer").reduction(4.0) == base.reduction(4.0)

    def test_new_machine_from_base(self):
        spec = scenario_from_dict({"machines": [
            {"name": "twin", "base": "anl", "display_name": "ANL twin"}]})
        with scenario_context(spec):
            assert "twin" in machine_names()
            twin = build_machine("twin")
            assert twin.name == "ANL twin"
            assert twin.reduction(4.0) == build_machine("anl").reduction(4.0)

    def test_unknown_machine_rejected(self):
        with pytest.raises(ScenarioError, match="unknown machine"):
            build_machine("atlantis")

    def test_extrapolation_constant_override(self):
        spec = scenario_from_dict(
            {"extrapolation": {"other_gemm_assumption": 0.5}})
        base = build_machine("anl")
        with scenario_context(spec):
            other = next(d for d in build_machine("anl").domains
                         if d.domain == "Other")
            assert other.accelerable == 0.5
        assert next(d for d in base.domains
                    if d.domain == "Other").accelerable == pytest.approx(0.10)


class TestSubstrateCacheSeams:
    def test_scenario_keys_disjoint_from_baseline_and_each_other(self):
        cache = SubstrateCache()
        calls = []

        @memoize_substrate("probe", cache)
        def probe(*, seed: int = 7) -> int:
            calls.append(seed)
            return len(calls)

        a = scenario_from_dict({"devices": [{"name": "v100", "tdp_w": 1.0}]})
        b = scenario_from_dict({"devices": [{"name": "v100", "tdp_w": 2.0}]})
        assert probe() == 1
        with scenario_context(a):
            assert probe() == 2  # own entry, not the baseline's
            assert probe() == 2
        with scenario_context(b):
            assert probe() == 3  # disjoint from both
        assert probe() == 1  # baseline untouched
        assert len(cache) == 3

    def test_baseline_key_shape_unchanged(self):
        cache = SubstrateCache()

        @memoize_substrate("probe", cache)
        def probe(*, seed: int = 7) -> int:
            return seed

        probe()
        # The pre-scenario key layout: (substrate, bound-args) only.
        assert ("probe", (("seed", 7),)) in cache._values

    def test_seed_override_reaches_default_call(self):
        cache = SubstrateCache()

        @memoize_substrate("probe", cache)
        def probe(*, seed: int = 7) -> int:
            return seed

        spec = ScenarioSpec(substrate_seeds={"probe": 99})
        with scenario_context(spec):
            assert probe() == 99
            assert probe(seed=5) == 5  # explicit always wins
        assert probe() == 7

    def test_prime_matches_wrapper_key_under_scenario(self):
        cache = SubstrateCache()

        @memoize_substrate("probe", cache)
        def probe(*, seed: int = 7) -> int:
            raise AssertionError("must be served from the primed entry")

        spec = scenario_from_dict({"devices": [{"name": "v100", "tdp_w": 1.0}]})
        with scenario_context(spec):
            probe.prime(42)
            assert probe() == 42


class TestPipelineIntegration:
    def test_manifest_records_fingerprint(self):
        from repro.harness.pipeline import run_pipeline

        from repro.scenario import scenario_to_dict

        spec = scenario_from_dict(AI_MIX)
        run = run_pipeline(["table2"], scenario=spec)
        assert run.manifest["scenario"] == {
            "label": "ai20",
            "fingerprint": spec.fingerprint,
            "spec": scenario_to_dict(spec),
        }

    def test_seed_override_changes_artifact_and_manifest(self):
        from repro.harness.pipeline import run_pipeline

        SUBSTRATE_CACHE.clear()
        base = run_pipeline(["sec3a"])
        spec = ScenarioSpec(name="reseed",
                            substrate_seeds={"k_year": 19991231})
        reseeded = run_pipeline(["sec3a"], scenario=spec)
        assert base.manifest["artifacts"]["sec3a"]["seed"] == 20180401
        assert reseeded.manifest["artifacts"]["sec3a"]["seed"] == 19991231
        assert (
            reseeded.manifest["artifacts"]["sec3a"]["text_sha256"]
            != base.manifest["artifacts"]["sec3a"]["text_sha256"]
        )
        # Baseline entry is still served untouched.
        again = run_pipeline(["sec3a"])
        assert (
            again.manifest["artifacts"]["sec3a"]["text_sha256"]
            == base.manifest["artifacts"]["sec3a"]["text_sha256"]
        )
        SUBSTRATE_CACHE.clear()

    def test_cli_scenario_flag(self, tmp_path, capsys):
        from repro.harness.runner import main

        path = tmp_path / "ov.json"
        path.write_text(json.dumps(AI_MIX))
        assert main(["fig4", "--scenario", str(path),
                     "--output", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "scenario: ai20" in out
        manifest = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())
        assert manifest["scenario"]["label"] == "ai20"
        assert manifest["scenario"]["fingerprint"] is not None

    def test_cli_rejects_bad_scenario_file(self, tmp_path):
        from repro.harness.runner import main

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="--scenario"):
            main(["table2", "--scenario", str(path)])


class TestExampleScenarios:
    def test_int8_matrix_engine_example(self):
        spec = load_scenario(EXAMPLES / "int8_matrix_engine.json")
        with scenario_context(spec):
            d = get_device("v100-int8me")
            assert d.matrix_engine.name == "int8me"
            assert d.matrix_engine.peak("int8") == 250e12
            assert all(u.name != "tensorcore" for u in d.units)

    def test_ai_future_mix_example(self):
        spec = load_scenario(EXAMPLES / "ai_future_mix.json")
        with scenario_context(spec):
            m = build_machine("k_computer_ai")
            ai = next(d for d in m.domains if d.domain == "AI/DL")
            assert ai.share == pytest.approx(0.20)
            assert sum(d.share for d in m.domains) == pytest.approx(1.0)
            assert m.reduction(4.0) > build_machine("k_computer").reduction(4.0)


class TestServeRoundTrip:
    """The acceptance property: one overlayed what-if answers identically
    through the library, the engine, and the HTTP wire — and never
    shares cache entries with the baseline."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.serve.http import make_server

        srv = make_server(port=0, workers=2, cache_size=64)
        srv.start()
        yield srv
        srv.stop()
        srv.client.close()

    def test_direct_engine_and_http_answers_are_identical(self, server):
        from repro.serve import HttpServeClient

        spec = scenario_from_dict(AI_MIX)
        with scenario_context(spec):
            direct = build_machine("k_computer").reduction(4.0)
        params = {"scenario": "k_computer", "speedup": 4.0}
        engine_answer = server.client.query(
            "node_hours", params, scenario=AI_MIX)
        http_answer = HttpServeClient(server.url).query(
            "node_hours", params, scenario=AI_MIX)
        assert engine_answer.value["reduction"] == direct
        assert http_answer["value"] == engine_answer.value

    def test_overlay_and_baseline_cache_keys_disjoint(self, server):
        client = server.client
        params = {"scenario": "k_computer", "speedup": 4.0}
        base = client.query("node_hours", params)
        overlay = client.query("node_hours", params, scenario=AI_MIX)
        assert overlay.value["reduction"] != base.value["reduction"]
        # Same question again: each side hits its own cache entry.
        assert client.query("node_hours", params).cached
        assert client.query("node_hours", params, scenario=AI_MIX).cached
        assert client.query("node_hours", params).value == base.value

    def test_overlay_only_machine_validates_only_with_its_scenario(self, server):
        from repro.errors import QueryValidationError

        spec = {"name": "m", "machines": [{"name": "mymachine", "base": "anl"}]}
        params = {"scenario": "mymachine", "speedup": 4.0}
        answer = server.client.query("node_hours", params, scenario=spec)
        assert answer.value["reduction"] > 0
        with pytest.raises(QueryValidationError):
            server.client.query("node_hours", params)

    def test_named_registration_and_listing(self, server):
        from repro.serve import HttpServeClient

        spec = scenario_from_dict(AI_MIX)
        server.client.engine.register_scenario(spec)
        listing = HttpServeClient(server.url).scenarios()
        assert listing["ai20"]["fingerprint"] == spec.fingerprint
        named = server.client.query(
            "node_hours", {"scenario": "k_computer", "speedup": 4.0},
            scenario="ai20")
        inline = server.client.query(
            "node_hours", {"scenario": "k_computer", "speedup": 4.0},
            scenario=AI_MIX)
        assert named.value == inline.value

    def test_unknown_scenario_ref_rejected(self, server):
        from repro.errors import QueryValidationError

        with pytest.raises(QueryValidationError, match="unknown scenario ref"):
            server.client.query(
                "node_hours", {"scenario": "k_computer"}, scenario="ghost")
