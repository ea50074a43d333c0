"""Tests for the later feature wave: A64FX, Chrome traces, energy
savings, and DL inference mode."""

import json

import pytest

from repro.dl import build_model, inference_step, train_step
from repro.hardware import get_device
from repro.joblog import (
    attribute_gemm_node_hours,
    estimate_energy_savings,
    generate_k_year,
)
from repro.sim import KernelLaunch, SimulatedDevice


class TestA64fx:
    def test_registry_and_alias(self):
        f = get_device("a64fx")
        assert get_device("fugaku-node") is f
        assert f.vendor == "Fujitsu"

    def test_no_matrix_engine(self):
        # The paper's RIKEN context: Fugaku shipped *without* an ME.
        assert not get_device("a64fx").has_matrix_engine

    def test_peaks_match_spec_sheet(self):
        f = get_device("a64fx")
        assert f.peak("fp64") == pytest.approx(3.38e12)
        assert f.peak("fp16") == pytest.approx(13.5e12)

    def test_hbm_bandwidth_dominates_cpu_peers(self):
        f = get_device("a64fx")
        s1 = get_device("system1")
        assert f.memory.bandwidth_bps > 5 * s1.memory.bandwidth_bps

    def test_what_if_me_speedup_is_modest(self):
        # An fp16 ME at TC-like density would offer ~4x over SVE fp16 —
        # the Fig. 4 speedup assumption holds for this class of CPU too.
        f = get_device("a64fx")
        hypothetical_me_peak = 13.5e12 * 4
        assert 3.0 < hypothetical_me_peak / f.peak("fp16") < 5.0


class TestChromeTrace:
    def _trace(self):
        d = SimulatedDevice(get_device("v100"))
        d.launch(KernelLaunch.gemm(512, 512, 512, fmt="fp16", tag="tc"))
        d.launch(KernelLaunch.memcpy(1e6))
        return d.trace

    def test_events_structure(self):
        events = self._trace().to_chrome_trace()
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] > 0
            assert "flops" in e["args"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"tensorcore", "copy-engine"}

    def test_save_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        self._trace().save_chrome_trace(str(path))
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        assert len(payload["traceEvents"]) >= 2

    def test_timestamps_preserve_ordering(self):
        events = [e for e in self._trace().to_chrome_trace() if e["ph"] == "X"]
        assert events[0]["ts"] + events[0]["dur"] == pytest.approx(
            events[1]["ts"], rel=1e-9
        )


class TestEnergySavings:
    @pytest.fixture(scope="class")
    def attribution(self):
        return attribute_gemm_node_hours(generate_k_year(jobs=8000))

    def test_savings_magnitudes(self, attribution):
        e = estimate_energy_savings(attribution)
        # ~53% of node-hours x ~19% per-job saving ~ 10% of the machine.
        assert e["machine_fraction"] == pytest.approx(0.10, abs=0.02)
        assert e["node_hours_saved"] > 0
        # K-scale: thousands of MWh per year.
        assert 3_000 < e["mwh_saved"] < 20_000

    def test_infinite_me_bound(self, attribution):
        finite = estimate_energy_savings(attribution, me_speedup=4.0)
        infinite = estimate_energy_savings(attribution, me_speedup=float("inf"))
        assert infinite["mwh_saved"] > finite["mwh_saved"]

    def test_validation(self, attribution):
        with pytest.raises(ValueError):
            estimate_energy_savings(attribution, node_power_w=0.0)
        with pytest.raises(ValueError):
            estimate_energy_savings(attribution, gemm_runtime_share=1.5)


class TestInferenceMode:
    def test_inference_faster_than_training(self):
        m = build_model("Resnet50")
        inf = inference_step(m, "v100", precision="fp32")
        tr = train_step(m, "v100", precision="fp32")
        # No backward, no optimizer: at least ~2.5x the throughput.
        assert inf.samples_per_s > 2.0 * tr.samples_per_s

    def test_inference_has_no_optimizer_kernel(self):
        m = build_model("VGG16")
        inf = inference_step(m, "v100")
        names = {r.launch.name for r in inf.trace}
        assert not any("optimizer" in n for n in names)
        assert any("result_readback" in n for n in names)

    def test_mixed_inference_uses_tensorcores(self):
        m = build_model("BERT")
        inf = inference_step(m, "v100", precision="mixed")
        assert inf.tc_time_s > 0
