"""Integration tests: the harness regenerates every paper artefact with
the right shape."""

import math

import pytest

from repro.harness import (
    fig1,
    fig2,
    fig3,
    fig4,
    run_all,
    section_iii_a,
    table_i,
    table_ii,
    table_iii,
    table_iv,
    table_v,
    table_vi_vii,
    table_viii,
)
from repro.harness.runner import ARTIFACTS
from repro.harness.textfmt import na, render_table


class TestTextFmt:
    def test_na(self):
        assert na(None) == "—"
        assert na(1.25) == "1.2"

    def test_render_table_aligns(self):
        out = render_table(["a", "bb"], [["x", "y"], ["longer", "z"]])
        lines = out.splitlines()
        assert len({len(l) for l in lines}) <= 2  # header+rows aligned


class TestTableI:
    def test_eight_rows_with_papers_density_arithmetic(self):
        t = table_i()
        assert len(t["rows"]) == 8
        v100 = next(r for r in t["rows"] if "V100" in r["system"])
        assert v100["density_f16"] == pytest.approx(153.4, abs=0.1)
        p10 = next(r for r in t["rows"] if "Power10" in r["system"])
        assert p10["density_f16"] == pytest.approx(27.2, abs=0.1)
        spr = next(r for r in t["rows"] if "Sapphire" in r["system"])
        assert spr["tflops_f16"] is None  # "—" like the paper
        assert "—" in t["text"]


class TestTableII:
    def test_matches_paper_measurements(self):
        rows = {(r["precision"], r["vector_extension"]): r
                for r in table_ii()["rows"]}
        paper = {
            ("DGEMM", "(none)"): (34.22, 1.23),
            ("DGEMM", "AVX2"): (12.49, 2.92),
            ("SGEMM", "(none)"): (16.79, 2.65),
            ("SGEMM", "AVX2"): (6.36, 5.92),
        }
        for key, (wall, eff) in paper.items():
            assert rows[key]["walltime_s"] == pytest.approx(wall, rel=0.05)
            assert rows[key]["gflop_per_joule"] == pytest.approx(eff, rel=0.05)

    def test_avx2_gives_2_3x_energy_efficiency(self):
        rows = {(r["precision"], r["vector_extension"]): r
                for r in table_ii()["rows"]}
        for prec in ("DGEMM", "SGEMM"):
            ratio = (
                rows[(prec, "AVX2")]["gflop_per_joule"]
                / rows[(prec, "(none)")]["gflop_per_joule"]
            )
            assert ratio == pytest.approx(2.3, abs=0.15)


class TestTableIII:
    def test_raw_column_exact(self):
        t = table_iii()
        by_dist = {r["distance"]: r for r in t["rows"]}
        assert by_dist[1]["count"] == 239
        assert by_dist["1-inf"]["percent"] == pytest.approx(70.03, abs=0.01)
        assert by_dist["1-inf"]["percent_merged"] == pytest.approx(51.45, abs=4)


class TestTableIV:
    def test_twelve_rows_and_qualitative_orderings(self):
        t = table_iv()
        rows = {r["benchmark"]: r for r in t["rows"]}
        assert len(rows) == 12
        # GEMM and LSTM top the speedup ranking (the paper's GEMM row is
        # internally inconsistent — see EXPERIMENTS.md — so we only pin
        # the top-2 set).
        top2 = {r["benchmark"]
                for r in sorted(t["rows"], key=lambda r: -r["speedup"])[:2]}
        assert "GEMM" in top2 and "LSTM" in top2
        assert rows["NCF"]["speedup"] < 1.0
        assert rows["Cosmoflow"]["tc_pct"] < 1.0
        assert rows["BERT"]["speedup"] > rows["Resnet50"]["speedup"]


class TestTableV:
    def test_catalogue_counts(self):
        t = table_v()
        assert len(t["rows"]) == 77 + 12


class TestTableVIVII:
    def test_environment_manifest(self):
        t = table_vi_vii()
        assert len(t["systems"]) == 2
        assert any("Score-P" in s["paper"] for s in t["software"])


class TestTableVIII:
    def test_nine_rows_and_orderings(self):
        t = table_viii()
        rows = {(r["implementation"], r["condition"]): r for r in t["rows"]}
        assert len(rows) == 9
        assert (
            rows[("cublasGemmEx", "FP16/FP32-mixed")]["tflops"]
            > rows[("cublasSgemm", "—")]["tflops"]
            > rows[("cublasDgemm", "—")]["tflops"]
        )
        # Wattages in the paper's band.
        for r in t["rows"]:
            assert 220.0 <= r["watts"] <= 300.0


class TestFigures:
    def test_fig1_power_near_tdp_and_tc_lower(self):
        f = fig1(n=8192, reps=4)
        s = f["series"]
        assert s["DGEMM"]["avg_power_w"] > s["SGEMM"]["avg_power_w"] * 0.99
        assert s["HGEMM (with TC)"]["avg_power_w"] < s["DGEMM"]["avg_power_w"]
        for v in s.values():
            assert 260.0 <= v["avg_power_w"] <= 300.0
        assert s["HGEMM (with TC)"]["tflops"] > 5 * s["SGEMM"]["tflops"]

    def test_fig1_series_sampled(self):
        f = fig1(n=4096, reps=3, samples=20)
        pts = f["series"]["DGEMM"]
        assert len(pts["time_s"]) == len(pts["power_w"]) > 5

    def test_fig2_rows_and_mixed_bars(self):
        f = fig2()
        by_dev = {r["device"]: r for r in f["rows"]}
        assert len(by_dev) == 7
        assert by_dev["gtx1060"]["mixed_samples_per_s"] is None
        v100 = by_dev["v100"]
        assert v100["mixed_samples_per_s"] / v100["fp32_samples_per_s"] == (
            pytest.approx(2.0, abs=0.4)
        )

    def test_fig3_covers_77(self):
        f = fig3()
        assert len(f["rows"]) == 77
        gemm_rows = [r for r in f["rows"] if r["gemm"] > 0.001]
        assert len(gemm_rows) == 9

    def test_fig4_three_panels(self):
        f = fig4()
        assert set(f["panels"]) == {"4a_k_computer", "4b_anl", "4c_future"}
        k = f["panels"]["4a_k_computer"]["series"]
        four = next(p for p in k if p["speedup"] == 4.0)
        assert four["reduction"] == pytest.approx(0.053, abs=0.007)


class TestRunner:
    def test_section_iii_a(self):
        s = section_iii_a()
        assert s["attribution"].gemm_fraction == pytest.approx(0.534, abs=0.02)
        assert "53.4%" in s["text"]

    def test_run_all_selected(self):
        out = run_all(["table1", "sec3a"])
        assert set(out) == {"table1", "sec3a"}

    def test_unknown_artifact_raises_value_error(self):
        # Library code raises ValueError; only the CLI (main) translates
        # it into SystemExit.
        with pytest.raises(ValueError, match="table9"):
            run_all(["table9"])

    def test_unknown_artifact_cli_exits(self, capsys):
        from repro.harness.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["table9"])
        assert excinfo.value.code == 2
        assert "table9" in capsys.readouterr().err

    def test_artifact_registry_complete(self):
        assert {"table1", "table2", "table3", "table4", "table5", "table6",
                "table8", "fig1", "fig2", "fig3", "fig4", "sec3a",
                "scaling"} == set(ARTIFACTS)
