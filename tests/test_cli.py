"""CLI tests for the ``repro-paper`` entry point (harness.runner.main)."""

import json

import pytest

from repro.harness.runner import ARTIFACTS, main


def _usage_error(capsys, argv):
    """Run ``main(argv)``, expect a usage error, and return its stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


class TestHelp:
    def test_help_lists_artifacts_and_flags(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "usage: repro-paper" in out
        assert "--output" in out and "--jobs" in out
        for name in ARTIFACTS:
            assert name in out

    def test_dash_h(self, capsys):
        assert main(["-h"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_version(self, capsys):
        from repro import package_version

        assert main(["--version"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"repro-paper {package_version()}"

    def test_version_wins_over_artifact_selection(self, capsys):
        assert main(["table1", "--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro-paper ")
        assert "=== table1" not in out


class TestSelection:
    def test_single_artifact(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "=== table6" in out
        assert "Table VI" in out
        assert "=== table1" not in out

    def test_multiple_artifacts_in_order(self, capsys):
        assert main(["sec3a", "table1"]) == 0
        out = capsys.readouterr().out
        assert out.index("=== sec3a") < out.index("=== table1")

    def test_unknown_artifact_is_a_clean_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table9"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "table9" in err
        assert "known" in err


class TestJobsFlag:
    def test_jobs_parallel_run(self, capsys):
        assert main(["--jobs", "4", "table1", "table6", "sec3a"]) == 0
        out = capsys.readouterr().out
        assert "jobs=4" in out
        for name in ("table1", "table6", "sec3a"):
            assert f"=== {name}" in out

    def test_jobs_requires_argument(self, capsys):
        assert "--jobs" in _usage_error(capsys, ["table1", "--jobs"])

    def test_jobs_requires_integer(self, capsys):
        err = _usage_error(capsys, ["table1", "--jobs", "many"])
        assert "integer" in err and "many" in err

    def test_jobs_must_be_positive(self, capsys):
        err = _usage_error(capsys, ["table1", "--jobs", "0"])
        assert "--jobs" in err and "0" in err


class TestOutputFlag:
    def test_output_requires_argument(self, capsys):
        assert "--output" in _usage_error(capsys, ["table1", "--output"])

    def test_output_writes_expected_file_set(self, tmp_path, capsys):
        assert main(["table1", "sec3a", "--output", str(tmp_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "table1.txt", "table1.json", "table1.csv",
            "sec3a.txt", "sec3a.json",
            "manifest.json", "journal.jsonl",
        }

    def test_output_manifest_records_run(self, tmp_path, capsys):
        assert main(["--jobs", "2", "sec3a", "--output", str(tmp_path)]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema_version"] == 4
        assert manifest["jobs"] == 2
        assert manifest["status"] == "ok"
        assert manifest["journal"] == "journal.jsonl"
        assert manifest["scenario"] == {
            "label": "baseline", "fingerprint": None, "spec": {},
        }
        entry = manifest["artifacts"]["sec3a"]
        assert entry["seed"] == 20180401
        assert entry["substrates"] == ["k_year"]
        assert sorted(entry["files"]) == ["sec3a.json", "sec3a.txt"]
        for digest in entry["files"].values():
            assert len(digest) == 64
        assert entry["wall_time_s"] is not None
        assert manifest["cache"]["misses"] >= 0

    def test_output_text_matches_stdout_text(self, tmp_path, capsys):
        assert main(["table6", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        written = (tmp_path / "table6.txt").read_text()
        assert written.strip() in out
