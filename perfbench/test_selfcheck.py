"""Harness self-check, in the benchmark's brief ``--short`` mode.

    python -m pytest perfbench -q

Runs every workload briefly, untraced and traced, and checks that each
metric ``BENCHMARK.json`` declares is printed with its unit, that a
deliberately wrong reference answer is counted as a failed operation,
that the kernel count leaves the benchmark's own reference answers out,
and that the benchmark refuses to run where the program is missing.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "4", "--trace", str(trace), "--short",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, lines = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    printed = {
        parts[0]: parts[-1] for parts in map(str.split, lines[:-1]) if parts
    }
    for metric in declared:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
    assert printed.get("ops_attempted") is not None
    assert printed.get("ops_failed") is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_reference_answer_counts_as_failed(workload):
    proc, lines = _run(ROOT, workload, 0, "--inject-wrong-reference")
    line = json.loads(lines[-1])
    assert line["failed"] >= 1
    assert line["correct"] is False
    assert proc.returncode != 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    try:
        proc, lines = _run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert not any(line.startswith("{") for line in lines)
    finally:
        shutil.rmtree(bare)


def test_kernel_count_is_the_engines_own():
    """With no load, the kernel figure, which leaves the checker's
    reference answers out, equals the passes the engine alone makes."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro.analysis.arrays import kernel_invocations
    from repro.serve import QueryEngine

    from perfbench.common import AnswerChecker, EngineKernels
    from perfbench.traffic import distinct_fresh

    questions = distinct_fresh(random.Random(5), 40)

    def answer_all(check) -> None:
        async def one_at_a_time() -> None:
            engine = QueryEngine()
            await engine.start()
            try:
                for kind, params in questions:
                    check(kind, params, await engine.submit(kind, params))
            finally:
                await engine.stop()

        asyncio.run(one_at_a_time())

    before = kernel_invocations()
    answer_all(lambda *_: None)
    engine_own = kernel_invocations() - before

    checker = AnswerChecker()
    kernels = EngineKernels(checker)
    answer_all(lambda k, p, a: checker.check(k, p, a.value, a.digest))
    assert checker.mismatches == 0
    assert checker.kernel_calls > 0
    assert kernels.count() == engine_own > 0
