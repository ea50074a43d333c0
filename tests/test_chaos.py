"""Chaos tests: fault plans against the real pipeline and serve stack.

The recovery contracts under test are the PR's acceptance criteria —
a chaos run of ``repro-paper`` that loses substrates and artefacts
must leave a partial manifest that ``--resume`` heals to artefacts
*byte-identical* to the checked-in goldens, and a serve engine under a
30 % handler fault rate must answer every query with a success, a
typed error, or a degraded stale answer — never an unclassified crash.
"""

import asyncio
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.errors import CircuitOpen, FaultInjected, ReproError
from repro.harness.cache import SUBSTRATE_CACHE
from repro.harness.runner import main
from repro.resilience import FaultPlan, FaultRule, RetryPolicy
from repro.serve import QueryEngine, QueryKind, QueryRegistry
from repro.serve.http import STATUS_BY_CODE

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


def run(coro):
    return asyncio.run(coro)


# -- pipeline chaos + resume -------------------------------------------------


class TestPipelineChaosResume:
    """A chaos run loses a substrate and an artefact; resume heals it."""

    PLAN = {
        "name": "test-chaos",
        "seed": 99,
        "rules": [
            # First k_year build attempt dies; the retry layer recovers.
            {"site": "substrate:k_year", "times": 1},
            # table2 fails beyond the retry budget: stays failed.
            {"site": "artifact:table2", "times": 10},
        ],
    }

    @pytest.fixture()
    def chaos_run(self, tmp_path, capsys):
        SUBSTRATE_CACHE.clear()
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(self.PLAN))
        outdir = tmp_path / "out"
        rc = main(
            ["--fault-plan", str(plan_file), "sec3a", "table2",
             "--output", str(outdir)]
        )
        capsys.readouterr()
        return rc, outdir

    def test_chaos_run_is_partial_but_exported(self, chaos_run):
        rc, outdir = chaos_run
        assert rc == 1
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "partial"
        assert manifest["artifacts"]["table2"]["status"] == "failed"
        assert "table2" in manifest["artifacts"]["table2"]["error"] or (
            "injected" in manifest["artifacts"]["table2"]["error"]
        )
        # The healthy artefact was flushed despite the failure...
        assert manifest["artifacts"]["sec3a"]["status"] == "ok"
        assert (outdir / "sec3a.txt").exists()
        # ...and the substrate fault was retried through (2 attempts).
        snap = manifest["fault_plan"]
        assert snap["plan"] == "test-chaos"
        assert snap["seen"]["substrate:k_year"] == 2
        assert manifest["substrates"]["k_year"]["retries"] == 1
        assert manifest["substrates"]["k_year"]["status"] == "ok"

    def test_resume_heals_to_byte_identical_goldens(self, chaos_run, capsys):
        rc, outdir = chaos_run
        assert rc == 1
        assert main(["--resume", str(outdir)]) == 0
        capsys.readouterr()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert all(
            entry["status"] == "ok"
            for entry in manifest["artifacts"].values()
        )
        for name in ("sec3a", "table2"):
            produced = (outdir / f"{name}.txt").read_bytes()
            golden = (ARTIFACTS / f"{name}.txt").read_bytes()
            assert produced == golden, f"{name} diverged from the golden"

    def test_resume_with_nothing_failed_is_a_no_op(
        self, chaos_run, capsys
    ):
        rc, outdir = chaos_run
        main(["--resume", str(outdir)])
        capsys.readouterr()
        assert main(["--resume", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "nothing to do" in out

    def test_resume_rejects_a_missing_manifest(self, tmp_path):
        with pytest.raises(SystemExit, match="manifest"):
            main(["--resume", str(tmp_path)])

    def test_resume_conflicts_with_other_flags(self, tmp_path, capsys):
        for argv in (["--resume", str(tmp_path), "sec3a"],
                     ["--resume", str(tmp_path), "--output", str(tmp_path)]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--resume" in capsys.readouterr().err

    def test_bad_fault_plan_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rules": [{"site": "x", "kind": "explode"}]}')
        with pytest.raises(SystemExit, match="kind"):
            main(["--fault-plan", str(bad), "table2"])


# -- serve chaos -------------------------------------------------------------


@dataclass(frozen=True)
class EchoParams:
    key: int = 0


def make_registry():
    return QueryRegistry(
        (
            QueryKind(
                name="echo", params_type=EchoParams,
                handler=lambda p: {"key": p.key},
                description="echoes its key",
            ),
        )
    )


FAST_RETRY = RetryPolicy(attempts=3, base_delay_s=0.0, max_delay_s=0.0)


class TestServeChaos:
    def test_transient_handler_fault_is_retried_through(self):
        plan = FaultPlan(rules=(FaultRule(site="handler:echo", times=2),))

        async def go():
            async with QueryEngine(
                make_registry(), fault_plan=plan, retry_policy=FAST_RETRY
            ) as engine:
                return await engine.submit("echo", {"key": 5}), (
                    engine.metrics.snapshot()["counters"]
                )

        response, counters = run(go())
        assert response.value == {"key": 5}
        assert response.degraded is False
        assert counters["retries"] == 2
        assert counters["errors"] == 0

    def test_persistent_fault_exhausts_retries_and_opens_the_breaker(self):
        plan = FaultPlan(rules=(FaultRule(site="handler:echo", times=100),))

        async def go():
            async with QueryEngine(
                make_registry(), fault_plan=plan, retry_policy=FAST_RETRY,
                breaker_threshold=2, breaker_recovery_s=60.0,
            ) as engine:
                outcomes = []
                for key in range(4):
                    try:
                        await engine.submit("echo", {"key": key})
                        outcomes.append("ok")
                    except FaultInjected:
                        outcomes.append("error")
                    except CircuitOpen:
                        outcomes.append("rejected")
                return outcomes, engine.metrics.snapshot()["counters"], (
                    engine.readiness()
                )

        outcomes, counters, readiness = run(go())
        # Two failures trip the kind breaker; later queries are rejected
        # without ever invoking the handler.
        assert outcomes == ["error", "error", "rejected", "rejected"]
        assert counters["breaker_opened"] == 1
        assert counters["breaker_rejected"] == 2
        assert readiness["ready"] is False
        assert readiness["breakers"]["kind:echo"]["state"] == "open"

    def test_stale_answer_serves_degraded_after_failure(self):
        # Fault from the second handler call on: the first primes the
        # stale store, and cache_size=0 forces later fresh computes.
        plan = FaultPlan(
            seed=1,
            rules=(FaultRule(site="handler:echo", times=100),),
        )

        async def go():
            async with QueryEngine(
                make_registry(), retry_policy=FAST_RETRY, cache_size=0,
                breaker_threshold=100,
            ) as engine:
                first = await engine.submit("echo", {"key": 9})
                from repro.resilience import FaultInjector

                # Arm the plan mid-flight: workers read the engine's
                # injector per evaluation.
                engine._injector = FaultInjector(plan)
                second = await engine.submit("echo", {"key": 9})
                return first, second, engine.metrics.snapshot()["counters"]

        first, second, counters = run(go())
        assert first.degraded is False
        assert second.degraded is True
        assert second.value == {"key": 9}  # the last good answer
        assert counters["degraded"] == 1
        assert counters["errors"] == 0

    def test_hammer_under_30pct_faults_never_crashes_unclassified(self):
        """Every answer under sustained chaos is a success, a typed
        error, or a degraded stale answer — the serve-layer acceptance
        criterion (an HTTP front end would map each typed code through
        STATUS_BY_CODE; nothing here would be an unclassified 500)."""
        plan = FaultPlan(
            seed=20210517,
            rules=(FaultRule(site="handler:*", rate=0.3, times=1),),
        )

        async def go():
            async with QueryEngine(
                make_registry(), workers=4, fault_plan=plan,
                retry_policy=FAST_RETRY, cache_size=0,
                breaker_threshold=5, breaker_recovery_s=0.01,
            ) as engine:
                results = await asyncio.gather(
                    *(
                        engine.submit("echo", {"key": k})
                        for k in range(120)
                    ),
                    return_exceptions=True,
                )
                return results, engine.metrics.snapshot()["counters"]

        results, counters = run(go())
        ok = degraded = typed = 0
        for r in results:
            if isinstance(r, BaseException):
                # Anything escaping here must be a typed ReproError
                # whose code the HTTP table classifies.
                assert isinstance(r, ReproError), r
                assert r.code in set(STATUS_BY_CODE) | {"fault_injected"}
                typed += 1
            elif r.degraded:
                degraded += 1
            else:
                ok += 1
        assert ok + degraded + typed == 120
        assert ok > 0  # the service kept answering under chaos
        snap_total = counters["computed"] + counters["cache_hits"] + (
            counters["coalesced"] + counters["errors"]
        ) + counters["degraded"] + counters["breaker_rejected"]
        assert snap_total >= 120
