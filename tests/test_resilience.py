"""Unit tests for :mod:`repro.resilience` — plans, retries, breakers.

Everything here is deterministic by construction: fault plans replay
the same firing sequence for a pinned seed, retry backoff schedules
are pure functions of ``(seed, site)``, and breakers run against an
injectable fake clock — no test sleeps real time.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CircuitOpen, FaultInjected, FaultPlanError
from repro.harness.cache import SubstrateCache
from repro.resilience import (
    EMPTY_FAULT_PLAN,
    BreakerRegistry,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    active_injector,
    fault_context,
    fault_plan_fingerprint,
    fault_plan_from_dict,
    fault_plan_to_dict,
    fault_point,
    load_fault_plan,
    retry_call,
)


# -- fault plans -------------------------------------------------------------


class TestFaultRuleValidation:
    def test_empty_site(self):
        with pytest.raises(FaultPlanError, match="non-empty site"):
            FaultRule(site="")

    def test_bad_kind(self):
        with pytest.raises(FaultPlanError, match="kind"):
            FaultRule(site="x", kind="explode")

    def test_kill_kind_is_rejected(self):
        with pytest.raises(FaultPlanError, match="'kill'"):
            fault_plan_from_dict(
                {"rules": [{"site": "substrate:k_year", "kind": "kill"}]}
            )

    def test_times_below_one(self):
        with pytest.raises(FaultPlanError, match="times"):
            FaultRule(site="x", times=0)

    def test_rate_bounds(self):
        with pytest.raises(FaultPlanError, match="rate"):
            FaultRule(site="x", rate=0.0)
        with pytest.raises(FaultPlanError, match="rate"):
            FaultRule(site="x", rate=1.5)
        FaultRule(site="x", rate=1.0)  # inclusive upper bound

    def test_negative_latency(self):
        with pytest.raises(FaultPlanError, match="latency_s"):
            FaultRule(site="x", latency_s=-0.1)


class TestFaultPlanFingerprint:
    def test_labels_do_not_change_the_fingerprint(self):
        rules = (FaultRule(site="handler:ozaki"),)
        a = FaultPlan(name="a", description="one", rules=rules)
        b = FaultPlan(name="b", description="two", rules=rules)
        assert a.fingerprint == b.fingerprint

    def test_rules_and_seed_do_change_it(self):
        base = FaultPlan(rules=(FaultRule(site="handler:ozaki"),))
        other_rule = FaultPlan(rules=(FaultRule(site="handler:density"),))
        other_seed = FaultPlan(
            seed=7, rules=(FaultRule(site="handler:ozaki"),)
        )
        assert len({
            base.fingerprint, other_rule.fingerprint, other_seed.fingerprint
        }) == 3

    def test_round_trip_preserves_fingerprint(self):
        plan = FaultPlan(
            name="chaos", seed=42,
            rules=(
                FaultRule(site="substrate:k_year", times=2),
                FaultRule(site="handler:*", rate=0.25),
                FaultRule(site="cache:spack_index", kind="evict"),
            ),
        )
        clone = fault_plan_from_dict(
            json.loads(json.dumps(fault_plan_to_dict(plan)))
        )
        assert clone == plan
        assert clone.fingerprint == plan.fingerprint
        assert fault_plan_fingerprint(clone) == plan.fingerprint

    def test_empty_plan_label(self):
        assert EMPTY_FAULT_PLAN.is_empty
        assert EMPTY_FAULT_PLAN.label() == "none"
        assert FaultPlan(rules=(FaultRule(site="x"),)).label() != "none"


#: Every wire-legal rule kind, including the integrity-chaos pair —
#: kept literal so adding a kind to ``_KINDS`` without property
#: coverage fails here.
ALL_KINDS = (
    "error", "latency", "evict",
    "torn-write", "bit-flip", "fsync-error",
    "flip", "wrong-answer",
)

sites = st.sampled_from((
    "handler:node_hours", "handler:*", "cache:result",
    "substrate:k_year", "store:fig1.json",
))


@st.composite
def rule_dicts(draw) -> dict:
    out: dict = {"site": draw(sites), "kind": draw(st.sampled_from(ALL_KINDS))}
    if draw(st.booleans()):
        out["rate"] = draw(st.floats(min_value=0.01, max_value=1.0,
                                     allow_nan=False))
    else:
        out["times"] = draw(st.integers(min_value=1, max_value=5))
    if out["kind"] == "latency":
        out["latency_s"] = draw(st.floats(min_value=0.0, max_value=2.0,
                                          allow_nan=False))
    return out


@st.composite
def plan_dicts(draw) -> dict:
    return {
        "name": draw(st.sampled_from(("", "chaos", "drill"))),
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
        "rules": draw(st.lists(rule_dicts(), min_size=1, max_size=4)),
    }


class TestFaultPlanFingerprintProperties:
    @given(data=plan_dicts())
    @settings(max_examples=50, deadline=None)
    def test_wire_round_trip_preserves_identity(self, data):
        plan = fault_plan_from_dict(data)
        clone = fault_plan_from_dict(
            json.loads(json.dumps(fault_plan_to_dict(plan)))
        )
        assert clone == plan
        assert clone.fingerprint == plan.fingerprint

    @given(data=plan_dicts(), label=st.sampled_from(("a", "b", "relabel")))
    @settings(max_examples=50, deadline=None)
    def test_labels_never_change_the_fingerprint(self, data, label):
        relabelled = dict(data, name=label, description=f"about {label}")
        assert (
            fault_plan_from_dict(relabelled).fingerprint
            == fault_plan_from_dict(data).fingerprint
        )

    @given(data=plan_dicts(), other=st.sampled_from(ALL_KINDS))
    @settings(max_examples=50, deadline=None)
    def test_changing_a_kind_changes_the_fingerprint(self, data, other):
        if data["rules"][0]["kind"] == other:
            return
        changed = json.loads(json.dumps(data))
        changed["rules"][0]["kind"] = other
        if other != "latency":
            changed["rules"][0].pop("latency_s", None)
        assert (
            fault_plan_from_dict(changed).fingerprint
            != fault_plan_from_dict(data).fingerprint
        )

    @given(kind=st.sampled_from(ALL_KINDS))
    @settings(max_examples=20, deadline=None)
    def test_every_kind_is_wire_legal_and_strict_key_checked(self, kind):
        plan = fault_plan_from_dict(
            {"rules": [{"site": "cache:result", "kind": kind}]}
        )
        assert plan.rules[0].kind == kind
        with pytest.raises(FaultPlanError, match="unknown key"):
            fault_plan_from_dict(
                {"rules": [{"site": "cache:result", "kind": kind,
                            "payload": 1}]}
            )


class TestFaultPlanFromDict:
    def test_unknown_top_level_key(self):
        with pytest.raises(FaultPlanError, match="unknown key 'sites'"):
            fault_plan_from_dict({"sites": []})

    def test_unknown_rule_key(self):
        with pytest.raises(FaultPlanError, match=r"rules\[0\]"):
            fault_plan_from_dict({"rules": [{"site": "x", "when": "now"}]})

    def test_non_object_rule(self):
        with pytest.raises(FaultPlanError, match=r"rules\[0\]"):
            fault_plan_from_dict({"rules": ["substrate:k_year"]})

    def test_rules_must_be_a_list(self):
        with pytest.raises(FaultPlanError, match="rules must be a list"):
            fault_plan_from_dict({"rules": 5})

    @pytest.mark.parametrize("field, value, match", [
        ("site", 3, "site must be a string"),
        ("kind", 1, "kind must be a string"),
        ("message", 2, "message must be a string"),
        ("times", "2", "times must be an integer"),
        ("times", 1.5, "times must be an integer"),
        ("times", True, "times must be an integer"),
    ])
    def test_rule_field_types(self, field, value, match):
        rule = {"site": "x", field: value}
        with pytest.raises(FaultPlanError, match=match):
            fault_plan_from_dict({"rules": [rule]})

    def test_int_rate_coerces_to_float(self):
        plan = fault_plan_from_dict({"rules": [{"site": "x", "rate": 1}]})
        assert plan.rules[0].rate == 1.0

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text("{nope")
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            load_fault_plan(p)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read"):
            load_fault_plan(tmp_path / "absent.json")

    def test_checked_in_example_plans_load(self):
        from pathlib import Path

        for path in Path("examples/faultplans").glob("*.json"):
            plan = load_fault_plan(path)
            assert not plan.is_empty


class TestFaultInjector:
    def test_count_rule_fires_exactly_n_times(self):
        plan = FaultPlan(rules=(FaultRule(site="s", times=2),))
        inj = FaultInjector(plan)
        for _ in range(2):
            with pytest.raises(FaultInjected):
                inj.fire("s")
        assert inj.fire("s") is None  # exhausted
        snap = inj.snapshot()
        assert snap["seen"] == {"s": 3}
        assert snap["injected"] == {"s": 2}

    def test_wildcard_site(self):
        plan = FaultPlan(rules=(FaultRule(site="handler:*", times=1),))
        inj = FaultInjector(plan)
        assert inj.fire("substrate:k_year") is None
        with pytest.raises(FaultInjected):
            inj.fire("handler:ozaki")

    def test_rate_rule_replays_for_a_pinned_seed(self):
        plan = FaultPlan(seed=7, rules=(FaultRule(site="s", rate=0.3),))

        def sequence():
            inj = FaultInjector(plan)
            out = []
            for _ in range(50):
                try:
                    inj.fire("s")
                    out.append(0)
                except FaultInjected:
                    out.append(1)
            return out

        first, second = sequence(), sequence()
        assert first == second
        assert 0 < sum(first) < 50  # actually probabilistic

    def test_latency_rule_proceeds(self):
        plan = FaultPlan(
            rules=(FaultRule(site="s", kind="latency", latency_s=0.0),)
        )
        assert FaultInjector(plan).fire("s") is None

    def test_evict_rule_returns_marker(self):
        plan = FaultPlan(rules=(FaultRule(site="cache:x", kind="evict"),))
        assert FaultInjector(plan).fire("cache:x") == "evict"

    def test_fault_injected_carries_site(self):
        plan = FaultPlan(rules=(FaultRule(site="s"),))
        with pytest.raises(FaultInjected) as exc_info:
            FaultInjector(plan).fire("s")
        assert exc_info.value.site == "s"
        assert exc_info.value.code == "fault_injected"


class TestFaultContext:
    def test_no_injector_is_the_default(self):
        assert active_injector() is None
        assert fault_point("anything") is None

    def test_plan_installs_a_fresh_injector(self):
        plan = FaultPlan(rules=(FaultRule(site="s"),))
        with fault_context(plan) as inj:
            assert active_injector() is inj
            with pytest.raises(FaultInjected):
                fault_point("s")
        assert active_injector() is None

    def test_empty_plan_and_none_shield(self):
        plan = FaultPlan(rules=(FaultRule(site="s"),))
        with fault_context(plan):
            with fault_context(EMPTY_FAULT_PLAN):
                assert fault_point("s") is None
            with fault_context(None):
                assert fault_point("s") is None
            with pytest.raises(FaultInjected):
                fault_point("s")

    def test_existing_injector_passes_through(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule(site="s"),)))
        with fault_context(inj) as installed:
            assert installed is inj


# -- retries -----------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)

    def test_schedule_is_deterministic_per_seed_and_site(self):
        policy = RetryPolicy(attempts=4)
        a = policy.delays(seed=1, site="x")
        assert a == policy.delays(seed=1, site="x")
        assert a != policy.delays(seed=2, site="x")
        assert a != policy.delays(seed=1, site="y")

    def test_schedule_shape(self):
        policy = RetryPolicy(
            attempts=5, base_delay_s=0.01, multiplier=2.0,
            max_delay_s=0.03, jitter=0.0,
        )
        assert policy.delays() == [0.01, 0.02, 0.03, 0.03]  # capped
        assert RetryPolicy(attempts=1).delays() == []


class TestRetryCall:
    def test_first_try_success(self):
        result, retries = retry_call(lambda: 42, sleep=lambda _: None)
        assert (result, retries) == (42, 0)

    def test_transient_failure_recovers(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        notified = []
        result, retries = retry_call(
            flaky,
            policy=RetryPolicy(attempts=3),
            on_retry=lambda attempt, exc: notified.append(attempt),
            sleep=lambda _: None,
        )
        assert (result, retries) == ("ok", 2)
        assert notified == [1, 2]

    def test_exhaustion_propagates_the_last_error(self):
        with pytest.raises(OSError, match="always"):
            retry_call(
                lambda: (_ for _ in ()).throw(OSError("always")),
                policy=RetryPolicy(attempts=2),
                sleep=lambda _: None,
            )

    def test_no_retry_on_wins(self):
        calls = []

        def fail():
            calls.append(1)
            raise KeyError("fatal")

        with pytest.raises(KeyError):
            retry_call(
                fail,
                policy=RetryPolicy(attempts=5),
                retry_on=(Exception,),
                no_retry_on=(KeyError,),
                sleep=lambda _: None,
            )
        assert calls == [1]  # never retried

    def test_sleeps_follow_the_schedule(self):
        policy = RetryPolicy(attempts=3, jitter=0.0, base_delay_s=0.01)
        slept = []

        def fail():
            raise OSError("x")

        with pytest.raises(OSError):
            retry_call(fail, policy=policy, sleep=slept.append)
        assert slept == policy.delays()


# -- circuit breakers --------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def make(self, **kw):
        clock = FakeClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("recovery_s", 10.0)
        return CircuitBreaker("dep", clock=clock, **kw), clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen, match="open"):
            breaker.before_call()

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_after_cooldown_single_trial(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.before_call() is True  # claimed the trial slot
        with pytest.raises(CircuitOpen, match="trialing"):
            breaker.before_call()  # concurrent caller rejected
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.before_call() is False

    def test_failed_trial_reopens(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.before_call() is True
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.snapshot()["times_opened"] == 2

    def test_abort_trial_releases_the_slot(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.before_call() is True
        breaker.abort_trial()
        assert breaker.before_call() is True  # slot reclaimed, no verdict

    def test_on_open_fires_per_trip(self):
        opened = []
        clock = FakeClock()
        breaker = CircuitBreaker(
            "dep", failure_threshold=1, recovery_s=1.0,
            clock=clock, on_open=opened.append,
        )
        breaker.record_failure()
        clock.advance(1.0)
        breaker.before_call()
        breaker.record_failure()
        assert opened == ["dep", "dep"]

    def test_snapshot_shape(self):
        breaker, _ = self.make()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap == {
            "state": "closed", "consecutive_failures": 1,
            "times_opened": 0, "rejected": 0,
        }

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("dep", failure_threshold=0)


class TestBreakerRegistry:
    def test_get_is_lazy_and_stable(self):
        reg = BreakerRegistry()
        assert reg.get("a") is reg.get("a")
        assert reg.get("a") is not reg.get("b")

    def test_all_closed_tracks_every_member(self):
        clock = FakeClock()
        reg = BreakerRegistry(failure_threshold=1, clock=clock)
        reg.get("a")
        assert reg.all_closed()
        reg.get("b").record_failure()
        assert not reg.all_closed()
        assert reg.snapshot()["b"]["state"] == "open"


# -- cache fault sites -------------------------------------------------------


class TestCacheFaultSite:
    def test_evict_rule_forces_a_recompute(self):
        cache = SubstrateCache()
        calls = []

        def build():
            calls.append(1)
            return {"v": len(calls)}

        assert cache.get_or_compute("dep", build, ("k",)) == {"v": 1}
        assert cache.get_or_compute("dep", build, ("k",)) == {"v": 1}
        plan = FaultPlan(rules=(FaultRule(site="cache:dep", kind="evict"),))
        with fault_context(plan):
            assert cache.get_or_compute("dep", build, ("k",)) == {"v": 2}
        # The rule is exhausted; the recomputed entry is cached again.
        assert cache.get_or_compute("dep", build, ("k",)) == {"v": 2}
        assert cache.stats().evictions >= 1

    def test_invalidate_drops_one_substrate(self):
        cache = SubstrateCache()
        cache.prime("a", ("k1",), 1)
        cache.prime("a", ("k2",), 2)
        cache.prime("b", ("k1",), 3)
        assert cache.invalidate("a") == 2
        assert cache.substrates() == ("b",)
        assert cache.invalidate("a") == 0
