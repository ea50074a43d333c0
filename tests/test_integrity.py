"""End-to-end result-integrity tests: the PR's falsifiable contract.

Three layers under test, each with its own adversary: the envelope
digest must catch *any* post-seal bit flip (hypothesis property: no
false negatives) without ever quarantining an honest value (10k clean
round-trips: no false positives); the ABFT sweep/answer invariants
must catch plausible miscomputes the digest cannot see; and the chaos
parity drill proves the whole stack — a serve engine under ``flip`` +
``wrong-answer`` fault rules must return answers *byte-identical* to
an uncorrupted engine's, with every detection landing on a typed
metric and zero corrupt payloads delivered.
"""

import asyncio
import copy
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SweepGrid
from repro.errors import IntegrityError
from repro.extrapolate import build_machine
from repro.integrity import (
    ResultEnvelope,
    bytes_digest,
    corrupt_payload,
    payload_digest,
    perturb_answer,
    seal,
    verify_answer,
    verify_sweep_result,
)
from repro.resilience import FaultPlan, FaultRule, RetryPolicy
from repro.serve import QueryEngine, default_registry
from repro.serve.wire import HttpServer, json_response


def run(coro):
    return asyncio.run(coro)


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


FAST_RETRY = RetryPolicy(attempts=3, base_delay_s=0.0, max_delay_s=0.0)


# -- digest layer: no false negatives, no false positives --------------------


json_leaves = st.one_of(
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


class TestSingleBitFlipDetection:
    @given(value=json_values, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_flip_in_the_serialized_envelope_is_detected_or_harmless(
        self, value, data
    ):
        """The no-false-negatives property: flip any single bit of a
        serialized envelope entry and either some layer detects it
        (parse failure, shape failure, digest mismatch) or the decoded
        value is provably unchanged.  Silent value corruption is the
        one outcome that must be impossible."""
        env = seal(value, kind="echo", params={})
        entry = canonical({"sha256": env.digest, "value": env.value})
        bit = data.draw(
            st.integers(min_value=0, max_value=len(entry) * 8 - 1),
            label="bit",
        )
        damaged = bytearray(entry)
        damaged[bit // 8] ^= 1 << (bit % 8)
        try:
            doc = json.loads(bytes(damaged).decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return  # structural damage: caught at parse time
        if not isinstance(doc, dict) or set(doc) != {"sha256", "value"}:
            return  # shape damage: caught by the snapshot loader
        try:
            recomputed = payload_digest(doc["value"])
        except (TypeError, ValueError):
            return  # no longer encodable: caught at verify time
        if recomputed != doc["sha256"]:
            return  # caught by digest verification
        assert doc["value"] == value, (
            "undetected flip changed the value: silent corruption"
        )

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_corrupt_payload_always_breaks_the_seal(self, data):
        """``flip`` (one damaged leaf, in place) must never survive
        :meth:`ResultEnvelope.verify` — the engine's verify-on-read is
        only a defense if the fault kind it drills is detectable."""
        leaf = data.draw(
            st.one_of(
                st.booleans(),
                st.integers(min_value=-10**6, max_value=10**6),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.text(min_size=0, max_size=6),
            ),
            label="leaf",
        )
        extras = data.draw(
            st.dictionaries(st.text(min_size=1, max_size=4), json_values,
                            max_size=3),
            label="extras",
        )
        env = seal({"x": leaf, **extras}, kind="echo", params={})
        assert env.verify()
        corrupt_payload(env.value)
        assert not env.verify()


class TestNoFalsePositives:
    def test_ten_thousand_clean_round_trips_zero_spurious_quarantines(self):
        """Seal, serialize, reload, verify — 10k times over adversarial
        payload shapes (denormals, infinities, negative zero, unicode,
        deep nesting).  A single spurious quarantine means the digest
        discipline is not canonical and the scrubber would churn."""
        rng = random.Random(20260807)

        def gen(depth=0):
            roll = rng.random()
            if depth >= 3 or roll < 0.55:
                pick = rng.random()
                if pick < 0.35:
                    return rng.uniform(-1e15, 1e15)
                if pick < 0.50:
                    return rng.randint(-10**12, 10**12)
                if pick < 0.62:
                    return rng.choice(
                        [0.0, -0.0, math.inf, -math.inf, 5e-324, 1e-300,
                         1.0 + 2**-52]
                    )
                if pick < 0.82:
                    size = rng.randint(0, 9)
                    return "".join(
                        rng.choice("abcxyz-_.0:λ∞") for _ in range(size)
                    )
                return rng.choice([True, False, None])
            if roll < 0.80:
                return {
                    f"k{i}": gen(depth + 1)
                    for i in range(rng.randint(1, 4))
                }
            return [gen(depth + 1) for _ in range(rng.randint(1, 4))]

        quarantined = 0
        for i in range(10_000):
            value = gen()
            env = seal(value, kind="echo", params={"i": i})
            wire = json.dumps(env.to_snapshot_dict({"i": i}))
            loaded = ResultEnvelope.from_snapshot_dict(json.loads(wire))
            if not loaded.verify():
                quarantined += 1
        assert quarantined == 0

    def test_snapshot_dict_round_trip_preserves_provenance(self):
        env = seal(
            {"answer": 42.0}, kind="node_hours",
            params={"speedup": 4.0}, scenario={"name": "what-if"},
        )
        clone = ResultEnvelope.from_snapshot_dict(
            json.loads(json.dumps(env.to_snapshot_dict({"k": 1})))
        )
        assert clone.verify()
        assert (clone.kind, clone.params, clone.scenario) == (
            "node_hours", {"speedup": 4.0}, {"name": "what-if"}
        )

    def test_bytes_digest_is_the_shared_primitive(self, tmp_path):
        from repro.harness.store import durable_write, sha256_file

        blob = b"one digest discipline"
        path = tmp_path / "blob.bin"
        assert durable_write(path, blob) == bytes_digest(blob)
        assert sha256_file(path) == bytes_digest(blob)
        assert payload_digest("x") == bytes_digest(b'"x"')


# -- ABFT sweep invariants ---------------------------------------------------


class TestSweepInvariants:
    def grid(self):
        models = [build_machine(n) for n in ("k_computer", "anl")]
        return SweepGrid.from_models(models, (2.0, 4.0, 8.0, math.inf))

    def test_honest_evaluation_passes(self):
        grid = self.grid()
        verify_sweep_result(grid, grid.evaluate())  # must not raise

    def test_out_of_range_consumed_fraction_is_caught(self):
        grid = self.grid()
        result = grid.evaluate()
        result.consumed_fraction[0, 0] = 1.5
        with pytest.raises(IntegrityError, match=r"sweep\.") as err:
            verify_sweep_result(grid, result)
        assert err.value.check.startswith("sweep.")

    def test_flipped_reduction_bit_is_caught(self):
        grid = self.grid()
        result = grid.evaluate()
        result.reduction[1, 2] = math.nextafter(
            result.reduction[1, 2], math.inf
        )
        with pytest.raises(IntegrityError, match="sweep.identity"):
            verify_sweep_result(grid, result)

    def test_consistent_miscompute_is_caught_by_monotonicity(self):
        """A perturbation that keeps every cross-tensor identity intact
        (the plausible-miscompute adversary) still trips the sorted-
        speedup monotonicity check."""
        grid = self.grid()
        result = grid.evaluate()
        bad = float(result.consumed_fraction[0, 0]) + 1e-4
        result.consumed_fraction[0, -1] = bad
        result.reduction[0, -1] = 1.0 - bad
        result.throughput_improvement[0, -1] = 1.0 / bad
        result.node_hours_saved[0, -1] = (
            grid.total_node_hours[0] * (1.0 - bad)
        )
        with pytest.raises(IntegrityError, match="sweep.monotonicity"):
            verify_sweep_result(grid, result)


# -- answer invariants -------------------------------------------------------


DETECTABLE_KINDS = [
    ("node_hours", {"speedup": 4.0}),
    ("costbenefit", {"scenario": "anl", "me_speedup": 4.0}),
    ("roofline", {"device": "v100", "flops": 1.0e12, "nbytes": 1.0e9}),
    ("density", {"device_a": "v100", "device_b": "a100"}),
]


class TestAnswerInvariants:
    @pytest.fixture(scope="class")
    def answers(self):
        async def go():
            async with QueryEngine(default_registry()) as engine:
                out = {}
                for kind, params in DETECTABLE_KINDS + [
                    ("me_speedup", {"device": "v100", "fmt": "fp16"})
                ]:
                    out[kind] = (params, (await engine.submit(kind, params)).value)
                return out

        return run(go())

    @pytest.mark.parametrize(
        "kind", [kind for kind, _ in DETECTABLE_KINDS] + ["me_speedup"]
    )
    def test_honest_answers_verify_clean(self, answers, kind):
        params, value = answers[kind]
        verify_answer(kind, params, value)  # must not raise

    @pytest.mark.parametrize("kind", [kind for kind, _ in DETECTABLE_KINDS])
    def test_plausible_perturbation_is_caught(self, answers, kind):
        """``wrong-answer`` scales every finite float by 0.5 % — inside
        every range check, invisible to any digest (it happens before
        sealing).  Only algebraic redundancy can catch it, and for
        these kinds it must."""
        params, value = answers[kind]
        with pytest.raises(IntegrityError, match="answer."):
            verify_answer(kind, params, perturb_answer(value))

    def test_unknown_kinds_pass_trivially(self):
        verify_answer("brand-new-kind", {}, {"anything": 1.0})

    def test_non_object_answer_is_a_shape_failure(self):
        with pytest.raises(IntegrityError, match="answer.shape"):
            verify_answer("node_hours", {}, [1, 2, 3])


# -- the chaos parity drill --------------------------------------------------


DRILL_QUERIES = [
    ("node_hours", {"speedup": 4.0}),
    ("costbenefit", {"scenario": "anl", "me_speedup": 4.0}),
    ("me_speedup", {"device": "v100", "fmt": "fp16"}),
]


def drill_plan():
    return FaultPlan(
        name="integrity-drill",
        seed=11,
        rules=(
            FaultRule(site="cache:result", kind="flip", times=4),
            FaultRule(site="handler:node_hours", kind="wrong-answer",
                      times=2),
            FaultRule(site="handler:costbenefit", kind="wrong-answer",
                      times=2),
        ),
    )


class TestChaosParityDrill:
    def test_corrupting_engine_matches_clean_engine_byte_for_byte(self):
        """The acceptance drill: an engine whose cache is being flipped
        and whose handlers are perturbed, with verify-on-read at 1.0,
        must serve answers byte-identical to an untouched engine's —
        every corruption detected, recomputed, and counted; zero wrong
        answers escape."""

        async def serve(fault_plan):
            async with QueryEngine(
                default_registry(), fault_plan=fault_plan,
                retry_policy=FAST_RETRY, verify_sample_rate=1.0,
            ) as engine:
                answers = []
                for _ in range(3):
                    for kind, params in DRILL_QUERIES:
                        response = await engine.submit(kind, params)
                        answers.append(
                            (canonical(response.value), response.digest)
                        )
                return answers, engine.metrics.snapshot()["counters"]

        chaos, counters = run(serve(drill_plan()))
        clean, clean_counters = run(serve(None))

        assert chaos == clean  # payload bytes AND digests identical
        for payload, digest in chaos:
            assert bytes_digest(payload) == digest
        # Every corruption landed on a typed metric; none leaked as an
        # unclassified error or a served value.
        assert counters["errors"] == 0
        assert counters["integrity_detected"] == 8  # 4 flips + 4 perturbs
        assert counters["integrity_recomputed"] == 4
        assert clean_counters["integrity_detected"] == 0
        assert clean_counters["integrity_recomputed"] == 0
        # The clean engine serves rounds 2-3 from cache; the corrupted
        # engine lost four of those six hits to quarantine + recompute.
        assert clean_counters["cache_hits"] == 6
        assert counters["cache_hits"] == 2

    def test_checked_in_integrity_plan_is_loadable_and_armed(self):
        from pathlib import Path

        from repro.resilience import load_fault_plan

        plan = load_fault_plan(
            Path("examples/faultplans/integrity_chaos.json")
        )
        kinds = {rule.kind for rule in plan.rules}
        assert kinds == {"flip", "wrong-answer"}
        assert any(rule.site == "cache:result" for rule in plan.rules)


class TestScrubber:
    def test_scrub_pass_quarantines_and_heals_in_place_corruption(self):
        """Rot an entry behind the engine's back (no fault plan, no
        verify-on-read) — the scrubber alone must find it, quarantine
        it, recompute it from the envelope's own provenance, and leave
        the next read honest."""

        async def go():
            async with QueryEngine(
                default_registry(), verify_sample_rate=0.0
            ) as engine:
                first = await engine.submit(
                    "me_speedup", {"device": "v100", "fmt": "fp16"}
                )
                honest = copy.deepcopy(first.value)
                _, env = engine.cache_entries()[0]
                corrupt_payload(env.value)
                tallies = await engine._scrub_pass()
                second = await engine.submit(
                    "me_speedup", {"device": "v100", "fmt": "fp16"}
                )
                return (
                    honest, tallies, second,
                    engine.metrics.snapshot(),
                )

        honest, tallies, second, snapshot = run(go())
        assert tallies == {"scanned": 1, "quarantined": 1, "recomputed": 1}
        assert canonical(second.value) == canonical(honest)
        counters = snapshot["counters"]
        assert counters["integrity_detected"] == 1
        assert counters["integrity_recomputed"] == 1
        scrubber = snapshot["scrubber"]
        assert scrubber["passes"] == 1
        assert scrubber["quarantined"] == 1
        assert scrubber["age_s"] >= 0.0

    def test_clean_cache_scrubs_to_zero_quarantines(self):
        async def go():
            async with QueryEngine(
                default_registry(), verify_sample_rate=0.0
            ) as engine:
                for kind, params in DRILL_QUERIES:
                    await engine.submit(kind, params)
                return await engine._scrub_pass()

        tallies = run(go())
        assert tallies == {"scanned": 3, "quarantined": 0, "recomputed": 0}


# -- one digest, always present ----------------------------------------------


class _StubShard(HttpServer):
    """A worker stand-in, serving on a loop of its own: every request
    gets the next canned 200 payload from a list it shares with its
    sibling shards."""

    def __init__(self, replies):
        super().__init__()
        self.replies = replies
        self.listen("127.0.0.1", 0)
        self.start()

    async def respond(self, request):
        return json_response(200, self.replies.pop(0))


ME_QUERY = ("me_speedup", {"device": "v100", "fmt": "fp16"})
STUB_VALUE = {"answer": 1.0}


def _stub_reply(digest=True):
    reply = {"kind": ME_QUERY[0], "params": ME_QUERY[1], "value": STUB_VALUE}
    if digest:
        reply["digest"] = payload_digest(STUB_VALUE)
    return reply


class TestDigestIsRequired:
    def test_missing_digest_fails_verification(self):
        from repro.serve.client import verify_response_digest

        verify_response_digest(
            STUB_VALUE, payload_digest(STUB_VALUE), where="test"
        )
        with pytest.raises(IntegrityError):
            verify_response_digest(STUB_VALUE, "", where="test")

    def test_router_rejects_and_spills_a_digest_less_reply(self):
        from repro.cluster.protocol import ShardTable
        from repro.cluster.ring import HashRing
        from repro.cluster.router import ClusterRouter
        from repro.serve import HttpServeClient

        # Whichever shard is primary answers first, without a digest;
        # its ring neighbour then answers honestly.
        replies = [_stub_reply(digest=False), _stub_reply()]
        shards = [_StubShard(replies), _StubShard(replies)]
        table = ShardTable([0, 1])
        for sid, shard in enumerate(shards):
            table.mark_up(sid, shard.url, pid=None)
        router = ClusterRouter(table, HashRing([0, 1], vnodes=16, seed=0))
        router.start("127.0.0.1", 0)
        try:
            payload = HttpServeClient(router.url, verify_digest=True).query(
                *ME_QUERY
            )
        finally:
            router.stop()
            for shard in shards:
                shard.stop()
        assert payload["value"] == STUB_VALUE
        assert payload["spilled"] is True
        assert replies == []
        assert router.counters["integrity_rejected"].value == 1
        assert router.counters["spilled"].value == 1

    def test_http_client_rejects_a_digest_less_reply(self):
        from repro.serve import HttpServeClient

        shard = _StubShard([_stub_reply(digest=False)])
        try:
            with pytest.raises(IntegrityError):
                HttpServeClient(shard.url, verify_digest=True).query(
                    *ME_QUERY
                )
        finally:
            shard.stop()


class TestDigestPins:
    """Every hash this program writes, pinned to its value before all
    canonical hashing moved onto :func:`payload_digest`."""

    def test_payload_digest(self):
        value = {"value": [1, 2.5, "inf", None, True],
                 "b": {"z": -0.0, "a": "λ"}}
        assert payload_digest(value) == (
            "22b80f8e2964659ccf52f7667154c142c3bdf8a2879b19726552abbe562af457"
        )

    def test_query_hash(self):
        from repro.serve.queries import canonical_hash

        assert canonical_hash(
            "node_hours", {"scenario": "anl", "speedup": 4.0}
        ) == "9ea16da6125ec3fcee09a28ee940b4083bcb0ca841e6b394ed5f9c20cbc4b5da"

    def test_scenario_fingerprint(self):
        from repro.scenario import load_scenario, scenario_fingerprint

        spec = load_scenario("examples/scenarios/int8_matrix_engine.json")
        assert scenario_fingerprint(spec) == (
            "02861ae3a7fbc77dcb5d755e2ce4d2d75008c732a011d98c21bf858cedb33df2"
        )

    def test_fault_plan_fingerprint(self):
        from repro.resilience import load_fault_plan
        from repro.resilience.faultplan import fault_plan_fingerprint

        plan = load_fault_plan("examples/faultplans/integrity_chaos.json")
        assert fault_plan_fingerprint(plan) == (
            "89353c9edd551aa0244f14197b3d46e13e90e2324a4018f0a4dfbbbd8f1030fe"
        )
