"""The what-if query service: hashing, registry, engine mechanics.

Covers the serving invariants the subsystem exists for — identical
queries canonicalise to one hash; in-flight duplicates coalesce onto
one computation; batchable sweeps collapse into one evaluation; the
result cache and the admission queue stay bounded; overload sheds with
``ServiceOverloaded`` instead of queueing; answers are byte-identical
to direct library calls even under ≥8-thread hammering.
"""

import asyncio
import json
import math
import threading
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.arrays import kernel_invocations
from repro.analysis.costbenefit import assess_scenario, me_speedup_estimate
from repro.errors import (
    DeviceError,
    QueryTimeout,
    QueryValidationError,
    ServeError,
    ServiceOverloaded,
)
from repro.extrapolate import build_machine, machine_names
from repro.harness.export import to_jsonable
from repro.hardware.registry import list_device_names
from repro.scenario import scenario_context, scenario_from_dict
from repro.serve import (
    DEFAULT_REGISTRY,
    Metrics,
    QueryEngine,
    QueryKind,
    QueryRegistry,
    ServeClient,
    canonical_hash,
    canonical_params,
)


def run(coro):
    return asyncio.run(coro)


# -- canonical hashing ------------------------------------------------------


class TestCanonicalHash:
    def test_field_order_is_irrelevant(self):
        a = canonical_hash("k", {"x": 1, "y": 2})
        b = canonical_hash("k", {"y": 2, "x": 1})
        assert a == b

    def test_kind_separates_hashes(self):
        params = {"x": 1}
        assert canonical_hash("a", params) != canonical_hash("b", params)

    def test_non_finite_floats_canonicalise(self):
        assert canonical_params({"s": math.inf}) == {"s": "inf"}
        assert canonical_params({"s": -math.inf}) == {"s": "-inf"}
        with pytest.raises(QueryValidationError, match="NaN"):
            canonical_params({"s": math.nan})

    def test_defaults_and_int_coercion_share_one_hash(self):
        q1 = DEFAULT_REGISTRY.build("node_hours", {"speedup": 4})
        q2 = DEFAULT_REGISTRY.build("node_hours", {"speedup": 4.0})
        q3 = DEFAULT_REGISTRY.build(
            "node_hours", {"scenario": "k_computer", "speedup": "4.0"}
        )
        q4 = DEFAULT_REGISTRY.build("node_hours")
        assert q1.hash == q2.hash == q3.hash == q4.hash

    def test_inf_string_round_trips(self):
        wire = DEFAULT_REGISTRY.build("node_hours", {"speedup": "inf"})
        native = DEFAULT_REGISTRY.build("node_hours", {"speedup": math.inf})
        assert wire.hash == native.hash
        assert wire.params.speedup == math.inf

    def test_cache_key_carries_substrate_seeds(self):
        q = DEFAULT_REGISTRY.build("ozaki", {"implementation": "cublasDgemm"})
        assert ("ozaki_splits", 20210517) in q.cache_key[1]


# -- registry validation ----------------------------------------------------


class TestRegistryValidation:
    def test_unknown_kind(self):
        with pytest.raises(QueryValidationError, match="unknown query kind"):
            DEFAULT_REGISTRY.build("nope")

    def test_unknown_parameter(self):
        with pytest.raises(QueryValidationError, match="unknown parameter"):
            DEFAULT_REGISTRY.build("node_hours", {"speed": 4.0})

    def test_unknown_scenario(self):
        with pytest.raises(QueryValidationError, match="unknown scenario"):
            DEFAULT_REGISTRY.build("costbenefit", {"scenario": "mars"})

    def test_speedup_below_one(self):
        with pytest.raises(QueryValidationError, match="speedup"):
            DEFAULT_REGISTRY.build("node_hours", {"speedup": 0.5})

    def test_unknown_device(self):
        with pytest.raises(QueryValidationError, match="unknown device"):
            DEFAULT_REGISTRY.build("me_speedup", {"device": "h100"})

    def test_negative_roofline_work(self):
        with pytest.raises(QueryValidationError, match=">= 0"):
            DEFAULT_REGISTRY.build(
                "roofline", {"device": "v100", "flops": -1.0, "nbytes": 0.0}
            )

    def test_unknown_ozaki_implementation(self):
        with pytest.raises(QueryValidationError, match="implementation"):
            DEFAULT_REGISTRY.build("ozaki", {"implementation": "xgemm"})

    def test_describe_lists_every_kind_with_schema(self):
        desc = DEFAULT_REGISTRY.describe()
        assert set(desc) == set(DEFAULT_REGISTRY.names())
        nh = desc["node_hours"]
        assert nh["batch_axis"] == "speedup"
        assert nh["params"]["speedup"]["required"] is False
        roof = desc["roofline"]
        assert roof["params"]["device"]["required"] is True

    def test_batch_axis_requires_batch_handler(self):
        @dataclass(frozen=True)
        class P:
            x: float = 0.0

        def one(p):
            return None

        def batch(p, values):
            return {v: None for v in values}

        for kwargs, match in (
            (dict(handler=one, batch_handler=batch, batch_axis="x"),
             "exactly one"),
            (dict(), "exactly one"),
            (dict(handler=one, batch_axis="x"), "if and only if"),
            (dict(batch_handler=batch), "if and only if"),
        ):
            with pytest.raises(ValueError, match=match):
                QueryKind(name="bad", params_type=P, description="", **kwargs)

    def test_batchable_kind_handler_is_a_batch_of_one(self):
        @dataclass(frozen=True)
        class P:
            tag: str = "t"
            x: float = 0.0

        calls = []

        def batch(p, values):
            calls.append(values)
            return {v: {"tag": p.tag, "x": v} for v in values}

        kind = QueryKind(
            name="sweep", params_type=P, description="",
            batch_axis="x", batch_handler=batch,
        )
        assert kind.handler(P(tag="a", x=2.0)) == {"tag": "a", "x": 2.0}
        assert calls == [(2.0,)]


# -- metrics ----------------------------------------------------------------


class TestMetrics:
    def test_counters_and_derived_ratios(self):
        m = Metrics()
        m.inc("requests", 10)
        m.inc("cache_hits", 4)
        m.inc("coalesced", 2)
        snap = m.snapshot()
        assert snap["counters"]["requests"] == 10
        assert snap["derived"]["cache_hit_ratio"] == pytest.approx(0.4)
        assert snap["derived"]["coalesce_ratio"] == pytest.approx(0.2)
        assert snap["derived"]["qps"] > 0

    def test_histogram_percentiles(self):
        m = Metrics()
        for v in range(1, 101):
            m.observe_latency("k", float(v))
        summary = m.snapshot()["latency_s"]
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(50.0, abs=1.0)
        assert summary["p95"] == pytest.approx(95.0, abs=1.0)
        assert summary["max"] == 100.0
        assert m.snapshot()["latency_s_by_kind"]["k"]["count"] == 100

    def test_empty_histogram_is_all_zero(self):
        snap = Metrics().snapshot()
        assert snap["latency_s"] == {
            "count": 0, "mean": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_counters_are_monotone(self):
        m = Metrics()
        with pytest.raises(ValueError):
            m.inc("requests", -1)

    def test_snapshot_is_json_encodable(self):
        import json

        m = Metrics()
        m.observe_latency("x", 0.01)
        json.dumps(m.snapshot())


# -- test-only kinds for engine mechanics -----------------------------------


@dataclass(frozen=True)
class SlowParams:
    key: int = 0
    delay: float = 0.05


@dataclass(frozen=True)
class SweepParams:
    base: str = "b"
    x: float = 0.0


def make_test_registry(record):
    """A registry with one slow scalar kind and one batchable kind.

    ``record["slow"]`` collects scalar evaluations, ``record["batch"]``
    collects (base, values) per batch evaluation.
    """

    def slow_handler(p):
        record.setdefault("slow", []).append(p.key)
        time.sleep(p.delay)
        return {"key": p.key}

    def sweep_batch(p, values):
        record.setdefault("batch", []).append((p.base, tuple(values)))
        return {v: {"base": p.base, "x": v} for v in values}

    return QueryRegistry(
        (
            QueryKind(
                name="slow", params_type=SlowParams, handler=slow_handler,
                description="sleeps then echoes",
            ),
            QueryKind(
                name="sweep", params_type=SweepParams,
                description="batchable echo", batch_axis="x",
                batch_handler=sweep_batch,
            ),
        )
    )


# -- engine mechanics -------------------------------------------------------


class TestCanonicalParamsOnce:
    def test_fresh_query_canonicalises_its_params_once(self, monkeypatch):
        from repro.serve import engine as engine_module
        from repro.serve import queries as queries_module

        calls = []
        real = queries_module.canonical_params

        def counting(params):
            calls.append(params)
            return real(params)

        # Wherever the serving path could look the name up.
        for module in (queries_module, engine_module):
            monkeypatch.setattr(
                module, "canonical_params", counting, raising=False
            )

        async def go():
            async with QueryEngine() as engine:
                return await engine.submit(
                    "node_hours", {"scenario": "anl", "speedup": 4}
                )

        response = run(go())
        assert response.cached is False
        assert response.params["speedup"] == 4.0
        assert len(calls) == 1


class TestEngineLifecycle:
    def test_submit_before_start_raises(self):
        engine = QueryEngine(make_test_registry({}))
        with pytest.raises(ServeError, match="not started"):
            run(engine.submit("slow"))

    def test_double_start_raises(self):
        async def go():
            async with QueryEngine(make_test_registry({})) as engine:
                with pytest.raises(ServeError, match="already started"):
                    await engine.start()

        run(go())

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            QueryEngine(make_test_registry({}), workers=0)
        with pytest.raises(ValueError):
            QueryEngine(make_test_registry({}), max_queue=0)
        with pytest.raises(ValueError):
            QueryEngine(make_test_registry({}), cache_size=-1)


class TestCoalescing:
    def test_identical_inflight_queries_share_one_computation(self):
        record = {}

        async def go():
            async with QueryEngine(
                make_test_registry(record), workers=2
            ) as engine:
                return await asyncio.gather(
                    *(
                        engine.submit("slow", {"key": 7, "delay": 0.1})
                        for _ in range(8)
                    )
                )

        responses = run(go())
        assert record["slow"] == [7]  # computed exactly once
        assert all(r.value == {"key": 7} for r in responses)
        assert sum(r.coalesced for r in responses) == 7

    def test_coalesced_metrics(self):
        record = {}

        async def go():
            async with QueryEngine(
                make_test_registry(record), workers=2
            ) as engine:
                await asyncio.gather(
                    *(
                        engine.submit("slow", {"key": 1, "delay": 0.05})
                        for _ in range(5)
                    )
                )
                return engine.metrics.snapshot()["counters"]

        counters = run(go())
        assert counters["computed"] == 1
        assert counters["coalesced"] == 4
        assert counters["requests"] == 5


class TestResultCache:
    def test_second_identical_query_is_a_cache_hit(self):
        record = {}

        async def go():
            async with QueryEngine(make_test_registry(record)) as engine:
                first = await engine.submit("slow", {"key": 3, "delay": 0.0})
                second = await engine.submit("slow", {"key": 3, "delay": 0.0})
                return first, second

        first, second = run(go())
        assert not first.cached and second.cached
        assert first.value == second.value
        assert record["slow"] == [3]

    def test_lru_bound_evicts_oldest(self):
        record = {}

        async def go():
            async with QueryEngine(
                make_test_registry(record), cache_size=2
            ) as engine:
                for key in (1, 2, 3):
                    await engine.submit("slow", {"key": key, "delay": 0.0})
                assert len(engine._cache) == 2
                # key=1 was evicted: asking again recomputes it
                r1 = await engine.submit("slow", {"key": 1, "delay": 0.0})
                # key=3 is still resident
                r3 = await engine.submit("slow", {"key": 3, "delay": 0.0})
                return r1, r3

        r1, r3 = run(go())
        assert not r1.cached and r3.cached
        assert record["slow"] == [1, 2, 3, 1]

    def test_cache_size_zero_disables_caching(self):
        record = {}

        async def go():
            async with QueryEngine(
                make_test_registry(record), cache_size=0
            ) as engine:
                await engine.submit("slow", {"key": 5, "delay": 0.0})
                return await engine.submit("slow", {"key": 5, "delay": 0.0})

        assert not run(go()).cached
        assert record["slow"] == [5, 5]


class TestMicroBatching:
    def test_sweep_queries_collapse_into_one_evaluation(self):
        record = {}

        async def go():
            async with QueryEngine(
                make_test_registry(record), workers=1
            ) as engine:
                return await asyncio.gather(
                    *(
                        engine.submit("sweep", {"x": float(x)})
                        for x in range(6)
                    )
                )

        responses = run(go())
        assert [r.value["x"] for r in responses] == [float(x) for x in range(6)]
        batches = record["batch"]
        total = sum(len(values) for _, values in batches)
        assert total == 6
        assert len(batches) < 6  # genuinely collapsed
        assert any(r.batched for r in responses)

    def test_batch_groups_split_on_non_axis_params(self):
        record = {}

        async def go():
            async with QueryEngine(
                make_test_registry(record), workers=2
            ) as engine:
                return await asyncio.gather(
                    engine.submit("sweep", {"base": "a", "x": 1.0}),
                    engine.submit("sweep", {"base": "a", "x": 2.0}),
                    engine.submit("sweep", {"base": "b", "x": 1.0}),
                )

        responses = run(go())
        assert {r.value["base"] for r in responses} == {"a", "b"}
        bases = {base for base, _ in record["batch"]}
        assert bases == {"a", "b"}
        assert all(
            base == "b" or len(values) <= 2 for base, values in record["batch"]
        )

    def test_max_batch_caps_group_size(self):
        record = {}

        async def go():
            async with QueryEngine(
                make_test_registry(record),
                workers=1,
                max_batch=4,
            ) as engine:
                await asyncio.gather(
                    *(
                        engine.submit("sweep", {"x": float(x)})
                        for x in range(10)
                    )
                )

        run(go())
        assert all(len(values) <= 4 for _, values in record["batch"])

    def test_batches_form_while_the_worker_is_busy(self):
        """No timer: sweep queries arriving on separate loop turns while
        the only worker is busy join one queued group; on an idle engine
        a lone sweep query starts at once as a group of one."""
        record = {}
        entered, gate = threading.Event(), threading.Event()

        def gated_handler(p):
            entered.set()
            assert gate.wait(10), "test never opened the gate"
            return {"key": p.key}

        registry = make_test_registry(record)
        registry.register(QueryKind(
            name="gated", params_type=SlowParams, handler=gated_handler,
            description="blocks its worker until the gate opens",
        ))

        async def go():
            async with QueryEngine(registry, workers=1) as engine:
                busy = asyncio.ensure_future(engine.submit("gated"))
                for _ in range(1000):
                    if entered.is_set():
                        break
                    await asyncio.sleep(0.01)
                assert entered.is_set(), "the gated query never started"
                sweeps = []
                for x in range(4):
                    sweeps.append(asyncio.ensure_future(
                        engine.submit("sweep", {"x": float(x)})
                    ))
                    await asyncio.sleep(0.01)  # a separate loop turn each
                gate.set()
                await busy
                grouped = await asyncio.gather(*sweeps)
                lone = await engine.submit("sweep", {"x": 9.0})
                return grouped, lone

        grouped, lone = run(go())
        assert record["batch"] == [("b", (0.0, 1.0, 2.0, 3.0)), ("b", (9.0,))]
        assert all(r.batched for r in grouped)
        assert lone.batched is False

    def test_batched_metrics(self):
        record = {}

        async def go():
            async with QueryEngine(
                make_test_registry(record), workers=1
            ) as engine:
                await asyncio.gather(
                    *(
                        engine.submit("sweep", {"x": float(x)})
                        for x in range(5)
                    )
                )
                return engine.metrics.snapshot()

        snap = run(go())
        assert snap["counters"]["computed"] == 5
        assert snap["counters"]["batched"] >= 2
        assert snap["batch_size"]["max"] >= 2


class TestBackpressure:
    def test_overload_sheds_instead_of_queueing(self):
        record = {}

        async def go():
            async with QueryEngine(
                make_test_registry(record), workers=1, max_queue=2
            ) as engine:
                results = await asyncio.gather(
                    *(
                        engine.submit("slow", {"key": k, "delay": 0.1})
                        for k in range(12)
                    ),
                    return_exceptions=True,
                )
                return results, engine.metrics.snapshot()["counters"]

        results, counters = run(go())
        shed = [r for r in results if isinstance(r, ServiceOverloaded)]
        served = [r for r in results if not isinstance(r, BaseException)]
        assert shed, "a 12-deep burst through a 2-slot queue must shed"
        assert served, "admitted work must still be answered"
        assert len(shed) + len(served) == 12
        assert counters["shed"] == len(shed)
        # shed work never ran: the handler saw only admitted keys
        assert len(record["slow"]) == len(served)

    def test_queue_depth_never_exceeds_bound(self):
        record = {}
        depths = []

        async def go():
            async with QueryEngine(
                make_test_registry(record), workers=1, max_queue=3
            ) as engine:

                async def probe():
                    for _ in range(50):
                        depths.append(engine._queue.qsize())
                        await asyncio.sleep(0.002)

                await asyncio.gather(
                    probe(),
                    *(
                        engine.submit("slow", {"key": k, "delay": 0.01})
                        for k in range(30)
                    ),
                    return_exceptions=True,
                )

        run(go())
        assert max(depths) <= 3

    def test_shed_request_can_be_retried(self):
        record = {}

        async def go():
            async with QueryEngine(
                make_test_registry(record), workers=1, max_queue=1
            ) as engine:
                results = await asyncio.gather(
                    *(
                        engine.submit("slow", {"key": k, "delay": 0.05})
                        for k in range(6)
                    ),
                    return_exceptions=True,
                )
                shed_keys = [
                    k
                    for k, r in enumerate(results)
                    if isinstance(r, ServiceOverloaded)
                ]
                assert shed_keys
                retry = await engine.submit(
                    "slow", {"key": shed_keys[0], "delay": 0.0}
                )
                return retry

        assert run(go()).value["key"] is not None


class TestTimeouts:
    def test_deadline_expiry_raises_query_timeout(self):
        record = {}

        async def go():
            async with QueryEngine(make_test_registry(record)) as engine:
                with pytest.raises(QueryTimeout, match="deadline"):
                    await engine.submit(
                        "slow", {"key": 1, "delay": 0.5}, timeout=0.02
                    )
                return engine.metrics.snapshot()["counters"]

        assert run(go())["timeouts"] == 1

    def test_timeout_does_not_cancel_the_shared_computation(self):
        record = {}

        async def go():
            async with QueryEngine(make_test_registry(record)) as engine:
                fast, slow = await asyncio.gather(
                    engine.submit("slow", {"key": 9, "delay": 0.15},
                                  timeout=0.02),
                    engine.submit("slow", {"key": 9, "delay": 0.15},
                                  timeout=5.0),
                    return_exceptions=True,
                )
                return fast, slow

        fast, slow = run(go())
        assert isinstance(fast, QueryTimeout)
        assert slow.value == {"key": 9}
        assert record["slow"] == [9]  # one computation despite the timeout

    def test_handler_errors_propagate_and_are_counted(self):
        def boom(p):
            raise RuntimeError("kaput")

        @dataclass(frozen=True)
        class P:
            x: int = 0

        registry = QueryRegistry(
            (QueryKind(name="boom", params_type=P, handler=boom,
                       description=""),)
        )

        async def go():
            async with QueryEngine(registry) as engine:
                with pytest.raises(RuntimeError, match="kaput"):
                    await engine.submit("boom")
                return engine.metrics.snapshot()["counters"]

        counters = run(go())
        assert counters["errors"] == 1

    def test_invalid_queries_count_and_never_admit(self):
        record = {}

        async def go():
            async with QueryEngine(make_test_registry(record)) as engine:
                with pytest.raises(QueryValidationError):
                    await engine.submit("nope")
                return engine.metrics.snapshot()["counters"]

        counters = run(go())
        assert counters["invalid"] == 1
        assert counters["requests"] == 0


# -- answers vs the libraries, and concurrency ------------------------------


@pytest.fixture(scope="module")
def client():
    with ServeClient(workers=4, cache_size=64) as c:
        yield c


class TestAnswerParity:
    """Every kind's served value must equal the direct library call."""

    def test_costbenefit(self, client):
        from repro.analysis.costbenefit import assess_scenario
        from repro.extrapolate.scenarios import anl_scenario

        served = client.query(
            "costbenefit", {"scenario": "anl", "me_speedup": 4.0}
        ).value
        direct = assess_scenario(anl_scenario(), me_speedup=4.0)
        expected = to_jsonable(direct)
        expected["worthwhile"] = direct.worthwhile
        expected["verdict"] = direct.verdict()
        assert served == expected

    def test_node_hours(self, client):
        from repro.extrapolate.scenarios import future_scenario

        served = client.query(
            "node_hours", {"scenario": "future", "speedup": 8.0}
        ).value
        scenario = future_scenario()
        assert served["reduction"] == to_jsonable(scenario.reduction(8.0))
        assert served["throughput_improvement"] == to_jsonable(
            scenario.throughput_improvement(8.0)
        )

    def test_node_hours_infinite_speedup(self, client):
        from repro.extrapolate.scenarios import k_computer_scenario

        served = client.query("node_hours", {"speedup": "inf"}).value
        assert served["reduction"] == to_jsonable(
            k_computer_scenario().reduction(math.inf)
        )

    def test_me_speedup(self, client):
        from repro.analysis.costbenefit import me_speedup_estimate

        served = client.query(
            "me_speedup", {"device": "v100", "fmt": "fp16"}
        ).value
        assert served["me_speedup"] == me_speedup_estimate("v100", "fp16")

    def test_roofline(self, client):
        from repro.hardware.registry import get_device
        from repro.hardware.roofline import roofline_time

        served = client.query(
            "roofline",
            {"device": "a100", "flops": 2e12, "nbytes": 4e9, "fmt": "fp64"},
        ).value
        device = get_device("a100")
        unit = device.best_unit("fp64")
        duration, t_comp, t_mem = roofline_time(
            device, unit, flops=2e12, nbytes=4e9, fmt="fp64", kind="gemm"
        )
        assert served["duration_s"] == duration
        assert served["unit"] == unit.name

    def test_density(self, client):
        from repro.hardware.density import density_ratio
        from repro.hardware.registry import get_device

        served = client.query(
            "density",
            {"device_a": "ascend910", "device_b": "power10", "fmt": "fp16"},
        ).value
        assert served["density_ratio"] == density_ratio(
            get_device("ascend910"), get_device("power10"), "fp16"
        )

    def test_ozaki_matches_substrate_row(self, client):
        from repro.ozaki.perf import emulated_gemm_performance

        served = client.query(
            "ozaki",
            {"implementation": "DGEMM-TC", "input_range": 1e16},
        ).value
        rows = emulated_gemm_performance(8192, "v100")
        direct = next(
            r
            for r in rows
            if r.implementation == "DGEMM-TC"
            and r.condition == "input range: 1e+16"
        )
        assert served == to_jsonable(direct)

    def test_ozaki_row_absent_is_validation_error(self, client):
        with pytest.raises(QueryValidationError, match="no Table VIII row"):
            client.query(
                "ozaki", {"implementation": "DGEMM-TC", "input_range": 1e9}
            )


def _canonical(value):
    return json.dumps(to_jsonable(value), sort_keys=True)


_SPEEDUPS = st.one_of(st.floats(1.0, 1e6), st.just(math.inf))
_OVERLAYS = st.sampled_from([None, scenario_from_dict({
    "name": "ai20",
    "machines": [{
        "name": "k_computer",
        "renormalize": True,
        "domains": [
            {"domain": "AI/DL", "share": 0.25, "accelerable": 0.832}
        ],
    }],
})])
_FMTS = ("fp64", "fp32", "tf32", "fp16", "bf16", "int8")


class TestOneEvaluationPath:
    """A batchable kind's ``handler`` is its batch handler on a batch of
    one; it must answer exactly what the library reference does."""

    @settings(max_examples=150, deadline=None)
    @given(
        machine=st.sampled_from(sorted(machine_names())),
        speedup=_SPEEDUPS,
        overlay=_OVERLAYS,
    )
    def test_node_hours_matches_the_model(self, machine, speedup, overlay):
        kind = DEFAULT_REGISTRY.get("node_hours")
        with scenario_context(overlay):
            got = kind.handler(
                kind.build_params({"scenario": machine, "speedup": speedup})
            )
            model = build_machine(machine)
            expected = {
                "machine": model.name,
                "speedup": speedup,
                "reduction": model.reduction(speedup),
                "consumed_fraction": model.consumed_fraction(speedup),
                "throughput_improvement": model.throughput_improvement(
                    speedup
                ),
                "node_hours_saved": model.node_hours_saved(speedup),
            }
        assert _canonical(got) == _canonical(expected)

    @settings(max_examples=150, deadline=None)
    @given(
        machine=st.sampled_from(sorted(machine_names())),
        speedup=_SPEEDUPS,
        overlay=_OVERLAYS,
    )
    def test_costbenefit_matches_assess_scenario(
        self, machine, speedup, overlay
    ):
        kind = DEFAULT_REGISTRY.get("costbenefit")
        with scenario_context(overlay):
            got = kind.handler(kind.build_params(
                {"scenario": machine, "me_speedup": speedup}
            ))
            report = assess_scenario(
                build_machine(machine), me_speedup=speedup
            )
        expected = to_jsonable(report)
        expected["worthwhile"] = report.worthwhile
        expected["verdict"] = report.verdict()
        assert _canonical(got) == _canonical(expected)

    @settings(max_examples=150, deadline=None)
    @given(
        device=st.sampled_from(list_device_names()),
        fmt=st.sampled_from(_FMTS),
    )
    def test_me_speedup_matches_the_estimate(self, device, fmt):
        kind = DEFAULT_REGISTRY.get("me_speedup")
        params = kind.build_params({"device": device, "fmt": fmt})
        try:
            expected = me_speedup_estimate(device, fmt)
        except DeviceError as exc:
            with pytest.raises(QueryValidationError) as raised:
                kind.handler(params)
            assert str(raised.value) == str(exc)
            return
        got = kind.handler(params)
        assert _canonical(got) == _canonical(
            {"device": device, "fmt": fmt, "me_speedup": expected}
        )

    def test_device_without_an_engine_for_the_format_is_invalid(self):
        kind = DEFAULT_REGISTRY.get("me_speedup")
        for device, fmt in (("v100", "fp64"), ("a64fx", "fp16")):
            with pytest.raises(QueryValidationError):
                kind.handler(kind.build_params({"device": device, "fmt": fmt}))

    def test_solo_node_hours_is_one_kernel_pass(self):
        kind = DEFAULT_REGISTRY.get("node_hours")
        params = kind.build_params({"scenario": "anl", "speedup": 4.0})
        kind.handler(params)  # warm the workload-profile substrate
        before = kernel_invocations()
        kind.handler(params)
        assert kernel_invocations() == before + 1


class TestConcurrentServing:
    """Hammer one engine from many threads; the answers must not care."""

    N_THREADS = 8
    PER_THREAD = 24

    def _mixed_requests(self):
        reqs = []
        for i in range(self.PER_THREAD):
            reqs.append(
                ("node_hours",
                 {"scenario": ("k_computer", "anl", "future")[i % 3],
                  "speedup": float(2 + i % 4)})
            )
        return reqs

    def test_threaded_hammer_is_deterministic_and_coalesces(self):
        from repro.extrapolate.scenarios import (
            anl_scenario,
            future_scenario,
            k_computer_scenario,
        )

        scenarios = {
            "k_computer": k_computer_scenario(),
            "anl": anl_scenario(),
            "future": future_scenario(),
        }
        with ServeClient(workers=4, cache_size=32, max_queue=512) as client:
            results: dict[int, list] = {}
            errors: list = []

            def hammer(tid):
                try:
                    out = []
                    for kind, params in self._mixed_requests():
                        out.append((params, client.query(kind, params).value))
                    results[tid] = out
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(t,))
                for t in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for out in results.values():
                for params, value in out:
                    expected = scenarios[params["scenario"]].reduction(
                        params["speedup"]
                    )
                    assert value["reduction"] == to_jsonable(expected)
            snap = client.metrics()
            counters = snap["counters"]
            total = self.N_THREADS * self.PER_THREAD
            assert counters["requests"] == total
            # 12 distinct queries behind 192 requests: almost everything
            # must be answered without a fresh computation.
            assert counters["computed"] < total / 4
            assert counters["cache_hits"] + counters["coalesced"] > 0
            assert counters["shed"] == 0
            assert len(client.engine._cache) <= 32
            assert snap["latency_s"]["count"] == total

    def test_overload_from_threads_is_clean(self):
        record = {}
        with ServeClient(
            engine=QueryEngine(
                make_test_registry(record), workers=1, max_queue=2
            )
        ) as client:
            outcomes = client.query_many(
                [("slow", {"key": k, "delay": 0.05}) for k in range(16)],
                return_exceptions=True,
            )
            shed = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
            ok = [o for o in outcomes if not isinstance(o, BaseException)]
            assert len(shed) + len(ok) == 16
            assert shed and ok
            unexpected = [
                o for o in outcomes
                if isinstance(o, BaseException)
                and not isinstance(o, ServiceOverloaded)
            ]
            assert not unexpected

    def test_client_rejects_double_start_and_engine_sharing(self):
        client = ServeClient(workers=1)
        client.start()
        try:
            with pytest.raises(ServeError, match="already started"):
                client.start()
        finally:
            client.close()
        with pytest.raises(ValueError, match="not both"):
            ServeClient(engine=QueryEngine(make_test_registry({})), workers=2)
