"""The tail-tolerant request lifecycle, layer by layer.

Deadline budgets (parsing, wire form, per-stage refusal), the AIMD
admission limiter, cooperative cancellation primitives, full-jitter
retry backoff, breaker cooldown introspection, and the router's
budget-aware spill decisions.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import pytest

from repro.errors import (
    DeadlineExhausted,
    OperationCancelled,
    QueryValidationError,
    ShardUnavailable,
)
from repro.resilience import (
    CancellationToken,
    CircuitBreaker,
    RetryPolicy,
    active_token,
    cancel_context,
    cancel_point,
)
from repro.serve import QueryKind, QueryRegistry, ServeClient
from repro.serve.admission import AIMDLimiter
from repro.serve.deadline import (
    DEADLINE_HEADER,
    DeadlineBudget,
    parse_deadline_header,
    parse_deadline_ms,
)


# -- deadline budgets --------------------------------------------------------


class TestDeadlineBudget:
    def test_remaining_counts_down_on_the_injected_clock(self):
        now = [100.0]
        budget = DeadlineBudget(250.0, clock=lambda: now[0])
        assert budget.remaining_ms() == pytest.approx(250.0)
        now[0] += 0.2
        assert budget.remaining_ms() == pytest.approx(50.0)
        assert not budget.exhausted()
        now[0] += 0.1
        assert budget.remaining_ms() == 0.0
        assert budget.exhausted()

    def test_header_value_is_integer_remaining_ms(self):
        now = [0.0]
        budget = DeadlineBudget(1500.0, clock=lambda: now[0])
        assert budget.header_value() == "1500"
        now[0] += 1.0
        assert budget.header_value() == "500"
        now[0] += 2.0
        assert budget.header_value() == "0"

    def test_exhausted_floor_refuses_unpayable_stages(self):
        now = [0.0]
        budget = DeadlineBudget(10.0, clock=lambda: now[0])
        assert not budget.exhausted()
        assert budget.exhausted(floor_ms=20.0)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -1.0, 0.0, True, "soon", None]
    )
    def test_invalid_deadlines_are_typed_validation_errors(self, bad):
        with pytest.raises(QueryValidationError):
            parse_deadline_ms(bad)

    def test_parse_header_absent_is_none(self):
        assert parse_deadline_header(None) is None

    def test_parse_header_zero_is_valid_but_exhausted(self):
        # "0" is an upstream hop saying "no time left" — a 504, not a
        # malformed request.
        budget = parse_deadline_header("0")
        assert budget is not None
        assert budget.exhausted()

    @pytest.mark.parametrize("raw", ["NaN", "inf", "-5", "later", ""])
    def test_parse_header_garbage_is_rejected(self, raw):
        with pytest.raises(QueryValidationError):
            parse_deadline_header(raw)

    def test_parse_header_round_trips_the_wire_value(self):
        budget = parse_deadline_header("750")
        assert 700.0 < budget.remaining_ms() <= 750.0


# -- adaptive admission ------------------------------------------------------


class TestAIMDLimiter:
    def _limiter(self, **kw):
        now = [0.0]
        kw.setdefault("initial", 4.0)
        kw.setdefault("min_limit", 1.0)
        kw.setdefault("max_limit", 8.0)
        kw.setdefault("target_delay_s", 0.1)
        kw.setdefault("cooldown_s", 0.5)
        return AIMDLimiter(clock=lambda: now[0], **kw), now

    def test_acquires_up_to_the_limit_then_refuses(self):
        limiter, _ = self._limiter(initial=2.0)
        assert limiter.try_acquire("k")
        assert limiter.try_acquire("k")
        assert not limiter.try_acquire("k")
        limiter.release("k", 0.0)
        assert limiter.try_acquire("k")

    def test_kinds_are_limited_independently(self):
        limiter, _ = self._limiter(initial=1.0)
        assert limiter.try_acquire("a")
        assert not limiter.try_acquire("a")
        assert limiter.try_acquire("b")

    def test_slow_queue_decreases_multiplicatively(self):
        limiter, _ = self._limiter(initial=4.0, backoff=0.5)
        assert limiter.try_acquire("k")
        limiter.release("k", queue_delay_s=1.0)  # far past the target
        assert limiter.limits()["k"]["limit"] == pytest.approx(2.0)

    def test_decrease_rate_limited_by_cooldown(self):
        limiter, now = self._limiter(initial=8.0, backoff=0.5, cooldown_s=0.5)
        limiter.try_acquire("k")
        limiter.release("k", 1.0)
        limiter.try_acquire("k")
        limiter.release("k", 1.0)  # same instant: no second cut
        assert limiter.limits()["k"]["limit"] == pytest.approx(4.0)
        now[0] += 1.0
        limiter.try_acquire("k")
        limiter.release("k", 1.0)
        assert limiter.limits()["k"]["limit"] == pytest.approx(2.0)

    def test_fast_queue_increases_additively_to_the_cap(self):
        limiter, _ = self._limiter(initial=2.0, max_limit=3.0, increment=2.0)
        before = limiter.limits().get("k")
        for _ in range(20):
            assert limiter.try_acquire("k")
            limiter.release("k", 0.0)
        after = limiter.limits()["k"]["limit"]
        assert before is None and 2.0 < after <= 3.0

    def test_never_cut_below_the_floor(self):
        limiter, now = self._limiter(initial=2.0, min_limit=1.0, backoff=0.1)
        for _ in range(5):
            limiter.try_acquire("k")
            limiter.release("k", 5.0)
            now[0] += 1.0
        assert limiter.limits()["k"]["limit"] >= 1.0
        assert limiter.try_acquire("k")  # floor still admits work

    def test_cancel_acquire_returns_the_slot(self):
        limiter, _ = self._limiter(initial=1.0)
        assert limiter.try_acquire("k")
        limiter.cancel_acquire("k")
        assert limiter.try_acquire("k")


# -- cooperative cancellation -------------------------------------------------


class TestCancellation:
    def test_cancel_point_is_a_noop_without_a_token(self):
        assert active_token() is None
        cancel_point()  # must not raise

    def test_cancel_point_raises_once_token_cancelled(self):
        token = CancellationToken()
        with cancel_context(token):
            assert active_token() is token
            cancel_point()
            token.cancel()
            with pytest.raises(OperationCancelled):
                cancel_point()
        assert active_token() is None

    def test_token_is_visible_across_threads(self):
        token = CancellationToken()
        hit = threading.Event()

        def worker():
            with cancel_context(token):
                while True:
                    try:
                        cancel_point()
                    except OperationCancelled:
                        hit.set()
                        return
                    time.sleep(0.001)

        thread = threading.Thread(target=worker)
        thread.start()
        token.cancel()
        thread.join(timeout=5)
        assert hit.is_set()

    def test_sweep_kernel_aborts_at_row_granularity(self):
        from repro.analysis.arrays import consumed_fraction_grid

        shares = [[0.6, 0.4]]
        accelerable = [[0.5, 0.8]]
        speedups = (2.0, 4.0, 8.0)
        # Sanity: the kernel runs fine without a token.
        consumed_fraction_grid(shares, accelerable, speedups)
        token = CancellationToken()
        token.cancel()
        with cancel_context(token):
            with pytest.raises(OperationCancelled):
                consumed_fraction_grid(shares, accelerable, speedups)


# -- full-jitter retry backoff ------------------------------------------------


class TestFullJitterRetry:
    def test_full_jitter_draws_from_zero_to_raw(self):
        policy = RetryPolicy(
            attempts=6, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=0.4, mode="full",
        )
        for seed in range(10):
            delays = policy.delays(seed=seed, site="s")
            assert len(delays) == 5
            raws = [min(0.1 * 2.0**i, 0.4) for i in range(5)]
            for delay, raw in zip(delays, raws):
                assert 0.0 <= delay <= raw

    def test_full_jitter_is_deterministic_per_seed_and_site(self):
        policy = RetryPolicy(attempts=4, mode="full")
        assert policy.delays(seed=7, site="a") == \
            policy.delays(seed=7, site="a")
        assert policy.delays(seed=7, site="a") != \
            policy.delays(seed=8, site="a")

    def test_equal_mode_keeps_the_exponential_floor(self):
        policy = RetryPolicy(
            attempts=4, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=1.0, jitter=0.5, mode="equal",
        )
        delays = policy.delays(seed=3, site="s")
        for delay, raw in zip(delays, [0.1, 0.2, 0.4]):
            assert raw * 0.5 <= delay <= raw

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(mode="fuzzy")


# -- breaker cooldown introspection ------------------------------------------


class TestBreakerRemainingOpen:
    def test_closed_breaker_has_no_cooldown(self):
        breaker = CircuitBreaker("b", failure_threshold=1, recovery_s=5.0)
        assert breaker.remaining_open_s() == 0.0

    def test_open_breaker_counts_down(self):
        now = [0.0]
        breaker = CircuitBreaker(
            "b", failure_threshold=1, recovery_s=5.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.remaining_open_s() == pytest.approx(5.0)
        now[0] += 3.0
        assert breaker.remaining_open_s() == pytest.approx(2.0)
        now[0] += 3.0
        # Past recovery: half-open, a trial may proceed immediately.
        assert breaker.remaining_open_s() == 0.0


# -- engine: budget stages and the no-store path ------------------------------


@dataclass(frozen=True)
class NapParams:
    key: int = 0
    delay: float = 0.05


def _nap_registry():
    def handler(p):
        time.sleep(p.delay)
        return {"key": p.key}

    return QueryRegistry((
        QueryKind(
            name="nap", params_type=NapParams, handler=handler,
            description="sleeps then echoes",
        ),
    ))


@pytest.fixture()
def nap_client():
    with ServeClient(
        registry=_nap_registry(), workers=2, cache_size=8,
        default_timeout_s=5.0,
    ) as client:
        yield client


class TestEngineBudgetStages:
    def test_pre_exhausted_budget_refused_at_admission(self, nap_client):
        budget = DeadlineBudget(1.0)
        time.sleep(0.01)
        with pytest.raises(DeadlineExhausted) as err:
            nap_client.query("nap", {"key": 1}, budget=budget)
        assert err.value.stage == "admission"
        assert nap_client.metrics()["counters"]["deadline_exhausted"] == 1

    def test_budget_expiring_mid_wait_names_the_await_stage(self, nap_client):
        with pytest.raises(DeadlineExhausted) as err:
            nap_client.query(
                "nap", {"key": 2, "delay": 0.5},
                budget=DeadlineBudget(50.0),
            )
        assert err.value.stage in ("await", "worker", "handler")
        # The propagated budget must NOT masquerade as a local timeout.
        assert nap_client.metrics()["counters"]["timeouts"] == 0
        assert nap_client.metrics()["counters"]["deadline_exhausted"] == 1

    def test_ample_budget_answers_normally(self, nap_client):
        reply = nap_client.query(
            "nap", {"key": 3, "delay": 0.01},
            budget=DeadlineBudget(5000.0),
        )
        assert reply.value == {"key": 3}

    def test_no_store_keeps_the_answer_out_of_the_cache(self, nap_client):
        nap_client.query("nap", {"key": 4, "delay": 0.0}, store=False)
        repeat = nap_client.query("nap", {"key": 4, "delay": 0.0})
        assert repeat.cached is False
        # The regular request stored it; a third read is warm.
        third = nap_client.query("nap", {"key": 4, "delay": 0.0})
        assert third.cached is True


# -- HTTP surface: deadline parsing and rejection -----------------------------


@pytest.fixture()
def nap_server():
    from repro.serve.http import make_server

    srv = make_server(port=0, client=ServeClient(
        registry=_nap_registry(), workers=1, cache_size=4,
        default_timeout_s=5.0,
    ).start())
    srv.start()
    yield srv
    srv.stop()
    srv.client.close()


def _raw_post(url, body, headers=None):
    req = urllib.request.Request(
        url + "/query",
        data=body.encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHttpDeadlines:
    def test_nan_deadline_in_body_is_a_400(self, nap_server):
        status, payload = _raw_post(
            nap_server.url,
            '{"kind": "nap", "params": {"key": 1}, "deadline_ms": NaN}',
        )
        assert status == 400
        assert payload["code"] == "query_validation"
        metrics = nap_server.client.metrics()
        assert metrics["counters"]["invalid"] == 1

    def test_nan_deadline_header_is_a_400(self, nap_server):
        status, payload = _raw_post(
            nap_server.url,
            '{"kind": "nap", "params": {"key": 1}}',
            headers={DEADLINE_HEADER: "NaN"},
        )
        assert status == 400
        assert payload["code"] == "query_validation"

    def test_zero_budget_header_is_a_504_not_a_400(self, nap_server):
        status, payload = _raw_post(
            nap_server.url,
            '{"kind": "nap", "params": {"key": 1}}',
            headers={DEADLINE_HEADER: "0"},
        )
        assert status == 504
        assert payload["code"] == "deadline_exhausted"
        assert payload["stage"] == "admission"

    def test_body_deadline_ms_is_honored(self, nap_server):
        status, payload = _raw_post(
            nap_server.url,
            json.dumps({
                "kind": "nap",
                "params": {"key": 2, "delay": 0.5},
                "deadline_ms": 40,
            }),
        )
        assert status == 504
        assert payload["code"] == "deadline_exhausted"

    def test_handler_concurrency_flag_is_honored(self, capsys):
        from repro.serve.http import build_parser

        args = build_parser().parse_args(
            ["--handler-concurrency", "6", "--port", "0"]
        )
        assert args.handler_concurrency == 6
        assert capsys.readouterr().err == ""


# -- router: budget-aware spill ----------------------------------------------


class TestBudgetAwareSpill:
    @pytest.fixture()
    def lone_router(self):
        from repro.cluster.protocol import ShardTable
        from repro.cluster.ring import HashRing
        from repro.cluster.router import ClusterRouter

        table = ShardTable([0])
        ring = HashRing([0], vnodes=16, seed=0)
        router = ClusterRouter(table, ring, spill=0)
        router.start("127.0.0.1", 0)
        yield router, table
        router.stop()

    def test_cooldown_outlasting_budget_is_budget_skipped(self, lone_router):
        router, table = lone_router
        table.mark_up(0, "http://127.0.0.1:9", pid=None)
        table.set_cooldown(0, time.monotonic() + 60.0)
        from repro.serve import HttpServeClient

        http = HttpServeClient(router.url, timeout=10)
        with pytest.raises(ShardUnavailable):
            http.query("me_speedup", {"device": "v100", "fmt": "fp16"},
                       deadline_ms=200.0)
        assert router.counters["budget_skipped"].value == 1
        assert router.counters["cooldown_skipped"].value == 0

    def test_same_cooldown_without_budget_is_cooldown_skipped(
        self, lone_router
    ):
        router, table = lone_router
        table.mark_up(0, "http://127.0.0.1:9", pid=None)
        table.set_cooldown(0, time.monotonic() + 60.0)
        from repro.serve import HttpServeClient

        http = HttpServeClient(router.url, timeout=10)
        with pytest.raises(ShardUnavailable):
            http.query("me_speedup", {"device": "v100", "fmt": "fp16"})
        assert router.counters["cooldown_skipped"].value == 1
        assert router.counters["budget_skipped"].value == 0

    def test_exhausted_budget_rejected_before_routing(self, lone_router):
        router, table = lone_router
        table.mark_up(0, "http://127.0.0.1:9", pid=None)
        from repro.serve import HttpServeClient

        http = HttpServeClient(router.url, timeout=10)
        with pytest.raises(DeadlineExhausted):
            http.query("me_speedup", {"device": "v100", "fmt": "fp16"},
                       deadline_ms=1.0)
        assert router.counters["deadline_rejected"].value >= 1
