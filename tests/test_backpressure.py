"""Backpressure and deadline paths, end to end over HTTP.

A real ``repro-serve`` server with a deliberately tiny admission queue
and slow handlers is hammered from many client threads; every rejection
must surface as its typed status — 429 for shedding, 504 for deadline
expiry — never an unclassified 500, and the server-side metrics
counters must agree exactly with what the clients observed.
"""

import threading
import time
from dataclasses import dataclass

import pytest

from repro.errors import QueryTimeout, ServiceOverloaded
from repro.serve import (
    HttpServeClient,
    QueryKind,
    QueryRegistry,
    ServeClient,
)
from repro.serve.http import STATUS_BY_CODE, make_server


@dataclass(frozen=True)
class SlowParams:
    key: int = 0
    delay: float = 0.05


def slow_registry():
    def handler(p):
        time.sleep(p.delay)
        return {"key": p.key}

    return QueryRegistry(
        (
            QueryKind(
                name="slow", params_type=SlowParams, handler=handler,
                description="sleeps then echoes",
            ),
        )
    )


@pytest.fixture()
def tiny_server():
    """One worker, a 2-deep queue, a short default deadline."""
    srv = make_server(
        port=0,
        client=ServeClient(
            registry=slow_registry(), workers=1, max_queue=2,
            cache_size=0, default_timeout_s=0.5,
        ).start(),
    )
    srv.start()
    yield srv
    srv.stop()
    srv.client.close()


class TestStatusTable:
    def test_table_is_total_over_the_backpressure_codes(self):
        assert STATUS_BY_CODE["service_overloaded"] == 429
        assert STATUS_BY_CODE["query_timeout"] == 504
        assert STATUS_BY_CODE["circuit_open"] == 503

    def test_timeout_maps_to_504(self, tiny_server):
        http = HttpServeClient(tiny_server.url)
        # The handler sleeps past the 0.5 s server-side deadline.
        with pytest.raises(QueryTimeout):
            http.query("slow", {"key": 1, "delay": 1.0})
        counters = http.metrics()["counters"]
        assert counters["timeouts"] == 1


class TestHttpHammer:
    def test_429_504_hammer_with_metrics_agreement(self, tiny_server):
        """A 24-thread burst through a 1-worker, 2-slot server: some
        answers, some 429s, maybe 504s — and zero anything-else."""
        http = HttpServeClient(tiny_server.url, timeout=30.0)
        outcomes = []
        lock = threading.Lock()

        def fire(key):
            try:
                response = http.query("slow", {"key": key, "delay": 0.05})
                outcome = ("ok", response["value"]["key"])
            except ServiceOverloaded:
                outcome = ("shed", key)
            except QueryTimeout:
                outcome = ("timeout", key)
            with lock:
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=fire, args=(k,)) for k in range(24)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(outcomes) == 24  # nothing crashed unclassified
        tally = {"ok": 0, "shed": 0, "timeout": 0}
        for kind, _ in outcomes:
            tally[kind] += 1
        assert tally["shed"] > 0, (
            "a 24-deep burst through a 2-slot queue must shed"
        )
        assert tally["ok"] > 0, "the server must keep serving under load"

        counters = http.metrics()["counters"]
        assert counters["shed"] == tally["shed"]
        assert counters["timeouts"] == tally["timeout"]
        # Every successful answer echoed its own key back.
        assert all(
            key == val for kind, val in outcomes if kind == "ok"
            for key in [val]
        )
        # Shed or timed-out work and successes partition the burst.
        assert sum(tally.values()) == 24
        assert counters["requests"] == 24

    def test_shed_is_not_an_error_counter(self, tiny_server):
        """Shedding is backpressure, not failure: the errors counter
        stays zero and readiness stays green."""
        http = HttpServeClient(tiny_server.url, timeout=30.0)

        def fire(key):
            try:
                http.query("slow", {"key": key, "delay": 0.05})
            except (ServiceOverloaded, QueryTimeout):
                pass

        threads = [
            threading.Thread(target=fire, args=(k,)) for k in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counters = http.metrics()["counters"]
        assert counters["shed"] > 0
        assert counters["errors"] == 0
        ready = http.ready()
        assert ready["ready"] is True
        assert ready["breakers"] == {} or all(
            b["state"] == "closed" for b in ready["breakers"].values()
        )
