"""Chaos: every waiter walks away — does the engine stop the work?

The cooperative-cancellation contract, tested adversarially: a slow
handler that checks :func:`~repro.resilience.cancel_point` between
kernel rows is abandoned by *all* of its waiters, and afterwards the
engine must show (a) reclaimed CPU time on the ``cancelled_work_ms``
counter — proof the handler stopped mid-flight rather than finishing
for nobody — and (b) zero leaked in-flight state: empty work-unit and
inflight ledgers, so abandoned computations can never pin memory or
poison later requests for the same key.
"""

import threading
import time
from dataclasses import dataclass

import pytest

from repro.errors import QueryTimeout
from repro.resilience import cancel_point
from repro.serve import QueryKind, QueryRegistry, ServeClient


@dataclass(frozen=True)
class GrindParams:
    key: int = 0
    rows: int = 200
    row_s: float = 0.02


def _grind_registry():
    def handler(p):
        # A kernel-shaped loop: one cancel_point per "row", exactly the
        # granularity the array sweeps use.
        for _ in range(p.rows):
            cancel_point()
            time.sleep(p.row_s)
        return {"key": p.key}

    return QueryRegistry((
        QueryKind(
            name="grind", params_type=GrindParams, handler=handler,
            description="slow cancellable kernel loop",
        ),
    ))


@pytest.fixture()
def grind_client():
    with ServeClient(
        registry=_grind_registry(), workers=2, cache_size=8,
        default_timeout_s=30.0,
    ) as client:
        yield client


def _settle(client, predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


class TestAbandonedWorkIsCancelled:
    def test_all_waiters_abandoning_reclaims_the_cpu(self, grind_client):
        # Several threads ask the same slow question (they coalesce into
        # one work unit), then all give up long before it can finish.
        errors = []

        def waiter():
            try:
                grind_client.query("grind", {"key": 1}, timeout=0.3)
            except QueryTimeout as exc:
                errors.append(exc)

        threads = [threading.Thread(target=waiter) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(errors) == 4  # every waiter got the typed timeout

        # The computation notices within about one row; give it time.
        assert _settle(
            grind_client,
            lambda: grind_client.metrics()["counters"].get(
                "cancelled_work_ms", 0
            ) > 0,
        ), grind_client.metrics()["counters"]

        counters = grind_client.metrics()["counters"]
        assert counters.get("cancelled", 0) >= 1, counters
        # Reclaimed, not completed: well under the 4 s the full grind
        # would have taken.
        assert counters["cancelled_work_ms"] < 4000, counters

    def test_no_inflight_state_survives_abandonment(self, grind_client):
        with pytest.raises(QueryTimeout):
            grind_client.query("grind", {"key": 2}, timeout=0.2)

        engine = grind_client.engine
        assert _settle(
            grind_client, lambda: not engine._inflight
        ), dict(engine._inflight)

        # The abandoned answer never reached the cache: a repeat is a
        # fresh computation, not a stale hit.
        reply = grind_client.query(
            "grind", {"key": 2, "rows": 1, "row_s": 0.0}
        )
        assert reply.cached is False

    def test_surviving_waiter_keeps_the_computation_alive(
        self, grind_client
    ):
        # One impatient waiter and one patient one: the work unit must
        # NOT be cancelled while anyone still wants the answer.
        result = {}

        def patient():
            result["reply"] = grind_client.query(
                "grind", {"key": 3, "rows": 20, "row_s": 0.02}
            )

        thread = threading.Thread(target=patient)
        thread.start()
        time.sleep(0.05)  # let the patient waiter join first
        with pytest.raises(QueryTimeout):
            grind_client.query(
                "grind", {"key": 3, "rows": 20, "row_s": 0.02},
                timeout=0.1,
            )
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert result["reply"].value == {"key": 3}
