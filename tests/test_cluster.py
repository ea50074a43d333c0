"""Cluster unit + end-to-end tests.

Unit layer: routing keys (canonical-form identity — every spelling of
the same question must land on the same shard), worker banners, the
shard table's routing gate, metrics aggregation, and the plain-text
metrics exposition.

End-to-end layer: a real 2-shard cluster (worker subprocesses behind
the in-process supervisor + router) answering queries through
:class:`HttpServeClient` — placement stability, cache co-location,
aggregated observability, typed errors, and graceful stop.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.cluster import (
    HashRing,
    ShardTable,
    aggregate_metrics,
    parse_worker_banner,
    routing_key,
    worker_banner,
)
from repro.errors import (
    QueryValidationError,
    ServiceDraining,
    ServiceOverloaded,
    ShardUnavailable,
)
from repro.serve.metrics import Metrics, render_text_metrics

QUERY = ("me_speedup", {"device": "v100", "fmt": "fp16"})

AI_MIX = {
    "name": "ai-mix",
    "machines": [{
        "name": "k_computer",
        "renormalize": True,
        "domains": [
            {"domain": "AI/DL", "share": 0.25, "accelerable": 0.832}
        ],
    }],
}


# -- routing keys ------------------------------------------------------------


class TestRoutingKey:
    def test_canonical_spellings_share_a_key(self):
        """int/float spellings canonicalise before hashing, so they
        route to the same shard and share one LRU entry there."""
        assert routing_key("costbenefit", {"me_speedup": 4}) == \
            routing_key("costbenefit", {"me_speedup": 4.0})

    def test_defaulted_and_explicit_params_share_a_key(self):
        explicit = routing_key("me_speedup", {"device": "v100",
                                              "fmt": "fp16"})
        assert routing_key("me_speedup", {"device": "v100"}) == explicit
        assert routing_key("me_speedup", None) == explicit

    def test_different_queries_get_different_keys(self):
        a = routing_key("me_speedup", {"device": "v100"})
        b = routing_key("me_speedup", {"device": "a100"})
        c = routing_key("costbenefit", {})
        assert len({a, b, c}) == 3

    def test_scenario_shards_independently(self):
        base = routing_key(*QUERY)
        named = routing_key(*QUERY, "peak-shift")
        inline = routing_key(*QUERY, AI_MIX)
        assert len({base, named, inline}) == 3
        # Stable identities: the same reference repeats exactly.
        assert routing_key(*QUERY, "peak-shift") == named
        assert routing_key(*QUERY, dict(AI_MIX)) == inline

    def test_bad_inputs_are_typed_validation_errors(self):
        with pytest.raises(QueryValidationError):
            routing_key("no_such_kind", {})
        with pytest.raises(QueryValidationError):
            routing_key("me_speedup", {"device": 12})
        with pytest.raises(QueryValidationError):
            routing_key(*QUERY, scenario=42)
        with pytest.raises(QueryValidationError):
            routing_key(*QUERY, scenario={"machines": [{"name": "k_computer",
                        "domains": [{"domain": "x", "share": 2.0}]}]})


class TestWorkerBanner:
    def test_round_trip(self):
        line = worker_banner(3, "http://127.0.0.1:9001")
        assert parse_worker_banner(line) == (3, "http://127.0.0.1:9001")

    def test_non_banner_lines_are_none(self):
        assert parse_worker_banner("repro-serve listening on x") is None
        assert parse_worker_banner("") is None
        assert parse_worker_banner(
            "repro-cluster-worker shard xyz listening on u"
        ) is None


# -- shard table -------------------------------------------------------------


class TestShardTable:
    def test_routable_requires_up_with_url(self):
        table = ShardTable([0, 1])
        assert table.routable(0, now=0.0) is None  # still starting
        table.mark_up(0, "http://h:1", 11)
        assert table.routable(0, now=0.0) == "http://h:1"
        table.mark_down(0)
        assert table.routable(0, now=0.0) is None
        assert table.get(0).pid is None

    def test_cooldown_gates_and_expires(self):
        table = ShardTable([0])
        table.mark_up(0, "http://h:1", 11)
        table.set_cooldown(0, until=10.0)
        assert table.routable(0, now=9.9) is None
        assert table.routable(0, now=10.1) == "http://h:1"
        # Coming back up clears any stale cooldown.
        table.set_cooldown(0, until=99.0)
        table.mark_up(0, "http://h:2", 12)
        assert table.routable(0, now=0.0) == "http://h:2"

    def test_restarts_accumulate(self):
        table = ShardTable([0])
        table.count_restart(0)
        table.count_restart(0)
        assert table.get(0).restarts == 2
        assert table.snapshot()[0]["restarts"] == 2


# -- metrics aggregation -----------------------------------------------------


def _fake_snapshot(requests, hits, qps, p99):
    return {
        "counters": {"requests": requests, "cache_hits": hits},
        "derived": {"qps": qps,
                    "cache_hit_ratio": hits / requests if requests else 0.0},
        "latency_s": {"p99": p99},
    }


class TestAggregateMetrics:
    TABLE = {
        0: {"shard_id": 0, "state": "up", "restarts": 1, "url": "u0",
            "pid": 1, "snapshot_file": None},
        1: {"shard_id": 1, "state": "up", "restarts": 0, "url": "u1",
            "pid": 2, "snapshot_file": None},
        2: {"shard_id": 2, "state": "restarting", "restarts": 2,
            "url": None, "pid": None, "snapshot_file": None},
    }

    def test_weighted_ratio_and_worst_p99(self):
        agg = aggregate_metrics(
            {0: _fake_snapshot(100, 90, 10.0, 0.010),
             1: _fake_snapshot(300, 30, 30.0, 0.200),
             2: None},
            self.TABLE,
            {"counters": {}},
        )
        # 120 hits / 400 requests — a per-shard average (0.50) would
        # over-weight the small shard.
        assert agg["aggregate"]["cache_hit_ratio"] == pytest.approx(0.30)
        assert agg["aggregate"]["qps"] == pytest.approx(40.0)
        assert agg["aggregate"]["requests"] == 400
        assert agg["aggregate"]["p99_s"] == pytest.approx(0.200)
        assert agg["cluster"]["size"] == 3
        assert agg["cluster"]["shards_up"] == 2
        assert agg["cluster"]["restarts"] == 3

    def test_down_shard_slot_is_visible(self):
        agg = aggregate_metrics(
            {0: _fake_snapshot(1, 0, 1.0, 0.0), 2: None},
            self.TABLE, {"counters": {}},
        )
        assert agg["shards"]["2"]["metrics"] is None
        assert agg["shards"]["2"]["state"] == "restarting"

    def test_empty_cluster_degenerates_safely(self):
        agg = aggregate_metrics({}, {}, {"counters": {}})
        assert agg["aggregate"]["cache_hit_ratio"] == 0.0
        assert agg["cluster"]["size"] == 0


# -- plain-text exposition ---------------------------------------------------


class TestTextMetrics:
    def test_single_process_exposition(self):
        metrics = Metrics()
        metrics.inc("requests", 5)
        metrics.inc("cache_hits", 2)
        metrics.observe_latency("me_speedup", 0.01)
        text = render_text_metrics(metrics.snapshot())
        assert "repro_serve_requests_total 5\n" in text
        assert "repro_serve_cache_hits_total 2\n" in text
        assert 'quantile="0.99"' in text
        assert 'kind="me_speedup"' in text
        # Every line is `name value` or `name{labels} value`.
        for line in text.splitlines():
            name, _, value = line.rpartition(" ")
            assert name and float(value) is not None

    def test_labels_ride_every_line(self):
        metrics = Metrics()
        metrics.inc("requests")
        text = render_text_metrics(
            metrics.snapshot(), labels={"shard": "3"}
        )
        for line in text.splitlines():
            assert 'shard="3"' in line, line


# -- --handler-concurrency ---------------------------------------------------


class TestHandlerConcurrencyFlag:
    def test_new_flag_parses(self):
        from repro.serve.http import build_parser

        args = build_parser().parse_args(
            ["--handler-concurrency", "9", "--port", "0"]
        )
        assert args.handler_concurrency == 9

    def test_default(self):
        from repro.serve.http import build_parser

        assert build_parser().parse_args([]).handler_concurrency == 4


# -- retry-after surfacing ---------------------------------------------------


class TestRetryAfter:
    def test_class_defaults(self):
        assert ServiceOverloaded("x").retry_after == 1.0
        assert ServiceDraining("x").retry_after == 1.0
        assert ShardUnavailable("x").retry_after == 1.0
        d = ServiceDraining("x").to_dict()
        assert d["retry_after"] == 1.0

    def test_wire_hint_overrides_default(self):
        err = ServiceDraining("x")
        err.retry_after = 7.5
        assert err.to_dict()["retry_after"] == 7.5


# -- boot failure --------------------------------------------------------------


class TestBootFailure:
    def test_worker_dying_before_its_banner_fails_start_fast(self, tmp_path):
        import time

        from repro.cluster import ClusterSupervisor
        from repro.errors import ClusterError

        plan = tmp_path / "plan.json"
        plan.write_text('{"rules": [{"site": "x", "kind": "explode"}]}')
        supervisor = ClusterSupervisor(1, fault_plan_file=str(plan))
        started = time.monotonic()
        with pytest.raises(ClusterError) as excinfo:
            supervisor.start()
        assert time.monotonic() - started < 10.0
        message = str(excinfo.value)
        assert "exited with code 1" in message
        assert "--fault-plan" in message and "explode" in message


# -- end to end: a real 2-shard cluster --------------------------------------


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    from repro.cluster import ClusterSupervisor

    snapdir = tmp_path_factory.mktemp("cluster-snapshots")
    supervisor = ClusterSupervisor(
        2,
        snapshot_dir=str(snapdir),
        snapshot_interval_s=0.5,
        boot_timeout_s=120.0,
        drain_timeout_s=10.0,
    )
    supervisor.start()
    yield supervisor
    supervisor.stop()


@pytest.fixture(scope="module")
def http(cluster):
    from repro.serve import HttpServeClient

    return HttpServeClient(cluster.url, timeout=60)


class TestClusterEndToEnd:
    def test_placement_is_stable_and_caches_colocate(self, http):
        first = http.query("costbenefit", {"me_speedup": 4.0})
        assert "shard" in first and first["spilled"] is False
        repeat = http.query("costbenefit", {"me_speedup": 4.0})
        assert repeat["shard"] == first["shard"]
        assert repeat["cached"] is True
        # A coerced spelling of the same question: same shard, warm.
        coerced = http.query("costbenefit", {"me_speedup": 4})
        assert coerced["shard"] == first["shard"]
        assert coerced["cached"] is True

    def test_distinct_queries_spread_over_shards(self, http):
        shards = {
            http.query("costbenefit", {"me_speedup": speedup})["shard"]
            for speedup in (1.5, 2.0, 3.0, 4.5, 6.0, 8.0, 12.0, 16.0)
        }
        assert shards == {0, 1}  # both shards take traffic

    def test_validation_error_rejected_at_router(self, http, cluster):
        before = cluster.router.counters["invalid"].value
        with pytest.raises(QueryValidationError, match="unknown query"):
            http.query("no_such_kind", {})
        assert cluster.router.counters["invalid"].value == before + 1

    def test_aggregated_metrics_json_and_text(self, http, cluster):
        http.query(*QUERY)
        payload = http.metrics()
        assert payload["cluster"]["size"] == 2
        assert payload["cluster"]["shards_up"] == 2
        assert set(payload["shards"]) == {"0", "1"}
        assert payload["aggregate"]["requests"] >= 1
        assert payload["cluster"]["router"]["counters"]["routed"] >= 1

        text = urllib.request.urlopen(
            cluster.url + "/metrics?format=text", timeout=30
        ).read().decode()
        assert "repro_cluster_size 2\n" in text
        assert 'shard="0"' in text and 'shard="1"' in text
        assert "repro_cluster_router_routed_total" in text

    def test_health_ready_kinds_shards(self, http, cluster):
        health = http.health()
        assert health["ok"] is True and health["shards_up"] == 2
        ready = http.ready()
        assert ready["ready"] is True
        assert ready["shards"]["0"]["ready"] is True
        assert "me_speedup" in http.kinds()
        shards = json.loads(urllib.request.urlopen(
            cluster.url + "/shards", timeout=30
        ).read())
        assert shards["ring"]["members"] == [0, 1]
        assert all(meta["pid"] for meta in shards["shards"].values())

    def test_unknown_endpoint_is_404(self, cluster):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(cluster.url + "/nope", timeout=30)
        assert err.value.code == 404

    def test_draining_router_rejects_with_retry_after(self, http, cluster):
        cluster.router.begin_drain()
        try:
            with pytest.raises(ServiceDraining) as err:
                http.query(*QUERY)
            assert err.value.retry_after is not None
            ready = http.ready()
            assert ready["ready"] is False and ready["draining"] is True
        finally:
            cluster.router._draining = False

    def test_worker_shard_gauge_is_exposed(self, http):
        payload = http.metrics()
        for sid, entry in payload["shards"].items():
            assert entry["metrics"]["gauges"]["shard_id"] == float(sid)
