"""The ``repro-serve`` HTTP front end against the golden artifacts.

Boots one real server on an ephemeral port and drives it with
:class:`HttpServeClient`: the Fig. 4 node-hour-reduction answers over
the wire must equal the checked-in ``artifacts/fig4.json`` values
exactly, errors must map to their statuses, and the metrics endpoint
must reflect the traffic.
"""

import gc
import json
import logging
import pathlib
import socket
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.cluster import HashRing, ShardTable
from repro.cluster.router import ClusterRouter
from repro.errors import QueryValidationError, ServeError
from repro.serve import HttpServeClient, ServeClient
from repro.serve.http import MAX_BODY_BYTES, build_parser, main, make_server
from repro.serve.wire import MAX_HEADER_LINES, MAX_LINE_BYTES

ARTIFACTS = pathlib.Path(__file__).resolve().parent.parent / "artifacts"

#: golden fig4 panel -> the serve scenario name answering it
PANEL_SCENARIOS = {
    "4a_k_computer": "k_computer",
    "4b_anl": "anl",
    "4c_future": "future",
}


@pytest.fixture(scope="module")
def server():
    srv = make_server(port=0, workers=2, cache_size=64)
    srv.start()
    yield srv
    srv.stop()
    srv.client.close()


@pytest.fixture(scope="module")
def http(server):
    return HttpServeClient(server.url)


@pytest.fixture(scope="module")
def fig4_golden():
    return json.loads((ARTIFACTS / "fig4.json").read_text())


class TestEndpoints:
    def test_healthz(self, http):
        health = http.health()
        assert health["ok"] is True
        assert health["started"] is True
        assert health["uptime_s"] >= 0

    def test_readyz(self, http):
        ready = http.ready()
        assert ready["ready"] is True
        assert ready["started"] is True
        assert ready["breakers"] == {}
        assert ready["fault_plan"] is None

    def test_kinds_lists_every_registered_kind(self, http):
        kinds = http.kinds()
        assert set(kinds) == {
            "costbenefit", "node_hours", "me_speedup",
            "roofline", "density", "ozaki",
        }
        assert kinds["node_hours"]["batch_axis"] == "speedup"
        assert kinds["node_hours"]["params"]["speedup"]["type"] == "float"

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/nope")
        assert err.value.code == 404

    def test_unknown_post_path_is_404(self, http):
        with pytest.raises(ServeError, match="HTTP 404"):
            http._request("POST", "/nope", {})

    def test_metrics_scrape(self, http):
        http.query("me_speedup", {"device": "v100"})
        snap = http.metrics()
        assert snap["counters"]["requests"] >= 1
        assert set(snap["derived"]) == {
            "qps", "cache_hit_ratio", "coalesce_ratio"
        }
        assert snap["gauges"]["queue_depth"] == 0
        assert snap["latency_s"]["count"] >= 1
        # the scrape is the JSON the handler actually sent — encodable
        json.dumps(snap)


class TestGoldenAnswers:
    """Wire answers must equal the checked-in artifact values exactly."""

    def test_fig4_reductions_match_goldens(self, http, fig4_golden):
        for panel, scenario in PANEL_SCENARIOS.items():
            for point in fig4_golden["panels"][panel]["series"]:
                response = http.query(
                    "node_hours",
                    {"scenario": scenario, "speedup": point["speedup"]},
                )
                assert response["ok"] is True
                assert response["value"]["reduction"] == point["reduction"], (
                    panel, point["speedup"],
                )

    def test_fig4_machine_names_match_goldens(self, http, fig4_golden):
        for panel, scenario in PANEL_SCENARIOS.items():
            served = http.query("node_hours", {"scenario": scenario})
            assert (
                served["value"]["machine"]
                == fig4_golden["panels"][panel]["machine"]
            )

    def test_costbenefit_equals_direct_library_call(self, http):
        from repro.analysis.costbenefit import assess_scenario
        from repro.extrapolate.scenarios import k_computer_scenario
        from repro.harness.export import to_jsonable

        report = assess_scenario(k_computer_scenario(), me_speedup=4.0)
        expected = to_jsonable(report)
        expected["worthwhile"] = report.worthwhile
        expected["verdict"] = report.verdict()
        served = http.query(
            "costbenefit", {"scenario": "k_computer", "me_speedup": 4.0}
        )
        assert served["value"] == expected

    def test_infinite_speedup_round_trips_as_inf_string(self, http):
        served = http.query("node_hours", {"speedup": "inf"})
        assert served["params"]["speedup"] == "inf"
        assert served["value"]["speedup"] == "inf"

    def test_repeat_query_is_served_from_cache(self, http):
        params = {"scenario": "anl", "speedup": 2.0}
        http.query("node_hours", params)
        assert http.query("node_hours", params)["cached"] is True


class TestErrorMapping:
    def test_unknown_kind_is_400(self, http):
        with pytest.raises(QueryValidationError, match="unknown query kind"):
            http.query("fortune")

    def test_bad_params_are_400(self, http):
        with pytest.raises(QueryValidationError, match="unknown scenario"):
            http.query("node_hours", {"scenario": "mars"})

    def test_unsupported_format_is_400(self, http):
        with pytest.raises(QueryValidationError, match="no matrix engine"):
            http.query("me_speedup", {"device": "v100", "fmt": "fp64"})

    def test_malformed_body_is_400(self, server):
        req = urllib.request.Request(
            server.url + "/query",
            data=b"this is not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_missing_kind_is_400(self, server):
        req = urllib.request.Request(
            server.url + "/query",
            data=b'{"params": {}}',
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400


def _lone_router():
    """A started router over one shard that never comes up — enough to
    exercise its HTTP server without booting a worker."""
    return ClusterRouter(
        ShardTable([0]), HashRing([0], vnodes=16, seed=0), spill=0
    ).start()


def _read_response(sock):
    """One HTTP/1.1 response off a raw socket: (status, JSON body)."""
    stream = sock.makefile("rb")
    status = int(stream.readline().split()[1])
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, json.loads(stream.read(int(headers["content-length"])))


def _exchange(url, request):
    address = urllib.parse.urlsplit(url)
    with socket.create_connection(
        (address.hostname, address.port), timeout=10
    ) as sock:
        sock.sendall(request)
        return _read_response(sock)


@pytest.fixture(params=["worker", "router"])
def front_door(request, server):
    """The URL of either HTTP server: both parse requests the same way."""
    if request.param == "worker":
        yield server.url
        return
    router = _lone_router()
    yield router.url
    router.stop()


class TestRequestFraming:
    @pytest.mark.parametrize(
        "length, status, code",
        [
            ("abc", 400, "malformed_request"),
            ("-5", 400, "malformed_request"),
            (str(MAX_BODY_BYTES + 1), 413, "payload_too_large"),
        ],
    )
    def test_bad_content_length_is_typed_and_server_survives(
        self, front_door, length, status, code
    ):
        got, payload = _exchange(front_door, (
            f"POST /query HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode())
        assert (got, payload["code"]) == (status, code)
        health, body = _exchange(
            front_door, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert health == 200 and body["ok"] is True

    @pytest.mark.parametrize(
        "raw, status, code",
        [
            (b"GARBAGE\r\n\r\n", 400, "malformed_request"),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
             400, "malformed_request"),
            (b"GET /healthz HTTP/1.1\r\n"
             + b"X-Filler: 1\r\n" * (MAX_HEADER_LINES + 1) + b"\r\n",
             431, "headers_too_large"),
            (b"GET /healthz HTTP/1.1\r\nX-Long: "
             + b"a" * (MAX_LINE_BYTES + 1) + b"\r\n\r\n",
             431, "headers_too_large"),
        ],
        ids=["request-line", "no-colon", "too-many-headers", "long-line"],
    )
    def test_bad_framing_is_typed_and_closes(
        self, front_door, raw, status, code
    ):
        address = urllib.parse.urlsplit(front_door)
        with socket.create_connection(
            (address.hostname, address.port), timeout=10
        ) as sock:
            sock.sendall(raw)
            got, payload = _read_response(sock)
            assert (got, payload["code"]) == (status, code)
            try:
                assert sock.recv(1) == b""  # the server closed
            except ConnectionResetError:
                pass  # closed with part of the request unread
        health, body = _exchange(
            front_door, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert health == 200 and body["ok"] is True

    def test_router_stop_with_keep_alive_connection_logs_nothing(
        self, caplog, monkeypatch
    ):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        router = _lone_router()
        address = urllib.parse.urlsplit(router.url)
        with socket.create_connection(
            (address.hostname, address.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert _read_response(sock)[0] == 200
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                router.stop()
                gc.collect()  # destroy anything the closed loop left
        logged = caplog.text + "".join(
            f"{u.err_msg}: {u.exc_value!r}\n" for u in unraisable
        )
        assert "Event loop is closed" not in logged, logged
        assert "destroyed but it is pending" not in logged, logged


class TestRouterWireSemantics:
    def test_malformed_worker_reply_is_a_shard_transport_failure(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def fake_worker():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n"
                )
                conn.recv(1)  # until the router closes its end

        worker = threading.Thread(target=fake_worker, daemon=True)
        worker.start()
        table = ShardTable([0])
        table.mark_up(
            0, "http://127.0.0.1:%d" % listener.getsockname()[1], pid=None
        )
        router = ClusterRouter(
            table, HashRing([0], vnodes=16, seed=0), spill=0
        ).start()
        try:
            body = json.dumps({
                "kind": "me_speedup", "params": {"device": "v100"},
            }).encode()
            status, payload = _exchange(router.url, (
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            ))
            assert (status, payload["code"]) == (503, "shard_unavailable")
            assert router.counters["shard_errors"].value == 1
            worker.join(timeout=10)
            assert not worker.is_alive()  # the pooled socket was closed
        finally:
            router.stop()
            listener.close()

    def test_router_and_engine_list_scenarios_identically(self):
        from repro.scenario import load_scenario

        examples = ARTIFACTS.parent / "examples" / "scenarios"
        spec = load_scenario(examples / "int8_matrix_engine.json")
        engine = ServeClient(cache_size=4).start()
        router = ClusterRouter(
            ShardTable([0]), HashRing([0], vnodes=16, seed=0),
            scenarios={spec.name: spec},
        ).start()
        try:
            engine.engine.register_scenario(spec)
            listing = HttpServeClient(router.url).scenarios()
            assert listing == engine.engine.describe_scenarios()
            assert set(listing) == {spec.name}
        finally:
            router.stop()
            engine.close()


class TestConcurrentHttp:
    def test_parallel_http_requests_coalesce_or_hit_cache(self, server, http):
        params = {"scenario": "future", "speedup": 16.0}
        before = http.metrics()["counters"]
        results = []

        def fire():
            results.append(http.query("node_hours", params))

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({json.dumps(r["value"], sort_keys=True)
                    for r in results}) == 1
        after = http.metrics()["counters"]
        assert after["requests"] - before["requests"] == 8
        assert after["computed"] - before["computed"] <= 1
        reused = (
            (after["cache_hits"] - before["cache_hits"])
            + (after["coalesced"] - before["coalesced"])
        )
        assert reused >= 7


class TestServeCli:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "--port" in out and "--cache-size" in out

    def test_version(self, capsys):
        from repro import package_version

        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == (
            f"repro-serve {package_version()}"
        )

    @staticmethod
    def _usage_error(capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        return capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        assert "--frobnicate" in self._usage_error(capsys, ["--frobnicate"])

    def test_bad_port_rejected(self, capsys):
        err = self._usage_error(capsys, ["--port", "eighty"])
        assert "--port" in err and "eighty" in err

    def test_missing_flag_value_rejected(self, capsys):
        assert "--host" in self._usage_error(capsys, ["--host"])

    def test_bad_timeout_rejected(self, capsys):
        err = self._usage_error(capsys, ["--timeout", "soon"])
        assert "--timeout" in err and "soon" in err

    @pytest.mark.parametrize("argv", [
        *([*mode, flag, value]
          for mode in ([], ["--cluster", "2"])
          for flag, value in [
              ("--cache-size", "-1"),
              ("--handler-concurrency", "0"),
              ("--workers", "4"),  # the removed spelling
              ("--queue-size", "0"),
              ("--verify-sample-rate", "1.0"),  # removed
              ("--timeout", "-1"),
              ("--drain-timeout", "-1"),
              ("--snapshot-interval", "-1"),
              ("--scrub-interval", "5"),  # removed
          ]),
        ["--cluster", "0"],
        ["--cluster", "2", "--spill", "-1"],
        ["--cluster", "2", "--hedge-ratio", "0"],
        ["--cluster", "2", "--hedge-ratio", "1.5"],
        ["--cluster", "2", "--fault-plan-shard", "2"],
        ["--cluster", "2", "--cache-snapshot", "snap.json"],
        ["--cluster", "2", "--shard-id", "0"],
        ["--spill", "1"],
        ["--no-hedge"],
        ["--snapshot-dir", "snaps"],
        ["--shard-id", "-1"],
    ], ids=" ".join)
    def test_bad_flag_is_a_usage_error_before_anything_starts(
        self, capsys, monkeypatch, argv
    ):
        from repro.cluster.supervisor import ClusterSupervisor

        def must_not_start(*_args, **_kwargs):
            raise AssertionError("started before the flags were checked")

        monkeypatch.setattr("repro.serve.http.make_server", must_not_start)
        monkeypatch.setattr(ClusterSupervisor, "_spawn", must_not_start)
        started = time.monotonic()
        err = self._usage_error(capsys, argv)
        assert [arg for arg in argv if arg.startswith("--")][-1] in err
        if "--cluster" in argv:
            assert time.monotonic() - started < 5.0

    def test_equals_form_parses(self):
        args = build_parser().parse_args(["--port=0", "--cache-size=8"])
        assert (args.port, args.cache_size) == (0, 8)
