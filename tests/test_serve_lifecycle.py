"""Serve lifecycle tests: graceful drain, snapshot warmth, SIGTERM.

Two layers.  In-process: the drain flag must flip the engine and the
HTTP front end into refuse-new/finish-old mode, and cache snapshots
must round-trip into cache hits.  Subprocess: a real ``repro-serve``
under concurrent slow queries receives SIGTERM and must complete every
in-flight query, refuse late arrivals with 503 + ``Retry-After``,
flush its snapshot, and exit 0 — the PR's zero-dropped contract.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ServiceDraining, SnapshotError
from repro.serve import HttpServeClient, ServeClient
from repro.serve.http import make_server

REPO = Path(__file__).resolve().parent.parent
QUERY = ("me_speedup", {"device": "v100", "fmt": "fp16"})
THREE_QUERIES = [
    QUERY,
    ("node_hours", {"scenario": "anl", "speedup": 4.0}),
    ("density", {"device_a": "v100", "device_b": "a100"}),
]


# -- in-process: engine drain semantics --------------------------------------


class TestEngineDrain:
    def test_drain_refuses_new_work_and_reports_idle(self):
        client = ServeClient(workers=2).start()
        try:
            kind, params = QUERY
            assert client.query(kind, params).value
            assert client.engine.draining is False
            client.begin_drain()
            assert client.engine.draining is True
            with pytest.raises(ServiceDraining, match="draining"):
                client.query(kind, params)
            assert client.metrics()["counters"]["drain_rejected"] == 1
            assert client.drain(timeout_s=2.0) is True  # already idle
        finally:
            client.close()

    def test_readiness_reports_draining(self):
        client = ServeClient(workers=1).start()
        try:
            client.begin_drain()
            ready = client.readiness()
            assert ready["ready"] is False
            assert ready["draining"] is True
        finally:
            client.close()


class TestHttpDrain:
    @pytest.fixture()
    def server(self):
        srv = make_server(port=0, workers=2)
        srv.start()
        yield srv
        srv.stop()
        srv.client.close()

    def test_query_rejected_with_retry_after(self, server):
        server.begin_drain()
        body = json.dumps({"kind": QUERY[0], "params": QUERY[1]}).encode()
        req = urllib.request.Request(
            server.url + "/query", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 503
        assert err.value.headers.get("Retry-After") is not None
        payload = json.loads(err.value.read())
        assert payload["code"] == "service_draining"

    def test_readyz_is_503_while_draining(self, server):
        server.begin_drain()
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/readyz", timeout=10)
        assert err.value.code == 503
        payload = json.loads(err.value.read())
        assert payload["ready"] is False
        assert payload["draining"] is True


# -- in-process: snapshot warmth ---------------------------------------------


class TestSnapshotWarmth:
    def test_round_trip_restores_cache_hits(self, tmp_path):
        snap = tmp_path / "cache.json"
        kind, params = QUERY

        writer = ServeClient(workers=1).start()
        try:
            first = writer.query(kind, params)
            assert first.cached is False
            assert writer.save_cache_snapshot(snap) >= 1
            assert writer.metrics()["counters"]["snapshot_saved"] >= 1
        finally:
            writer.close()

        reader = ServeClient(workers=1).start()
        try:
            assert reader.load_cache_snapshot(snap) >= 1
            warmed = reader.query(kind, params)
            assert warmed.cached is True
            assert warmed.value == first.value
            counters = reader.metrics()["counters"]
            assert counters["snapshot_restored"] >= 1
            assert counters["cache_hits"] >= 1
        finally:
            reader.close()

    def test_structurally_broken_snapshot_is_rejected_not_fatal(
        self, tmp_path
    ):
        snap = tmp_path / "cache.json"
        client = ServeClient(workers=1).start()
        try:
            client.query(*QUERY)
            client.save_cache_snapshot(snap)
            snap.write_text(snap.read_text()[:-40])  # truncated: not JSON
            with pytest.raises(SnapshotError):
                client.load_cache_snapshot(snap)
            # The engine keeps serving: warmth is optional.
            assert client.query(*QUERY).value
        finally:
            client.close()

    def test_damaged_entry_is_quarantined_never_served(self, tmp_path):
        snap = tmp_path / "cache.json"
        kind, params = QUERY

        writer = ServeClient(workers=1).start()
        try:
            honest = writer.query(kind, params)
            writer.save_cache_snapshot(snap)
        finally:
            writer.close()

        # Corrupt the stored value *past* its sealed digest — the silent
        # rot a whole-file checksum would turn into a full cold start.
        document = json.loads(snap.read_text())
        entry = document["payload"]["entries"][0]
        entry["value"]["me_speedup"] = 999.0
        snap.write_text(json.dumps(document))

        reader = ServeClient(workers=1).start()
        try:
            assert reader.load_cache_snapshot(snap) == 0
            counters = reader.metrics()["counters"]
            assert counters["snapshot_entries_quarantined"] == 1
            # The damaged answer is recomputed, not served.
            again = reader.query(kind, params)
            assert again.cached is False
            assert again.value == honest.value
        finally:
            reader.close()

    @staticmethod
    def _write_snapshot(path, queries):
        writer = ServeClient(workers=1).start()
        try:
            answers = [writer.query(kind, params) for kind, params in queries]
            writer.save_cache_snapshot(path)
        finally:
            writer.close()
        return answers

    def test_restore_hashes_each_entry_once(self, tmp_path, monkeypatch):
        import repro.integrity.envelope as envelope

        snap = tmp_path / "cache.json"
        self._write_snapshot(snap, THREE_QUERIES)
        calls = []
        digest = envelope.payload_digest

        def counting_digest(value):
            calls.append(value)
            return digest(value)

        monkeypatch.setattr(envelope, "payload_digest", counting_digest)
        reader = ServeClient(workers=1).start()
        try:
            assert reader.load_cache_snapshot(snap) == 3
        finally:
            reader.close()
        assert len(calls) == 3

    def test_one_damaged_entry_is_one_quarantine_one_detection(
        self, tmp_path
    ):
        snap = tmp_path / "cache.json"
        self._write_snapshot(snap, THREE_QUERIES)
        document = json.loads(snap.read_text())
        document["payload"]["entries"][0]["value"] = {"damaged": True}
        snap.write_text(json.dumps(document))

        reader = ServeClient(workers=1).start()
        try:
            assert reader.load_cache_snapshot(snap) == 2
            counters = reader.metrics()["counters"]
            assert counters["snapshot_entries_quarantined"] == 1
            assert counters["integrity_detected"] == 1
        finally:
            reader.close()

    def test_snapshot_with_provenance_keys_restores_warm(self, tmp_path):
        """Older writers also stored each entry's ``kind`` and
        ``params``, and the ``scenario`` of an overlaid query; such a
        file restores whole and serves its repeat queries as hits."""
        from repro.scenario import load_scenario, scenario_to_dict

        snap = tmp_path / "cache.json"
        spec = scenario_to_dict(load_scenario(
            REPO / "examples" / "scenarios" / "int8_matrix_engine.json"
        ))
        queries = [
            (*QUERY, None),
            ("me_speedup", {"device": "v100-int8me", "fmt": "fp16"}, spec),
        ]
        writer = ServeClient(workers=1).start()
        try:
            answers = [
                writer.query(kind, params, scenario=scenario)
                for kind, params, scenario in queries
            ]
            writer.save_cache_snapshot(snap)
        finally:
            writer.close()
        document = json.loads(snap.read_text())
        entries = document["payload"]["entries"]
        for entry, answer, (_, _, scenario) in zip(entries, answers, queries):
            entry.update(kind=answer.kind, params=answer.params)
            if scenario is not None:
                entry["scenario"] = scenario
        snap.write_text(json.dumps(document))

        reader = ServeClient(workers=1).start()
        try:
            assert reader.load_cache_snapshot(snap) == 2
            counters = reader.metrics()["counters"]
            assert counters["snapshot_entries_quarantined"] == 0
            for (kind, params, scenario), answer in zip(queries, answers):
                warmed = reader.query(kind, params, scenario=scenario)
                assert warmed.cached is True
                assert warmed.value == answer.value
        finally:
            reader.close()


# -- subprocess: SIGTERM under live load -------------------------------------


LATENCY_PLAN = {
    "name": "slow-handlers",
    "seed": 3,
    "rules": [
        {"site": "handler:me_speedup", "kind": "latency",
         "latency_s": 1.0, "rate": 1.0},
    ],
}


def _start_server(args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.http", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO,
    )
    head = []
    line = _read_until(proc, head, "listening on")
    if line is None:
        proc.kill()
        raise AssertionError("server never came up:\n" + "".join(head))
    return proc, line.rsplit(" ", 1)[-1].strip(), head


def _read_until(proc, lines, marker):
    """Append ``proc``'s output lines to ``lines`` up to the first one
    containing ``marker``; return that line, or ``None`` at EOF."""
    for line in iter(proc.stdout.readline, ""):
        lines.append(line)
        if marker in line:
            return line
    return None


def _finish(proc, timeout=30):
    tail, _ = proc.communicate(timeout=timeout)
    return proc.returncode, tail


class TestSigtermUnderLoad:
    def test_inflight_complete_late_arrivals_rejected(self, tmp_path):
        snap = tmp_path / "cache.json"
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(LATENCY_PLAN))
        proc, url, head = _start_server(
            ["--cache-snapshot", str(snap), "--fault-plan", str(plan),
             "--drain-timeout", "15"]
        )
        try:
            http = HttpServeClient(url, timeout=30)
            results, errors = [], []

            def ask(device):
                try:
                    results.append(http.query(
                        "me_speedup", {"device": device, "fmt": "fp16"}
                    ))
                except Exception as exc:  # dropped query == test failure
                    errors.append(exc)

            threads = [
                threading.Thread(target=ask, args=(device,))
                for device in ("v100", "a100", "v100", "a100")
            ]
            for t in threads:
                t.start()
            # SIGTERM only once the engine has admitted all four, so
            # the drain has exactly these in flight.
            deadline = time.monotonic() + 30
            admitted = 0
            while admitted < 4:
                assert time.monotonic() < deadline, (
                    f"only {admitted} of 4 queries admitted within 30 s"
                )
                time.sleep(0.02)
                admitted = http.metrics()["counters"]["requests"]
            proc.send_signal(signal.SIGTERM)
            # The server announces the drain only once admission is
            # closed, so a query sent after the line is a late arrival.
            assert _read_until(proc, head, "received SIGTERM; draining"), (
                "".join(head)
            )

            # A late arrival during the drain window must bounce with
            # the typed 503, not hang and not crash the server.
            with pytest.raises(ServiceDraining):
                http.query("me_speedup", {"device": "a100", "fmt": "fp16"})
            for t in threads:
                t.join(timeout=30)

            rc, tail = _finish(proc)
            out = "".join(head) + tail
            assert errors == [], f"in-flight queries dropped: {errors}"
            assert len(results) == 4
            assert rc == 0, out
            assert "zero in-flight queries dropped" in out
            assert "cache snapshot flushed" in out
            assert "repro-serve exited cleanly" in out
            assert snap.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

    def test_restart_is_warm_and_corrupt_snapshot_is_cold(self, tmp_path):
        snap = tmp_path / "cache.json"

        # Populate the snapshot with one real answer.
        proc, url, head = _start_server(["--cache-snapshot", str(snap)])
        try:
            cold = HttpServeClient(url, timeout=30).query(*QUERY)
            assert cold["cached"] is False
            proc.send_signal(signal.SIGTERM)
            rc, tail = _finish(proc)
            assert rc == 0, "".join(head) + tail
        finally:
            if proc.poll() is None:
                proc.kill()

        # Warm restart: the same query is a cache hit.
        proc, url, head = _start_server(["--cache-snapshot", str(snap)])
        try:
            assert any("cache warmed" in line for line in head), head
            warm = HttpServeClient(url, timeout=30).query(*QUERY)
            assert warm["cached"] is True
            assert warm["value"] == cold["value"]
            proc.send_signal(signal.SIGTERM)
            rc, _ = _finish(proc)
            assert rc == 0
        finally:
            if proc.poll() is None:
                proc.kill()

        # Damage one stored value past its digest: that entry is
        # quarantined at boot and recomputed, never served.
        pristine = snap.read_bytes()
        document = json.loads(pristine)
        document["payload"]["entries"][0]["value"]["me_speedup"] = 999.0
        snap.write_text(json.dumps(document))
        proc, url, head = _start_server(["--cache-snapshot", str(snap)])
        try:
            assert any("1 quarantined" in line for line in head), head
            again = HttpServeClient(url, timeout=30).query(*QUERY)
            assert again["cached"] is False
            assert again["value"] == cold["value"]
            proc.send_signal(signal.SIGTERM)
            rc, _ = _finish(proc)
            assert rc == 0
        finally:
            if proc.poll() is None:
                proc.kill()

        # Break the snapshot structurally: next boot is cold but healthy.
        snap.write_bytes(pristine[: len(pristine) // 2])
        proc, url, head = _start_server(["--cache-snapshot", str(snap)])
        try:
            assert any("starting cold" in line for line in head), head
            again = HttpServeClient(url, timeout=30).query(*QUERY)
            assert again["cached"] is False
            assert again["value"] == cold["value"]
            proc.send_signal(signal.SIGTERM)
            rc, _ = _finish(proc)
            assert rc == 0
        finally:
            if proc.poll() is None:
                proc.kill()
