"""Cluster chaos test: SIGKILL a worker under live load.

The PR's headline resilience contract, exercised through the real CLI
(``repro-serve --cluster 2``) as worker subprocesses under threaded
client load:

* killing a worker mid-load produces **zero unclassified errors** —
  every client either gets an answer (possibly from a spill-over
  neighbour) or a typed, retryable rejection;
* the supervisor restarts the dead shard with the same shard id and
  snapshot file, so the ring never changes and the restarted worker
  boots **warm** from its last periodic snapshot flush;
* SIGTERM to the supervisor drains the whole cluster and exits 0.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.errors import ReproError, SnapshotError
from repro.serve import HttpServeClient
from repro.serve.snapshot import load_snapshot

REPO = Path(__file__).resolve().parent.parent

#: Distinct cacheable queries — enough keys to land on both shards.
LOAD_MIX = [
    ("me_speedup", {"device": device, "fmt": "fp16"})
    for device in ("v100", "a100", "tpuv3")
] + [
    ("costbenefit", {"me_speedup": speedup})
    for speedup in (2.0, 4.0, 8.0)
]


def _start_cluster(args, timeout_s=120):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.http",
         "--cluster", "2", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO,
    )
    head, url = [], None
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        head.append(line)
        if "cluster listening on" in line:
            url = line.split("listening on", 1)[1].split()[0].strip()
            break
    if url is None:
        proc.kill()
        raise AssertionError("cluster never came up:\n" + "".join(head))
    return proc, url, head


def _snapshot_entries(path):
    """Entries a shard's snapshot file holds (0 before its first flush)."""
    try:
        return len(load_snapshot(path).entries)
    except SnapshotError:
        return 0


def _shards(url):
    return json.loads(urllib.request.urlopen(
        url + "/shards", timeout=30
    ).read())["shards"]


class TestClusterChaos:
    def test_sigkill_worker_under_load(self, tmp_path):
        snapdir = tmp_path / "snapshots"
        proc, url, head = _start_cluster([
            "--snapshot-dir", str(snapdir),
            "--snapshot-interval", "0.3",
            "--drain-timeout", "10",
        ])
        reader = threading.Thread(
            target=lambda: [head.append(line) for line in proc.stdout],
            daemon=True,
        )
        reader.start()
        try:
            http = HttpServeClient(url, timeout=60)
            ok = [0]
            typed, unclassified = [], []
            stop = threading.Event()

            def hammer(offset):
                i = offset
                while not stop.is_set():
                    kind, params = LOAD_MIX[i % len(LOAD_MIX)]
                    i += 1
                    try:
                        http.query(kind, params)
                        ok[0] += 1
                    except ReproError as exc:
                        # Typed and retryable: the contract allows a
                        # rejection, never an unclassified failure.
                        typed.append(exc)
                    except Exception as exc:
                        unclassified.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(n,)) for n in range(4)
            ]
            for t in threads:
                t.start()

            # Warm-up traffic until shard 0 has flushed a periodic
            # snapshot holding at least one entry.
            deadline = time.monotonic() + 30
            while _snapshot_entries(snapdir / "shard-0.json") < 1:
                assert time.monotonic() < deadline, (
                    "shard 0 never flushed a snapshot with entries"
                )
                time.sleep(0.05)
            before = _shards(url)
            victim = before["0"]
            assert victim["state"] == "up"
            os.kill(victim["pid"], signal.SIGKILL)

            # The supervisor must restart shard 0 (new pid, same shard)
            # while load continues.
            restarted = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                now = _shards(url)["0"]
                if now["state"] == "up" and now["pid"] != victim["pid"]:
                    restarted = now
                    break
                time.sleep(0.1)
            assert restarted is not None, "shard 0 never restarted"
            assert restarted["restarts"] >= 1

            time.sleep(1.0)  # post-recovery traffic
            stop.set()
            for t in threads:
                t.join(timeout=30)

            assert unclassified == [], (
                f"unclassified errors leaked: {unclassified[:5]}"
            )
            assert ok[0] > 0

            metrics = http.metrics()
            assert metrics["cluster"]["restarts"] >= 1
            assert metrics["cluster"]["shards_up"] == 2
            # Warm boot: the restarted shard recovered cache entries
            # from its periodic snapshot flush (SIGKILL skipped the
            # graceful flush, so only the periodic one can explain it).
            shard0 = metrics["shards"]["0"]["metrics"]
            assert shard0["counters"]["snapshot_restored"] > 0

            # Graceful cluster drain: exit 0, clean banner.
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
            reader.join(timeout=30)
            out = "".join(head)
            assert rc == 0, out
            assert "repro-serve cluster exited cleanly" in out
            assert "restarting" in out  # the supervisor logged the death
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

    def test_router_spills_while_shard_is_down(self, tmp_path):
        """With spill-over enabled, queries keyed to a killed shard are
        answered by its ring neighbour until the restart lands."""
        proc, url, head = _start_cluster([
            "--snapshot-dir", str(tmp_path / "snaps"),
            "--drain-timeout", "6",
        ])
        try:
            http = HttpServeClient(url, timeout=60)
            # Find a query owned by shard 0 (deterministic placement).
            owned = None
            for speedup in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0):
                reply = http.query("costbenefit", {"me_speedup": speedup})
                if reply["shard"] == 0:
                    owned = {"me_speedup": speedup}
                    break
            assert owned is not None
            victim = _shards(url)["0"]
            os.kill(victim["pid"], signal.SIGKILL)
            # Give the monitor a beat to notice the death.
            deadline = time.monotonic() + 30
            spilled = None
            while time.monotonic() < deadline:
                reply = http.query("costbenefit", owned)
                if reply["shard"] != 0:
                    spilled = reply
                    break
                time.sleep(0.05)
            assert spilled is not None, "query never spilled off shard 0"
            assert spilled["spilled"] is True
            assert spilled["shard"] == 1
            proc.send_signal(signal.SIGTERM)
            out = proc.communicate(timeout=60)[0]
            assert proc.returncode == 0, "".join(head) + out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
