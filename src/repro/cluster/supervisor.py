"""The cluster supervisor: spawn, watch, restart, drain.

Owns the whole cluster lifecycle.  :meth:`ClusterSupervisor.start`
spawns one worker subprocess per shard (each a full serve engine bound
to an ephemeral port, announcing itself through a stdout banner),
builds the consistent-hash ring over the shard ids, and starts the
asyncio router on the public address.

A monitor thread then polls the workers.  When one dies — crash or
SIGKILL — its shard is marked down (the router immediately spills that
shard's keys to ring neighbours), the worker is restarted with the
*same* shard id and snapshot file (so it boots warm from its last
periodic flush), and on the new banner the shard is re-armed in the
table.  The ring itself never changes across a restart: members are
shard ids, not addresses, so no keys move and every surviving cache
stays hot.

Shutdown is the graceful drain story, clusterised: stop the router
admitting queries (503 + ``Retry-After``), wait for in-flight requests,
SIGTERM every worker (each runs its own drain + final snapshot flush),
and reap them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any

from repro.cluster.protocol import ShardTable, parse_worker_banner
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter
from repro.errors import ClusterError
from repro.serve.http import load_scenario_files

__all__ = ["ClusterSupervisor"]

#: Restart back-off: doubles from the floor to the ceiling so a
#: crash-looping worker cannot busy-spin the supervisor, while a
#: one-off kill restarts almost immediately.
RESTART_BACKOFF_MIN_S = 0.2
RESTART_BACKOFF_MAX_S = 5.0

#: How often a worker checkpoints its result cache to the shard
#: snapshot when ``snapshot_interval_s`` is ``None``.  Frequent
#: enough that a crashed worker's warm boot is minutes-fresh at worst,
#: cheap enough to be noise (the snapshot is a few KB of JSON).
DEFAULT_SNAPSHOT_INTERVAL_S = 5.0


class _WorkerProc:
    """One worker subprocess plus its stdout reader thread."""

    def __init__(self, shard_id: int, proc: subprocess.Popen,
                 verbose: bool) -> None:
        self.shard_id = shard_id
        self.proc = proc
        self.url: str | None = None
        #: Set by the banner, or by EOF once the worker has exited.
        self.settled = threading.Event()
        self.log: deque[str] = deque(maxlen=400)
        self._verbose = verbose
        self.reader = threading.Thread(
            target=self._read_stdout,
            name=f"repro-cluster-reader-{shard_id}",
            daemon=True,
        )
        self.reader.start()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            self.log.append(line)
            if not self.settled.is_set():
                parsed = parse_worker_banner(line)
                if parsed is not None and parsed[0] == self.shard_id:
                    self.url = parsed[1]
                    self.settled.set()
            if self._verbose:
                print(f"[shard {self.shard_id}] {line}", flush=True)
        # EOF: the worker is gone.  Reap it, so a worker that dies
        # before its banner fails the boot at once, with its exit code.
        self.proc.wait()
        self.settled.set()

    def wait_banner(self, timeout_s: float) -> bool:
        """Wait for the banner; ``False`` on timeout or if the worker
        exits first."""
        self.settled.wait(timeout_s)
        return self.url is not None


class ClusterSupervisor:
    """Run ``cluster_size`` shard workers behind one router."""

    def __init__(
        self,
        cluster_size: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        handler_concurrency: int = 4,
        queue_size: int = 128,
        cache_size: int = 256,
        timeout_s: float = 30.0,
        scenario_files: list[str] | None = None,
        fault_plan_file: str | None = None,
        fault_plan_shard: int | None = None,
        snapshot_dir: str | None = None,
        snapshot_interval_s: float | None = None,
        drain_timeout_s: float = 10.0,
        spill: int = 1,
        ring_seed: int = 0,
        hedge: bool = True,
        hedge_ratio: float = 0.05,
        boot_timeout_s: float = 60.0,
        verify_sample_rate: float = 0.125,
        scrub_interval_s: float = 0.0,
        verbose: bool = False,
    ) -> None:
        if cluster_size < 1:
            raise ClusterError(
                f"--cluster expects a size >= 1, got {cluster_size}"
            )
        if fault_plan_shard is not None and not (
            0 <= fault_plan_shard < cluster_size
        ):
            raise ClusterError(
                f"--fault-plan-shard expects a shard id in "
                f"[0, {cluster_size}), got {fault_plan_shard}"
            )
        if snapshot_interval_s is None:
            snapshot_interval_s = DEFAULT_SNAPSHOT_INTERVAL_S
        self.cluster_size = cluster_size
        self.host = host
        self.port = port
        self.scenario_files = list(scenario_files or [])
        self.fault_plan_file = fault_plan_file
        self.fault_plan_shard = fault_plan_shard
        self.snapshot_dir = snapshot_dir
        self.drain_timeout_s = drain_timeout_s
        self.boot_timeout_s = boot_timeout_s
        self.verbose = verbose
        # The settings every worker shares, spelled out once as argv.
        self._worker_args = [
            "--host", "127.0.0.1",
            "--port", "0",
            "--handler-concurrency", str(handler_concurrency),
            "--queue-size", str(queue_size),
            "--cache-size", str(cache_size),
            "--timeout", str(timeout_s),
            "--drain-timeout", str(drain_timeout_s),
            "--verify-sample-rate", str(verify_sample_rate),
            "--scrub-interval", str(scrub_interval_s),
            "--snapshot-interval", str(snapshot_interval_s),
        ]
        for path in self.scenario_files:
            self._worker_args += ["--scenario", path]
        if verbose:
            self._worker_args.append("--verbose")

        shard_ids = list(range(cluster_size))
        self.table = ShardTable(shard_ids)
        self.ring = HashRing(shard_ids, seed=ring_seed)
        self.router = ClusterRouter(
            self.table,
            self.ring,
            # Parsed once for the router's /scenarios listing (each
            # worker registers its own copy); a bad spec fails the boot.
            scenarios={
                spec.name: spec
                for spec in load_scenario_files(self.scenario_files)
            },
            spill=spill,
            hedge=hedge,
            hedge_ratio=hedge_ratio,
            verbose=verbose,
        )
        self._workers: dict[int, _WorkerProc] = {}
        self._restarting: set[int] = set()
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor_thread: threading.Thread | None = None

    # -- boot ----------------------------------------------------------------

    @property
    def url(self) -> str | None:
        return self.router.url

    def _snapshot_file(self, shard_id: int) -> str | None:
        if self.snapshot_dir is None:
            return None
        return os.path.join(self.snapshot_dir, f"shard-{shard_id}.json")

    def _worker_cmd(self, shard_id: int) -> list[str]:
        cmd = [
            sys.executable, "-m", "repro.serve.http",
            "--shard-id", str(shard_id),
            *self._worker_args,
        ]
        if self.fault_plan_file is not None and (
            self.fault_plan_shard is None
            or self.fault_plan_shard == shard_id
        ):
            # A targeted plan degrades exactly one shard — the setup
            # hedged requests and budget-aware spill are built to beat.
            cmd += ["--fault-plan", self.fault_plan_file]
        snapshot_file = self._snapshot_file(shard_id)
        if snapshot_file is not None:
            cmd += ["--cache-snapshot", snapshot_file]
        return cmd

    def _spawn(self, shard_id: int) -> _WorkerProc:
        env = dict(os.environ)
        pkg_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ))
        env["PYTHONPATH"] = pkg_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            self._worker_cmd(shard_id),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            # Workers get their own session so a terminal Ctrl-C hits
            # only the supervisor, which then drains them in order.
            start_new_session=True,
        )
        worker = _WorkerProc(shard_id, proc, self.verbose)
        with self._lock:
            self._workers[shard_id] = worker
        self.table.set_snapshot_file(shard_id, self._snapshot_file(shard_id))
        return worker

    def start(self) -> "ClusterSupervisor":
        if self._monitor_thread is not None:
            raise ClusterError("cluster already started")
        if self.snapshot_dir is not None:
            os.makedirs(self.snapshot_dir, exist_ok=True)
        workers = [self._spawn(sid) for sid in range(self.cluster_size)]
        deadline = time.monotonic() + self.boot_timeout_s
        for worker in workers:
            if not worker.wait_banner(max(0.1, deadline - time.monotonic())):
                code = worker.proc.returncode  # set once the worker exited
                tail = "\n".join(list(worker.log)[-20:])
                self.stop(drain=False)
                if code is None:
                    why = f"did not come up within {self.boot_timeout_s:g}s"
                else:
                    why = f"exited with code {code} before its banner"
                raise ClusterError(
                    f"shard {worker.shard_id} {why}; last output:\n{tail}"
                )
            self.table.mark_up(worker.shard_id, worker.url, worker.proc.pid)
            print(
                f"shard {worker.shard_id} up at {worker.url} "
                f"(pid {worker.proc.pid})",
                flush=True,
            )
        self.router.start(self.host, self.port)
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-cluster-monitor", daemon=True
        )
        self._monitor_thread.start()
        return self

    # -- failure handling ----------------------------------------------------

    def _monitor(self) -> None:
        """Detect worker death and restart in place (same shard id,
        same snapshot file — the restart boots warm and no ring keys
        move).  Each restart runs on its own thread so one slow boot
        never blinds the monitor to another shard's death."""
        while not self._stopping.wait(0.1):
            with self._lock:
                current = dict(self._workers)
            for shard_id, worker in current.items():
                if worker.proc.poll() is None:
                    continue
                with self._lock:
                    if shard_id in self._restarting:
                        continue
                    self._restarting.add(shard_id)
                self.table.mark_down(shard_id, "restarting")
                print(
                    f"shard {shard_id} (pid {worker.proc.pid}) exited "
                    f"with code {worker.proc.returncode}; restarting",
                    flush=True,
                )
                threading.Thread(
                    target=self._restart, args=(shard_id,),
                    name=f"repro-cluster-restart-{shard_id}", daemon=True,
                ).start()

    def _restart(self, shard_id: int) -> None:
        backoff = RESTART_BACKOFF_MIN_S
        try:
            while not self._stopping.is_set():
                time.sleep(backoff)
                if self._stopping.is_set():
                    return
                worker = self._spawn(shard_id)
                if worker.wait_banner(self.boot_timeout_s):
                    self.table.count_restart(shard_id)
                    self.table.mark_up(
                        shard_id, worker.url, worker.proc.pid
                    )
                    print(
                        f"shard {shard_id} restarted at {worker.url} "
                        f"(pid {worker.proc.pid})",
                        flush=True,
                    )
                    return
                # Boot failed: reap and try again, slower.
                if worker.proc.poll() is None:
                    worker.proc.kill()
                worker.proc.wait()
                backoff = min(backoff * 2, RESTART_BACKOFF_MAX_S)
                print(
                    f"shard {shard_id} failed to boot; retrying in "
                    f"{backoff:g}s",
                    flush=True,
                )
        finally:
            with self._lock:
                self._restarting.discard(shard_id)

    # -- shutdown ------------------------------------------------------------

    def stop(self, drain: bool = True) -> None:
        """Drain the router, SIGTERM every worker (each runs its own
        graceful drain + snapshot flush), reap, and stop the router."""
        self._stopping.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5)
            self._monitor_thread = None
        if drain and self.router.url is not None:
            self.router.begin_drain()
            self.router.await_quiescence(self.drain_timeout_s)
        with self._lock:
            workers = dict(self._workers)
        for worker in workers.values():
            if worker.proc.poll() is None:
                worker.proc.terminate()
        grace = self.drain_timeout_s + 5.0
        for worker in workers.values():
            try:
                worker.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()
            self.table.mark_down(worker.shard_id)
        if self.router.url is not None:
            self.router.stop()

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
