"""Booting and stopping the two-shard cluster the HTTP layers run on."""

from __future__ import annotations

import time

from perfbench.common import HttpConn

SHARDS = 2
READY_TIMEOUT_S = 60.0


def boot() -> tuple[object, float]:
    """Start ``ClusterSupervisor(2)`` at its defaults; return it and the
    seconds until the router's ``/readyz`` answered 200."""
    from repro.cluster.supervisor import ClusterSupervisor

    start = time.perf_counter()
    sup = ClusterSupervisor(SHARDS).start()
    try:
        deadline = start + READY_TIMEOUT_S
        while True:
            conn = HttpConn(sup.url)
            try:
                status, _, _ = conn.call("GET", "/readyz")
            finally:
                conn.close()
            if status == 200:
                return sup, time.perf_counter() - start
            if time.perf_counter() > deadline:
                raise RuntimeError("cluster never became ready")
            time.sleep(0.005)
    except BaseException:
        sup.stop()
        raise


def worker_urls(sup) -> dict[int, str]:
    table = sup.table.snapshot()
    return {sid: info["url"] for sid, info in table.items()}
