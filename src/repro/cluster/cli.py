"""``repro-serve --cluster N``: the sharded serve cluster front end.

Thin argument-parsing shell over :class:`ClusterSupervisor` — the
``repro-serve`` entry point hands over here whenever ``--cluster`` is
present, so the single-process and clustered forms share one command
and one wire protocol.
"""

from __future__ import annotations

import sys

from repro.cluster.supervisor import ClusterSupervisor
from repro.serve.http import (
    _flag_value,
    _float_flag,
    _int_flag,
    parse_handler_concurrency,
    shutdown_event,
)

__all__ = ["main"]

_USAGE = """\
usage: repro-serve --cluster N [options]

Run N shared-nothing serve workers behind a consistent-hash router.
Each worker hosts the full query engine (LRU + substrate cache,
scenarios, fault plans, snapshots); the router hashes each query's
canonical fingerprint to a shard, so every spelling of the same
question lands on the same warm cache.

options:
  --cluster N               number of shard workers (required here)
  --host HOST               router bind address (default 127.0.0.1)
  --port PORT               router port (default 8077; 0 = ephemeral)
  --handler-concurrency N   per-worker handler threads (default 4)
  --queue-size N            per-worker admission queue (default 128)
  --cache-size N            per-worker result-cache entries (default 256)
  --timeout SECONDS         per-query deadline (default 30)
  --scenario FILE           scenario spec JSON, repeatable
  --fault-plan FILE         fault plan JSON applied in every worker
  --fault-plan-shard K      apply --fault-plan only in shard K (chaos
                            drills against exactly one degraded shard)
  --snapshot-dir DIR        per-shard cache snapshots (shard-K.json)
  --snapshot-interval S     periodic snapshot flush cadence (default 5)
  --drain-timeout SECONDS   graceful drain grace per stage (default 10)
  --spill N                 max ring neighbours to try past the primary
                            shard when it is unavailable (default 1)
  --ring-seed N             consistent-hash ring seed (default 0)
  --no-hedge                disable hedged requests (default: after a
                            kind's rolling p95, race a ring neighbour
                            and take the first answer)
  --hedge-ratio R           cap hedges at R of all requests (default 0.05)
  --verify-sample-rate R    fraction of worker cache hits digest-verified
                            before serving (default 0.125; 1 = every hit)
  --scrub-interval S        per-worker background cache-scrubber pass
                            interval; 0 disables (default 0)
  --verbose                 prefix and forward worker logs
"""


def main(argv: list[str] | None = None) -> int:
    """Entry point for the clustered form of ``repro-serve``."""
    args = list(sys.argv[1:] if argv is None else argv)
    if "--help" in args or "-h" in args:
        print(_USAGE)
        return 0
    cluster_size = _int_flag(args, "--cluster", 0)
    host = _flag_value(args, "--host", "a bind address") or "127.0.0.1"
    port = _int_flag(args, "--port", 8077)
    handler_concurrency = parse_handler_concurrency(args)
    queue_size = _int_flag(args, "--queue-size", 128)
    cache_size = _int_flag(args, "--cache-size", 256)
    timeout = _float_flag(args, "--timeout", 30.0)
    scenario_files = []
    while True:
        raw = _flag_value(args, "--scenario", "a JSON file argument")
        if raw is None:
            break
        scenario_files.append(raw)
    fault_plan_file = _flag_value(args, "--fault-plan", "a JSON file argument")
    fault_plan_shard = None
    if "--fault-plan-shard" in args:
        fault_plan_shard = _int_flag(args, "--fault-plan-shard", 0)
    snapshot_dir = _flag_value(args, "--snapshot-dir", "a directory argument")
    snapshot_interval = _float_flag(args, "--snapshot-interval", 5.0)
    drain_timeout = _float_flag(args, "--drain-timeout", 10.0)
    spill = _int_flag(args, "--spill", 1)
    ring_seed = _int_flag(args, "--ring-seed", 0)
    hedge = "--no-hedge" not in args
    if not hedge:
        args.remove("--no-hedge")
    hedge_ratio = _float_flag(args, "--hedge-ratio", 0.05)
    verify_sample_rate = _float_flag(args, "--verify-sample-rate", 0.125)
    scrub_interval = _float_flag(args, "--scrub-interval", 0.0)
    verbose = "--verbose" in args
    if verbose:
        args.remove("--verbose")
    if args:
        raise SystemExit(
            f"unknown argument {args[0]!r}; see repro-serve --cluster --help"
        )

    supervisor = ClusterSupervisor(
        cluster_size,
        host=host,
        port=port,
        handler_concurrency=handler_concurrency,
        queue_size=queue_size,
        cache_size=cache_size,
        timeout_s=timeout,
        scenario_files=scenario_files,
        fault_plan_file=fault_plan_file,
        fault_plan_shard=fault_plan_shard,
        snapshot_dir=snapshot_dir,
        snapshot_interval_s=snapshot_interval,
        drain_timeout_s=drain_timeout,
        spill=spill,
        ring_seed=ring_seed,
        hedge=hedge,
        hedge_ratio=hedge_ratio,
        verify_sample_rate=verify_sample_rate,
        scrub_interval_s=scrub_interval,
        verbose=verbose,
    )

    shutdown_requested = shutdown_event(
        f"draining cluster (grace {drain_timeout:g}s)"
    )
    supervisor.start()
    print(
        f"repro-serve cluster listening on {supervisor.url} "
        f"({cluster_size} shards, spill {spill})",
        flush=True,
    )
    shutdown_requested.wait()
    supervisor.stop()
    print("repro-serve cluster exited cleanly", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
