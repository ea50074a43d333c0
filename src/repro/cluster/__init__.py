"""Sharded multi-worker serve cluster with consistent-hash routing.

``repro-serve --cluster N`` runs N shared-nothing worker processes —
each hosting the complete serve engine (LRU + substrate cache,
scenarios, fault plans, snapshots) — behind an asyncio router that
consistent-hashes each query's canonical SHA-256 fingerprint to a
shard.  Placement by canonical fingerprint is the load-bearing idea:
every spelling of the same question lands on the same worker's warm
cache, so the cluster's aggregate hit ratio matches the single-process
engine's instead of diluting it N ways.

The pieces:

* :mod:`~repro.cluster.ring` — deterministic consistent-hash ring
  (virtual nodes; minimal key movement on membership change);
* :mod:`~repro.cluster.protocol` — routing keys, shard state table,
  worker banners, metrics aggregation;
* :mod:`~repro.cluster.router` — the asyncio front door: breaker-aware
  routing with bounded spill-over and aggregated ``/metrics``;
* :mod:`~repro.cluster.supervisor` — spawn/watch/restart/drain.  Each
  worker it spawns is ``python -m repro.serve.http --shard-id K``: the
  full serve engine owning one shard, flushing its snapshot
  periodically for SIGKILL-survivable warmth.

The ``--cluster`` command line is :func:`repro.serve.http.main`'s.
"""

from repro.cluster.protocol import (
    ShardInfo,
    ShardTable,
    aggregate_metrics,
    parse_worker_banner,
    routing_key,
    worker_banner,
)
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import ClusterSupervisor

__all__ = [
    "HashRing",
    "DEFAULT_VNODES",
    "routing_key",
    "ShardInfo",
    "ShardTable",
    "worker_banner",
    "parse_worker_banner",
    "aggregate_metrics",
    "ClusterRouter",
    "ClusterSupervisor",
]
