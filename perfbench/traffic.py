"""Seeded query traffic: the fresh mix, the hot pool, the probe sample.

Every generator takes a ``random.Random`` built from ``--seed``, so the
same seed gives the same questions; the program only ever sees the
generated (kind, params) pairs.
"""

from __future__ import annotations

import math
import random
from typing import Any

Request = tuple[str, dict[str, Any]]

MACHINES = ("k_computer", "anl", "future", "fugaku")
ROOFLINE_TARGETS = (
    ("v100", "fp64"), ("v100", "fp16"), ("a100", "fp64"), ("a100", "bf16"),
    ("tpuv3", "bf16"), ("a64fx", "fp64"), ("p100", "fp32"),
    ("gaudi", "bf16"), ("power10", "fp64"), ("sapphire-rapids", "bf16"),
)
ME_TARGETS = (
    ("a100", "fp64"), ("a100", "fp16"), ("ascend910", "fp16"),
    ("power10", "fp64"), ("power10", "fp32"), ("rtx2070", "fp16"),
    ("rtx2080ti", "fp16"), ("v100", "fp16"),
)
DENSITY_PAIRS = (
    ("v100", "a100"), ("a64fx", "v100"), ("a100", "tpuv3"), ("p100", "v100"),
    ("gaudi", "a100"), ("tpuv2", "tpuv3"),
)
OZAKI_ROWS = (
    ("DGEMM-TC", 1e8), ("DGEMM-TC", 1e16), ("DGEMM-TC", 1e32),
    ("SGEMM-TC", 1e8), ("SGEMM-TC", 1e16), ("SGEMM-TC", 1e32),
    ("cublasDgemm", 1e8), ("cublasSgemm", 1e8), ("cublasGemmEx", 1e8),
)

#: serve-fresh kind mix (share of requests that are not repeats).  At the
#: low rate an uncached batchable question waits out the engine's batch
#: window while a repeat or an unbatchable one answers in a fraction of
#: that, so latency is bimodal.  The two batchable kinds make up 90%, so
#: that with the repeats about 72% of low-rate requests are in the slow
#: mode and the median sits inside it; at 45/25/20/10 the split was near
#: 50% and the median jumped between the modes from visit to visit.
FRESH_MIX = (
    ("node_hours", 0.55), ("costbenefit", 0.35), ("roofline", 0.06),
    ("ozaki", 0.04),
)
#: Share of serve-fresh requests that repeat one of the last
#: :data:`REPEAT_WINDOW` questions (cache hits or coalesced joins).
REPEAT_SHARE = 0.20
REPEAT_WINDOW = 50


def _speedup(rng: random.Random) -> float:
    # Log-uniform over [1, 64] at 1e-4 resolution: ~42k values per
    # machine, far more distinct keys than the engine's 256-entry cache.
    return round(math.exp(rng.uniform(0.0, math.log(64.0))), 4)


def fresh_request(kind: str, rng: random.Random) -> Request:
    if kind == "node_hours":
        return kind, {"scenario": rng.choice(MACHINES), "speedup": _speedup(rng)}
    if kind == "costbenefit":
        return kind, {
            "scenario": rng.choice(MACHINES), "me_speedup": _speedup(rng),
        }
    if kind == "roofline":
        device, fmt = rng.choice(ROOFLINE_TARGETS)
        return kind, {
            "device": device, "fmt": fmt,
            "flops": float(round(10 ** rng.uniform(9, 15), -6)),
            "nbytes": float(round(10 ** rng.uniform(6, 12), -3)),
        }
    if kind == "ozaki":
        impl, input_range = rng.choice(OZAKI_ROWS)
        if not impl.endswith("-TC"):
            # Native GEMM rows ignore the range, which still keys the
            # question: fresh keys that share the cached substrate.
            input_range = float(round(10 ** rng.uniform(0, 32), 2))
        return kind, {"implementation": impl, "input_range": input_range}
    if kind == "me_speedup":
        device, fmt = rng.choice(ME_TARGETS)
        return kind, {"device": device, "fmt": fmt}
    if kind == "density":
        a, b = rng.choice(DENSITY_PAIRS)
        return kind, {"device_a": a, "device_b": b, "fmt": "fp16"}
    raise ValueError(f"unknown kind {kind!r}")


class FreshTraffic:
    """The serve-fresh stream: fresh questions plus recent repeats."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._recent: list[Request] = []
        self._kinds = [k for k, _ in FRESH_MIX]
        self._weights = [w for _, w in FRESH_MIX]

    def take(self, n: int) -> list[Request]:
        out = []
        for _ in range(n):
            if self._recent and self._rng.random() < REPEAT_SHARE:
                request = self._rng.choice(self._recent)
            else:
                kind = self._rng.choices(self._kinds, self._weights)[0]
                request = fresh_request(kind, self._rng)
            self._recent.append(request)
            del self._recent[:-REPEAT_WINDOW]
            out.append(request)
        return out


def distinct_fresh(rng: random.Random, n: int) -> list[Request]:
    """``n`` distinct fresh questions in exactly the :data:`FRESH_MIX`
    proportions (the cold/warm pass set; only the params vary by seed)."""
    seen: set[str] = set()
    out: list[Request] = []
    for kind, share in FRESH_MIX:
        want = len(out) + round(share * n)
        while len(out) < want:
            request = fresh_request(kind, rng)
            if repr(request) not in seen:
                seen.add(repr(request))
                out.append(request)
    rng.shuffle(out)
    return out


#: serve-hot pool: node_hours, costbenefit, roofline, me_speedup.
HOT_SPEEDUPS = (1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 64.0, "inf")
HOT_ME_SPEEDUPS = (2.0, 4.0, 8.0, 16.0, "inf")
ZIPF_S = 1.1
HOT_RANKING_SEED = 20210517


def hot_pool() -> list[Request]:
    """The fixed 80-question serve-hot pool."""
    pool: list[Request] = []
    for machine in MACHINES:
        for s in HOT_SPEEDUPS:
            pool.append(("node_hours", {"scenario": machine, "speedup": s}))
        for s in HOT_ME_SPEEDUPS:
            pool.append(("costbenefit", {"scenario": machine, "me_speedup": s}))
    for device, fmt in ROOFLINE_TARGETS:
        for flops, nbytes in ((2e12, 4e9), (1e10, 8e8)):
            pool.append(("roofline", {
                "device": device, "fmt": fmt, "flops": flops, "nbytes": nbytes,
            }))
    for device, fmt in ME_TARGETS:
        pool.append(("me_speedup", {"device": device, "fmt": fmt}))
    return pool


def hot_ranked() -> list[Request]:
    """The pool in popularity order.  The order is part of the workload,
    not of the seed: which questions are hot decides which shard is
    busiest, and that must not change from seed to seed."""
    ranked = hot_pool()
    random.Random(HOT_RANKING_SEED).shuffle(ranked)
    return ranked


class ZipfTraffic:
    """Zipf(:data:`ZIPF_S`) draws over the ranked pool."""

    def __init__(self, rng: random.Random, ranked: list[Request]) -> None:
        self._rng = rng
        self.ranked = list(ranked)
        self._weights = [
            1.0 / (k + 1) ** ZIPF_S for k in range(len(self.ranked))
        ]

    def take(self, n: int) -> list[Request]:
        return self._rng.choices(self.ranked, self._weights, k=n)


KINDS = ("costbenefit", "node_hours", "me_speedup", "roofline", "density",
         "ozaki")


def probe_sample(
    rng: random.Random, sent: list[Request], per_kind: int
) -> list[Request]:
    """Distinct questions for the layer probes: the workload's own
    requests first, topped up with fresh ones for kinds it never sends."""
    out: list[Request] = []
    for kind in KINDS:
        seen: set[str] = set()
        picked: list[Request] = []
        for request in sent:
            if request[0] == kind and repr(request) not in seen:
                seen.add(repr(request))
                picked.append(request)
            if len(picked) == per_kind:
                break
        tries = 0
        while len(picked) < per_kind and tries < 50 * per_kind:
            tries += 1
            request = fresh_request(kind, rng)
            if repr(request) not in seen:
                seen.add(repr(request))
                picked.append(request)
        out.extend(picked)
    return out
