"""Process-wide substrate cache for the artefact pipeline.

Several artefacts re-derive the same expensive *substrates* — the
seeded 20k-job K-computer year, the synthetic Spack index, the Ozaki
split/summation runs, the 77-workload profile sweep.  This module
memoizes those factories into one process-wide, thread-safe store keyed
by substrate name plus the factory's (seed-carrying) arguments, so a
full ``repro-paper`` run computes each substrate exactly once no matter
how many artefacts — or worker threads — ask for it.

The module is deliberately a leaf: it imports only the standard
library (plus the equally-leafy :mod:`repro.resilience.faultplan` and,
lazily, :mod:`repro.scenario`), so any layer (``repro.joblog``,
``repro.ozaki``, ``repro.workloads``, ...) can decorate its substrate
factory with :func:`memoize_substrate` without creating an import cycle
through ``repro.harness``.

Fault injection: every lookup consults :func:`fault_point` at site
``cache:<substrate>``; an ``evict`` rule drops the entry first,
simulating an eviction storm (the factory then recomputes, so values
stay correct — only the hit/eviction pattern changes).  With no plan
installed the hook is a single contextvar read.

Scenario awareness: every memoized lookup resolves through the active
:class:`~repro.scenario.spec.ScenarioSpec`.  A non-empty scenario (a)
prefixes the cache key with the scenario fingerprint, so overlay runs
never share — or poison — baseline entries, and (b) injects the
scenario's per-substrate seed overrides into factories that accept a
``seed`` parameter, so every consumer of the substrate (warming,
artefacts, serve handlers) resolves to the same overridden entry.  The
baseline key is byte-for-byte the pre-scenario key.
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.resilience.faultplan import fault_point

__all__ = [
    "CacheStats",
    "SubstrateCache",
    "SUBSTRATE_CACHE",
    "DEFAULT_MAX_ENTRIES",
    "memoize_substrate",
    "freeze",
]

#: Default entry bound of a :class:`SubstrateCache`.  Substrates are few
#: but large; a serving layer issuing distinct-seed queries must never
#: grow the store without limit, so even the process-wide cache is
#: bounded (generously — a full ``repro-paper`` run needs ~5 entries).
DEFAULT_MAX_ENTRIES = 128


def freeze(value: Any) -> Any:
    """Recursively convert ``value`` into a hashable cache-key component.

    Dicts become sorted item tuples, sequences become tuples, sets
    become frozensets; anything unhashable falls back to ``repr``.
    """
    if isinstance(value, dict):
        return tuple(sorted((str(k), freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot: lookups served from memory vs computed."""

    hits: int
    misses: int
    entries: int
    evictions: int = 0
    max_entries: int | None = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class SubstrateCache:
    """Thread-safe, LRU-bounded memo store with per-key computation locks.

    Two threads requesting the same uncached key serialise on that
    key's lock — the substrate is computed once and the loser reads the
    winner's value — while requests for *different* keys proceed in
    parallel.  The store holds at most ``max_entries`` values; inserting
    past the bound evicts the least-recently-used entry together with
    its computation lock, so neither map can grow without limit under
    many distinct seeds.  ``max_entries=None`` disables the bound.
    """

    def __init__(self, max_entries: int | None = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self._mutex = threading.Lock()
        self._max_entries = max_entries
        self._values: OrderedDict[Any, Any] = OrderedDict()
        self._key_locks: dict[Any, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def max_entries(self) -> int | None:
        return self._max_entries

    def _insert(self, full_key: Any, value: Any) -> None:
        """Store a value and evict LRU entries past the bound (mutex held)."""
        self._values[full_key] = value
        self._values.move_to_end(full_key)
        self._misses += 1
        while (
            self._max_entries is not None
            and len(self._values) > self._max_entries
        ):
            evicted_key, _ = self._values.popitem(last=False)
            self._key_locks.pop(evicted_key, None)
            self._evictions += 1

    def get_or_compute(
        self, substrate: str, factory: Callable[[], Any], key: Any = ()
    ) -> Any:
        """Return the cached value for ``(substrate, key)``, computing it
        with ``factory`` on first request."""
        full_key = (substrate, freeze(key))
        if fault_point(f"cache:{substrate}") == "evict":
            with self._mutex:
                if self._values.pop(full_key, None) is not None:
                    self._key_locks.pop(full_key, None)
                    self._evictions += 1
        with self._mutex:
            if full_key in self._values:
                self._hits += 1
                self._values.move_to_end(full_key)
                return self._values[full_key]
            key_lock = self._key_locks.setdefault(full_key, threading.Lock())
        with key_lock:
            with self._mutex:
                if full_key in self._values:
                    self._hits += 1
                    self._values.move_to_end(full_key)
                    return self._values[full_key]
            value = factory()
            with self._mutex:
                self._insert(full_key, value)
        return value

    def prime(self, substrate: str, key: Any, value: Any) -> None:
        """Insert a value computed elsewhere (e.g. a worker process).

        A new entry counts as a miss — the computation did happen, just
        not in this thread; an existing entry is left untouched.
        """
        full_key = (substrate, freeze(key))
        with self._mutex:
            if full_key not in self._values:
                self._insert(full_key, value)

    def holds(self, substrate: str, key: Any = ()) -> bool:
        """Whether ``(substrate, key)`` is resident.  A peek: it counts
        no hit or miss and leaves the LRU order alone."""
        full_key = (substrate, freeze(key))
        with self._mutex:
            return full_key in self._values

    def __len__(self) -> int:
        with self._mutex:
            return len(self._values)

    def substrates(self) -> tuple[str, ...]:
        """Names of the substrates currently held (sorted, unique)."""
        with self._mutex:
            return tuple(sorted({k[0] for k in self._values}))

    def stats(self) -> CacheStats:
        with self._mutex:
            return CacheStats(
                self._hits,
                self._misses,
                len(self._values),
                self._evictions,
                self._max_entries,
            )

    def invalidate(self, substrate: str) -> int:
        """Drop every entry of one substrate; returns the count dropped.

        Recovery hook: after a substrate build fails part-way, the
        pipeline invalidates the name so the retry recomputes from
        scratch instead of trusting a possibly half-built value.
        """
        with self._mutex:
            doomed = [k for k in self._values if k[0] == substrate]
            for full_key in doomed:
                del self._values[full_key]
                self._key_locks.pop(full_key, None)
                self._evictions += 1
            return len(doomed)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._mutex:
            self._values.clear()
            self._key_locks.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0


#: The process-wide cache every substrate factory shares.
SUBSTRATE_CACHE = SubstrateCache()


def _scenario_key_parts(substrate: str) -> tuple[Any, int | None]:
    """The active scenario's contribution to a substrate lookup.

    Returns ``(key_prefix, seed_override)``: the key prefix is ``()``
    for the baseline (keeping baseline keys byte-identical to the
    pre-scenario layout) and ``(("__scenario__", fingerprint),)`` under
    a non-empty overlay; the seed override is the scenario's seed for
    this substrate, or ``None``.
    """
    from repro.scenario.context import active_scenario

    spec = active_scenario()
    token = spec.cache_token
    prefix: Any = () if token is None else (("__scenario__", token),)
    return prefix, spec.substrate_seeds.get(substrate)


def memoize_substrate(
    substrate: str, cache: SubstrateCache | None = None
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: memoize a substrate factory into the process cache.

    The cache key is the *canonical bound arguments* of the call —
    defaults applied — so ``generate_k_year()`` and
    ``generate_k_year(jobs=20_000)`` share one entry.  Under a
    non-empty scenario the key is additionally prefixed with the
    scenario fingerprint, and a ``substrate_seeds`` override replaces a
    defaulted ``seed`` argument.  The undecorated function stays
    reachable as ``fn.uncached``.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        signature = inspect.signature(fn)
        takes_seed = "seed" in signature.parameters

        def _bind(args: Any, kwargs: Any) -> tuple[Any, Any]:
            """Canonical (key, bound) pair for one call, scenario-aware."""
            bound = signature.bind(*args, **kwargs)
            seed_given = "seed" in bound.arguments
            bound.apply_defaults()
            prefix, seed_override = _scenario_key_parts(substrate)
            if takes_seed and seed_override is not None and not seed_given:
                bound.arguments["seed"] = seed_override
            key = prefix + tuple(bound.arguments.items())
            return key, bound

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            key, bound = _bind(args, kwargs)
            target = cache if cache is not None else SUBSTRATE_CACHE
            return target.get_or_compute(
                substrate,
                lambda: fn(*bound.args, **bound.kwargs),
                key=key,
            )

        def prime(value: Any, *args: Any, **kwargs: Any) -> None:
            """Insert a precomputed value under the call's cache key."""
            key, _ = _bind(args, kwargs)
            target = cache if cache is not None else SUBSTRATE_CACHE
            target.prime(substrate, key, value)

        def resident(*args: Any, **kwargs: Any) -> bool:
            """Whether the call's cache entry is held, under the active
            scenario."""
            key, _ = _bind(args, kwargs)
            target = cache if cache is not None else SUBSTRATE_CACHE
            return target.holds(substrate, key)

        wrapper.substrate = substrate
        wrapper.uncached = fn
        wrapper.prime = prime
        wrapper.resident = resident
        return wrapper

    return decorate
