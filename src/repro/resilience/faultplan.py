"""Deterministic fault injection: frozen plans, ambient injectors.

A :class:`FaultPlan` is a declarative chaos experiment — *which named
call sites fail, how often, and how* — specified as data exactly like a
:class:`~repro.scenario.spec.ScenarioSpec`: JSON-loadable, frozen, with
a canonical SHA-256 fingerprint over its semantic content.  The sites
are stable strings the instrumented layers publish:

* ``substrate:<name>``  — a pipeline substrate build,
* ``artifact:<name>``   — one artefact generator invocation,
* ``handler:<kind>``    — one serve handler evaluation (scalar or batch),
* ``cache:<substrate>`` — a substrate-cache lookup (``evict`` rules
  simulate eviction storms by dropping the entry first); the serve
  engine's result cache consults ``cache:result`` on every hit
  (``flip`` rules corrupt the entry in memory, ``evict`` drops it),
* ``store:<filename>``  — one durable write in
  :mod:`repro.harness.store` (the ``torn-write`` / ``bit-flip`` /
  ``fsync-error`` kinds simulate crash-mid-write, silent media
  corruption, and a failing durability barrier).

Rules fire either for the first ``times`` matching invocations
(count-based, exactly reproducible) or with probability ``rate`` from a
generator seeded by ``(plan seed, site)`` (rate-based, reproducible for
a fixed arrival order).  ``fnmatch`` wildcards are allowed in ``site``
(``handler:*``), and a rule can also inject pure latency.

Injection is *ambient*: :func:`fault_context` installs a
:class:`FaultInjector` (the plan plus its mutable, thread-safe firing
state) in a contextvar, and instrumented code calls
:func:`fault_point("<site>")`.  With no plan installed the hook is a
single contextvar read returning immediately — the production path pays
effectively nothing (``benchmarks/bench_resilience.py`` pins the
overhead below 2 % of the warm serve path).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import FaultInjected, FaultPlanError
from repro.integrity.digest import payload_digest

__all__ = [
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "EMPTY_FAULT_PLAN",
    "fault_plan_from_dict",
    "fault_plan_to_dict",
    "load_fault_plan",
    "fault_plan_fingerprint",
    "fault_context",
    "active_injector",
    "fault_point",
]

#: What a firing rule does at its site.
_KINDS = (
    "error", "latency", "evict",
    "torn-write", "bit-flip", "fsync-error",
    "flip", "wrong-answer",
)

#: Kinds whose semantics belong to the *call site*, not the injector:
#: :meth:`FaultInjector.fire` returns the kind string and the site
#: implements the failure (the durable store's ``store:*`` sites — see
#: :mod:`repro.harness.store`; the serve engine's ``cache:result`` and
#: ``handler:*`` sites implement ``flip`` / ``wrong-answer`` — see
#: :mod:`repro.serve.engine`).  At a site that does not understand the
#: kind, the returned string is ignored and the call proceeds normally.
_SITE_KINDS = frozenset({
    "evict", "torn-write", "bit-flip", "fsync-error",
    "flip", "wrong-answer",
})


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, how often, and what happens.

    ``times`` fires the rule on the first N matching invocations (the
    deterministic default); ``rate`` instead draws from a seeded RNG per
    invocation.  Exactly one of the two modes is active — setting
    ``rate`` disables the count.  ``kind``:

    * ``"error"``   — raise :class:`~repro.errors.FaultInjected`,
    * ``"latency"`` — sleep ``latency_s`` then proceed normally,
    * ``"evict"``   — ask the substrate cache to drop the entry first
      (only meaningful at ``cache:*`` sites; elsewhere it is a no-op),
    * ``"torn-write"`` / ``"bit-flip"`` / ``"fsync-error"`` — durable-
      store failures, implemented by the ``store:*`` sites (a torn write
      SIGKILLs the process mid-write; elsewhere they are no-ops),
    * ``"flip"`` — silent in-memory payload corruption: the serve
      engine's ``cache:result`` site damages the cached envelope *past*
      its stored checksum, so only verify-on-read / the scrubber can
      catch it (elsewhere a no-op),
    * ``"wrong-answer"`` — a plausible-but-wrong numeric perturbation of
      a handler's answer *before* its checksum is computed, implemented
      by the ``handler:*`` sites; only the algebraic answer invariants
      can catch it (elsewhere a no-op).
    """

    site: str
    kind: str = "error"
    times: int = 1
    rate: float | None = None
    latency_s: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        for name in ("site", "kind", "message"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise FaultPlanError(
                    f"fault rule {name} must be a string, got "
                    f"{type(value).__name__}"
                )
        if isinstance(self.times, bool) or not isinstance(self.times, int):
            raise FaultPlanError(
                f"rule {self.site!r}: times must be an integer, got "
                f"{type(self.times).__name__}"
            )
        if not self.site:
            raise FaultPlanError("fault rule needs a non-empty site")
        if self.kind not in _KINDS:
            raise FaultPlanError(
                f"rule {self.site!r}: kind must be one of {_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.rate is None and self.times < 1:
            raise FaultPlanError(
                f"rule {self.site!r}: times must be >= 1, got {self.times}"
            )
        if self.rate is not None and not 0.0 < self.rate <= 1.0:
            raise FaultPlanError(
                f"rule {self.site!r}: rate must be in (0, 1], got {self.rate}"
            )
        if self.latency_s < 0:
            raise FaultPlanError(
                f"rule {self.site!r}: latency_s must be >= 0"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, fingerprintable chaos experiment.

    ``seed`` governs every rate-based draw and the jittered retry
    backoff of the layers recovering from the plan, so one (plan, code)
    pair replays the identical failure sequence run after run.
    """

    name: str = ""
    description: str = ""
    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.rules, list):
            object.__setattr__(self, "rules", tuple(self.rules))
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise FaultPlanError(f"seed must be an int, got {self.seed!r}")

    @cached_property
    def fingerprint(self) -> str:
        """Canonical SHA-256 over the semantic content (labels excluded)."""
        return fault_plan_fingerprint(self)

    @property
    def is_empty(self) -> bool:
        return not self.rules

    def label(self) -> str:
        if self.is_empty:
            return "none"
        return self.name or self.fingerprint[:12]


#: The shared no-op plan.
EMPTY_FAULT_PLAN = FaultPlan()


# -- canonical form / fingerprint -------------------------------------------


def _canonical_rule(rule: FaultRule) -> dict:
    out: dict[str, Any] = {}
    for f in dataclasses.fields(rule):
        value = getattr(rule, f.name)
        if value == f.default:
            continue
        out[f.name] = float(value) if isinstance(value, int) and str(f.type) == "float" else value
    out["site"] = rule.site  # never elided, even if somehow default-like
    return out


def fault_plan_to_dict(plan: FaultPlan, *, include_label: bool = True) -> dict:
    """The plan as a canonical, JSON-encodable dict (round-trips through
    :func:`fault_plan_from_dict` to the identical fingerprint)."""
    out: dict[str, Any] = {}
    if include_label:
        if plan.name:
            out["name"] = plan.name
        if plan.description:
            out["description"] = plan.description
    if plan.seed:
        out["seed"] = plan.seed
    if plan.rules:
        out["rules"] = [_canonical_rule(r) for r in plan.rules]
    return out


def fault_plan_fingerprint(plan: FaultPlan) -> str:
    """SHA-256 of the canonical semantic encoding (labels excluded)."""
    return payload_digest(fault_plan_to_dict(plan, include_label=False))


def fault_plan_from_dict(data: Mapping[str, Any]) -> FaultPlan:
    """Construct and validate a plan from wire/file input (strict keys)."""
    if not isinstance(data, Mapping):
        raise FaultPlanError(
            f"fault plan: expected an object, got {type(data).__name__}"
        )
    plan_fields = {f.name for f in dataclasses.fields(FaultPlan)}
    unknown = sorted(set(data) - plan_fields)
    if unknown:
        raise FaultPlanError(
            f"fault plan: unknown key {unknown[0]!r}; accepts {sorted(plan_fields)}"
        )
    rule_fields = {f.name for f in dataclasses.fields(FaultRule)}
    if not isinstance(data.get("rules", []), list):
        raise FaultPlanError(
            f"fault plan: rules must be a list, got "
            f"{type(data['rules']).__name__}"
        )
    rules = []
    for i, raw in enumerate(data.get("rules", ())):
        if not isinstance(raw, Mapping):
            raise FaultPlanError(
                f"fault plan: rules[{i}] must be an object"
            )
        bad = sorted(set(raw) - rule_fields)
        if bad:
            raise FaultPlanError(
                f"fault plan: rules[{i}]: unknown key {bad[0]!r}; "
                f"accepts {sorted(rule_fields)}"
            )
        kwargs = dict(raw)
        for key in ("rate", "latency_s"):
            if isinstance(kwargs.get(key), int) and not isinstance(kwargs.get(key), bool):
                kwargs[key] = float(kwargs[key])
        try:
            rules.append(FaultRule(**kwargs))
        except FaultPlanError:
            raise
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"fault plan: rules[{i}]: {exc}") from exc
    try:
        return FaultPlan(
            name=data.get("name", ""),
            description=data.get("description", ""),
            seed=data.get("seed", 0),
            rules=tuple(rules),
        )
    except FaultPlanError:
        raise
    except (TypeError, ValueError) as exc:
        raise FaultPlanError(f"fault plan: {exc}") from exc


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read a fault-plan file (JSON)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise FaultPlanError(f"cannot read fault plan {path}: {exc}") from exc
    except ValueError as exc:
        raise FaultPlanError(
            f"fault plan {path} is not valid JSON: {exc}"
        ) from exc
    return fault_plan_from_dict(data)


# -- the ambient injector ----------------------------------------------------


class FaultInjector:
    """A plan plus its mutable, thread-safe firing state.

    One injector is shared by every thread (and asyncio task) of a run,
    so ``times``-based rules count invocations globally; ``snapshot``
    reports per-site invocation and injection counts for manifests and
    chaos-test assertions.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._fired: dict[int, int] = {}  # rule index -> times fired
        self._seen: dict[str, int] = {}  # site -> invocations
        self._injected: dict[str, int] = {}  # site -> injections
        self._rngs: dict[int, random.Random] = {}

    def _rng(self, index: int) -> random.Random:
        rng = self._rngs.get(index)
        if rng is None:
            digest = hashlib.sha256(
                f"{self.plan.seed}:{self.plan.rules[index].site}".encode()
            ).digest()
            rng = self._rngs[index] = random.Random(
                int.from_bytes(digest[:8], "big")
            )
        return rng

    def fire(self, site: str) -> str | None:
        """Consult the plan at ``site``; the caller's contract:

        * returns ``None`` — proceed normally,
        * returns a site kind (``"evict"``, ``"torn-write"``, ...) — the
          site implements that failure (see :data:`_SITE_KINDS`),
        * raises :class:`FaultInjected` — the injected failure.
        """
        matched = None
        with self._lock:
            self._seen[site] = self._seen.get(site, 0) + 1
            for index, rule in enumerate(self.plan.rules):
                if rule.site != site and not fnmatchcase(site, rule.site):
                    continue
                if rule.rate is not None:
                    if self._rng(index).random() >= rule.rate:
                        continue
                else:
                    if self._fired.get(index, 0) >= rule.times:
                        continue
                self._fired[index] = self._fired.get(index, 0) + 1
                self._injected[site] = self._injected.get(site, 0) + 1
                matched = rule
                break
        if matched is None:
            return None
        if matched.latency_s > 0:
            time.sleep(matched.latency_s)
        if matched.kind == "latency":
            return None
        if matched.kind in _SITE_KINDS:
            return matched.kind
        raise FaultInjected(
            f"{matched.message} [site={site}]", site=site
        )

    def snapshot(self) -> dict[str, Any]:
        """Per-site invocation/injection counts plus the plan identity."""
        with self._lock:
            return {
                "plan": self.plan.label(),
                "fingerprint": None if self.plan.is_empty else self.plan.fingerprint,
                "seen": dict(sorted(self._seen.items())),
                "injected": dict(sorted(self._injected.items())),
            }


_current: ContextVar[FaultInjector | None] = ContextVar(
    "repro_active_fault_injector", default=None
)


def active_injector() -> FaultInjector | None:
    """The installed injector, or ``None`` (the production default)."""
    return _current.get()


@contextmanager
def fault_context(
    plan: FaultPlan | FaultInjector | None,
) -> Iterator[FaultInjector | None]:
    """Install a fault plan (wrapped in a fresh injector) or an existing
    injector for the enclosed block.  ``None`` — or an empty plan —
    explicitly shields the block from any ambient plan."""
    if isinstance(plan, FaultPlan):
        injector = None if plan.is_empty else FaultInjector(plan)
    else:
        injector = plan
    token = _current.set(injector)
    try:
        yield injector
    finally:
        _current.reset(token)


def fault_point(site: str) -> str | None:
    """The injection hook instrumented code calls at a named site.

    With no injector installed this is one contextvar read; otherwise it
    delegates to :meth:`FaultInjector.fire` (see its contract).
    """
    injector = _current.get()
    if injector is None:
        return None
    return injector.fire(site)
