"""Typed what-if queries: dataclass params, canonical hashing, registry.

A *query* is a kind name plus a validated params dataclass.  Two
queries that mean the same thing — whatever the field order or default
elision on the wire — canonicalise to the same SHA-256
(:func:`canonical_hash`), which is what the serving engine coalesces
and caches on.  The registry maps each kind to one **pure** evaluator
(params in, JSON-encodable answer out; all shared state flows through
the substrate cache), so an answer is a function of the canonical hash
plus the governing substrate seeds — the engine's cache key.

A batchable kind's one evaluator is its batch handler, over a *batch
axis*: queries identical everywhere except that one scalar field
collapse into a single vectorised evaluation (see
:mod:`repro.serve.engine`), and a solo query is a batch of one.

A query may carry a :class:`~repro.scenario.spec.ScenarioSpec` overlay:
the engine evaluates it under :func:`repro.scenario.scenario_context`,
and the scenario's fingerprint joins the cache key and batch group —
baseline queries keep the exact pre-scenario key shape, overlay queries
never share entries with the baseline or with other overlays.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import QueryValidationError
from repro.harness.pipeline import SUBSTRATES
from repro.scenario.context import scenario_context
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "QueryKind",
    "QueryRegistry",
    "Query",
    "canonical_params",
    "canonical_hash",
]


def canonical_params(params: Any) -> dict[str, Any]:
    """A query's params as a plain dict with non-finite floats encoded.

    JSON has no ``Infinity``; an infinite ME speedup (the paper's
    idealised engine) canonicalises to the string ``"inf"`` — the same
    spelling :func:`repro.harness.export.to_jsonable` uses — so wire
    payloads and in-process dataclasses hash identically.
    """
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        raw = dataclasses.asdict(params)
    elif isinstance(params, dict):
        raw = dict(params)
    else:
        raise QueryValidationError(
            f"params must be a dataclass or dict, got {type(params).__name__}"
        )
    out: dict[str, Any] = {}
    for key, value in raw.items():
        if isinstance(value, float):
            if math.isinf(value):
                value = "inf" if value > 0 else "-inf"
            elif math.isnan(value):
                raise QueryValidationError(f"param {key!r} is NaN")
        out[str(key)] = value
    return out


def canonical_hash(kind: str, params: Any) -> str:
    """SHA-256 of the canonical (kind, params) encoding."""
    return _hash_canonical(kind, canonical_params(params))


def _hash_canonical(kind: str, canonical: dict[str, Any]) -> str:
    """SHA-256 of ``kind`` plus params already in canonical form."""
    payload = {"kind": kind, "params": canonical}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class QueryKind:
    """One registered query type, with exactly one evaluator.

    An unbatchable kind registers ``handler``, which answers a single
    params instance.  A batchable kind registers ``batch_handler``
    instead, plus the ``batch_axis`` naming the scalar field its queries
    may differ in: it receives one representative params instance and
    the distinct axis values and returns ``{axis_value: answer}``.  Its
    ``handler`` is derived, a batch of one, so ``handler(params)``
    answers one params instance for every kind.  ``substrates`` names
    the pipeline substrates the answer depends on; their seeds join the
    result-cache key.
    """

    name: str
    params_type: type
    description: str
    handler: Callable[[Any], Any] | None = None
    substrates: tuple[str, ...] = ()
    batch_axis: str | None = None
    batch_handler: Callable[[Any, tuple[Any, ...]], dict[Any, Any]] | None = None

    def __post_init__(self) -> None:
        if (self.handler is None) == (self.batch_handler is None):
            raise ValueError(
                f"{self.name}: register exactly one of handler and "
                f"batch_handler"
            )
        if (self.batch_axis is None) != (self.batch_handler is None):
            raise ValueError(
                f"{self.name}: batch_axis is given if and only if "
                f"batch_handler is"
            )
        if self.handler is None:
            batch, axis = self.batch_handler, self.batch_axis

            def batch_of_one(params: Any) -> Any:
                value = getattr(params, axis)
                return batch(params, (value,))[value]

            object.__setattr__(self, "handler", batch_of_one)

    def build_params(self, raw: dict[str, Any] | None) -> Any:
        """Construct + validate the params dataclass from wire input.

        Float-typed fields are coerced from ints and from the canonical
        ``"inf"``/``"-inf"`` strings, so ``{"speedup": 4}``,
        ``{"speedup": 4.0}``, and a round-tripped canonical params dict
        all build — and hash — identically.
        """
        raw = dict(raw or {})
        fields = {f.name for f in dataclasses.fields(self.params_type)}
        unknown = sorted(set(raw) - fields)
        if unknown:
            raise QueryValidationError(
                f"{self.name}: unknown parameter {unknown[0]!r}; "
                f"accepts {sorted(fields)}"
            )
        for f in dataclasses.fields(self.params_type):
            if f.name not in raw or f.type not in ("float", float):
                continue
            value = raw[f.name]
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                raw[f.name] = float(value)
            elif isinstance(value, str):
                try:
                    raw[f.name] = float(value)
                except ValueError:
                    pass  # leave it for the dataclass to reject
        try:
            return self.params_type(**raw)
        except QueryValidationError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            # AttributeError covers wrong-typed values hitting methods
            # inside __post_init__ validators (e.g. an int where a
            # device name belongs) — still the caller's bad input.
            raise QueryValidationError(f"{self.name}: {exc}") from exc

    def substrate_seeds(self) -> tuple[tuple[str, int | None], ...]:
        """(substrate, seed) pairs governing this kind's answers."""
        return tuple(
            (name, SUBSTRATES[name].seed if name in SUBSTRATES else None)
            for name in self.substrates
        )


@dataclass(frozen=True)
class Query:
    """A validated, canonically-hashable unit of work.

    ``canonical`` is :func:`canonical_params` of ``params``, computed
    once by :meth:`QueryRegistry.build`: the wire params every response,
    answer check, and sealed envelope carries.  ``scenario`` is ``None``
    for baseline queries (non-empty specs only are stored — the registry
    normalises an empty spec to ``None``), so a baseline query's cache
    key and batch group are byte-identical to the pre-scenario wire
    protocol.
    """

    kind: QueryKind
    params: Any
    hash: str
    canonical: dict[str, Any] = field(compare=False)
    scenario: ScenarioSpec | None = None

    @property
    def cache_key(self) -> tuple:
        """Result-cache key: canonical hash + governing substrate seeds,
        plus the scenario fingerprint for overlay queries (whose seed
        components also honour the scenario's seed overrides)."""
        seeds = self.kind.substrate_seeds()
        if self.scenario is None:
            return (self.hash, seeds)
        overrides = self.scenario.substrate_seeds
        seeds = tuple(
            (name, overrides.get(name, seed)) for name, seed in seeds
        )
        return (self.hash, seeds, self.scenario.fingerprint)

    def batch_group(self) -> tuple | None:
        """Group key for micro-batching: the canonical hash of this query
        with its batch-axis field removed (scenario fingerprint included
        for overlay queries — a batch evaluates under one scenario).
        ``None`` for unbatchable kinds."""
        axis = self.kind.batch_axis
        if axis is None:
            return None
        rest = {k: v for k, v in self.canonical.items() if k != axis}
        group_hash = _hash_canonical(f"{self.kind.name}@batch", rest)
        if self.scenario is None:
            return (self.kind.name, group_hash)
        return (self.kind.name, group_hash, self.scenario.fingerprint)


class QueryRegistry:
    """Name -> :class:`QueryKind` mapping with wire-level construction."""

    def __init__(self, kinds: tuple[QueryKind, ...] = ()) -> None:
        self._kinds: dict[str, QueryKind] = {}
        for kind in kinds:
            self.register(kind)

    def register(self, kind: QueryKind) -> QueryKind:
        if kind.name in self._kinds:
            raise ValueError(f"query kind {kind.name!r} already registered")
        self._kinds[kind.name] = kind
        return kind

    def get(self, name: str) -> QueryKind:
        try:
            return self._kinds[name]
        except KeyError:
            raise QueryValidationError(
                f"unknown query kind {name!r}; known: {sorted(self._kinds)}"
            ) from None

    def build(
        self,
        name: str,
        params: dict[str, Any] | None = None,
        scenario: ScenarioSpec | None = None,
    ) -> Query:
        """Validate wire input into a hashable :class:`Query`.

        Params build *under* the scenario overlay: a query naming an
        overlay-only device or machine validates exactly when its
        scenario defines it.  An empty scenario normalises to ``None``.
        """
        kind = self.get(name)
        if scenario is not None and scenario.is_empty:
            scenario = None
        with scenario_context(scenario):
            built = kind.build_params(params)
        canonical = canonical_params(built)
        return Query(
            kind=kind,
            params=built,
            hash=_hash_canonical(name, canonical),
            canonical=canonical,
            scenario=scenario,
        )

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._kinds))

    def describe(self) -> dict[str, Any]:
        """JSON-encodable listing of every kind and its param schema —
        the ``/kinds`` endpoint payload."""
        out: dict[str, Any] = {}
        for name in self.names():
            kind = self._kinds[name]
            out[name] = {
                "description": kind.description,
                "batch_axis": kind.batch_axis,
                "substrates": list(kind.substrates),
                "params": {
                    f.name: {
                        "type": getattr(f.type, "__name__", str(f.type)),
                        "default": (
                            None
                            if f.default is dataclasses.MISSING
                            else ("inf" if isinstance(f.default, float)
                                  and math.isinf(f.default) else f.default)
                        ),
                        "required": f.default is dataclasses.MISSING
                        and f.default_factory is dataclasses.MISSING,
                    }
                    for f in dataclasses.fields(kind.params_type)
                },
            }
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def __len__(self) -> int:
        return len(self._kinds)
