"""Checksummed result envelopes: what the result cache actually holds.

A :class:`ResultEnvelope` wraps one served value with the canonical
SHA-256 of its payload plus enough provenance — kind, canonical wire
params, inline scenario — to *recompute* the value if the stored copy
is ever found damaged.  The serve engine stores envelopes (never bare
values) in both the result cache and the stale store, flushes them
into warm-boot snapshots, and hands the digest to the HTTP layer as
``X-Repro-Result-Digest``.

:meth:`ResultEnvelope.verify` is the one question everything asks:
does the payload still hash to the digest computed when the value was
sealed?  ``False`` means the bytes changed since — serve nothing,
evict, recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.integrity.digest import payload_digest

__all__ = ["ResultEnvelope", "seal"]


@dataclass
class ResultEnvelope:
    """One sealed result: the value, its digest, and how to remake it.

    Deliberately *not* frozen: the ``flip`` fault kind (and the real
    corruption it models) mutates the held value in place, and the
    whole point of the digest is to catch exactly that.
    """

    value: Any
    digest: str
    kind: str
    params: dict[str, Any]
    scenario: dict[str, Any] | None = None

    def verify(self) -> bool:
        """Does the payload still match the digest sealed over it?"""
        try:
            return payload_digest(self.value) == self.digest
        except (TypeError, ValueError):
            return False  # not even encodable any more — corrupt

    def to_snapshot_dict(self, key_obj: dict[str, Any]) -> dict[str, Any]:
        """One warm-boot snapshot entry (see :mod:`repro.serve.snapshot`)."""
        entry: dict[str, Any] = {
            "key": key_obj,
            "value": self.value,
            "sha256": self.digest,
            "kind": self.kind,
            "params": self.params,
        }
        if self.scenario is not None:
            entry["scenario"] = self.scenario
        return entry

    @classmethod
    def from_snapshot_dict(cls, entry: dict[str, Any]) -> "ResultEnvelope":
        """Rebuild from a snapshot entry *without* verifying — the
        loader decides what to do with a failing :meth:`verify`.

        Raises ``KeyError``, ``TypeError`` or ``ValueError`` for an
        entry missing its value, digest or provenance."""
        return cls(
            value=entry["value"],
            digest=str(entry["sha256"]),
            kind=str(entry["kind"]),
            params=dict(entry["params"]),
            scenario=entry.get("scenario"),
        )


def seal(
    value: Any,
    *,
    kind: str,
    params: dict[str, Any],
    scenario: dict[str, Any] | None = None,
) -> ResultEnvelope:
    """Seal a freshly computed value into an envelope.

    The digest is computed here, once, at the only moment the value is
    known good — immediately after its evaluation passed the answer
    invariants.  Raises ``TypeError`` if the value is not
    JSON-encodable (a handler-contract bug, surfaced at seal time).
    """
    return ResultEnvelope(
        value=value,
        digest=payload_digest(value),
        kind=kind,
        params=dict(params),
        scenario=scenario,
    )
