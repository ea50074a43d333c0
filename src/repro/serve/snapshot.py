"""Checksummed result-cache snapshots for ``repro-serve``.

A graceful shutdown flushes the engine's result cache to disk so the
next process starts warm instead of recomputing every popular answer.
The file is JSON with a format marker, a version, and a payload whose
every entry carries its own SHA-256 (the
:class:`~repro.integrity.ResultEnvelope` digest sealed when the value
was computed) plus its recompute provenance (``kind``, ``params``, and
any ``scenario``).  There is no whole-document checksum: the entry
digests are what the loader checks.  It is written through
:func:`repro.harness.store.durable_write`, so a crash mid-flush leaves
the previous snapshot (or nothing), never a torn one.

Loading is paranoid, but no longer all-or-nothing: structural damage —
unreadable file, invalid JSON, wrong marker, wrong version, missing
payload — still raises :class:`~repro.errors.SnapshotError` (cold
start).  *Content* damage is salvaged instead: every entry carries its
own digest, so a snapshot with one damaged entry restores the entries
that still verify and quarantines only the damaged ones (and any entry
missing its digest or provenance) —
:attr:`LoadedSnapshot.quarantined` counts them, and the server reports
the tally as ``snapshot_entries_quarantined``.  A corrupt snapshot
costs partial warmth, never correctness, and never a crash.

Cache keys are the engine's structural tuples
(``(hash, seeds)`` or ``(hash, seeds, scenario_fingerprint)`` with
``seeds`` a tuple of ``(substrate, seed)`` pairs — see
:meth:`repro.serve.queries.Query.cache_key`); they are serialised
field-by-field and rebuilt exactly, so a restored entry is hit by the
same queries that populated it.  A key whose substrate seeds no longer
match the running code simply never matches again — stale warmth ages
out, it is never served wrongly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import SnapshotError
from repro.integrity.envelope import ResultEnvelope

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "LoadedSnapshot",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_FORMAT = "repro-serve-cache"
#: Version 2: per-entry ``sha256`` digests + recompute provenance
#: (``kind``/``params``/``scenario``).  Version-1 files (no per-entry
#: digests — nothing to salvage with) are refused: one cold start at
#: upgrade time.
SNAPSHOT_VERSION = 2


def _encode_key(key: tuple) -> dict[str, Any]:
    if len(key) == 2:
        query_hash, seeds = key
        fingerprint = None
    else:
        query_hash, seeds, fingerprint = key
    return {
        "hash": query_hash,
        "seeds": [[name, seed] for name, seed in seeds],
        "fingerprint": fingerprint,
    }


def _decode_key(obj: Any) -> tuple:
    try:
        seeds = tuple((name, seed) for name, seed in obj["seeds"])
        if obj.get("fingerprint") is None:
            return (obj["hash"], seeds)
        return (obj["hash"], seeds, obj["fingerprint"])
    except (TypeError, KeyError, ValueError) as exc:
        raise SnapshotError(f"snapshot entry has a malformed key: {exc}") from exc


@dataclass(frozen=True)
class LoadedSnapshot:
    """One salvage-aware snapshot read.

    ``entries`` holds the ``(key, envelope)`` pairs that verified
    against their own digests; ``quarantined`` counts the entries that
    did not (or were structurally malformed) and were left behind.
    ``total`` is how many entries the file claimed.
    """

    entries: list[tuple[tuple, ResultEnvelope]]
    quarantined: int = 0
    total: int = 0


def save_snapshot(
    path: str | Path, entries: list[tuple[tuple, ResultEnvelope]]
) -> int:
    """Durably write the cache ``entries`` to ``path``; returns the count.

    Entries are ``(key, ResultEnvelope)`` pairs straight from
    :meth:`QueryEngine.cache_entries`, so every written entry carries
    its digest and provenance.  Raises
    :class:`~repro.errors.StoreError` if the durable write fails and
    :class:`SnapshotError` if an entry's value is not JSON-encodable
    (cached values are wire payloads, so this indicates a handler bug
    worth surfacing at flush time, not at next load).
    """
    try:
        document = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "payload": {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "entries": [
                    envelope.to_snapshot_dict(_encode_key(key))
                    for key, envelope in entries
                ],
            },
        }
        body = json.dumps(document, sort_keys=True, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"cache snapshot is not serialisable: {exc}") from exc
    from repro.harness.store import durable_write

    durable_write(Path(path), body.encode("utf-8"))
    return len(entries)


def load_snapshot(path: str | Path) -> LoadedSnapshot:
    """Read a snapshot, salvaging every entry that still verifies.

    Raises :class:`SnapshotError` for *structural* damage — unreadable
    file, invalid JSON, wrong format marker or version, no payload —
    and the caller cold-starts.  (A missing file is also a
    :class:`SnapshotError`, distinguishable by message, so call sites
    have exactly one failure path.)  *Content* damage is per-entry:
    each entry's value is re-hashed against the ``sha256`` sealed at
    flush time, and only matching entries are returned; the rest, and
    entries missing their key, digest, ``kind`` or ``params``, are
    counted in :attr:`LoadedSnapshot.quarantined`.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        document = json.loads(raw)
    except ValueError as exc:
        raise SnapshotError(f"snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SnapshotError(f"snapshot {path} is not an object")
    if document.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot {path} has format {document.get('format')!r}, "
            f"expected {SNAPSHOT_FORMAT!r}"
        )
    if document.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {path} is version {document.get('version')!r}, "
            f"this build reads {SNAPSHOT_VERSION}"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise SnapshotError(f"snapshot {path} has no payload object")
    raw_entries = payload.get("entries")
    if not isinstance(raw_entries, list):
        raise SnapshotError(f"snapshot {path} has no entries list")
    entries: list[tuple[tuple, ResultEnvelope]] = []
    quarantined = 0
    for raw_entry in raw_entries:
        try:
            key = _decode_key(raw_entry["key"])
            envelope = ResultEnvelope.from_snapshot_dict(raw_entry)
        except (SnapshotError, KeyError, TypeError, ValueError):
            quarantined += 1
            continue
        if not envelope.verify():
            quarantined += 1
            continue
        entries.append((key, envelope))
    return LoadedSnapshot(
        entries=entries, quarantined=quarantined, total=len(raw_entries)
    )
