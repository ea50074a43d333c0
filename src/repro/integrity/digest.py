"""Canonical payload digests plus the fault-kind corruption helpers.

:func:`payload_digest` is the one canonical digest: SHA-256 over the
canonical JSON encoding (sorted keys, no whitespace).  It seals served
values (the result-cache envelopes, the warm-boot snapshot entries, the
``X-Repro-Result-Digest`` wire header, the cluster router's reply
verification) and computes the query hashes
(:func:`repro.serve.queries.canonical_hash`) and the scenario and
fault-plan fingerprints, so any layer can recompute and compare it.
Raw bytes (the durable store's file checksums, the manifests'
``text_sha256``) hash through :func:`bytes_digest`.

:func:`corrupt_payload` and :func:`perturb_answer` implement the
``flip`` and ``wrong-answer`` fault kinds — they exist so chaos tests
can *prove* the defense works, and are deliberately different attacks:

* ``corrupt_payload`` models a flipped bit at rest (after the checksum
  was computed) — any change at all, even an implausible one, because
  a memory fault does not aim.  Detected by digest verification.
* ``perturb_answer`` models a miscomputation (before any checksum
  exists) — every numeric field scaled by a factor small enough to look
  plausible, so digest checks pass and only the algebraic answer
  invariants can catch it.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

__all__ = ["bytes_digest", "payload_digest", "corrupt_payload", "perturb_answer"]

#: The ``wrong-answer`` scale factor: 0.5 % off — small enough that the
#: damaged value passes every range check, large enough to be miles
#: outside floating-point noise for the invariant tolerances.
PERTURB_FACTOR = 1.005


def bytes_digest(data: bytes) -> str:
    """Hex SHA-256 of a byte string — the one hash primitive every
    integrity layer (envelopes, snapshots, the durable store's file
    audit) shares."""
    return hashlib.sha256(data).hexdigest()


def payload_digest(payload: Any) -> str:
    """Canonical SHA-256 of a JSON-encodable payload.

    Raises ``TypeError`` for non-encodable input — a cached value that
    cannot be encoded is a handler bug worth surfacing at seal time.
    """
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return bytes_digest(encoded.encode("utf-8"))


def _first_mutable_leaf(value: Any) -> tuple[Any, Any] | None:
    """Depth-first search for a ``(container, key)`` whose slot holds a
    scalar leaf we can damage in place (deterministic: dict keys in
    sorted order, lists front to back)."""
    stack = [value]
    while stack:
        node = stack.pop(0)
        if isinstance(node, dict):
            for key in sorted(node, key=str):
                child = node[key]
                if isinstance(child, (dict, list)):
                    stack.append(child)
                elif child is not None:
                    return (node, key)
        elif isinstance(node, list):
            for i, child in enumerate(node):
                if isinstance(child, (dict, list)):
                    stack.append(child)
                elif child is not None:
                    return (node, i)
    return None


def _flip_scalar(leaf: Any) -> Any:
    """One damaged scalar: a low-bit flip for numbers, a corrupted
    character for strings, an inversion for bools."""
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, int):
        return leaf ^ 1
    if isinstance(leaf, float):
        if leaf == 0.0 or math.isinf(leaf) or math.isnan(leaf):
            return 1.0
        # Flip the lowest mantissa bit of the IEEE-754 encoding.
        import struct

        bits = struct.unpack("<Q", struct.pack("<d", leaf))[0]
        return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]
    if isinstance(leaf, str):
        if not leaf:
            return "\x00"
        return chr(ord(leaf[0]) ^ 1) + leaf[1:]
    return None


def corrupt_payload(value: Any) -> Any:
    """The ``flip`` fault: damage one leaf of ``value`` *in place*.

    Mutates and returns ``value`` (containers share identity with every
    cache holding them — exactly how real in-memory corruption behaves).
    Scalars and empty containers are returned replaced, since there is
    nothing to mutate in place.
    """
    found = _first_mutable_leaf(value)
    if found is None:
        return _flip_scalar(value)
    container, key = found
    container[key] = _flip_scalar(container[key])
    return value


def perturb_answer(value: Any) -> Any:
    """The ``wrong-answer`` fault: every finite numeric leaf scaled by
    :data:`PERTURB_FACTOR` — a new, plausibly-shaped answer (bools,
    strings, the canonical ``"inf"`` spellings, and zeros survive, so
    the result passes range and shape checks).  Returns a fresh
    structure; the genuine answer is not mutated."""
    if isinstance(value, bool) or isinstance(value, int):
        return value  # perturbing an int would change its type: implausible
    if isinstance(value, float):
        if value == 0.0 or not math.isfinite(value):
            return value
        return value * PERTURB_FACTOR
    if isinstance(value, dict):
        return {k: perturb_answer(v) for k, v in value.items()}
    if isinstance(value, list):
        return [perturb_answer(v) for v in value]
    return value
