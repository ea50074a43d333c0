"""End-to-end result integrity: nothing corrupted is ever served.

The serve stack already survives crashes, slow shards, and overload;
this package defends the *answers themselves* against silent data
corruption — a flipped bit in an LRU entry, a damaged snapshot, a
faulted handler — the worst failure mode for a system whose product is
numeric claims.  Three independent layers, each catching what the
previous one cannot:

* **ABFT-style kernel invariants**
  (:func:`~repro.integrity.invariants.verify_sweep_result`) — cheap
  algebraic self-checks over every :class:`~repro.analysis.SweepGrid`
  evaluation (accumulation checksums, consumed-fraction bounds,
  monotonicity in speedup), run after each kernel pass.  Catches
  corruption *inside* a computation.

* **Answer invariants**
  (:func:`~repro.integrity.answers.verify_answer`) — per-kind algebraic
  redundancy checks over handler answers (cross-field identities, echo
  consistency with the query params), run on every evaluation before
  the result is sealed.  Catches plausible-but-wrong values produced
  *before* any checksum exists — the ``wrong-answer`` fault kind.

* **Checksummed result envelopes**
  (:class:`~repro.integrity.envelope.ResultEnvelope`) — every cached or
  snapshotted result carries a canonical SHA-256 of its payload,
  verified every time it leaves a cache (a hit, or a stale/degraded
  answer) and once per entry when a snapshot is loaded, and exposed
  on the wire as ``X-Repro-Result-Digest`` so clients and the cluster
  router can re-verify.  Catches corruption *at rest and in transit* —
  the ``flip`` fault kind.

All violations raise the typed
:class:`~repro.errors.IntegrityError`; the serve engine's response is
always the same — never serve the value, recompute it.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "bytes_digest": "repro.integrity.digest",
    "payload_digest": "repro.integrity.digest",
    "corrupt_payload": "repro.integrity.digest",
    "perturb_answer": "repro.integrity.digest",
    "ResultEnvelope": "repro.integrity.envelope",
    "seal": "repro.integrity.envelope",
    "verify_answer": "repro.integrity.answers",
    "verify_sweep_result": "repro.integrity.invariants",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
