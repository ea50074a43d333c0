"""Deadline budgets: one monotonic time budget, propagated end to end.

A client's deadline becomes a :class:`DeadlineBudget` — an absolute
point on a monotonic clock — carried on the wire as
``X-Repro-Deadline-Ms`` (milliseconds *remaining*, re-encoded at every
hop so clock skew between processes never matters).  Every lifecycle
stage (router admission, spill attempt, worker admission, a worker
taking queued work, handler start) asks ``remaining_ms()`` and refuses
work it can no longer finish, raising
:class:`~repro.errors.DeadlineExhausted` tagged with the stage that gave
up.  That turns "a 504 after the work
was already done" into "a fast typed 504 before wasting the CPU".

The header value is the *remaining* budget, not an absolute deadline:
each hop decrements it by its own elapsed time before forwarding, so
the wire format works across processes with unsynchronised clocks.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.errors import QueryValidationError

__all__ = [
    "DEADLINE_HEADER",
    "DeadlineBudget",
    "parse_deadline_header",
    "parse_deadline_ms",
]

DEADLINE_HEADER = "X-Repro-Deadline-Ms"

# Refuse to even parse absurd budgets: anything over an hour is almost
# certainly a unit bug on the client (seconds sent as milliseconds
# would still fit; milliseconds sent as microseconds would not).
_MAX_BUDGET_MS = 3_600_000.0


class DeadlineBudget:
    """An absolute deadline on a monotonic clock, queried as remaining
    budget.  Immutable once created; cheap to pass through every layer."""

    __slots__ = ("_deadline", "_clock")

    def __init__(
        self, ms: float, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if not math.isfinite(ms) or ms <= 0:
            raise QueryValidationError(
                f"deadline budget must be a finite positive number of "
                f"milliseconds, got {ms!r}"
            )
        self._clock = clock
        self._deadline = clock() + ms / 1000.0

    def remaining_s(self) -> float:
        """Seconds left; clamped at zero."""
        return max(0.0, self._deadline - self._clock())

    def remaining_ms(self) -> float:
        return self.remaining_s() * 1000.0

    def exhausted(self, *, floor_ms: float = 0.0) -> bool:
        """True when fewer than ``floor_ms`` milliseconds remain — i.e.
        there is no point starting work that needs at least that long."""
        return self.remaining_ms() <= floor_ms

    def header_value(self) -> str:
        """The remaining budget re-encoded for the next hop (floored to
        whole milliseconds so a nearly-dead budget reads ``0``, which
        the receiving hop rejects instead of racing a lost cause)."""
        return f"{int(self.remaining_ms())}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeadlineBudget(remaining_ms={self.remaining_ms():.1f})"


def parse_deadline_ms(raw: object) -> float:
    """Validate a deadline value (header string or JSON number) into a
    positive, finite millisecond count.

    Raises :class:`~repro.errors.QueryValidationError` (→ HTTP 400) for
    NaN, infinities, non-positive values, non-numeric strings, and
    budgets beyond the one-hour sanity cap.  A malformed deadline is a
    client bug, never something to guess around.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise QueryValidationError(
            f"deadline must be a number of milliseconds, got {type(raw).__name__}"
        )
    try:
        ms = float(raw)
    except (TypeError, ValueError):
        raise QueryValidationError(
            f"deadline is not a number: {raw!r}"
        ) from None
    if math.isnan(ms):
        raise QueryValidationError("deadline is NaN")
    if not math.isfinite(ms) or ms <= 0:
        raise QueryValidationError(
            f"deadline must be a finite positive number of milliseconds, "
            f"got {ms!r}"
        )
    if ms > _MAX_BUDGET_MS:
        raise QueryValidationError(
            f"deadline {ms:.0f}ms exceeds the {_MAX_BUDGET_MS:.0f}ms cap"
        )
    return ms


def parse_deadline_header(
    raw: str | None, *, clock: Callable[[], float] = time.monotonic
) -> DeadlineBudget | None:
    """Parse an ``X-Repro-Deadline-Ms`` header into a budget.

    Absent header → ``None`` (no deadline; legacy behaviour).  A header
    that is present but invalid is a 400, except the exact value ``"0"``
    — a valid *exhausted* budget forwarded by an upstream hop, which
    parses to a budget that reports exhausted immediately so this hop
    refuses the work with a 504 rather than a 400.
    """
    if raw is None:
        return None
    text = raw.strip()
    if text == "0":
        # An upstream hop forwarded a dead budget; honour it as
        # exhausted rather than rejecting the request as malformed.
        budget = DeadlineBudget.__new__(DeadlineBudget)
        budget._clock = clock
        budget._deadline = clock()
        return budget
    ms = parse_deadline_ms(text)
    return DeadlineBudget(ms, clock=clock)
