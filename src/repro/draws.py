"""Bulk reader of a seeded NumPy stream, exact draw for draw.

A seeded generator that makes thousands of scalar draws pays NumPy's
per-call bookkeeping on each one, which for ``choice(4, size=2,
replace=False)`` is many times the cost of the draw itself.  Where the
draw stream is pinned — by golden artefacts, say — the draws cannot be
batched into arrays, because every later value depends on the order.
:class:`Draws` keeps the order and drops the per-call cost: it reads
the bit generator's raw 64-bit words in chunks and reproduces, value
for value, what :class:`numpy.random.Generator` returns for
``random()``, ``integers(low, high)`` and ``choice(n, size,
replace=False)``, including Lemire's bounded-integer rejection
(arXiv 1805.10941).

The reader follows the PCG64 convention NumPy's C code keeps: a 32-bit
draw takes the low half of a fresh word and buffers the high half for
the next 32-bit draw, while a double takes a whole fresh word and
leaves the buffered half in place.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

__all__ = ["Draws"]

_MASK32 = 0xFFFFFFFF


class Draws:
    """Takes over ``rng`` and returns the draws it would have returned.

    The reader captures the generator's buffered 32-bit half-word at
    construction and from then on reads ahead of the stream in chunks
    of raw words.  The generator must not be drawn from again: its
    state lies past the reader's last draw, which is also why reading
    unused words is harmless.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        state = bitgen.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        # Raw words as Python ints, 4096 (32 KiB) per NumPy call.
        self._word = chain.from_iterable(
            map(lambda n: bitgen.random_raw(n).tolist(), repeat(4096))
        ).__next__

    def random(self) -> float:
        """``Generator.random()``: 53 random bits of a fresh word."""
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: uniform on ``[low, high)``."""
        span = high - low
        if not 1 < span <= _MASK32:
            if span == 1:
                return low  # a single value draws nothing
            if span == _MASK32 + 1:
                return low + self._next32()
            raise ValueError(
                f"integers({low}, {high}): need 1 <= range <= 2**32"
            )
        # _next32, inlined: this is the hot path.
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            m = (word & _MASK32) * span
        else:
            self._half = None
            m = half * span
        if (m & _MASK32) < span:
            # Lemire's rejection: redraw while the low half falls under
            # 2**32 mod span, the values that would bias the result.
            threshold = (1 << 32) % span
            while (m & _MASK32) < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def choice(self, n: int, size: int) -> list[int]:
        """``Generator.choice(n, size, replace=False)`` as a list.

        NumPy draws such a sample by Floyd's algorithm and then
        shuffles it, except for a large sample of a large population
        (``n > 10000`` and ``size > n // 50``), which it draws by a
        partial shuffle of the whole range; that regime raises here.
        """
        if not (
            0 <= size <= n <= _MASK32 + 1 and (n <= 10000 or size <= n // 50)
        ):
            raise ValueError(
                f"choice({n}, {size}) is outside Floyd's regime: need "
                "0 <= size <= n <= 2**32, and size <= n // 50 past n = 10000"
            )
        integers = self.integers
        picked: list[int] = []
        seen: set[int] = set()
        for j in range(n - size, n):
            t = integers(0, j + 1)
            if t in seen:
                t = j
            seen.add(t)
            picked.append(t)
        for i in range(size - 1, 0, -1):
            j = integers(0, i + 1)
            picked[i], picked[j] = picked[j], picked[i]
        return picked

    def _next32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half
