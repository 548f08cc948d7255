"""Scalar draws of a numpy ``Generator``, served from blocks of raw PCG64 output.

A scalar ``Generator.integers`` / ``random`` / ``uniform`` call costs up to a
few microseconds of numpy dispatch for 64 bits of randomness; the annealer
makes about 17,300 of them per refine on Sycamore-53.  :class:`DrawStream`
takes the raw 64-bit outputs of the generator's PCG64 bit generator in
blocks (``random_raw``) and applies numpy's own algorithms to them in Python:

* ``integers(n)``, ``n <= 2**32`` — no draw at all for ``n == 1``, else
  Lemire's multiply-shift with rejection on 32-bit outputs, which come from
  the bit generator's ``has_uint32`` / ``uinteger`` buffer: the low half of a
  raw value first, its high half on the next call;
* ``random()`` — ``(raw >> 11) * 2**-53``, leaving the 32-bit buffer alone;
* ``uniform(lo, hi)`` — ``lo + (hi - lo) * random()``.

So a stream yields exactly the values the generator would have, call for
call.  :meth:`DrawStream.close` (or leaving the ``with`` block) puts the
generator where those calls would have left it: the saved state advanced by
the raw values consumed, with the 32-bit buffer as the stream left it, so
later draws from the generator are unchanged too.  While a stream is open
the generator itself must not be drawn from.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

__all__ = ["DrawStream"]

_MASK32 = 0xFFFFFFFF
#: raw values fetched per refill: small enough that no trial's peak memory moves
_BLOCK = 256


class DrawStream:
    """numpy-exact scalar draws from a PCG64 ``Generator``, without per-call numpy dispatch."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._bitgen = rng.bit_generator
        self._saved = state = self._bitgen.state
        self._has_uint32 = bool(state["has_uint32"])
        self._uinteger = int(state["uinteger"])
        self._raw: Iterator[int] = iter(())  # the current block's unread raw values
        self._fetched = 0

    def __enter__(self) -> "DrawStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _next64(self) -> int:
        try:
            return next(self._raw)
        except StopIteration:
            self._raw = iter(self._bitgen.random_raw(_BLOCK).tolist())
            self._fetched += _BLOCK
            return next(self._raw)

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        raw = self._next64()
        self._has_uint32 = True
        self._uinteger = raw >> 32
        return raw & _MASK32

    def integers(self, n: int) -> int:
        """``rng.integers(n)`` for ``1 <= n <= 2**32``: uniform on ``[0, n)``."""
        if n == 1:
            return 0  # a one-value range consumes nothing
        if n == 1 << 32:
            return self._next32()
        if not 1 < n < 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n}")
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (1 << 32) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def random(self) -> float:
        """``rng.random()``: uniform on ``[0, 1)`` with 53 random bits."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, lo: float, hi: float) -> float:
        """``rng.uniform(lo, hi)`` for ``lo <= hi``."""
        return lo + (hi - lo) * self.random()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Leave the generator exactly where the same numpy calls would have."""
        consumed = self._fetched - operator.length_hint(self._raw)  # a list iterator knows
        bitgen = self._bitgen
        bitgen.state = self._saved
        bitgen.advance(consumed)  # also clears the 32-bit buffer ...
        state = bitgen.state
        state["has_uint32"] = int(self._has_uint32)  # ... which the stream owns
        state["uinteger"] = self._uinteger
        bitgen.state = state
        self._saved, self._raw, self._fetched = state, iter(()), 0
