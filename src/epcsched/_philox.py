"""Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11) and the numpy-exact draws the package makes from it: `Philox`
computes blocks, many counters at once, and `Stream` draws from them as
`numpy.random.Generator(numpy.random.Philox(key=key))` does.  It imports
only the standard library.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable

# the two round multipliers and the two key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _lanes(words: array) -> int:
    """The 64-bit words as one int, word k at bits [64k, 64k + 64)."""
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _words(lanes: int, count: int) -> array:
    """The inverse of `_lanes`: the int's first `count` 64-bit words."""
    words = array("Q", lanes.to_bytes(8 * count, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _halves(words: array) -> array:
    """Each word's low 32 bits, then its high 32 bits."""
    halves = array("I", words.tobytes())
    if sys.byteorder == "big":  # there a word's high half comes first
        halves[::2], halves[1::2] = halves[1::2], halves[::2]
    return halves


def doubles(words: Iterable[int]) -> list[float]:
    """numpy's double of each 64-bit word, (w >> 11) * 2**-53, in [0, 1):
    the product is exact, since w >> 11 is below 2**53."""
    return [(w >> 11) * 2 ** -53 for w in words]


class Philox:
    """Philox4x64-10 under one 128-bit key, `lanes` counters per call.

    Counters are independent, so `lanes` of them run together.  Words 0
    and 2 of the counters are one int each, counter j's word in the low
    half of the int's 128-bit lane j; words 1 and 3 are the low halves of
    the previous round's two products.  The exactness argument, per round:
    a lane holds a value below 2**64, so its product with a 64-bit
    multiplier is below 2**128 and never carries into the next lane.
    Shifting a product right by 64 puts each lane's high word in its low
    half and the next lane's low word in its high half.  XORing the other
    product of the previous round and the key, replicated in every lane,
    leaves each low half as Philox computes it, and the mask then clears
    every high half.
    """

    def __init__(self, key: int, lanes: int):
        self.lanes = lanes
        ones = _lanes(array("Q", (1, 0)) * lanes)  # 1 in every lane
        ramp = array("Q", bytes(16 * lanes))
        ramp[::2] = array("Q", range(lanes))
        self._ones, self._ramp = ones, _lanes(ramp)  # j in lane j
        self._low = ones * _MASK64
        k0, k1 = key & _MASK64, key >> 64
        self._round_keys = []
        for _ in range(_ROUNDS):
            self._round_keys.append((ones * k0, ones * k1))
            k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64

    def blocks(self, first: int) -> array:
        """The four words of the blocks at counters first, first + 1, ...,
        first + lanes - 1, block by block: word k of block j at 4j + k."""
        low = self._low
        # word 0 of lane j is counter first + j, and words 1 to 3 are 0;
        # p0 and p2 are the previous round's products, whose low words are
        # words 3 and 1
        x0, x2, p0, p2 = first * self._ones + self._ramp, 0, 0, 0
        for key0, key1 in self._round_keys:
            q0, q2 = x0 * _M0, x2 * _M1
            x0 = ((q2 >> 64) ^ p2 ^ key0) & low
            x2 = ((q0 >> 64) ^ p0 ^ key1) & low
            p0, p2 = q0, q2
        count = 2 * self.lanes
        words = array("Q", bytes(32 * self.lanes))
        for k, lane in enumerate((x0, p2 & low, x2, p0 & low)):
            words[k::4] = _words(lane, count)[::2]
        return words


_STREAM_LANES = 256  # counters per refill of a stream's words


class Stream:
    """The draws of `numpy.random.Generator(numpy.random.Philox(key=key))`.

    Why each draw is numpy's (numpy's `philox.h` and `distributions.c`):
    - numpy's Philox starts at counter 0 and adds 1 before each block, so
      the blocks are those at counters 1, 2, ..., and it hands out all four
      words of a block in order before the next.
    - `random` is `next_double`, `doubles` of the next word.
    - `uniform(lo, hi)` is `random_uniform`, `lo + (hi - lo) * u`, with
      `hi - lo` rounded once, as `Generator.uniform` computes it.
    - `integers(lo, highs)` is `random_bounded_uint64` for the inclusive
      range rng = high - 1 - lo, below 2**32: no draw when rng is 0, else
      Lemire's method on 32-bit draws (`buffered_bounded_lemire_uint32`):
      m = h * (rng + 1), rejected while its low 32 bits fall below
      2**32 % (rng + 1), tested only once they fall below rng + 1, and
      the draw is m >> 32.  A 32-bit draw (`philox_next32`) is the low half
      of the next word; the high half is held for the next 32-bit draw, in
      this call or a later one.  `random` and `uniform` draw whole words
      and leave a held half as it is.
    """

    def __init__(self, key: int):
        self._philox = Philox(key, _STREAM_LANES)
        self._next = 1  # the counter of the next block
        self._rest = array("Q")  # the words of computed blocks not yet drawn
        self._half: int | None = None  # the held high half of a word

    def _take(self, n: int) -> array:
        """The next n words."""
        words = self._rest
        while len(words) < n:
            words += self._philox.blocks(self._next)
            self._next += self._philox.lanes
        self._rest = words[n:]
        return words[:n]

    def random(self, n: int) -> list[float]:
        """n draws of numpy's `random()`, in [0, 1)."""
        return doubles(self._take(n))

    def uniform(self, lo: float, hi: float, n: int) -> list[float]:
        """n draws of numpy's `uniform(lo, hi)`."""
        width = hi - lo
        return [lo + width * u for u in self.random(n)]

    def integers(self, lo: int, highs: Iterable[int]) -> list[int]:
        """numpy's `integers(lo, highs)`: one draw in [lo, high) for each
        high, in order."""
        spans = [high - lo for high in highs]  # rng + 1
        if spans and not (0 < min(spans) and max(spans) <= 1 << 32):
            raise ValueError("each range must hold 1 to 2**32 integers")
        draws = sum(span > 1 for span in spans)
        halves = array("I", () if self._half is None else (self._half,))
        halves += _halves(self._take((draws - len(halves) + 1) // 2))
        # halves beyond one per draw: 0 or 1, and a rejection uses one
        surplus = len(halves) - draws
        out = []
        i = 0
        for span in spans:
            if span == 1:
                out.append(lo)
                continue
            m = halves[i] * span
            i += 1
            if m & _MASK32 < span:
                threshold = (1 << 32) % span
                while m & _MASK32 < threshold:
                    if not surplus:
                        halves += _halves(self._take(1))
                        surplus = 2
                    surplus -= 1
                    m = halves[i] * span
                    i += 1
            out.append(lo + (m >> 32))
        # a half left over is the high half of the last word taken
        self._half = halves[-1] if surplus else None
        return out
