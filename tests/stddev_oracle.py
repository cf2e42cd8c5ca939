"""The population stddev `spread` scores by, computed exactly: the square
root of the exact variance, correctly rounded to a float (to nearest, ties
to even).

`statistics.pstdev` gives this value from Python 3.11 on; on 3.10 it
takes the root of the variance rounded to a float, which can land an ulp
away, so the `spread` oracles use this reference instead.  It is built
from `Fraction` and `math.isqrt` alone, and rounds by integer arithmetic
on the root's bits, not by the package's round-to-odd float conversion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

_BITS = 54  # a float's significand and one rounding bit


def sqrt_rounded(v: Fraction) -> float:
    """sqrt(v) correctly rounded to a float, for a normal result."""
    p, q = v.numerator, v.denominator
    if p == 0:
        return 0.0
    # root = floor(sqrt(v) * 2**k), with k chosen so root has _BITS bits.
    k = 0
    while True:
        num, den = (p << 2 * k, q) if k >= 0 else (p, q << -2 * k)
        root = math.isqrt(num // den)
        if root.bit_length() == _BITS:
            break
        k += _BITS - root.bit_length()
    significand, half = root >> 1, root & 1
    sticky = root * root * den != num
    if half and (sticky or significand & 1):
        significand += 1
    return math.ldexp(significand, 1 - k)


def exact_pstdev(values: Iterable[float]) -> float:
    """The population stddev of `values`, correctly rounded."""
    exact = [Fraction(x) for x in values]
    mean = sum(exact) / len(exact)
    return sqrt_rounded(sum((x - mean) ** 2 for x in exact) / len(exact))
