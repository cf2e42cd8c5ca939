"""The exact stddev reference of the `spread` oracles, checked against the
definition of correct rounding and against the package's own root."""

import math
import struct
from fractions import Fraction

from hypothesis import example, given, strategies as st

from epcsched.scheduler import _sqrt_of_ratio
from stddev_oracle import exact_pstdev, sqrt_rounded

_RATIOS = st.builds(Fraction, st.integers(0, 2 ** 200), st.integers(1, 2 ** 200))
_FLOATS = st.floats(2.0 ** -300, 2.0 ** 300)


def _is_nearest(v: Fraction, r: float) -> bool:
    """Whether r is the float nearest sqrt(v), ties to even: sqrt(v) lies
    between the midpoints from r to its neighbours, and on one only if r's
    significand is even."""
    even = struct.unpack("<q", struct.pack("<d", r))[0] % 2 == 0
    below = (Fraction(r) + Fraction(math.nextafter(r, -math.inf))) / 2
    above = (Fraction(r) + Fraction(math.nextafter(r, math.inf))) / 2
    over_below = below <= 0 or below * below < v or below * below == v and even
    under_above = v < above * above or v == above * above and even
    return over_below and under_above


@given(_RATIOS)
@example(Fraction(0))
@example(Fraction(2))
@example(Fraction(1, 3))
def test_the_root_is_the_nearest_float(v):
    assert _is_nearest(v, sqrt_rounded(v))


@given(_FLOATS)
def test_the_root_of_a_float_squared_is_that_float(r):
    assert sqrt_rounded(Fraction(r) ** 2) == r


@given(_FLOATS)
@example(1.0)  # between 1 and 1 + 2**-52: the tie goes to 1
@example(1.0 + 2.0 ** -52)  # between it and 1 + 2**-51: the tie goes up
def test_a_tie_goes_to_the_even_neighbour(r):
    up = math.nextafter(r, math.inf)
    v = ((Fraction(r) + Fraction(up)) / 2) ** 2
    root = sqrt_rounded(v)
    assert root in (r, up)
    assert struct.unpack("<q", struct.pack("<d", root))[0] % 2 == 0
    assert _is_nearest(v, root)


@given(_RATIOS)
def test_the_root_is_the_package_root(v):
    assert sqrt_rounded(v) == _sqrt_of_ratio(v.numerator, v.denominator)


def test_the_stddev_is_the_root_of_the_exact_variance():
    assert exact_pstdev([0.0, 2.0]) == 1.0
    assert exact_pstdev(iter([0.5])) == 0.0
    loads = [0.1, 0.2, 0.7]
    mean = sum(map(Fraction, loads)) / 3
    var = sum((Fraction(x) - mean) ** 2 for x in loads) / 3
    assert exact_pstdev(loads) == sqrt_rounded(var)
