"""The package's one Philox4x64-10 and its stream, against numpy's.

These one-line mutants of `src/epcsched/_philox.py` each fail a test here:
- the held half dropped: `self._half = None` at the end of `integers`;
- the high half first: `_halves` swaps each pair on a little-endian host;
- the rejection test `<` -> `<=`: `while m & _MASK32 <= threshold`;
- the counter starting at 0: `self._next = 0` in `Stream.__init__`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epcsched._philox import Philox, Stream

KEYS = [0, 1, 140051, 2 ** 64 - 1, 2 ** 64, 2 ** 100 + 3, 2 ** 128 - 1]


def _numpy(key):
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("lanes, first", [(1, 1), (3, 1), (256, 1),
                                          (5, 1_000), (2, 2 ** 40)])
def test_blocks_are_numpys_raw_words(key, lanes, first):
    bitgen = np.random.Philox(key=key, counter=[first - 1, 0, 0, 0])
    assert Philox(key, lanes).blocks(first).tolist() == (
        bitgen.random_raw(4 * lanes).tolist())


def _draw(source, op):
    """One operation on a `Stream` or a numpy `Generator`, as plain ints or
    floats."""
    kind, *args = op
    if isinstance(source, Stream):
        if kind == "integers":
            lo, highs = args
            return source.integers(lo, highs)
        return getattr(source, kind)(*args)
    if kind == "integers":
        lo, highs = args
        return source.integers(lo, np.array(highs, dtype=np.int64)).tolist()
    if kind == "random":
        return source.random(*args).tolist()
    lo, hi, n = args
    return source.uniform(lo, hi, n).tolist()


def _assert_same_draws(key, ops):
    stream, gen = Stream(key), _numpy(key)
    for op in ops:
        assert _draw(stream, op) == _draw(gen, op), op


@pytest.mark.parametrize("key", KEYS)
def test_a_draw_whose_low_bits_equal_the_threshold_is_kept(key):
    # a power-of-two span has threshold 0, and an even draw's low bits are 0
    # for span 2**31: such a draw is kept, never redrawn
    _assert_same_draws(key, [("integers", 0, [2 ** 31] * 64),
                             ("integers", 0, [2 ** 16] * 64)])


@pytest.mark.parametrize("key", KEYS)
def test_a_held_half_outlives_whole_word_draws(key):
    # three 32-bit draws hold the high half of the second word; the whole
    # words drawn next leave it held, and the next 32-bit draw takes it
    _assert_same_draws(key, [
        ("integers", 5, [100, 7, 3_000]),
        ("random", 3),
        ("uniform", 0.6, 1.0, 2),
        ("integers", -4, [9]),
        ("integers", 0, [2, 2, 2, 2, 2]),
        ("random", 1),
        ("integers", 0, [1 << 32] * 3),
    ])


@pytest.mark.parametrize("key", KEYS)
def test_wide_ranges_reject_about_half_the_draws(key):
    # Lemire's method rejects a 32-bit draw with probability
    # (2**32 % span) / 2**32, about 1/2 just above 2**31
    spans = [2 ** 31 + 1, 2 ** 31 + 3, 2 ** 31 + 2 ** 20, 3 * 2 ** 30]
    _assert_same_draws(key, [
        ("integers", 10, [10 + spans[i % 4] for i in range(301)]),
        ("random", 5),
        ("integers", 0, [2 ** 31 + 1] * 200),
    ])


@pytest.mark.parametrize("key", KEYS)
def test_an_empty_span_draws_nothing(key):
    _assert_same_draws(key, [
        ("integers", 3, [4, 4, 9, 4]),
        ("integers", 3, [4]),
        ("integers", 3, []),
        ("integers", 3, [1_000]),
    ])


_OPS = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 9)),
    st.tuples(st.just("uniform"), st.floats(-10, 10), st.floats(10, 30),
              st.integers(0, 9)),
    st.integers(-2 ** 40, 2 ** 40).flatmap(lambda lo: st.tuples(
        st.just("integers"), st.just(lo),
        st.lists(st.integers(1, 2 ** 32).map(lambda span: lo + span),
                 max_size=9))),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 128 - 1), st.lists(_OPS, max_size=12))
def test_any_sequence_of_draws_is_numpys(key, ops):
    _assert_same_draws(key, ops)


def test_a_range_numpy_draws_otherwise_is_refused():
    stream = Stream(0)
    with pytest.raises(ValueError, match="1 to 2"):
        stream.integers(5, [5])
    with pytest.raises(ValueError, match="1 to 2"):
        stream.integers(0, [2 ** 32 + 1])
