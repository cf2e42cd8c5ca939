"""The bundled workload and its generator."""

import re

import pytest
from hypothesis import given, settings, strategies as st

import synthetic_oracle
from epcsched.synthetic import (
    DEFAULT_JOBS,
    DEFAULT_MAX_DURATION_S,
    DEFAULT_SPAN_S,
    bundled_trace_path,
    load_bundled_trace,
    synthetic_trace,
)


@pytest.fixture(scope="module")
def bundled():
    return load_bundled_trace()


def test_bundled_file_matches_generator(bundled):
    """The shipped CSV is exactly what the generator emits with defaults, so
    the workload can always be regenerated from code."""
    assert bundled == synthetic_trace()


def test_generator_is_deterministic():
    assert synthetic_trace() == synthetic_trace()
    assert synthetic_trace(seed=1) != synthetic_trace(seed=2)


def test_shape(bundled):
    assert len(bundled) == DEFAULT_JOBS
    assert bundled_trace_path().name == "synthetic_trace.csv"


def test_every_job_fits_the_span(bundled):
    assert all(r.submit_s + r.duration_s <= DEFAULT_SPAN_S for r in bundled)


def test_one_job_ends_exactly_at_span(bundled):
    assert any(r.submit_s + r.duration_s == DEFAULT_SPAN_S for r in bundled)


def test_opening_seconds_are_empty(bundled):
    # room for injected time-zero jobs to win the first scheduler tick
    assert min(r.submit_s for r in bundled) >= 5.0


def test_peaks_never_exceed_requests(bundled):
    assert all(r.max_mem_frac <= r.assigned_mem_frac for r in bundled)


def test_fraction_range(bundled):
    assert all(0.0 < r.assigned_mem_frac <= 0.30 for r in bundled)


def test_durations_bounded(bundled):
    assert all(1.0 <= r.duration_s <= 300.0 for r in bundled)


def test_validation():
    with pytest.raises(ValueError):
        synthetic_trace(n_jobs=30)
    with pytest.raises(ValueError):
        synthetic_trace(span_s=100, max_duration_s=300)


# Each bound of the arguments, at the edge and one past it.
@pytest.mark.parametrize("kwargs, error", [
    ({"n_jobs": 31}, None),
    ({"n_jobs": 30}, "n_jobs"),
    ({"max_duration_s": 101}, None),
    ({"max_duration_s": 100}, "max_duration_s"),
    ({"max_duration_s": 450}, None),
    ({"max_duration_s": 451}, "max_duration_s"),
    ({"span_s": 455}, None),
    ({"span_s": 454}, "span_s"),
    ({"span_s": 455, "max_duration_s": 450}, None),
    ({"seed": 0}, None),
    ({"seed": -1}, "seed"),
    ({"seed": 2 ** 128 - 1}, None),
    ({"seed": 2 ** 128}, "seed"),
    ({"n_jobs": 60.0}, "n_jobs"),
    ({"span_s": 3600.0}, "span_s"),
    ({"max_duration_s": "300"}, "max_duration_s"),
    ({"seed": 1.5}, "seed"),
])
def test_argument_bounds(kwargs, error):
    kwargs = {"n_jobs": 60, **kwargs}
    if error is None:
        _assert_promises(synthetic_trace(**kwargs), **kwargs)
    else:
        with pytest.raises(ValueError, match=f"^{error} must "):
            synthetic_trace(**kwargs)


def _assert_promises(records, n_jobs, span_s=DEFAULT_SPAN_S,
                     max_duration_s=DEFAULT_MAX_DURATION_S, seed=None):
    """What the docstring of `synthetic_trace` promises of its records, for
    any seed."""
    assert [r.job_id for r in records] == [f"j{i:04d}" for i in range(n_jobs)]
    submits = [r.submit_s for r in records]
    assert submits == sorted(submits)
    assert min(submits) >= 5.0
    ends = [r.submit_s + r.duration_s for r in records]
    assert max(ends) == span_s
    assert all(1.0 <= r.duration_s <= max_duration_s for r in records)
    assert all(0.0 < r.max_mem_frac <= r.assigned_mem_frac <= 0.30
               for r in records)


@settings(max_examples=150, deadline=None)
@given(st.integers(-5, 120), st.integers(-10, 2_000), st.integers(-10, 700),
       st.integers(-2, 2 ** 128 + 2))
def test_any_arguments_give_a_named_error_or_kept_promises(
        n_jobs, span_s, max_duration_s, seed):
    args = {"n_jobs": n_jobs, "span_s": span_s,
            "max_duration_s": max_duration_s, "seed": seed}
    try:
        records = synthetic_trace(**args)
    except ValueError as exc:
        name = re.match(r"(\w+) must ", str(exc)).group(1)
        assert name in args
        with pytest.raises(ValueError):  # the named argument alone is out
            synthetic_trace(**{name: args[name]})
    else:
        _assert_promises(records, **args)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 128 - 1), st.integers(31, 400),
       st.integers(455, 50_000), st.integers(101, 450))
def test_records_equal_the_numpy_generators(seed, n_jobs, span_s,
                                            max_duration_s):
    args = {"n_jobs": n_jobs, "span_s": span_s,
            "max_duration_s": max_duration_s, "seed": seed}
    assert synthetic_trace(**args) == synthetic_oracle.synthetic_trace(**args)


@pytest.mark.parametrize("n_jobs, span_s, max_duration_s", [
    (700, 3600, 300), (300, 600, 120), (120, 600, 120), (4000, 20571, 300),
    (7000, 36000, 300), (70_000, 360_000, 300), (31, 455, 450),
    (500, 455, 101)])
def test_the_callers_sizes_equal_the_numpy_generators(n_jobs, span_s,
                                                      max_duration_s):
    # 70k jobs at the default seed meet at least one rejected 32-bit draw
    args = {"n_jobs": n_jobs, "span_s": span_s,
            "max_duration_s": max_duration_s}
    assert synthetic_trace(**args) == synthetic_oracle.synthetic_trace(**args)
