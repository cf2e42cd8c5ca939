"""The bundled workload and its generator."""

import pytest

from epcsched.synthetic import (
    DEFAULT_JOBS,
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
