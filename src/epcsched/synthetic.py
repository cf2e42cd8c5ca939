"""Bundled synthetic workload.

Shaped like the production traces the replayer targets: most jobs ask for a
small slice of their machine (the mass sits at the low end of the memory
fractions), run for at most five minutes, and arrive spread over one hour,
with a thicker burst of mid-size jobs near the end of the window so capacity
differences stay visible all the way to the last submissions.  Peak usage
never exceeds the request, so the workload is honest about its declarations.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from ._csvio import gc_paused
from ._philox import Stream
from .trace import RawJobRecord, parse_canonical_csv

BUNDLED_TRACE = "synthetic_trace.csv"

DEFAULT_JOBS = 700
DEFAULT_SPAN_S = 3600
DEFAULT_MAX_DURATION_S = 300
DEFAULT_SEED = 140051

# The memory fractions: the body's span, and the crunch jobs' uniform range.
_FRAC_FLOOR, _FRAC_CAP = 0.004, 0.30
_CRUNCH_FRAC_LO, _CRUNCH_FRAC_HI = 0.06, 0.20
_CRUNCH_JOBS = 30  # the final jobs, in the window's last few minutes
_OPENING_S = 5  # no submission before this second
# A crunch job runs for max_duration_s less up to this many seconds, and is
# submitted in the window's last this many seconds.
_CRUNCH_SHORTFALL_S, _CRUNCH_WINDOW_S = 100, 450


@gc_paused
def synthetic_trace(n_jobs: int = DEFAULT_JOBS,
                    span_s: int = DEFAULT_SPAN_S,
                    max_duration_s: int = DEFAULT_MAX_DURATION_S,
                    seed: int = DEFAULT_SEED) -> list[RawJobRecord]:
    """Generate the synthetic workload; identical arguments give identical
    records.

    Every job satisfies submit + duration <= span_s (one crunch job ends
    exactly at span_s, so an uncontended replay finishes right at the nominal
    end) and max_mem_frac never exceeds assigned_mem_frac.  Submissions leave
    the opening seconds empty (every submit is at least 5 s), so injected
    time-zero jobs always reach the cluster before any trace job.  Durations
    lie in [1, max_duration_s].  The final 30 jobs land in the last few
    minutes of the window with mid-range memory fractions.

    The arguments are ints with n_jobs > 30, 101 <= max_duration_s <= 450,
    span_s >= 455 and 0 <= seed < 2**128; otherwise a ValueError names the
    argument.  The bounds come from the draws: a crunch job's duration d
    lies in [max_duration_s - 100, max_duration_s] and must be >= 1, and
    its submit lies in [span_s - 450, span_s - d], which must be non-empty
    and >= 5.  A body job's submit lies in [5, span_s - d], non-empty since
    its d <= max_duration_s.

    The draws are those of `numpy.random.Generator(numpy.random.Philox(
    key=seed))`, from the package's own stream, so generating needs no
    numpy.  u ** 2 is u * u, numpy's square; u ** 3 is the C library's pow.
    numpy's SIMD power can differ from pow in the last bit (on AVX-512 hosts
    it does for about 5% of draws), which changes a fraction rounded to six
    places only within a few units in the last place of a rounding tie.
    """
    for name, value in (("n_jobs", n_jobs), ("span_s", span_s),
                        ("max_duration_s", max_duration_s), ("seed", seed)):
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if n_jobs <= _CRUNCH_JOBS:
        raise ValueError(f"n_jobs must exceed {_CRUNCH_JOBS}, got {n_jobs}")
    if not _CRUNCH_SHORTFALL_S < max_duration_s <= _CRUNCH_WINDOW_S:
        raise ValueError(
            f"max_duration_s must lie in [{_CRUNCH_SHORTFALL_S + 1}, "
            f"{_CRUNCH_WINDOW_S}], got {max_duration_s}")
    if span_s < _CRUNCH_WINDOW_S + _OPENING_S:
        raise ValueError(f"span_s must be >= {_CRUNCH_WINDOW_S + _OPENING_S}"
                         f", got {span_s}")
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    stream = Stream(seed)
    n_body = n_jobs - _CRUNCH_JOBS

    durations = [round(max_duration_s * (u * u)) or 1
                 for u in stream.random(n_body)]
    frac_range = _FRAC_CAP - _FRAC_FLOOR
    assigned = [_FRAC_FLOOR + frac_range * u ** 3
                for u in stream.random(n_body)]
    submits = stream.integers(_OPENING_S,
                              [span_s - d + 1 for d in durations])
    peak_ratio = stream.uniform(0.6, 1.0, n_body)

    crunch_durations = stream.integers(max_duration_s - _CRUNCH_SHORTFALL_S,
                                       [max_duration_s + 1] * _CRUNCH_JOBS)
    crunch_submits = stream.integers(
        span_s - _CRUNCH_WINDOW_S, [span_s - d + 1 for d in crunch_durations])
    crunch_submits[0] = span_s - crunch_durations[0]
    crunch_assigned = stream.uniform(_CRUNCH_FRAC_LO, _CRUNCH_FRAC_HI,
                                     _CRUNCH_JOBS)
    crunch_peak_ratio = stream.uniform(0.7, 1.0, _CRUNCH_JOBS)

    rows = list(zip(submits + crunch_submits, durations + crunch_durations,
                    assigned + crunch_assigned,
                    peak_ratio + crunch_peak_ratio))
    rows.sort(key=lambda r: r[0])
    records = []
    for index, (submit, duration, frac, ratio) in enumerate(rows):
        frac = round(frac, 6)
        records.append(RawJobRecord(
            job_id=f"j{index:04d}",
            submit_s=float(submit),
            duration_s=float(duration),
            assigned_mem_frac=frac,
            max_mem_frac=round(frac * ratio, 6),
        ))
    return records


def bundled_trace_path() -> Path:
    """Filesystem path of the workload CSV shipped inside the package."""
    return Path(resources.files("epcsched") / "data" / BUNDLED_TRACE)


def load_bundled_trace() -> list[RawJobRecord]:
    return parse_canonical_csv(bundled_trace_path())
