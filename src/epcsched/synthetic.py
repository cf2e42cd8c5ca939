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
    the opening seconds empty, so injected time-zero jobs always reach the
    cluster before any trace job.  The final 30 jobs land in the last few
    minutes of the window with mid-range memory fractions.
    Generating needs numpy (the `test` extra); loading the bundled trace
    does not.
    """
    import numpy as np

    if n_jobs <= _CRUNCH_JOBS:
        raise ValueError(f"n_jobs must exceed {_CRUNCH_JOBS}")
    if max_duration_s > span_s:
        raise ValueError("max_duration_s cannot exceed span_s")
    gen = np.random.Generator(np.random.Philox(key=seed))
    n_body = n_jobs - _CRUNCH_JOBS

    durations = np.maximum(
        1, np.rint(max_duration_s * gen.random(n_body) ** 2)).astype(int)
    assigned = _FRAC_FLOOR + (_FRAC_CAP - _FRAC_FLOOR) * gen.random(n_body) ** 3
    submits = gen.integers(5, span_s - durations + 1)
    peak_ratio = gen.uniform(0.6, 1.0, n_body)

    crunch_durations = gen.integers(max_duration_s - 100,
                                    max_duration_s + 1, _CRUNCH_JOBS)
    crunch_submits = gen.integers(span_s - 450, span_s - crunch_durations + 1)
    crunch_submits[0] = span_s - crunch_durations[0]
    crunch_assigned = gen.uniform(_CRUNCH_FRAC_LO, _CRUNCH_FRAC_HI,
                                  _CRUNCH_JOBS)
    crunch_peak_ratio = gen.uniform(0.7, 1.0, _CRUNCH_JOBS)

    rows = list(zip(
        np.concatenate([submits, crunch_submits]).tolist(),
        np.concatenate([durations, crunch_durations]).tolist(),
        np.concatenate([assigned, crunch_assigned]).tolist(),
        np.concatenate([peak_ratio, crunch_peak_ratio]).tolist(),
    ))
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
