"""The numpy generator of the synthetic workload, kept verbatim as the
oracle of `epcsched.synthetic.synthetic_trace`, which draws the same numbers
from the package's own Philox stream."""

import numpy as np

from epcsched.synthetic import (
    _CRUNCH_FRAC_HI,
    _CRUNCH_FRAC_LO,
    _CRUNCH_JOBS,
    _FRAC_CAP,
    _FRAC_FLOOR,
    DEFAULT_JOBS,
    DEFAULT_MAX_DURATION_S,
    DEFAULT_SEED,
    DEFAULT_SPAN_S,
)
from epcsched.trace import RawJobRecord


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
    """
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
