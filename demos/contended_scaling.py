"""Time contended replays as the queue grows.

Each size n on the command line replays `synthetic_trace(n_jobs=n)` over its
default one-hour span, half of it enclave jobs, on the default four-node
cluster under `binpack`.  More jobs in the same hour means a longer queue at
every tick.  For each n it prints the wall time, the jobs per second, how
many times the placement policy was asked, and a digest of the outcomes:

    PYTHONPATH=src python demos/contended_scaling.py 700 7000 14000 28000

With no sizes it replays 700 jobs.
"""

import hashlib
import io
import sys
import time

from epcsched import ScalingConfig, SimConfig, default_cluster, materialize, run
from epcsched import scheduler
from epcsched.report import write_outcomes_csv
from epcsched.synthetic import synthetic_trace


def replay(n_jobs: int) -> tuple[float, int, str]:
    """Wall seconds, policy calls and outcome digest of one replay."""
    jobs = materialize(synthetic_trace(n_jobs=n_jobs),
                       ScalingConfig(sgx_fraction=0.5))
    select, calls = scheduler.POLICIES["binpack"], [0]

    def counted(job, cluster):
        calls[0] += 1
        return select(job, cluster)

    scheduler.POLICIES["binpack"] = counted
    try:
        start = time.perf_counter()
        result = run(jobs, default_cluster(), SimConfig(policy="binpack"))
        wall = time.perf_counter() - start
    finally:
        scheduler.POLICIES["binpack"] = select
    buf = io.StringIO()
    write_outcomes_csv(result.outcomes, buf)
    return wall, calls[0], hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main(argv: list[str]) -> None:
    for n_jobs in [int(arg) for arg in argv] or [700]:
        wall, calls, digest = replay(n_jobs)
        print(f"{n_jobs:>7} jobs {wall:9.3f} s {n_jobs / wall:10.0f} jobs/s "
              f"{calls:>9} select calls  outcomes {digest[:16]}")


if __name__ == "__main__":
    main(sys.argv[1:])
