"""Deterministic replay engine tying the pieces together.

Time is an integer millisecond clock stepped by the scheduler: ticks fall at
0, P, 2P, ... for P the scheduler period.  Before the tick at `now`, every
finish due by `now` runs at its own time, in (time, job id) order, so a pod
that finishes at the tick's instant has freed its node for that tick.  Only
finishes are kept on a heap.

Finishes at one instant run in job id order, and no output depends on that
order: their node releases and driver frees commute; the ledger booked
each pod at its placement and hears nothing of its finish; the outcomes
come out in arrival order; and `spread`'s load sums key each node as
(reservation, list index), which is unique, so the order in which nodes
move within their class leaves the same sorted classes.  Two runs over
the same inputs therefore produce byte-identical outputs.

A job's life: a job submitted at t is queued, and first tried, by the first
scheduler tick after t.  A tick may place it, which reserves node resources
and, for enclave jobs, initializes the enclave against its declared page
limit.  A denied initialization kills the job on the spot (the enclave
cannot be built; re-queueing would just retry the same doomed init) and
releases its reservations.  A granted job holds its node through the enclave
construction delay, runs for its duration, and releases everything at the
finish its placement scheduled.  Waiting time counts submission to placement;
the construction delay extends the finish time instead, so both readings of
"start" stay recomputable from the outcome timestamps.

Usage probes fire at every multiple of the probe period while any job is
live, after that instant's finishes and before its scheduler tick, so a pod
is sampled at the probe ticks strictly between its placement and its
finish.  Its sampled values never change, so nothing runs at a probe
tick: the `UsageLedger` keeps each node's measured usage from each pod's
sampled interval and advances it to the tick's window just before each
scheduler tick, and the result's `SeriesStore` streams the samples from the
same intervals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from ._units import PAGE_SIZE
from .cluster import ClusterState, NodeSpec, Pod
from .driver import DriverState, InitResult, startup_delay
from .metrics import SeriesStore, UsageLedger
from .scheduler import POLICIES, PendingQueue, schedule_tick, spread_state
from .trace import JobKind, JobSpec


class ConfigError(ValueError):
    """Inconsistent run configuration, caught before any event runs."""


class JobStatus(Enum):
    COMPLETED = "Completed"
    KILLED = "Killed"
    UNFINISHED = "Unfinished"


class JobOutcome(NamedTuple):
    """Terminal record of one job.  Killed jobs keep the node that rejected
    them but no start or finish; unfinished jobs never left the queue."""

    job_id: str
    kind: JobKind
    submitted_ms: int
    started_ms: int | None
    finished_ms: int | None
    status: JobStatus
    node_id: str | None
    declared_pages: int
    actual_pages: int

    @property
    def waiting_ms(self) -> int | None:
        if self.started_ms is None:
            return None
        return self.started_ms - self.submitted_ms

    @property
    def turnaround_ms(self) -> int | None:
        if self.finished_ms is None:
            return None
        return self.finished_ms - self.submitted_ms


@dataclass(frozen=True)
class SimConfig:
    scheduler_period_ms: int = 5_000
    probe_period_ms: int = 10_000
    window_ms: int = 25_000
    policy: str = "binpack"
    enforce_limits: bool = True
    include_startup_delays: bool = True
    check_invariants: bool = False

    def __post_init__(self):
        # The clock is integer milliseconds: a float period would write
        # float times, and True would tick every millisecond.
        for name in ("scheduler_period_ms", "probe_period_ms", "window_ms"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("enforce_limits", "include_startup_delays",
                     "check_invariants"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be a boolean, got {value!r}")
        if not isinstance(self.policy, str):
            raise ConfigError(f"policy must be a string, got {self.policy!r}")
        if self.probe_period_ms >= self.window_ms:
            raise ConfigError(
                "probe_period_ms must be smaller than window_ms, or the "
                "scheduler can observe windows with no sample at all")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")


@dataclass
class SimResult:
    """Everything a run leaves behind, ordered deterministically."""

    outcomes: list[JobOutcome]
    store: SeriesStore
    pending_epc: list[tuple[int, int]]  # (time_ms, queued declared EPC bytes)
    makespan_ms: int                    # latest completion (0 if none)


class _Engine:
    def __init__(self, jobs: list[JobSpec], cluster_specs: list[NodeSpec],
                 config: SimConfig):
        self.queue = PendingQueue(jobs)
        self.config = config
        self.cluster = ClusterState.from_specs(cluster_specs)
        self.driver = DriverState.for_cluster(self.cluster)
        self.ledger = UsageLedger(self.cluster, config.probe_period_ms,
                                  config.window_ms)
        self.finishes: list[tuple[int, str]] = []  # heap of (finish_ms, job_id)
        self.outcomes: dict[str, JobOutcome] = {}
        self.pending_epc: list[tuple[int, int]] = []
        self.last_progress_ms = 0

    def run(self) -> SimResult:
        finishes, check = self.finishes, self.config.check_invariants
        now, ticking = 0, bool(self.queue.jobs)
        while ticking:
            while finishes and finishes[0][0] <= now:
                finish_ms, job_id = heapq.heappop(finishes)
                self._on_finish(job_id, finish_ms)
                if check:
                    self._check_invariants(finish_ms)
            ticking = self._on_scheduler_tick(now)
            if check:
                self._check_invariants(now)
            now += self.config.scheduler_period_ms
        outcomes = [self.outcomes[job.job_id] for job in self.queue.jobs]
        return SimResult(outcomes=outcomes,
                         store=SeriesStore(self.ledger.pods,
                                           self.config.probe_period_ms),
                         pending_epc=self.pending_epc,
                         makespan_ms=max((o.finished_ms or 0
                                          for o in outcomes), default=0))

    def _on_scheduler_tick(self, now: int) -> bool:
        """Queue the arrivals before now, advance the ledger and place what
        fits; whether any job is left to finish."""
        last_submit = self.queue.arrive(now)
        if last_submit is not None:
            # A finish since the last tick may have set a later time already.
            self.last_progress_ms = max(self.last_progress_ms, last_submit)
        self.ledger.advance(now)
        placements = schedule_tick(self.queue, self.cluster, self.config.policy)
        if self.config.check_invariants:
            self.queue.check_walk(now, self.cluster)
        for job, node_id in placements:
            self._handle_placement(job, node_id, now)
        self.pending_epc.append((now, self.queue.epc_pages * PAGE_SIZE))
        if placements:
            self.last_progress_ms = now
        if self._stuck(now, placements):
            self._mark_unfinished()
        return len(self.outcomes) < len(self.queue.jobs)

    def _handle_placement(self, job: JobSpec, node_id: str, now: int) -> None:
        node = self.cluster.nodes[node_id]
        if job.kind.uses_epc:
            granted = self.driver.enclave_init(node_id, job.actual_epc_pages,
                                               job.declared_epc_pages,
                                               enforce=self.config.enforce_limits)
            if granted is not InitResult.GRANTED:
                if (self.config.check_invariants
                        and granted is InitResult.DENIED_CAPACITY
                        and self.config.enforce_limits
                        and job.actual_epc_pages <= job.declared_epc_pages):
                    raise AssertionError(
                        f"{job.job_id}: capacity denial on {node_id} despite "
                        "admission on declared pages")
                node.release(job.requested_mem, job.declared_epc_pages)
                self._record(job, JobStatus.KILLED, node_id, None, None)
                return
        startup_ms = 0
        if job.kind.uses_epc and self.config.include_startup_delays:
            startup_ms = int(round(startup_delay(job.actual_mem, node.spec.epc)))
        pod = self.cluster.pods[job.job_id] = Pod(job, node_id, now)
        finish_ms = now + startup_ms + job.duration_ms
        self.ledger.place(pod, finish_ms)
        heapq.heappush(self.finishes, (finish_ms, job.job_id))

    def _on_finish(self, job_id: str, now: int) -> None:
        pod = self.cluster.pods.pop(job_id)
        job, node_id = pod.job, pod.node_id
        if job.kind.uses_epc:
            self.driver.enclave_release(node_id, job.actual_epc_pages)
        self.cluster.nodes[node_id].release(job.requested_mem,
                                            job.declared_epc_pages)
        self._record(job, JobStatus.COMPLETED, node_id, pod.placed_ms, now)
        self.last_progress_ms = now

    def _record(self, job: JobSpec, status: JobStatus, node_id: str | None,
                started_ms: int | None, finished_ms: int | None) -> None:
        # built without the named tuple's Python-level `__new__`
        self.outcomes[job.job_id] = tuple.__new__(JobOutcome, (
            job.job_id, job.kind, job.submit_ms, started_ms, finished_ms,
            status, node_id, job.declared_epc_pages, job.actual_epc_pages))

    def _stuck(self, now: int, placements: list) -> bool:
        """Nothing running, nothing left to submit, nothing placeable, and a
        full metrics window has already drained: the queue can never move
        again."""
        return (not placements and not self.cluster.pods
                and self.queue.arrived == len(self.queue.jobs)
                and now - self.last_progress_ms
                > self.config.window_ms + self.config.scheduler_period_ms
                and len(self.queue) > 0)

    def _mark_unfinished(self) -> None:
        for job in self.queue.drain():
            self._record(job, JobStatus.UNFINISHED, None, None, None)

    def _check_invariants(self, now: int) -> None:
        """Check the per-node counters against the pod records: node
        reservations, driver pages in use and, under enforcement, each
        enclave's pages against its limit; the queue's page counter against
        its jobs, none of which may have a pod; that the arrived jobs add up
        to the queued, running and recorded ones; each node's
        measured usage, advanced to now, against a fresh window over the pod
        intervals; and under `spread`, its own state (`_Spread.check`)."""
        queue = self.queue
        backlog = sum(job.declared_epc_pages for job in queue
                      if job.kind.uses_epc)
        if queue.epc_pages != backlog:
            raise AssertionError(f"t={now}: queue page counter "
                                 f"{queue.epc_pages} != queued pages {backlog}")
        for job in queue:
            if job.job_id in self.cluster.pods:
                raise AssertionError(f"t={now}: queued {job.job_id} has a pod")
        queued, running, recorded = (len(queue), len(self.cluster.pods),
                                     len(self.outcomes))
        if queue.arrived != queued + running + recorded:
            raise AssertionError(
                f"t={now}: arrived jobs {queue.arrived} != queued {queued} "
                f"+ running {running} + recorded {recorded}")
        want = {node_id: [0, 0, 0] for node_id in self.cluster.nodes}
        for pod_id, pod in self.cluster.pods.items():
            job, node_want = pod.job, want[pod.node_id]
            node_want[0] += job.requested_mem
            if not job.kind.uses_epc:
                continue
            node_want[1] += job.declared_epc_pages
            node_want[2] += job.actual_epc_pages
            if (self.config.enforce_limits
                    and job.actual_epc_pages > job.declared_epc_pages):
                raise AssertionError(f"t={now} {pod.node_id}: {pod_id} holds "
                                     f"{job.actual_epc_pages} pages over its limit")
        driver = self.driver
        for node_id, node in self.cluster.nodes.items():
            in_use = (driver.total_pages.get(node_id, 0)
                      - driver.free_pages.get(node_id, 0))
            got = [node.reserved_std, node.reserved_epc_pages, in_use]
            if got != want[node_id]:
                raise AssertionError(
                    f"t={now} {node_id}: reserved std, reserved pages, driver "
                    f"pages {got} != pod records {want[node_id]}")
            usable = node.spec.epc.usable_pages if node.is_sgx else 0
            if (node.reserved_std > node.spec.std_capacity
                    or node.reserved_epc_pages > usable):
                raise AssertionError(f"t={now} {node_id}: over-commit")
        self.ledger.advance(now)
        kept = {node_id: (node.measured_std, node.measured_epc_pages)
                for node_id, node in self.cluster.nodes.items()}
        fresh = self.ledger.fresh(now)
        if kept != fresh:
            raise AssertionError(f"t={now}: measured usage {kept} != a fresh "
                                 f"window over the pod intervals {fresh}")
        if self.config.policy == "spread":
            spread_state(self.cluster).check(now)


def run(jobs: list[JobSpec], cluster: list[NodeSpec],
        config: SimConfig | None = None) -> SimResult:
    """Replay a workload on a cluster and return outcomes, the probed
    samples, and the queued-protected-memory series sampled at every
    scheduler tick (after that tick's placements)."""
    return _Engine(jobs, cluster, config or SimConfig()).run()
