"""Per-layer instrumentation of the traced pass.

`Instrument` replaces public functions of the package's modules with
wrappers that record a span per call and a few counts, and puts the
originals back on exit.  It touches only module, class and dict attributes
from the outside; the package source is never edited.  Per-node helpers such
as `scheduler.feasible` stay unwrapped so tracing overhead stays small.
Targets a later version of the package no longer has are skipped and listed
in `missing`, so a refactor loses the affected metrics instead of breaking
the benchmark.
"""

from __future__ import annotations

import functools
from collections import Counter

from epcsched import driver, engine, experiment, metrics, report, scheduler, trace
from epcsched.report import summary

import tracing

# Span names of the readers and writers that count as artifact I/O.
ARTIFACT_WRITERS = ("trace.write_jobs_csv", "report.write_outcomes_csv",
                    "report.write_pending_csv", "metrics.write_csv")
ARTIFACT_READERS = ("trace.read_jobs_csv", "report.read_outcomes_csv",
                    "report.read_pending_csv")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_records(inst, args, kwargs, result):
    inst.counts["trace.records"] += len(_arg(args, kwargs, 0, "records"))


def _count_tick(inst, args, kwargs, result):
    # The tick removes every placed job from the queue it walked.
    queued = len(_arg(args, kwargs, 0, "queue")) + len(result)
    inst.counts["scheduler.placements"] += len(result)
    inst.counts["scheduler.queue_len.max"] = max(
        inst.counts["scheduler.queue_len.max"], queued)


def _count_init(inst, args, kwargs, result):
    if result is not driver.InitResult.GRANTED:
        inst.counts["driver.denied"] += 1


def _keep_run(inst, args, kwargs, result):
    inst.runs.append((_arg(args, kwargs, 0, "jobs"),
                      _arg(args, kwargs, 1, "cluster"), result))


def _targets():
    """(owner, attribute, span name, after-call hook).  A function imported
    by name into another module is wrapped at each place it is looked up."""
    T, E, R = trace, experiment, report
    out = [
        (T, "parse_canonical_csv", "trace.parse_canonical_csv", None),
        (T, "parse_borg_tables", "trace.parse_borg_tables", None),
        (T, "slice_and_sample", "trace.slice_and_sample", None),
        (E, "slice_and_sample", "trace.slice_and_sample", None),
        (T, "materialize", "trace.materialize", _count_records),
        (E, "materialize", "trace.materialize", _count_records),
        (T, "inject_malicious", "trace.inject_malicious", None),
        (E, "inject_malicious", "trace.inject_malicious", None),
        (T, "write_jobs_csv", "trace.write_jobs_csv", None),
        (E, "write_jobs_csv", "trace.write_jobs_csv", None),
        (T, "read_jobs_csv", "trace.read_jobs_csv", None),
        (R, "read_jobs_csv", "trace.read_jobs_csv", None),
        (metrics.SeriesStore, "per_node_usage", "metrics.per_node_usage", None),
        (metrics.SeriesStore, "write_csv", "metrics.write_csv", None),
        (engine, "probe_tick", "metrics.probe_tick", None),
        (engine, "schedule_tick", "scheduler.schedule_tick", _count_tick),
        (scheduler, "snapshot_usage", "scheduler.snapshot_usage", None),
        (driver.DriverState, "register_limit", "driver.register_limit", None),
        (driver.DriverState, "enclave_init", "driver.enclave_init", _count_init),
        (driver.DriverState, "enclave_release", "driver.enclave_release", None),
        (engine, "run", "engine.run", _keep_run),
        (E, "run", "engine.run", _keep_run),
        (E, "run_experiment", "experiment.run_experiment", None),
        (E, "run_point", "experiment.run_point", None),
        (E, "write_outcomes_csv", "report.write_outcomes_csv", None),
        (R, "write_outcomes_csv", "report.write_outcomes_csv", None),
        (E, "write_pending_csv", "report.write_pending_csv", None),
        (R, "write_pending_csv", "report.write_pending_csv", None),
        (R, "read_outcomes_csv", "report.read_outcomes_csv", None),
        (R, "read_pending_csv", "report.read_pending_csv", None),
        (R, "figure_dataset", "report.figure_dataset", None),
    ]
    policies = getattr(scheduler, "POLICIES", {})
    out += [(policies, key, "scheduler.select", None) for key in sorted(policies)]
    return out


class Instrument:
    """Context manager: wrap the targets, record into `recorder`, restore."""

    def __init__(self, recorder: tracing.SpanRecorder):
        self.recorder = recorder
        self.counts: Counter = Counter()
        self.runs: list = []  # (jobs, cluster specs, SimResult) per replay
        self.missing: list[str] = []
        self._saved: list = []

    def _wrap(self, fn, name, hook):
        rec, inst = self.recorder, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            if hook is not None:
                hook(inst, args, kwargs, result)
            return result
        return wrapper

    def __enter__(self) -> "Instrument":
        for owner, attr, name, hook in _targets():
            is_dict = isinstance(owner, dict)
            if (attr not in owner) if is_dict else (attr not in vars(owner)):
                self.missing.append(f"{getattr(owner, '__name__', 'POLICIES')}.{attr}")
                continue
            fn = owner[attr] if is_dict else vars(owner)[attr]
            self._saved.append((owner, attr, fn, is_dict))
            wrapped = self._wrap(fn, name, hook)
            if is_dict:
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn, is_dict = self._saved.pop()
            if is_dict:
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)


def pass_metrics(inst: Instrument, artifact_bytes: int,
                 speed_factor: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Times are host seconds (or the
    unit their name gives) scaled by the pass's host speed factor, like the
    pass's own time; counts are totals over the pass."""

    def seconds(ns: int) -> float:
        return ns * speed_factor / 1e9

    rec = inst.recorder
    names, parents = rec.names, rec.parents
    dur = rec.durations()
    own = rec.self_times()
    total: Counter = Counter()
    calls: Counter = Counter()
    self_total: Counter = Counter()
    per_call: dict[str, list[int]] = {}
    for sid, name in enumerate(names):
        total[name] += dur[sid]
        calls[name] += 1
        self_total[name] += own[sid]
        per_call.setdefault(name, []).append(dur[sid])

    def under(ancestor: str, members: tuple[str, ...]) -> int:
        """Time in spans named in `members` that have `ancestor` above them."""
        out = 0
        for sid, name in enumerate(names):
            if name not in members:
                continue
            up = parents[sid]
            while up >= 0 and names[up] != ancestor:
                up = parents[up]
            if up >= 0:
                out += dur[sid]
        return out

    counts = inst.counts
    samples = streams = makespan = waiting = jobs = started = nodes = 0
    for run_jobs, cluster, result in inst.runs:
        samples += len(result.store)
        streams += len({(s.node_id, s.pod_id, s.metric)
                        for s in result.store.samples()})
        makespan += result.makespan_ms
        waiting += summary(result.outcomes)["total_waiting_ms"]
        jobs += len(run_jobs)
        started += sum(o.started_ms is not None for o in result.outcomes)
        nodes = max(nodes, len(cluster))
    ticks = calls["scheduler.schedule_tick"]
    probes = calls["metrics.probe_tick"]
    # Every replay pops each submission, scheduler tick and probe tick it
    # pushed, one start-up and one finish per started job, and one last probe
    # tick that finds every job terminal and stops the probe chain.
    events = jobs + ticks + probes + 2 * started + len(inst.runs)
    selects = calls["scheduler.select"]
    wq_us = [d * speed_factor / 1e3
             for d in per_call.get("metrics.per_node_usage", [])]
    tick_ms = [d * speed_factor / 1e6
               for d in per_call.get("scheduler.schedule_tick", [])]
    return {
        "trace.parse_s": seconds(total["trace.parse_canonical_csv"]),
        "trace.borg_parse_s": seconds(total["trace.parse_borg_tables"]),
        "trace.slice_s": seconds(total["trace.slice_and_sample"]),
        "trace.materialize_s": seconds(total["trace.materialize"]),
        "trace.jobs_csv_s": seconds(total["trace.write_jobs_csv"]
                                     + total["trace.read_jobs_csv"]),
        "trace.records": counts["trace.records"],
        "metrics.window_query_calls": calls["metrics.per_node_usage"],
        "metrics.window_query_s": seconds(total["metrics.per_node_usage"]),
        "metrics.window_query_us.p50": tracing.percentile(wq_us, 50),
        "metrics.window_query_us.p99": tracing.percentile(wq_us, 99),
        "metrics.streams_total": streams,
        "metrics.samples": samples,
        "metrics.probe_s": seconds(total["metrics.probe_tick"]),
        "metrics.write_csv_s": seconds(total["metrics.write_csv"]),
        "scheduler.tick_calls": ticks,
        "scheduler.tick_s": seconds(total["scheduler.schedule_tick"]),
        "scheduler.tick_ms.p50": tracing.percentile(tick_ms, 50),
        "scheduler.tick_ms.p99": tracing.percentile(tick_ms, 99),
        "scheduler.snapshot_s": seconds(total["scheduler.snapshot_usage"]),
        "scheduler.select_calls": selects,
        "scheduler.select_s": seconds(total["scheduler.select"]),
        "scheduler.placements": counts["scheduler.placements"],
        "scheduler.place_ratio": tracing.ratio(counts["scheduler.placements"],
                                               selects),
        "scheduler.queue_len.max": counts["scheduler.queue_len.max"],
        "scheduler.self_s": seconds(self_total["scheduler.schedule_tick"]),
        "driver.init_calls": calls["driver.enclave_init"],
        "driver.denied": counts["driver.denied"],
        "driver.init_s": seconds(total["driver.enclave_init"]),
        "cluster.nodes": nodes,
        "engine.run_s": seconds(total["engine.run"]),
        # run minus its direct children: ticks, probes and driver calls
        "engine.self_s": seconds(self_total["engine.run"]),
        "engine.events": events,
        "engine.sim_makespan_ms": makespan,
        "engine.sim_total_waiting_ms": waiting,
        "experiment.points": calls["experiment.run_point"],
        "experiment.run_point_s": seconds(total["experiment.run_point"]),
        "experiment.write_s": seconds(under("experiment.run_point",
                                             ARTIFACT_WRITERS)),
        "experiment.artifact_bytes": artifact_bytes,
        "report.figure_s": seconds(total["report.figure_dataset"]),
        "report.read_s": seconds(under("report.figure_dataset",
                                        ARTIFACT_READERS)),
    }
