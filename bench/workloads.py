"""The four replay workloads and the checks on their outputs.

Every workload is a closed-loop batch replay in one process: the next step
starts only when the previous one has returned.  `setup` generates the inputs
from the seed and is not timed; `run` is the timed region; `verify` hashes
the outputs and checks them against oracles that need no golden file, so
every seed is checked.  Digest keys are "<operation>/<artifact>"; an
operation is a sweep point (or a figure dataset), a replay, or an ingest
step.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

from epcsched import engine, experiment, report, trace
from epcsched._units import GIB, MIB
from epcsched.cluster import EpcModel, NodeSpec, default_cluster
from epcsched.engine import JobStatus, SimConfig
from epcsched.synthetic import bundled_trace_path, synthetic_trace
from epcsched.trace import JobKind, ScalingConfig

# Arrival density of the bundled trace: 700 jobs over one simulated hour.
JOBS_PER_HOUR = 700


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _written(writer, *args) -> str:
    """What a public CSV writer produces, captured in memory."""
    buf = io.StringIO()
    writer(*args, buf)
    return buf.getvalue()


def replay_digests(op: str, result) -> dict[str, str]:
    return {
        f"{op}/outcomes.csv": sha256(_written(report.write_outcomes_csv,
                                              result.outcomes)),
        f"{op}/samples.csv": sha256(_written(result.store.write_csv)),
        f"{op}/pending_epc.csv": sha256(_written(report.write_pending_csv,
                                                 result.pending_epc)),
    }


def replay_problems(jobs, outcomes, specs) -> list[str]:
    """Oracle checks on one replay's outcomes.

    Every job ends exactly once; times are ordered; and replaying the
    placements shows no node ever holding more standard memory or more
    declared protected pages than it has.  A job holds its node from
    placement to finish; releases at an instant come before placements.
    """
    problems = []
    by_id = {j.job_id: j for j in jobs}
    if sorted(o.job_id for o in outcomes) != sorted(by_id):
        problems.append("outcome ids differ from job ids")
        return problems
    caps = {s.node_id: (s.std_capacity,
                        s.epc.usable_pages if s.epc is not None else 0)
            for s in specs}
    events = []
    for o in outcomes:
        job = by_id[o.job_id]
        if (o.status is JobStatus.COMPLETED) != (o.finished_ms is not None):
            problems.append(f"{o.job_id}: status {o.status.value} with "
                            f"finish {o.finished_ms}")
            continue
        if o.started_ms is None:
            continue
        if o.node_id not in caps:
            problems.append(f"{o.job_id}: unknown node {o.node_id}")
            continue
        if (o.started_ms < o.submitted_ms
                or o.finished_ms < o.started_ms + job.duration_ms):
            problems.append(f"{o.job_id}: times out of order")
        pages = job.declared_epc_pages
        events.append((o.finished_ms, 0, o.node_id, -job.requested_mem, -pages))
        events.append((o.started_ms, 1, o.node_id, job.requested_mem, pages))
    held = {node: [0, 0] for node in caps}
    for time_ms, _, node, mem, pages in sorted(events):
        held[node][0] += mem
        held[node][1] += pages
        std_cap, page_cap = caps[node]
        if held[node][0] > std_cap or held[node][1] > page_cap:
            problems.append(f"{node} over capacity at {time_ms} ms")
            break
    return problems


class Workload:
    name = ""
    ops = 1  # operations per pass

    def setup(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed reset before each pass."""

    def run(self):
        raise NotImplementedError

    def units(self) -> int:
        """Jobs replayed (records materialized, for ingest) per pass."""
        raise NotImplementedError

    def verify(self, out) -> tuple[dict[str, str], list[tuple[str, str]]]:
        """Digests of the pass's outputs and (operation, problem) pairs."""
        raise NotImplementedError

    def artifact_bytes(self) -> int:
        return 0


class SweepBundled(Workload):
    """The users' workflow: the 16-point sweep of the bundled trace with
    adversarial jobs and enforcement on, then figure datasets 6-10."""

    name = "sweep-bundled"
    EPC = (32 * MIB, 64 * MIB, 128 * MIB, 256 * MIB)
    FRACTIONS = (0.25, 0.5, 0.75, 1.0)
    MALICIOUS = 2
    ops = len(EPC) * len(FRACTIONS) + len(report.FIGURES) + 1  # + the echo

    def setup(self, seed, work):
        self.out = work / "artifacts"
        # Paths relative to the repository root (the working directory) keep
        # the experiment echo identical in every checkout.
        self.cfg = experiment.ExperimentConfig(
            trace_file=os.path.relpath(bundled_trace_path()),
            scaling=ScalingConfig(rng_seed=seed),
            policy="binpack",
            epc_usable_sweep=self.EPC,
            sgx_fraction_sweep=self.FRACTIONS,
            malicious=experiment.MaliciousConfig(n=self.MALICIOUS),
            enforce_limits=True,
            output_dir=os.path.relpath(self.out),
            workers=1,
        )
        self.n_records = len(trace.parse_trace(self.cfg.trace_file))

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        root = experiment.run_experiment(self.cfg)
        for figure in report.FIGURES:
            report.figure_dataset(root, figure)
        return root

    def units(self):
        points = len(self.EPC) * len(self.FRACTIONS)
        return points * (self.n_records + self.MALICIOUS)

    def _files(self):
        return sorted(p for p in self.out.rglob("*") if p.is_file())

    def artifact_bytes(self):
        return sum(p.stat().st_size for p in self._files()
                   if not p.name.endswith(".dat"))

    def verify(self, root):
        digests = {p.relative_to(self.out).as_posix(): sha256(p.read_bytes())
                   for p in self._files()}
        problems = []
        points = 0
        for meta_path in sorted(self.out.glob("*/" + report.META_FILE)):
            points += 1
            problems += [(meta_path.parent.name, msg)
                         for msg in self._point_problems(meta_path.parent)]
        if points != len(self.EPC) * len(self.FRACTIONS):
            problems.append(("sweep", f"{points} point directories"))
        for figure in report.FIGURES:
            if not (self.out / f"fig{figure}.dat").is_file():
                problems.append((f"fig{figure}.dat", "missing"))
        return digests, problems

    def _point_problems(self, run_dir: Path) -> list[str]:
        meta = json.loads((run_dir / report.META_FILE).read_text())
        jobs = trace.read_jobs_csv(run_dir / report.JOBS_FILE)
        outcomes = report.read_outcomes_csv(run_dir / report.OUTCOMES_FILE)
        usable = meta["epc_usable_sweep_bytes"]
        specs = [replace(s, epc=EpcModel(total_bytes=usable, usable_bytes=usable))
                 if s.is_sgx else s for s in default_cluster()]
        problems = replay_problems(jobs, outcomes, specs)
        if meta["label"] != run_dir.name:
            problems.append("label differs from directory name")
        stored = json.loads((run_dir / report.SUMMARY_FILE).read_text())
        if stored != report.summary(outcomes):
            problems.append("summary.json disagrees with outcomes.csv")
        # Each adversarial job under-declares its pages, so enforcement must
        # kill it at enclave initialization.
        for o in outcomes:
            if o.kind is JobKind.MALICIOUS_SGX and o.status is not JobStatus.KILLED:
                problems.append(f"{o.job_id} not killed")
        return problems


class _Replay(Workload):
    """One `run()` of a materialized synthetic trace."""

    policy = "binpack"
    n_jobs = 700

    def cluster(self) -> list[NodeSpec]:
        return default_cluster()

    def setup(self, seed, work):
        records = synthetic_trace(n_jobs=self.n_jobs,
                                  span_s=self.n_jobs * 3600 // JOBS_PER_HOUR,
                                  seed=seed)
        self.jobs = trace.materialize(
            records, ScalingConfig(sgx_fraction=0.5, rng_seed=seed))
        self.specs = self.cluster()
        self.config = SimConfig(policy=self.policy)

    def run(self):
        return engine.run(self.jobs, self.specs, self.config)

    def units(self):
        return len(self.jobs)

    def verify(self, result):
        problems = [("replay", msg) for msg in
                    replay_problems(self.jobs, result.outcomes, self.specs)]
        return replay_digests("replay", result), problems


class ReplayLong(_Replay):
    """An uncontended replay whose only growing dimension is history length,
    so the metrics window scan dominates and the policy does little."""

    name = "replay-long"
    n_jobs = 4000


class SpreadWide(_Replay):
    """The bundled-size trace on 128 nodes with `spread`: short history,
    wide candidate sets, so the policy's per-candidate stddev dominates."""

    name = "spread-wide"
    policy = "spread"
    NODES_PER_KIND = 64

    def cluster(self):
        plain = [NodeSpec(f"node-{i:03d}", std_capacity=64 * GIB)
                 for i in range(1, self.NODES_PER_KIND + 1)]
        sgx = [NodeSpec(f"sgx-{i:03d}", std_capacity=8 * GIB, epc=EpcModel())
               for i in range(1, self.NODES_PER_KIND + 1)]
        return plain + sgx


_EV_SUBMIT, _EV_SCHEDULE, _EV_FINISH = 0, 1, 4
_BORG_WIDTH = 11  # columns up to the memory column of the 2011 schema
_SHARDS = 4


def write_borg_shards(records, root: Path) -> None:
    """The records as gzip task_events/ and task_usage/ shards.

    Task i of job "j" is record i, so the adapter names it "j-<i>" and its
    (submit, id) order is the canonical order.  Times are whole seconds in
    the synthetic trace, so the microsecond timestamps round-trip exactly.
    """
    events_dir, usage_dir = root / "task_events", root / "task_usage"
    for directory in (events_dir, usage_dir):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
    per_shard = -(-len(records) // _SHARDS)
    for shard in range(_SHARDS):
        chunk = records[shard * per_shard:(shard + 1) * per_shard]
        name = f"part-{shard:05d}-of-{_SHARDS:05d}.csv.gz"
        with gzip.open(events_dir / name, "wt", compresslevel=1,
                       encoding="utf-8", newline="") as ev, \
                gzip.open(usage_dir / name, "wt", compresslevel=1,
                          encoding="utf-8", newline="") as us:
            events, usage = csv.writer(ev), csv.writer(us)
            for offset, rec in enumerate(chunk):
                task = f"{shard * per_shard + offset:06d}"
                start = int(rec.submit_s * 1_000_000)
                end = int((rec.submit_s + rec.duration_s) * 1_000_000)
                for etype, when in ((_EV_SUBMIT, start), (_EV_SCHEDULE, start),
                                    (_EV_FINISH, end)):
                    row = [""] * _BORG_WIDTH
                    row[0], row[2], row[3], row[5] = when, "j", task, etype
                    row[10] = repr(rec.assigned_mem_frac)
                    events.writerow(row)
                row = [""] * _BORG_WIDTH
                row[0], row[1], row[2], row[3] = start, end, "j", task
                row[10] = repr(rec.max_mem_frac)
                usage.writerow(row)


def _fields(rec):
    return (rec.submit_s, rec.duration_s, rec.assigned_mem_frac,
            rec.max_mem_frac)


class IngestLarge(Workload):
    """The trace layer alone on a 70k-record trace in both input formats."""

    name = "ingest-large"
    N_RECORDS = 70_000
    MALICIOUS = 2
    STEPS = ("parse_csv", "parse_borg", "slice", "materialize_050",
             "materialize_100", "inject", "jobs_csv_roundtrip")
    ops = len(STEPS)

    def setup(self, seed, work):
        self.seed = seed
        records = synthetic_trace(
            n_jobs=self.N_RECORDS,
            span_s=self.N_RECORDS * 3600 // JOBS_PER_HOUR, seed=seed)
        self.csv_path = work / "trace.csv"
        trace.write_canonical_csv(records, self.csv_path)
        self.borg_root = work / "borg"
        write_borg_shards(records, self.borg_root)
        self.jobs_path = work / "jobs.csv"

    def run(self):
        canonical = trace.parse_trace(self.csv_path, "canonical_csv")
        borg = trace.parse_trace(self.borg_root, "borg_tables")
        sliced = trace.slice_and_sample(canonical, ScalingConfig())
        half = trace.materialize(
            sliced, ScalingConfig(sgx_fraction=0.5, rng_seed=self.seed))
        full = trace.materialize(
            sliced, ScalingConfig(sgx_fraction=1.0, rng_seed=self.seed))
        injected = trace.inject_malicious(
            half, self.MALICIOUS, 1, 0.5, EpcModel().usable_pages)
        trace.write_jobs_csv(injected, self.jobs_path)
        read_back = trace.read_jobs_csv(self.jobs_path)
        return canonical, borg, sliced, half, full, injected, read_back

    def units(self):
        return 2 * self.N_RECORDS  # two materialize calls

    def verify(self, out):
        canonical, borg, sliced, half, full, injected, read_back = out
        problems = []
        if len(canonical) != self.N_RECORDS:
            problems.append(("parse_csv", f"{len(canonical)} records"))
        if [_fields(r) for r in borg] != [_fields(r) for r in canonical]:
            problems.append(("parse_borg", "records differ from the CSV's"))
        if sliced != canonical:
            problems.append(("slice", "the full-range slice changed records"))
        if [j.job_id for j in half] != [r.job_id for r in sliced]:
            problems.append(("materialize_050", "job ids differ from records"))
        if any(j.kind is not JobKind.SGX for j in full):
            problems.append(("materialize_100", "standard job at fraction 1"))
        if (injected[:len(half)] != half
                or [j.kind for j in injected[len(half):]]
                != [JobKind.MALICIOUS_SGX] * self.MALICIOUS):
            problems.append(("inject", "unexpected job list"))
        if read_back != injected:
            problems.append(("jobs_csv_roundtrip", "read-back differs"))
        digests = {
            "materialize_050/jobs.csv": sha256(_written(trace.write_jobs_csv, half)),
            "materialize_100/jobs.csv": sha256(_written(trace.write_jobs_csv, full)),
            "jobs_csv_roundtrip/jobs.csv": sha256(self.jobs_path.read_bytes()),
        }
        return digests, problems


WORKLOADS = {w.name: w for w in (SweepBundled, ReplayLong, SpreadWide,
                                 IngestLarge)}
