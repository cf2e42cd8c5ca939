"""Outcome statistics, bucketed waiting times, and figure datasets."""

import csv
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epcsched
from conftest import GIB, sgx_job, std_job
from epcsched.cli import main
from epcsched.engine import JobOutcome, JobStatus
from epcsched.report import (
    _T975,
    FIGURES,
    OUTCOMES_FIELDS,
    PENDING_FIELDS,
    BucketStat,
    _mean,
    _std,
    figure_dataset,
    figure_datasets,
    mean_waiting,
    power_of_two_edges,
    read_outcomes_csv,
    read_pending_csv,
    summary,
    turnaround_sum,
    waiting_by_memory,
    waiting_cdf,
    write_outcomes_csv,
    write_pending_csv,
)
from epcsched.trace import (CANONICAL_FIELDS, JOBS_FIELDS, JobKind,
                            TraceParseError, parse_canonical_csv, read_jobs_csv,
                            write_jobs_csv)


def completed(job_id, submit, start, finish, kind=JobKind.STANDARD):
    return JobOutcome(job_id, kind, submit, start, finish,
                      JobStatus.COMPLETED, "n1", 0, 0)


def killed(job_id, submit=0):
    return JobOutcome(job_id, JobKind.SGX, submit, None, None,
                      JobStatus.KILLED, "s1", 1, 100)


class TestSummary:
    def test_counts_and_makespan(self):
        outcomes = [
            completed("a", 0, 5_000, 20_000),
            completed("b", 0, 5_000, 90_000),
            killed("c"),
            JobOutcome("d", JobKind.SGX, 0, None, None, JobStatus.UNFINISHED,
                       None, 10, 10),
        ]
        s = summary(outcomes)
        assert s == {
            "jobs": 4,
            "completed": 2,
            "killed": 1,
            "unfinished": 1,
            "makespan_ms": 90_000,
            "total_waiting_ms": 10_000,
            "total_turnaround_ms": 110_000,
        }

    def test_empty(self):
        assert summary([])["makespan_ms"] == 0


class TestWaitingCdf:
    def test_step_points(self):
        outcomes = [completed("a", 0, 1, 10), completed("b", 0, 2, 10),
                    completed("c", 0, 2, 10), completed("d", 0, 5, 10)]
        assert waiting_cdf(outcomes) == [(1, 0.25), (2, 0.75), (5, 1.0)]

    def test_killed_jobs_excluded(self):
        outcomes = [completed("a", 0, 4, 10), killed("k")]
        assert waiting_cdf(outcomes) == [(4, 1.0)]

    def test_empty(self):
        assert waiting_cdf([killed("k")]) == []


def test_mean_waiting_and_turnaround_sum():
    outcomes = [completed("a", 0, 2, 10), completed("b", 10, 16, 30)]
    assert mean_waiting(outcomes) == 4.0
    assert turnaround_sum(outcomes) == 10 + 20
    assert mean_waiting([killed("k")]) is None


class TestBuckets:
    def test_power_of_two_edges(self):
        assert power_of_two_edges([5, 9]) == [4, 8, 16]
        assert power_of_two_edges([1]) == [1, 2]
        assert power_of_two_edges([]) == [1, 2]
        assert power_of_two_edges([0]) == [0, 1, 2]
        assert power_of_two_edges([5, 0, 9]) == [0, 4, 8, 16]

    def test_zero_requests_get_the_leading_bucket(self):
        # Every started job of a class lands in one of its default buckets.
        jobs = {"z": std_job("z", requested=0), "g": std_job("g", requested=GIB)}
        outcomes = [completed("z", 0, 4, 5), completed("g", 0, 2, 3)]
        table = waiting_by_memory(outcomes, jobs)
        assert [(b.lo, b.hi, b.count, b.mean_ms) for b in table["std"]] == [
            (0, GIB, 1, 4.0), (GIB, 2 * GIB, 1, 2.0)]

    def test_waiting_by_memory_single_value_bucket(self):
        jobs = {"a": std_job("a", requested=6), "b": std_job("b", requested=6)}
        outcomes = [completed("a", 0, 0, 1), completed("b", 0, 20, 21)]
        table = waiting_by_memory(outcomes, jobs, std_edges=[4, 8])
        (bucket,) = table["std"]
        assert bucket.count == 2
        assert bucket.mean_ms == 10.0
        # sample std sqrt(200), t(0.975, df=1) = 12.7062047362
        assert bucket.ci95_ms == pytest.approx(
            12.706204736174698 * math.sqrt(200.0) / math.sqrt(2.0), rel=1e-9)
        assert bucket.ci95_ms == pytest.approx(127.06204736174698, rel=1e-9)

    def test_single_sample_has_no_ci(self):
        jobs = {"a": std_job("a", requested=6)}
        table = waiting_by_memory([completed("a", 0, 3, 5)], jobs,
                                  std_edges=[4, 8])
        (bucket,) = table["std"]
        assert bucket.count == 1 and bucket.mean_ms == 3.0
        assert bucket.ci95_ms is None

    def test_empty_bucket(self):
        table = waiting_by_memory([], {}, sgx_edges=[1, 2], std_edges=[1, 2])
        assert table["std"] == [BucketStat(1, 2, 0, None, None)]

    def test_classes_split_by_kind(self):
        jobs = {"s": sgx_job("s", declared=10, requested_mem=40_960),
                "p": std_job("p", requested=2 * GIB)}
        outcomes = [completed("s", 0, 1, 2, kind=JobKind.SGX),
                    completed("p", 0, 7, 9)]
        table = waiting_by_memory(outcomes, jobs,
                                  sgx_edges=[32_768, 65_536],
                                  std_edges=[GIB, 4 * GIB])
        assert table["sgx"][0].count == 1
        assert table["sgx"][0].mean_ms == 1.0
        assert table["std"][0].count == 1
        assert table["std"][0].mean_ms == 7.0

    def test_normal_approximation_above_30_samples(self):
        jobs = {f"j{i}": std_job(f"j{i}", requested=6) for i in range(40)}
        outcomes = [completed(f"j{i}", 0, i, i + 1) for i in range(40)]
        table = waiting_by_memory(outcomes, jobs, std_edges=[4, 8])
        (bucket,) = table["std"]
        want = 1.959963984540054 * float(np.std(range(40), ddof=1)) / math.sqrt(40)
        assert bucket.ci95_ms == pytest.approx(want, rel=1e-12)

    def test_t_table_matches_scipy_exactly(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        assert _T975 == tuple(float(scipy_stats.t.ppf(0.975, df))
                              for df in range(1, 29))

    def test_t_critical_value_below_30_samples(self):
        jobs = {f"j{i}": std_job(f"j{i}", requested=6) for i in range(29)}
        outcomes = [completed(f"j{i}", 0, i, i + 1) for i in range(29)]
        (bucket,) = waiting_by_memory(outcomes, jobs, std_edges=[4, 8])["std"]
        want = _T975[27] * float(np.std(range(29), ddof=1)) / math.sqrt(29)
        assert bucket.ci95_ms == want


def test_import_does_not_load_scipy():
    env = dict(os.environ,
               PYTHONPATH=str(Path(epcsched.__file__).resolve().parents[1]))
    code = "import sys, epcsched; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_import_run_and_report_do_not_load_numpy(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("job_id,submit_s,duration_s,assigned_mem_frac,max_mem_frac\n"
                     + "".join(f"j{i},{i},{5 + i % 7},0.{i % 9 + 1},0.05\n"
                               for i in range(40)))
    config = tmp_path / "experiment.cfg"
    config.write_text(f"trace = {trace}\nsgx_fraction = 0.5\nrng_seed = 3\n"
                      f"output_dir = {tmp_path / 'artifacts'}\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(epcsched.__file__).resolve().parents[1]))
    code = ("import sys, epcsched\n"
            "loaded = ['numpy' in sys.modules]\n"
            "from epcsched.cli import main\n"
            f"assert main(['run', '--config', {str(config)!r}]) == 0\n"
            f"assert main(['report', '--dir', {str(tmp_path / 'artifacts')!r},"
            " '--figure', '8']) == 0\n"
            "loaded.append('numpy' in sys.modules)\n"
            "print(loaded)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip().splitlines()[-1] == "[False, False]"
    assert (tmp_path / "artifacts" / "fig8.dat").exists()


def test_generate_and_materialize_do_not_load_numpy():
    env = dict(os.environ,
               PYTHONPATH=str(Path(epcsched.__file__).resolve().parents[1]))
    code = ("import sys\n"
            "from epcsched import ScalingConfig, materialize\n"
            "from epcsched.synthetic import synthetic_trace\n"
            "jobs = materialize(synthetic_trace(),"
            " ScalingConfig(sgx_fraction=0.5))\n"
            "print(len(jobs), 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "700 False"


# Lengths on both sides of every edge of numpy's pairwise sum (8 and 128
# elements, and the first halvings above 128) and of its 8,192-element
# cast buffer.
_EDGE_LENGTHS = [1, 2, 7, 8, 9, 127, 128, 129, 255, 256, 257,
                 8191, 8192, 8193]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_EDGE_LENGTHS),
       st.sampled_from([2, 1000, 2 ** 31, 2 ** 53]),
       st.sampled_from([0, 2 ** 53 - 2 ** 20, 2 ** 53 - 1]),
       st.integers(0, 2 ** 32))
def test_mean_and_std_equal_numpys(n, spread, offset, seed):
    # offsets near 2**53 give ints that round when cast to float64
    rng = random.Random(seed)
    values = [offset + rng.randrange(spread) for _ in range(n)]
    mean = _mean(values)
    assert mean == float(np.mean(values))
    if n >= 2:
        assert _std(values, mean) == float(np.std(values, ddof=1))


class TestCsvRoundTrips:
    OUTCOMES = [completed("a", 0, 5, 10), killed("k"),
                JobOutcome("u", JobKind.SGX, 3, None, None,
                           JobStatus.UNFINISHED, None, 7, 7)]

    def test_outcomes(self):
        buf = io.StringIO()
        write_outcomes_csv(self.OUTCOMES, buf)
        back = read_outcomes_csv(io.StringIO(buf.getvalue()))
        assert back == self.OUTCOMES

    def test_outcomes_header_checked(self):
        with pytest.raises(ValueError):
            read_outcomes_csv(io.StringIO("nope\n1\n"))

    @pytest.mark.parametrize("row", [
        "a,standard,0",
        "a,standard,0,1,2,Completed,n1,0,0,9",
        "a,standard,x,1,2,Completed,n1,0,0",
        "a,standard,0,1,2,Completed,n1,0,1.5",
        "a,weird,0,1,2,Completed,n1,0,0",
        "a,standard,0,1,2,Done,n1,0,0",
    ])
    def test_outcomes_bad_row_names_line(self, row):
        buf = io.StringIO()
        write_outcomes_csv(self.OUTCOMES[:1], buf)
        with pytest.raises(TraceParseError, match="line 3"):
            read_outcomes_csv(io.StringIO(buf.getvalue() + row + "\n"))

    @pytest.mark.parametrize("row, reason", [
        ("a,standard,0,5,,Completed,n1,0,0", "needs a start_ms and a finish_ms"),
        ("a,standard,0,,9,Completed,n1,0,0", "needs a start_ms and a finish_ms"),
        ("a,standard,7,5,9,Completed,n1,0,0", "got 7, 5, 9"),
        ("a,standard,0,9,5,Completed,n1,0,0", "got 0, 9, 5"),
        ("a,sgx,0,5,,Killed,s1,1,9", "Killed job 'a' has a start_ms"),
        ("a,sgx,0,,9,Killed,s1,1,9", "Killed job 'a' has a start_ms"),
        ("a,sgx,0,,9,Unfinished,,1,1", "Unfinished job 'a' has a start_ms"),
    ])
    def test_outcome_times_must_fit_the_status(self, row, reason):
        text = ",".join(OUTCOMES_FIELDS) + "\n" + row + "\n"
        with pytest.raises(TraceParseError, match=f"^line 2: .*{reason}"):
            read_outcomes_csv(io.StringIO(text))

    def test_pending(self):
        series = [(0, 0), (5_000, 123_456)]
        buf = io.StringIO()
        write_pending_csv(series, buf)
        assert read_pending_csv(io.StringIO(buf.getvalue())) == series

    def test_pending_header_checked(self):
        buf = io.StringIO()
        write_outcomes_csv(self.OUTCOMES, buf)
        with pytest.raises(ValueError, match="expected header time_ms"):
            read_pending_csv(io.StringIO(buf.getvalue()))

    @pytest.mark.parametrize("row", ["5000", "5000,12,7", "5000,lots", ","])
    def test_pending_bad_row_names_line(self, row):
        text = f"time_ms,pending_epc_bytes\n0,0\n{row}\n"
        with pytest.raises(ValueError, match="line 3"):
            read_pending_csv(io.StringIO(text))


# Ids a csv writer quotes, or keeps with their spaces.
_IDS = st.text(alphabet='ab ,"', min_size=1, max_size=5)


@st.composite
def _outcomes(draw):
    """An outcome whose times fit its status, as the engine writes them."""
    status = draw(st.sampled_from(JobStatus))
    submit = draw(st.integers(0, 10 ** 12))
    start = finish = None
    if status is JobStatus.COMPLETED:
        start = submit + draw(st.integers(0, 10 ** 6))
        finish = start + draw(st.integers(0, 10 ** 6))
    return JobOutcome(draw(_IDS), draw(st.sampled_from(JobKind)), submit,
                      start, finish, status, draw(st.none() | _IDS),
                      draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 10 ** 6)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_outcomes(), max_size=8, unique_by=lambda o: o.job_id))
def test_outcomes_csv_round_trip(outcomes):
    # a run has one outcome per job; a repeated id is a parse error
    buf = io.StringIO()
    write_outcomes_csv(outcomes, buf)
    assert read_outcomes_csv(io.StringIO(buf.getvalue())) == outcomes


_JOB_ROW = "j,standard,0,1,2,3,0,0\n"
_DUPLICATE = "duplicate job_id 'j' (first seen on line 2)"

# (reader, text, the line its error names, the whole message or None)
_BAD_CSVS = {
    "outcomes": (read_outcomes_csv, ",".join(OUTCOMES_FIELDS) + "\n"
                 "a,standard,0\n", 2, None),
    "outcomes value": (read_outcomes_csv, ",".join(OUTCOMES_FIELDS) + "\n"
                       "a,standard,0,1,2,Done,n1,0,0\n", 2, None),
    "outcomes kind": (read_outcomes_csv, ",".join(OUTCOMES_FIELDS) + "\n"
                      "a,standard,0,1,2,Completed,n1,0,0\n"
                      "b,weird,0,1,2,Completed,n1,0,0\n", 3,
                      "'weird' is not a valid JobKind"),
    "outcomes duplicate": (read_outcomes_csv, ",".join(OUTCOMES_FIELDS) + "\n"
                           "j,standard,0,5000,6000,Completed,n1,0,0\n"
                           "j,standard,0,7000,8000,Completed,n1,0,0\n", 3,
                           _DUPLICATE),
    "pending": (read_pending_csv, "time_ms,pending_epc_bytes\n0,lots\n", 2,
                None),
    "jobs": (read_jobs_csv, ",".join(JOBS_FIELDS) + "\nj,standard,0\n", 2,
             None),
    "jobs value": (read_jobs_csv, ",".join(JOBS_FIELDS) + "\n"
                   "j,standard,0,1,2,3,x,0\n", 2, None),
    "jobs kind": (read_jobs_csv, ",".join(JOBS_FIELDS) + "\n" + _JOB_ROW
                  + "k,weird,0,1,2,3,0,0\n", 3,
                  "'weird' is not a valid JobKind"),
    "jobs duplicate": (read_jobs_csv, ",".join(JOBS_FIELDS) + "\n"
                       + _JOB_ROW + _JOB_ROW, 3, _DUPLICATE),
    # A repeated id's row is checked by itself before its id is.
    "jobs duplicate malformed": (read_jobs_csv, ",".join(JOBS_FIELDS) + "\n"
                                 + _JOB_ROW + "j,standard,0,1,-5,5,0,0\n", 3,
                                 "negative size field for j"),
    "canonical": (parse_canonical_csv, ",".join(CANONICAL_FIELDS) + "\n"
                  "j,0,1,nope,0.1\n", 2, None),
    "canonical duplicate": (parse_canonical_csv,
                            ",".join(CANONICAL_FIELDS) + "\n"
                            "j,0,1,0.1,0.1\nj,1,1,0.1,0.1\n", 3, _DUPLICATE),
    "canonical duplicate malformed": (parse_canonical_csv,
                                      ",".join(CANONICAL_FIELDS) + "\n"
                                      "j,0,1,0.1,0.1\nj,1,1,0.1,1.5\n", 3,
                                      "max_mem_frac=1.5 outside [0, 1] for j"),
}


@pytest.mark.parametrize("name", sorted(_BAD_CSVS))
def test_csv_errors_name_the_file_and_line(tmp_path, name):
    reader, text, line, message = _BAD_CSVS[name]
    path = tmp_path / "run-a" / "bad.csv"
    path.parent.mkdir()
    path.write_text(text)
    at = re.escape(f"{path}: line {line}: ")
    with pytest.raises(TraceParseError, match=at):
        reader(path)
    with pytest.raises(TraceParseError, match=at):
        reader(str(path))
    with open(path, encoding="utf-8") as fh:  # an open file, by its name
        with pytest.raises(TraceParseError, match=at):
            reader(fh)
    with pytest.raises(TraceParseError, match=f"^line {line}: ") as err:
        reader(io.StringIO(text))  # nothing to name
    assert err.value.line == line
    if message is not None:
        assert str(err.value) == f"line {line}: {message}"
    header = "x\n" + text.split("\n", 1)[1]
    path.write_text(header)
    with pytest.raises(TraceParseError, match=re.escape(f"{path}: line 1: "
                                                        "expected header")):
        reader(path)


# (reader, header fields, a good row); the row after it holds one field a
# character longer than csv.reader's size limit.
_OVERSIZED_CSVS = {
    "canonical": (parse_canonical_csv, CANONICAL_FIELDS, "j,0,1,0.1,0.1"),
    "jobs": (read_jobs_csv, JOBS_FIELDS, _JOB_ROW.strip()),
    "outcomes": (read_outcomes_csv, OUTCOMES_FIELDS,
                 "a,standard,0,1,2,Completed,n1,0,0"),
    "pending": (read_pending_csv, PENDING_FIELDS, "0,0"),
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED_CSVS))
def test_an_oversized_field_names_the_file_and_line(tmp_path, name):
    reader, fields, row = _OVERSIZED_CSVS[name]
    limit = csv.field_size_limit()
    path = tmp_path / "big.csv"
    path.write_text(f"{','.join(fields)}\n{row}\n{'x' * (limit + 1)}\n")
    with pytest.raises(TraceParseError) as err:
        reader(path)
    assert str(err.value) == (f"{path}: line 3: field larger than field "
                              f"limit ({limit})")
    assert err.value.line == 3


class TestFigureDatasets:
    @pytest.fixture()
    def artifact_dir(self, tmp_path):
        from epcsched.trace import write_jobs_csv

        for label, wait in (("run-a", 5), ("run-b", 9)):
            d = tmp_path / label
            d.mkdir()
            jobs = [std_job("x", duration_ms=1_000, requested=6)]
            outcomes = [completed("x", 0, wait, wait + 1_000)]
            write_outcomes_csv(outcomes, d / "outcomes.csv")
            write_pending_csv([(0, 0), (5_000, 42)], d / "pending_epc.csv")
            write_jobs_csv(jobs, d / "jobs.csv")
            (d / "meta.json").write_text(json.dumps({"label": label}))
        return tmp_path

    def test_fig6(self, artifact_dir):
        out = figure_dataset(artifact_dir, 6)
        lines = out.read_text().splitlines()
        assert lines[0] == "# label time_ms pending_epc_bytes"
        assert "run-a 0 0" in lines
        assert "run-b 5000 42" in lines

    def test_fig7_and_9_cdf(self, artifact_dir):
        for fig in (7, 9):
            lines = figure_dataset(artifact_dir, fig).read_text().splitlines()
            assert lines[0] == "# label waiting_ms cumulative_fraction"
            assert "run-a 5 1" in lines
            assert "run-b 9 1" in lines

    def test_fig8_buckets(self, artifact_dir):
        lines = figure_dataset(artifact_dir, 8).read_text().splitlines()
        assert lines[0].startswith("# label class bucket_lo")
        std_rows = [l for l in lines if " std " in l]
        assert any(row.startswith("run-a std 4 8 1 5") for row in std_rows)

    def test_fig10_turnaround(self, artifact_dir):
        lines = figure_dataset(artifact_dir, 10).read_text().splitlines()
        assert "run-a 1005" in lines
        assert "run-b 1009" in lines
        assert lines[-1] == "workload 1000"

    def test_custom_destination(self, artifact_dir, tmp_path):
        dest = tmp_path / "custom.dat"
        assert figure_dataset(artifact_dir, 6, dest=dest) == dest
        assert dest.exists()

    def test_unknown_figure(self, artifact_dir):
        with pytest.raises(ValueError):
            figure_dataset(artifact_dir, 11)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            figure_dataset(tmp_path, 6)

    @pytest.mark.parametrize("text, reason", [
        ('["run-a"]', "expected an object with a string label"),
        ('{"epc_usable_sweep_bytes": 1}', "expected an object with a string label"),
        ("run-a", "Expecting value"),
    ], ids=["list", "no-label", "not-json"])
    def test_corrupt_meta_names_the_file_and_exits_3(
            self, artifact_dir, capsys, text, reason):
        meta = artifact_dir / "run-b" / "meta.json"
        meta.write_text(text)
        with pytest.raises(TraceParseError, match=re.escape(f"{meta}: {reason}")):
            figure_dataset(artifact_dir, 7)
        assert main(["report", "--dir", str(artifact_dir), "--figure", "7"]) == 3
        assert str(meta) in capsys.readouterr().err

    def test_fig8_outcome_without_job_names_both_and_exits_3(
            self, artifact_dir, capsys):
        jobs_file = artifact_dir / "run-b" / "jobs.csv"
        write_jobs_csv([std_job("y")], jobs_file)
        with pytest.raises(TraceParseError, match=re.escape(
                f"{jobs_file}: no job 'x' of outcomes.csv")):
            figure_dataset(artifact_dir, 8)
        assert main(["report", "--dir", str(artifact_dir), "--figure", "8"]) == 3
        assert str(jobs_file) in capsys.readouterr().err

    def test_duplicate_outcome_names_both_lines_and_exits_3(
            self, artifact_dir, capsys):
        outcomes_file = artifact_dir / "run-a" / "outcomes.csv"
        write_outcomes_csv([completed("j1", 0, 5_000, 6_000),
                            completed("j1", 0, 7_000, 8_000)], outcomes_file)
        with pytest.raises(TraceParseError, match=re.escape(
                f"{outcomes_file}: line 3: duplicate job_id 'j1' (first seen "
                "on line 2)")):
            figure_dataset(artifact_dir, 7)
        assert main(["report", "--dir", str(artifact_dir), "--figure", "7"]) == 3
        assert str(outcomes_file) in capsys.readouterr().err

    def test_many_figures_match_one_at_a_time(self, artifact_dir, tmp_path):
        one_by_one = {}
        for figure in FIGURES:
            dest = tmp_path / f"one-{figure}.dat"
            figure_dataset(artifact_dir, figure, dest=dest)
            one_by_one[figure] = dest.read_bytes()
        paths = figure_datasets(artifact_dir)
        assert paths == [artifact_dir / f"fig{f}.dat" for f in FIGURES]
        assert {f: p.read_bytes() for f, p in zip(FIGURES, paths)} == one_by_one
        # each figure once, in the order asked for
        assert figure_datasets(artifact_dir, [10, 7, 10]) == [
            artifact_dir / "fig10.dat", artifact_dir / "fig7.dat"]

    def test_many_figures_unknown_figure(self, artifact_dir):
        with pytest.raises(ValueError, match="unknown figure 11"):
            figure_datasets(artifact_dir, [6, 11])
        assert not list(artifact_dir.glob("*.dat"))

    def test_many_figures_write_nothing_on_a_fault(self, artifact_dir):
        jobs_file = artifact_dir / "run-b" / "jobs.csv"
        write_jobs_csv([std_job("y")], jobs_file)
        with pytest.raises(TraceParseError, match=re.escape(
                f"{jobs_file}: no job 'x' of outcomes.csv")):
            figure_datasets(artifact_dir)
        assert not list(artifact_dir.glob("*.dat"))

    def test_report_takes_several_figures_or_all(self, artifact_dir, capsys):
        assert main(["report", "--dir", str(artifact_dir), "--figure", "10",
                     "--figure", "6"]) == 0
        assert capsys.readouterr().out == (
            f"wrote {artifact_dir / 'fig10.dat'}\n"
            f"wrote {artifact_dir / 'fig6.dat'}\n")
        assert main(["report", "--dir", str(artifact_dir), "--figure",
                     "all"]) == 0
        assert main(["report", "--dir", str(artifact_dir), "--figure",
                     "07"]) == 0  # a figure number is read as an int
        assert all((artifact_dir / f"fig{f}.dat").stat().st_size > 0
                   for f in FIGURES)

    def test_report_out_takes_one_figure(self, artifact_dir, tmp_path, capsys):
        out = tmp_path / "two.dat"
        assert main(["report", "--dir", str(artifact_dir), "--figure", "6",
                     "--figure", "7", "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert not out.exists()
        assert main(["report", "--dir", str(artifact_dir), "--figure", "7",
                     "--figure", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == figure_dataset(artifact_dir, 7).read_bytes()

    def test_leftover_staging_directory_is_skipped(self, artifact_dir):
        # what a run killed after writing meta.json but before the rename
        # leaves behind
        shutil.copytree(artifact_dir / "run-a", artifact_dir / "run-a.tmp")
        lines = figure_dataset(artifact_dir, 10).read_text().splitlines()
        assert [line.split()[0] for line in lines[1:]] == [
            "run-a", "run-b", "workload"]
