"""Trace parsing, slicing, scaling, and adversarial job injection."""

import contextlib
import copy
import csv
import dataclasses
import gc
import gzip
import inspect
import io
import logging
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epcsched import _csvio, trace
from epcsched.trace import (
    DEFAULT_SGX_MULTIPLIER,
    DEFAULT_STD_MULTIPLIER,
    JOBS_FIELDS,
    JobKind,
    JobSpec,
    RawJobRecord,
    ScalingConfig,
    TraceParseError,
    inject_malicious,
    materialize,
    parse_canonical_csv,
    parse_trace,
    read_jobs_csv,
    slice_and_sample,
    write_canonical_csv,
    write_jobs_csv,
)

GOOD_CSV = """\
job_id,submit_s,duration_s,assigned_mem_frac,max_mem_frac
b,5,10,0.25,0.2
a,1,2,0.5,0.5
"""


def rec(job_id="j", submit_s=0.0, duration_s=1.0, assigned=0.5, peak=0.5):
    return RawJobRecord(job_id, submit_s, duration_s, assigned, peak)


class TestParseCanonical:
    def test_parses_and_sorts_by_submit(self):
        records = parse_canonical_csv(io.StringIO(GOOD_CSV))
        assert [r.job_id for r in records] == ["a", "b"]
        assert records[0] == RawJobRecord("a", 1.0, 2.0, 0.5, 0.5)

    def test_empty_file(self):
        assert parse_canonical_csv(io.StringIO("")) == []

    def test_header_only(self):
        header = ",".join(("job_id", "submit_s", "duration_s",
                           "assigned_mem_frac", "max_mem_frac"))
        assert parse_canonical_csv(io.StringIO(header + "\n")) == []

    def test_wrong_header(self):
        with pytest.raises(TraceParseError) as e:
            parse_canonical_csv(io.StringIO("a,b,c,d,e\n"))
        assert e.value.line == 1

    def test_wrong_field_count(self):
        with pytest.raises(TraceParseError) as e:
            parse_canonical_csv(io.StringIO(GOOD_CSV + "x,1,2\n"))
        assert e.value.line == 4

    def test_non_numeric_field(self):
        with pytest.raises(TraceParseError) as e:
            parse_canonical_csv(io.StringIO(GOOD_CSV + "x,oops,2,0.1,0.1\n"))
        assert e.value.line == 4

    def test_duplicate_job_id(self):
        with pytest.raises(TraceParseError, match="duplicate"):
            parse_canonical_csv(io.StringIO(GOOD_CSV + "a,9,1,0.1,0.1\n"))

    def test_fraction_out_of_range(self):
        with pytest.raises(TraceParseError) as e:
            parse_canonical_csv(io.StringIO(GOOD_CSV + "x,1,1,1.5,0.1\n"))
        assert e.value.line == 4

    @pytest.mark.parametrize("row, field", [("x,nan,2,0.1,0.1", "submit_s"),
                                            ("x,1,inf,0.1,0.1", "duration_s")])
    def test_non_finite_time_names_line(self, row, field):
        with pytest.raises(TraceParseError, match=field) as e:
            parse_canonical_csv(io.StringIO(GOOD_CSV + row + "\n"))
        assert e.value.line == 4

    def test_negative_duration_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="epcsched.trace"):
            records = parse_canonical_csv(io.StringIO(GOOD_CSV + "x,1,-3,0.1,0.1\n"))
        assert [r.job_id for r in records] == ["a", "b"]
        assert "negative duration" in caplog.text

    def test_path_input(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text(GOOD_CSV)
        assert len(parse_canonical_csv(p)) == 2

    def test_dispatcher_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            parse_trace(io.StringIO(GOOD_CSV), fmt="mystery")


class TestBorgTables:
    @staticmethod
    def _write_shard(path, rows):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @staticmethod
    def _event(time_us, job, task, etype, mem=""):
        row = [""] * 11
        row[0], row[2], row[3], row[5], row[10] = str(time_us), job, task, str(etype), mem
        return row

    @staticmethod
    def _usage(job, task, mem):
        row = [""] * 11
        row[2], row[3], row[10] = job, task, mem
        return row

    def test_extracts_tasks(self, tmp_path):
        self._write_shard(tmp_path / "task_events" / "part-00000.csv.gz", [
            self._event(1_000_000, "42", "0", 0, "0.25"),
            self._event(2_000_000, "42", "0", 1),
            self._event(5_000_000, "42", "0", 4),
            # Never finishes: dropped.
            self._event(1_000_000, "42", "1", 0, "0.5"),
            self._event(2_000_000, "42", "1", 1),
            # Request above the rescaling ceiling: clamped.
            self._event(0, "43", "0", 0, "1.5"),
            self._event(1_000_000, "43", "0", 1),
            self._event(2_000_000, "43", "0", 4),
        ])
        self._write_shard(tmp_path / "task_usage" / "part-00000.csv.gz", [
            self._usage("42", "0", "0.3"),
            self._usage("42", "0", "0.4"),
        ])
        records = parse_trace(tmp_path, fmt="borg_tables")
        assert [r.job_id for r in records] == ["43-0", "42-0"]
        r42 = records[1]
        assert r42.submit_s == 1.0
        assert r42.duration_s == 3.0
        assert r42.assigned_mem_frac == 0.25
        assert r42.max_mem_frac == 0.4
        assert records[0].assigned_mem_frac == 1.0

    def test_missing_events_dir(self, tmp_path):
        with pytest.raises(TraceParseError):
            parse_trace(tmp_path, fmt="borg_tables")

    @pytest.mark.parametrize("table", ["task_events", "task_usage"])
    def test_short_row_names_shard_and_row(self, tmp_path, table):
        self._write_shard(tmp_path / "task_events" / "part-00000.csv.gz",
                          [self._event(0, "42", "0", 0, "0.25")])
        shard = tmp_path / table / "part-00001.csv.gz"
        good = (self._event(0, "42", "0", 1) if table == "task_events"
                else self._usage("42", "0", "0.3"))
        self._write_shard(shard, [good, ["5"]])
        with pytest.raises(TraceParseError) as err:
            parse_trace(tmp_path, fmt="borg_tables")
        assert err.value.line == 2
        assert str(err.value).startswith(f"{shard}: line 2: short row")

    def test_bad_number_names_shard_and_row(self, tmp_path):
        shard = tmp_path / "task_events" / "part-00000.csv.gz"
        self._write_shard(shard, [self._event(0, "42", "0", "SUBMIT")])
        with pytest.raises(TraceParseError, match="line 1") as err:
            parse_trace(tmp_path, fmt="borg_tables")
        assert str(shard) in str(err.value)

    @pytest.mark.parametrize("row", [
        ["inf", "", "42", "0", "", "1", "", "", "", "", ""],
        ["0", "", "42", "0", "", "0", "", "", "", "", "nan"],
    ])
    def test_non_finite_event_names_shard_and_row(self, tmp_path, row):
        shard = tmp_path / "task_events" / "part-00000.csv.gz"
        self._write_shard(shard, [self._event(0, "42", "0", 0), row])
        with pytest.raises(TraceParseError, match="line 2: .*non-finite"):
            parse_trace(tmp_path, fmt="borg_tables")

    def test_non_finite_usage_names_shard_and_row(self, tmp_path):
        self._write_shard(tmp_path / "task_events" / "part-00000.csv.gz",
                          [self._event(0, "42", "0", 0)])
        shard = tmp_path / "task_usage" / "part-00000.csv.gz"
        self._write_shard(shard, [self._usage("42", "0", "nan")])
        with pytest.raises(TraceParseError, match="line 1: .*non-finite") as err:
            parse_trace(tmp_path, fmt="borg_tables")
        assert str(shard) in str(err.value)

    @staticmethod
    def _flip(data: bytes, at: int) -> bytes:
        return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]

    @pytest.mark.parametrize("spoil, reason", [
        (lambda gz: gz[:-20], "end-of-stream marker"),        # EOFError
        (lambda gz: b"not gzip", "Not a gzipped file"),       # BadGzipFile
        (lambda gz: TestBorgTables._flip(gz, 10),             # zlib.error
         "while decompressing data"),
        (lambda gz: gzip.compress(b"0,,42,0,,0,,,,,0.25\xff\n"), "utf-8"),
    ], ids=["truncated", "not-gzip", "corrupt-deflate", "not-utf8"])
    def test_unreadable_shard_names_it(self, tmp_path, spoil, reason):
        (tmp_path / "task_usage").mkdir()
        shard = tmp_path / "task_events" / "part-00000.csv.gz"
        shard.parent.mkdir()
        shard.write_bytes(spoil(gzip.compress(b"0,,42,0,,0,,,,,0.25\n" * 100)))
        with pytest.raises(TraceParseError, match=reason) as err:
            parse_trace(tmp_path, fmt="borg_tables")
        assert str(err.value).startswith(f"{shard}: unreadable shard: ")

    def test_colliding_task_ids_name_both_tasks(self, tmp_path):
        # ("a-b", "c") and ("a", "b-c") both join to the id "a-b-c"
        events = tmp_path / "task_events"
        rows = []
        for job, task in (("a-b", "c"), ("a", "b-c")):
            rows += [self._event(0, job, task, 0, "0.25"),
                     self._event(0, job, task, 1),
                     self._event(1_000_000, job, task, 4)]
        self._write_shard(events / "part-00000.csv.gz", rows)
        with pytest.raises(TraceParseError) as err:
            parse_trace(tmp_path, fmt="borg_tables")
        message = str(err.value)
        assert message.startswith(f"{events}: ")
        assert "('a-b', 'c')" in message and "('a', 'b-c')" in message
        assert "'a-b-c'" in message

    def test_a_dropped_task_does_not_collide(self, tmp_path):
        # ("a", "b-c") never finishes, so only ("a-b", "c") becomes a record
        self._write_shard(tmp_path / "task_events" / "part-00000.csv.gz", [
            self._event(0, "a-b", "c", 1),
            self._event(1_000_000, "a-b", "c", 4),
            self._event(0, "a", "b-c", 1),
        ])
        (record,) = parse_trace(tmp_path, fmt="borg_tables")
        assert record.job_id == "a-b-c"

    def test_a_finish_after_the_trace_window_is_dropped(self, tmp_path):
        # 2^63 - 1 us is the schema's time of an event after the window; it
        # parses to 2^63, a task of about 292,000 years.
        self._write_shard(tmp_path / "task_events" / "part-00000.csv.gz", [
            self._event(0, "42", "0", 1),
            self._event(2 ** 63 - 1, "42", "0", 4),
            self._event(0, "42", "1", 1),
            self._event(5_000_000, "42", "1", 4),
        ])
        (record,) = parse_trace(tmp_path, fmt="borg_tables")
        assert (record.job_id, record.duration_s) == ("42-1", 5.0)


class TestSliceAndSample:
    RECORDS = [rec(f"j{i}", submit_s=float(i)) for i in range(10)]

    def test_half_open_window(self):
        cfg = ScalingConfig(slice_start_s=2, slice_end_s=5)
        out = slice_and_sample(self.RECORDS, cfg)
        assert [r.job_id for r in out] == ["j2", "j3", "j4"]

    def test_rebases_submit_times(self):
        cfg = ScalingConfig(slice_start_s=2, slice_end_s=5)
        out = slice_and_sample(self.RECORDS, cfg)
        assert [r.submit_s for r in out] == [0.0, 1.0, 2.0]

    def test_stride(self):
        cfg = ScalingConfig(sampling_stride=3)
        out = slice_and_sample(self.RECORDS, cfg)
        assert [r.job_id for r in out] == ["j0", "j3", "j6", "j9"]

    def test_defaults_keep_everything(self):
        assert slice_and_sample(self.RECORDS, ScalingConfig()) == self.RECORDS

    def test_full_range_slice_shares_the_records(self):
        out = slice_and_sample(self.RECORDS, ScalingConfig())
        assert out is not self.RECORDS
        assert all(a is b for a, b in zip(out, self.RECORDS, strict=True))

    @pytest.mark.parametrize("stride", [2, 3, 11])
    def test_stride_keeps_every_kth_record(self, stride):
        out = slice_and_sample(self.RECORDS, ScalingConfig(sampling_stride=stride))
        expected = self.RECORDS[::stride]
        assert all(a is b for a, b in zip(out, expected, strict=True))

    def test_nonzero_start_rebases_new_records(self):
        cfg = ScalingConfig(slice_start_s=3, sampling_stride=2)
        out = slice_and_sample(self.RECORDS, cfg)
        assert out == [dataclasses.replace(r, submit_s=r.submit_s - 3)
                       for r in self.RECORDS[3::2]]


class TestMaterialize:
    def test_standard_scaling(self):
        cfg = ScalingConfig(sgx_fraction=0.0)
        (job,) = materialize([rec(assigned=0.25, peak=0.125)], cfg)
        assert job.kind is JobKind.STANDARD
        assert job.requested_mem == DEFAULT_STD_MULTIPLIER // 4 == 8_589_934_592
        assert job.actual_mem == 4_294_967_296
        assert job.declared_epc_pages == 0 and job.actual_epc_pages == 0

    def test_sgx_scaling(self):
        cfg = ScalingConfig(sgx_fraction=1.0)
        (job,) = materialize([rec(assigned=0.5, peak=0.5)], cfg)
        assert job.kind is JobKind.SGX
        assert job.requested_mem == round(0.5 * DEFAULT_SGX_MULTIPLIER) == 49_020_928
        assert job.declared_epc_pages == 11_968
        assert job.actual_epc_pages == 11_968

    def test_pages_round_up(self):
        cfg = ScalingConfig(sgx_fraction=1.0, sgx_multiplier=4096 * 10)
        (job,) = materialize([rec(assigned=0.11, peak=0.11)], cfg)
        # 0.11 * 40960 = 4505.6 bytes -> 4506 -> 2 pages
        assert job.requested_mem == 4506
        assert job.declared_epc_pages == 2

    def test_enclave_declares_at_least_one_page(self):
        cfg = ScalingConfig(sgx_fraction=1.0)
        (job,) = materialize([rec(assigned=0.0, peak=0.0)], cfg)
        assert job.requested_mem == 0
        assert job.declared_epc_pages == 1
        assert job.actual_epc_pages == 0

    def test_times_to_milliseconds(self):
        (job,) = materialize([rec(submit_s=1.5, duration_s=2.0006)], ScalingConfig())
        assert job.submit_ms == 1500
        assert job.duration_ms == 2001

    def test_fraction_zero_and_one(self):
        records = [rec(f"j{i}") for i in range(50)]
        all_std = materialize(records, ScalingConfig(sgx_fraction=0.0))
        all_sgx = materialize(records, ScalingConfig(sgx_fraction=1.0))
        assert all(j.kind is JobKind.STANDARD for j in all_std)
        assert all(j.kind is JobKind.SGX for j in all_sgx)

    def test_tagging_deterministic_per_seed(self):
        records = [rec(f"j{i}") for i in range(100)]
        cfg = ScalingConfig(sgx_fraction=0.5, rng_seed=7)
        a = [j.kind for j in materialize(records, cfg)]
        b = [j.kind for j in materialize(records, cfg)]
        assert a == b
        c = [j.kind for j in materialize(records, ScalingConfig(sgx_fraction=0.5,
                                                                rng_seed=8))]
        assert a != c

    def test_raising_fraction_only_adds_enclave_jobs(self):
        records = [rec(f"j{i}") for i in range(200)]

        def tagged(fraction):
            cfg = ScalingConfig(sgx_fraction=fraction, rng_seed=3)
            return {j.job_id for j in materialize(records, cfg)
                    if j.kind is JobKind.SGX}

        t25, t50, t100 = tagged(0.25), tagged(0.5), tagged(1.0)
        assert t25 < t50 < t100
        assert len(t100) == 200

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2 ** 16))
    def test_tag_monotone_property(self, f1, f2, seed):
        lo, hi = sorted((f1, f2))
        records = [rec(f"j{i}") for i in range(30)]

        def tagged(fraction):
            cfg = ScalingConfig(sgx_fraction=fraction, rng_seed=seed)
            return {j.job_id for j in materialize(records, cfg)
                    if j.kind is not JobKind.STANDARD}

        assert tagged(lo) <= tagged(hi)


def _seed_tag_uniform(seed: int, index: int) -> float:
    """The per-record draw `materialize` made before it drew every tag from
    one stream, kept verbatim as the reference."""
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[index, 0, 0, 0]))
    return float(gen.random())


class TestTagUniforms:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40, 2 ** 63, 2 ** 64 - 1,
                                      2 ** 100, 2 ** 128 - 1])
    def test_equal_to_the_per_record_draws(self, seed):
        n = 3_000
        assert trace._tag_uniforms(seed, n) == [
            _seed_tag_uniform(seed, i) for i in range(n)]

    @given(st.integers(0, 2 ** 128 - 1), st.integers(0, 40))
    def test_prefix_stable(self, seed, n):
        # record i's draw does not depend on how many records follow it
        assert trace._tag_uniforms(seed, n) == trace._tag_uniforms(
            seed, n + 5)[:n]

    def test_no_records(self):
        assert trace._tag_uniforms(3, 0) == []

    @pytest.mark.parametrize("n", [0, 1, trace._TAG_BLOCK - 1,
                                   trace._TAG_BLOCK, trace._TAG_BLOCK + 1])
    @pytest.mark.parametrize("seed", [0, 140051, 2 ** 70 + 5, 2 ** 128 - 1])
    def test_block_edges(self, seed, n):
        assert trace._tag_uniforms(seed, n) == [
            _seed_tag_uniform(seed, i) for i in range(n)]


def _reference_materialize(records, cfg):
    """`materialize` spelled out: each record's tag from its own numpy
    Philox stream, then the byte rounding and the page ceilings."""
    jobs = []
    for i, r in enumerate(records):
        sgx = _seed_tag_uniform(cfg.rng_seed, i) < cfg.sgx_fraction
        multiplier = cfg.sgx_multiplier if sgx else cfg.std_multiplier
        requested = int(round(r.assigned_mem_frac * multiplier))
        actual = int(round(r.max_mem_frac * multiplier))
        pages = [max(1, -(-requested // 4096)), -(-actual // 4096)]
        jobs.append(JobSpec(r.job_id, JobKind.SGX if sgx else JobKind.STANDARD,
                            int(round(r.submit_s * 1000)),
                            int(round(r.duration_s * 1000)), requested, actual,
                            *(pages if sgx else [0, 0])))
    return jobs


@pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 128 - 1])
def test_materialize_equals_the_per_record_draws(fraction, seed):
    # fractions 0 and 1 draw nothing; the result must not show it
    records = [rec(f"j{i}", submit_s=i * 0.37, duration_s=i * 1.3,
                   assigned=(i * 0.137) % 1, peak=(i * 0.071) % 1)
               for i in range(300)]
    cfg = ScalingConfig(sgx_fraction=fraction, rng_seed=seed,
                        sgx_multiplier=4096 * 10 + 1)
    assert materialize(records, cfg) == _reference_materialize(records, cfg)


class TestInjectMalicious:
    BASE = materialize([rec("a", submit_s=3.0, duration_s=7.0)], ScalingConfig())

    def test_appends_squatters(self):
        out = inject_malicious(self.BASE, n=2, declared_pages=1,
                               use_fraction=0.5, usable_pages=23_936)
        assert [j.job_id for j in out] == ["a", "malicious-0", "malicious-1"]
        mal = out[1]
        assert mal.kind is JobKind.MALICIOUS_SGX
        assert mal.submit_ms == 0
        assert mal.duration_ms == 10_000  # outlives the whole workload
        assert mal.declared_epc_pages == 1
        assert mal.actual_epc_pages == 11_968
        assert mal.requested_mem == 4096
        assert mal.actual_mem == 11_968 * 4096

    def test_zero_jobs_is_identity(self):
        assert inject_malicious(self.BASE, 0, 1, 0.5, 100) == list(self.BASE)

    def test_validation(self):
        with pytest.raises(ValueError):
            inject_malicious(self.BASE, -1, 1, 0.5, 100)
        with pytest.raises(ValueError):
            inject_malicious(self.BASE, 1, 1, 0.0, 100)
        with pytest.raises(ValueError):
            inject_malicious(self.BASE, 1, 1, 1.5, 100)
        with pytest.raises(ValueError):
            inject_malicious(self.BASE, 1, 1, 0.5, 0)


class TestValidation:
    def test_record_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RawJobRecord("", 0, 1, 0.5, 0.5)
        with pytest.raises(ValueError):
            RawJobRecord("j", -1, 1, 0.5, 0.5)
        with pytest.raises(ValueError):
            RawJobRecord("j", 0, 1, 1.5, 0.5)

    @pytest.mark.parametrize("field", ["submit_s", "duration_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_record_rejects_non_finite_times(self, field, value):
        times = {"submit_s": 0.0, "duration_s": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            RawJobRecord("j", times["submit_s"], times["duration_s"], 0.5, 0.5)

    def test_jobspec_standard_cannot_hold_pages(self):
        with pytest.raises(ValueError):
            JobSpec("j", JobKind.STANDARD, 0, 1, 0, 0, 1, 0)

    def test_jobspec_enclave_needs_declared_page(self):
        with pytest.raises(ValueError):
            JobSpec("j", JobKind.SGX, 0, 1, 0, 0, 0, 0)

    def test_scaling_config_bounds(self):
        with pytest.raises(ValueError):
            ScalingConfig(slice_start_s=5, slice_end_s=5)
        with pytest.raises(ValueError):
            ScalingConfig(sampling_stride=0)
        with pytest.raises(ValueError):
            ScalingConfig(sgx_fraction=1.1)
        with pytest.raises(ValueError):
            ScalingConfig(std_multiplier=0)

    def test_rng_seed_bounds(self):
        ScalingConfig(rng_seed=2 ** 128 - 1)
        for seed in (-1, 2 ** 128):
            with pytest.raises(ValueError, match="rng_seed"):
                ScalingConfig(rng_seed=seed)

    @pytest.mark.parametrize("key, value, rule", [
        ("slice_end_s", math.nan, "must be a number or inf"),
        ("slice_start_s", math.inf, "must be a finite number >= 0"),
        ("slice_start_s", math.nan, "must be a finite number >= 0")])
    def test_non_finite_slice_bound_names_its_key_and_value(self, key, value,
                                                            rule):
        with pytest.raises(ValueError, match=f"^{key} {rule}, got {value!r}$"):
            ScalingConfig(**{key: value})

    def test_scaling_config_defaults(self):
        cfg = ScalingConfig()
        assert cfg.slice_end_s == math.inf
        assert cfg.std_multiplier == 32 * 1024 ** 3
        assert cfg.sgx_multiplier == 98_041_856


# The validation rules of both records restated as plain ordered checks: the
# message of the first rule a record breaks, or None for a valid record.
def _record_fault(job_id, submit_s, duration_s, assigned, peak):
    if not job_id:
        return "empty job_id"
    if not math.isfinite(submit_s):
        return f"non-finite submit_s for {job_id}"
    if not math.isfinite(duration_s):
        return f"non-finite duration_s for {job_id}"
    if submit_s < 0:
        return f"negative submit time for {job_id}"
    if duration_s < 0:
        return f"negative duration for {job_id}"
    if not 0.0 <= assigned <= 1.0:
        return f"assigned_mem_frac={assigned} outside [0, 1] for {job_id}"
    if not 0.0 <= peak <= 1.0:
        return f"max_mem_frac={peak} outside [0, 1] for {job_id}"
    return None


def _job_fault(job_id, kind, submit_ms, duration_ms, requested_mem,
               actual_mem, declared_pages, actual_pages):
    if submit_ms < 0 or duration_ms < 0:
        return f"negative time field for {job_id}"
    if (requested_mem < 0 or actual_mem < 0 or declared_pages < 0
            or actual_pages < 0):
        return f"negative size field for {job_id}"
    if kind.uses_epc:
        if declared_pages < 1:
            return f"enclave job {job_id} must declare at least one page"
    elif declared_pages or actual_pages:
        return f"standard job {job_id} cannot hold protected pages"
    return None


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1, 0,
                                0.5, 1, 1.5])
_EDGE_INTS = st.integers(min_value=-1, max_value=2)


class TestValidationOracle:
    """Each record's constructor raises exactly when the plain restatement
    of its rules finds a fault, with that fault's message."""

    @settings(max_examples=500)
    @given(st.tuples(st.sampled_from(["", "j"]), _EDGE_FLOATS, _EDGE_FLOATS,
                     _EDGE_FLOATS, _EDGE_FLOATS))
    def test_raw_record(self, fields):
        fault = _record_fault(*fields)
        if fault is None:
            RawJobRecord(*fields)
        else:
            with pytest.raises(ValueError) as err:
                RawJobRecord(*fields)
            assert str(err.value) == fault

    @settings(max_examples=500)
    @given(st.tuples(st.sampled_from(["", "j"]), _EDGE_FLOATS, _EDGE_FLOATS,
                     _EDGE_FLOATS, _EDGE_FLOATS))
    def test_raw_record_by_keyword(self, fields):
        self._check_by_keyword(RawJobRecord, fields, _record_fault(*fields))

    @settings(max_examples=500)
    @given(st.sampled_from(list(JobKind)), st.tuples(*[_EDGE_INTS] * 6))
    def test_job_spec(self, kind, sizes):
        fault = _job_fault("j", kind, *sizes)
        if fault is None:
            JobSpec("j", kind, *sizes)
        else:
            with pytest.raises(ValueError) as err:
                JobSpec("j", kind, *sizes)
            assert str(err.value) == fault

    @settings(max_examples=500)
    @given(st.sampled_from(list(JobKind)), st.tuples(*[_EDGE_INTS] * 6))
    def test_job_spec_by_keyword(self, kind, sizes):
        fields = ("j", kind, *sizes)
        self._check_by_keyword(JobSpec, fields, _job_fault(*fields))

    @staticmethod
    def _check_by_keyword(cls, values, fault):
        """Build the record with each field named: the constructor takes
        every field by its name and stores each value in its own field."""
        names = [f.name for f in dataclasses.fields(cls)]
        kwargs = dict(zip(names, values))
        if fault is None:
            record = cls(**kwargs)
            assert {n: getattr(record, n) for n in names} == kwargs
        else:
            with pytest.raises(ValueError) as err:
                cls(**kwargs)
            assert str(err.value) == fault


@pytest.mark.parametrize("record", [
    RawJobRecord("j", 1.5, 2.0, 0.25, 0.5),
    JobSpec("j", JobKind.SGX, 5, 10, 4096, 8192, 1, 2),
    JobSpec("k", JobKind.STANDARD, 0, 1, 7, 3, 0, 0),
], ids=["raw", "sgx", "standard"])
class TestRecordSemantics:
    @staticmethod
    def _values(record):
        return tuple(getattr(record, f.name)
                     for f in dataclasses.fields(record))

    def test_pickle_round_trip(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)
        assert self._values(back) == self._values(record)

    def test_equality_hash_and_repr_follow_the_fields(self, record):
        twin = type(record)(*self._values(record))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record) == hash(self._values(record))
        assert record != self._values(record)
        other = dataclasses.replace(record, job_id="other")
        assert other != record
        assert repr(record) == f"{type(record).__name__}(" + ", ".join(
            f"{f.name}={getattr(record, f.name)!r}"
            for f in dataclasses.fields(record)) + ")"

    def test_replace(self, record):
        other = dataclasses.replace(record, job_id="other")
        assert other.job_id == "other"
        assert self._values(other)[1:] == self._values(record)[1:]
        # The third field is a time in both records: a negative one is
        # rejected again.
        third = dataclasses.fields(record)[2].name
        with pytest.raises(ValueError, match="negative"):
            dataclasses.replace(record, **{third: -1})

    def test_frozen_and_slotted(self, record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.job_id = "other"
        assert not hasattr(record, "__dict__")

    def test_delete_is_refused(self, record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.job_id
        assert record.job_id in ("j", "k")

    def test_constructor_takes_the_fields_in_order(self, record):
        params = list(inspect.signature(type(record)).parameters)
        assert params == [f.name for f in dataclasses.fields(record)]

    @pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy])
    def test_copy_round_trip(self, record, dup):
        back = dup(record)
        assert back == record and type(back) is type(record)
        assert self._values(back) == self._values(record)


class TestRoundTrips:
    def test_canonical_csv(self):
        records = parse_canonical_csv(io.StringIO(GOOD_CSV))
        buf = io.StringIO()
        write_canonical_csv(records, buf)
        assert parse_canonical_csv(io.StringIO(buf.getvalue())) == records

    def test_jobs_csv(self):
        cfg = ScalingConfig(sgx_fraction=0.5, rng_seed=11)
        jobs = materialize([rec(f"j{i}", submit_s=i) for i in range(20)], cfg)
        jobs = inject_malicious(jobs, 1, 1, 0.5, 23_936)
        buf = io.StringIO()
        write_jobs_csv(jobs, buf)
        assert read_jobs_csv(io.StringIO(buf.getvalue())) == jobs

    def test_jobs_csv_rejects_foreign_header(self):
        with pytest.raises(TraceParseError):
            read_jobs_csv(io.StringIO("a,b\n1,2\n"))

    @pytest.mark.parametrize("row", ["j1,standard,0,1,2,2,0",
                                     "j1,standard,0,1,2,2,0,0,9",
                                     "j1,standard,0,x,2,2,0,0",
                                     "j1,weird,0,1,2,2,0,0"])
    def test_jobs_csv_bad_row_names_line(self, row):
        text = ",".join(JOBS_FIELDS) + "\nj0,standard,0,1,2,2,0,0\n" + row + "\n"
        with pytest.raises(TraceParseError, match="line 3"):
            read_jobs_csv(io.StringIO(text))


@contextlib.contextmanager
def collector(on: bool):
    """The cyclic collector on or off inside the block, as it was after."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestGcPaused:
    """The collector is off inside a paused call and back as the caller
    left it afterwards, through nested calls and calls that raise."""

    @pytest.mark.parametrize("on", [True, False])
    def test_nested_calls(self, on):
        seen = []

        @_csvio.gc_paused
        def inner():
            seen.append(gc.isenabled())

        @_csvio.gc_paused
        def outer():
            inner()
            seen.append(gc.isenabled())  # the inner call did not turn it on

        with collector(on):
            outer()
            assert gc.isenabled() is on
        assert seen == [False, False]

    @pytest.mark.parametrize("on", [True, False])
    def test_raising_calls(self, on):
        @_csvio.gc_paused
        def inner():
            raise TraceParseError("bad row", line=2)

        @_csvio.gc_paused
        def outer():
            with pytest.raises(TraceParseError):
                inner()
            assert not gc.isenabled()
            inner()

        with collector(on):
            with pytest.raises(TraceParseError, match="line 2: bad row"):
                outer()
            assert gc.isenabled() is on

    @pytest.mark.parametrize("on", [True, False])
    def test_a_reader_that_raises(self, on, tmp_path):
        with collector(on):
            with pytest.raises(TraceParseError, match="missing task_events"):
                trace.parse_borg_tables(tmp_path)
            bad = ",".join(trace.CANONICAL_FIELDS) + "\nj,0,1,nope,0.1\n"
            with pytest.raises(TraceParseError, match="line 2"):
                parse_canonical_csv(io.StringIO(bad))
            assert gc.isenabled() is on
            assert parse_canonical_csv(io.StringIO(GOOD_CSV))
            assert gc.isenabled() is on

    def test_keeps_the_name_and_the_wrapped_function(self):
        def build(rows):
            """Doc."""
            return list(rows)

        paused = _csvio.gc_paused(build)
        assert paused.__wrapped__ is build
        assert (paused.__name__, paused.__doc__) == ("build", "Doc.")
        assert paused(range(3)) == [0, 1, 2]
