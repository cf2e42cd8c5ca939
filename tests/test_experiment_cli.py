"""Experiment configs, sweep expansion, artifact layout, and the CLI."""

import csv
import gzip
import hashlib
import json
import math
import multiprocessing
import os
import re
import time

import pytest

from epcsched import experiment, report
from epcsched._units import MIB
from epcsched.cli import main
from epcsched.engine import ConfigError, JobStatus
from epcsched.experiment import (
    ExperimentConfig,
    MaliciousConfig,
    _swept_epc,
    config_from_mapping,
    load_cluster,
    load_config,
    run_experiment,
)
from epcsched.report import read_outcomes_csv, summary
from epcsched.trace import JobKind, read_jobs_csv

TRACE = """\
job_id,submit_s,duration_s,assigned_mem_frac,max_mem_frac
j1,0,30,0.2,0.15
j2,2,40,0.1,0.1
j3,4,30,0.15,0.12
j4,6,20,0.05,0.05
"""


# Config keys whose value must be an integer.
INTEGER_KEYS = ["sampling_stride", "rng_seed", "malicious_n",
                "malicious_declared_pages", "scheduler_period_ms",
                "probe_period_ms", "window_ms", "workers"]
# Config keys whose value must be a number, and those that must be a string.
FLOAT_KEYS = ["slice_start_s", "slice_end_s", "sgx_fraction",
              "malicious_use_fraction", "sgx_fraction_sweep"]
STRING_KEYS = ["trace", "trace_format", "cluster", "policy", "output_dir"]


@pytest.fixture()
def trace_path(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text(TRACE)
    return p


def flat_config(tmp_path, trace_path, extra=""):
    text = (f"# replay config\n"
            f"trace = {trace_path}\n"
            f"rng_seed = 3\n"
            f"output_dir = {tmp_path / 'artifacts'}\n" + extra)
    p = tmp_path / "experiment.cfg"
    p.write_text(text)
    return p


class TestConfigParsing:
    def test_flat_file_with_comments(self, tmp_path, trace_path):
        cfg = load_config(flat_config(tmp_path, trace_path,
                                      "sgx_fraction = 0.5\npolicy = spread\n"))
        assert cfg.trace_file == str(trace_path)
        assert cfg.scaling.sgx_fraction == 0.5
        assert cfg.scaling.rng_seed == 3
        assert cfg.policy == "spread"

    def test_json_file(self, tmp_path, trace_path):
        p = tmp_path / "experiment.json"
        p.write_text(json.dumps({
            "trace": str(trace_path),
            "sgx_fraction_sweep": [0.0, 0.5, 1.0],
            "enforce_limits": False,
        }))
        cfg = load_config(p)
        assert cfg.sgx_fraction_sweep == (0.0, 0.5, 1.0)
        assert cfg.enforce_limits is False

    def test_sweep_from_comma_list(self):
        cfg = config_from_mapping({"trace": "t.csv",
                                   "epc_usable_sweep": "32MiB, 64MiB"})
        assert cfg.epc_usable_sweep == (32 * MIB, 64 * MIB)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_mapping({"trace": "t.csv", "typo_key": 1})

    def test_trace_required(self):
        with pytest.raises(ConfigError, match="trace"):
            config_from_mapping({})

    def test_malicious_block(self):
        cfg = config_from_mapping({"trace": "t.csv", "malicious_n": "auto",
                                   "malicious_use_fraction": 0.4})
        assert cfg.malicious == MaliciousConfig(n=None, declared_pages=1,
                                                use_fraction=0.4)
        cfg = config_from_mapping({"trace": "t.csv", "malicious_n": 3})
        assert cfg.malicious.n == 3

    def test_no_malicious_keys_means_none(self):
        assert config_from_mapping({"trace": "t.csv"}).malicious is None

    @pytest.mark.parametrize("value", [0, -0.5, 2, "nan"])
    def test_malicious_use_fraction_outside_unit_interval(self, value):
        with pytest.raises(ConfigError, match="malicious_use_fraction"):
            config_from_mapping({"trace": "t.csv",
                                 "malicious_use_fraction": value})

    def test_malicious_declared_pages_below_one(self):
        with pytest.raises(ConfigError, match="malicious_declared_pages"):
            config_from_mapping({"trace": "t.csv",
                                 "malicious_declared_pages": 0})

    def test_rng_seed_beyond_philox_key(self):
        config_from_mapping({"trace": "t.csv", "rng_seed": 2 ** 128 - 1})
        with pytest.raises(ConfigError, match="rng_seed"):
            config_from_mapping({"trace": "t.csv", "rng_seed": 2 ** 128})

    @pytest.mark.parametrize("value", [{"a": 1}, [None], [[64]]])
    def test_non_size_sweep_names_its_key(self, value):
        with pytest.raises(ConfigError, match="epc_usable_sweep"):
            config_from_mapping({"trace": "t.csv", "epc_usable_sweep": value})

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"trace": "t.csv", "enforce_limits": "maybe"})

    def test_inconsistent_periods_fail_at_config_time(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"trace": "t.csv", "probe_period_ms": 30_000})

    def test_unknown_trace_format(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"trace": "t", "trace_format": "excel"})

    @pytest.mark.parametrize("key", [
        "slice_start_s", "slice_end_s", "sampling_stride", "sgx_fraction",
        "std_multiplier", "sgx_multiplier", "rng_seed", "malicious_n",
        "malicious_declared_pages", "malicious_use_fraction",
        "epc_usable_sweep", "sgx_fraction_sweep", "trace_format",
        "enforce_limits", "include_startup_delays", "apply_usable_fraction",
        "check_invariants", "scheduler_period_ms", "probe_period_ms",
        "window_ms", "workers",
    ])
    def test_bad_typed_value_names_its_key(self, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_mapping({"trace": "t.csv", key: "bogus"})

    @pytest.mark.parametrize("key, value", [
        *[(key, value) for value in (2.5, True) for key in INTEGER_KEYS],
        *[(key, True) for key in FLOAT_KEYS],
        *[(key, value) for key in STRING_KEYS
          for value in (None, 7, True, ["t.csv"])]])
    def test_value_of_the_wrong_type_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_mapping({"trace": "t.csv", key: value})

    def test_integral_float_is_an_integer(self):
        cfg = config_from_mapping({"trace": "t.csv", "window_ms": 30000.0})
        assert cfg.window_ms == 30_000 and type(cfg.window_ms) is int

    def test_flat_line_without_equals(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(p)


class TestLoadCluster:
    def test_default(self):
        specs = load_cluster(None)
        assert [s.node_id for s in specs] == ["node-1", "node-2", "sgx-1", "sgx-2"]

    def test_json_file(self, tmp_path):
        p = tmp_path / "cluster.json"
        p.write_text(json.dumps([
            {"node_id": "big", "std_capacity": "64GiB"},
            {"node_id": "enc", "std_capacity": "8GiB", "epc_total": "128MiB",
             "epc_usable": "93.5MiB"},
        ]))
        big, enc = load_cluster(p)
        assert big.std_capacity == 64 * 1024 ** 3 and big.epc is None
        assert enc.epc.usable_pages == 23_936

    def test_rejects_non_list(self, tmp_path):
        p = tmp_path / "cluster.json"
        p.write_text("{}")
        with pytest.raises(ConfigError):
            load_cluster(p)

    def test_rejects_missing_fields(self, tmp_path):
        p = tmp_path / "cluster.json"
        p.write_text(json.dumps([{"node_id": "x"}]))
        with pytest.raises(ConfigError):
            load_cluster(p)


    @pytest.mark.parametrize("key, value", [
        ("std_capacity", None), ("std_capacity", [64]),
        ("std_capacity", {"GiB": 64}), ("epc_usable", None),
        ("epc_total", None), ("epc_usable", float("inf")),
    ])
    def test_non_size_names_its_key(self, tmp_path, key, value):
        row = {"node_id": "enc", "std_capacity": "8GiB", key: value}
        p = tmp_path / "cluster.json"
        p.write_text(json.dumps([row]))
        with pytest.raises(ConfigError, match=key):
            load_cluster(p)

    @pytest.mark.parametrize("key", ["epc_usabel", "EPC_TOTAL", "memory"])
    def test_unknown_node_key_names_it_and_the_node(self, tmp_path, key):
        p = tmp_path / "cluster.json"
        p.write_text(json.dumps([{"node_id": "a", "std_capacity": "8GiB"},
                                 {"node_id": "enc", "std_capacity": "8GiB",
                                  key: "128MiB"}]))
        with pytest.raises(ConfigError, match=f"node 'enc': unknown key '{key}'"):
            load_cluster(p)

    @pytest.mark.parametrize("node_id", [None, "", 7, ["a"], {"id": "a"}, True])
    def test_node_id_must_be_a_non_empty_string(self, tmp_path, node_id):
        p = tmp_path / "cluster.json"
        p.write_text(json.dumps([{"node_id": node_id, "std_capacity": "8GiB"}]))
        with pytest.raises(ConfigError,
                           match="node_id must be a non-empty string, got "
                                 + re.escape(repr(node_id))):
            load_cluster(p)

    def test_rejects_duplicate_node_ids(self, tmp_path):
        p = tmp_path / "cluster.json"
        p.write_text(json.dumps([
            {"node_id": "a", "std_capacity": "8GiB"},
            {"node_id": "b", "std_capacity": "8GiB"},
            {"node_id": "a", "std_capacity": "4GiB"},
        ]))
        with pytest.raises(ConfigError, match="duplicate node_id 'a'"):
            load_cluster(p)


class TestSweepEpcModel:
    def test_direct_mode_sets_usable(self):
        m = _swept_epc(32 * MIB, apply_fraction=False)
        assert m.total_bytes == m.usable_bytes == 32 * MIB
        assert m.usable_pages == 8_192

    def test_direct_mode_requires_page_alignment(self):
        with pytest.raises(ValueError, match="whole number of pages"):
            _swept_epc(32 * MIB + 1, apply_fraction=False)

    def test_fraction_mode_scales_usable_share(self):
        m = _swept_epc(64 * MIB, apply_fraction=True)
        assert m.total_bytes == 64 * MIB
        assert m.usable_bytes == 49_020_928
        assert m.usable_pages == 11_968


class TestRunExperiment:
    def test_sweep_layout_and_summaries(self, tmp_path, trace_path):
        cfg = config_from_mapping({
            "trace": str(trace_path),
            "output_dir": str(tmp_path / "artifacts"),
            "epc_usable_sweep": "32MiB,64MiB",
            "sgx_fraction_sweep": "0.0,1.0",
            "rng_seed": 3,
        })
        root = run_experiment(cfg)
        labels = sorted(p.name for p in root.iterdir() if p.is_dir())
        assert labels == [
            "epc-32MiB_sgx-000_binpack",
            "epc-32MiB_sgx-100_binpack",
            "epc-64MiB_sgx-000_binpack",
            "epc-64MiB_sgx-100_binpack",
        ]
        assert (root / "experiment.json").exists()
        for label in labels:
            run_dir = root / label
            for name in ("jobs.csv", "outcomes.csv", "pending_epc.csv",
                         "samples.csv", "summary.json", "meta.json"):
                assert (run_dir / name).exists(), f"{label}/{name}"
            stored = json.loads((run_dir / "summary.json").read_text())
            recomputed = summary(read_outcomes_csv(run_dir / "outcomes.csv"))
            assert stored == recomputed

    def test_path_objects_run_as_their_strings(self, tmp_path, trace_path):
        cluster = tmp_path / "cluster.json"
        cluster.write_text(json.dumps([
            {"node_id": "enc", "std_capacity": "8GiB", "epc_total": "128MiB",
             "epc_usable": "93.5MiB"}]))
        cfg = ExperimentConfig(trace_file=trace_path, cluster_file=cluster,
                               output_dir=tmp_path / "by-path")
        assert (cfg.trace_file, cfg.cluster_file, cfg.output_dir) == (
            str(trace_path), str(cluster), str(tmp_path / "by-path"))
        by_path = run_experiment(cfg)
        by_str = run_experiment(ExperimentConfig(
            trace_file=str(trace_path), cluster_file=str(cluster),
            output_dir=str(tmp_path / "by-str")))
        assert by_path == tmp_path / "by-path"
        assert ((by_path / "experiment.json").read_bytes()
                == (by_str / "experiment.json").read_bytes())

    def test_default_point_when_no_sweeps(self, tmp_path, trace_path):
        cfg = config_from_mapping({
            "trace": str(trace_path),
            "output_dir": str(tmp_path / "artifacts"),
            "sgx_fraction": 0.5,
        })
        root = run_experiment(cfg)
        (run_dir,) = [p for p in root.iterdir() if p.is_dir()]
        assert run_dir.name == "epc-default_sgx-050_binpack"

    def test_malicious_point(self, tmp_path, trace_path):
        cfg = config_from_mapping({
            "trace": str(trace_path),
            "output_dir": str(tmp_path / "artifacts"),
            "sgx_fraction": 1.0,
            "malicious_n": 2,
        })
        root = run_experiment(cfg)
        (run_dir,) = [p for p in root.iterdir() if p.is_dir()]
        assert run_dir.name.endswith("_mal")
        jobs = read_jobs_csv(run_dir / "jobs.csv")
        mal = [j for j in jobs if j.kind is JobKind.MALICIOUS_SGX]
        assert len(mal) == 2
        outcomes = read_outcomes_csv(run_dir / "outcomes.csv")
        statuses = {o.job_id: o.status for o in outcomes}
        assert statuses["malicious-0"] is JobStatus.KILLED
        assert statuses["malicious-1"] is JobStatus.KILLED

    def test_noenforce_label(self, tmp_path, trace_path):
        cfg = config_from_mapping({
            "trace": str(trace_path),
            "output_dir": str(tmp_path / "artifacts"),
            "enforce_limits": "false",
        })
        root = run_experiment(cfg)
        (run_dir,) = [p for p in root.iterdir() if p.is_dir()]
        assert run_dir.name.endswith("_noenforce")

    def test_rerun_replaces_directories(self, tmp_path, trace_path):
        cfg = config_from_mapping({
            "trace": str(trace_path),
            "output_dir": str(tmp_path / "artifacts"),
        })
        run_experiment(cfg)
        root = run_experiment(cfg)
        assert not list(root.glob("*.tmp"))
        assert len([p for p in root.iterdir() if p.is_dir()]) == 1

    def test_parallel_workers(self, tmp_path, trace_path):
        cfg = config_from_mapping({
            "trace": str(trace_path),
            "output_dir": str(tmp_path / "artifacts"),
            "sgx_fraction_sweep": "0.0,1.0",
            "workers": 2,
        })
        root = run_experiment(cfg)
        assert len([p for p in root.iterdir() if p.is_dir()]) == 2

    def test_worker_count_does_not_change_artifacts(self, tmp_path,
                                                    trace_path):
        # Each fraction is materialized once and its jobs are shipped to
        # the points of both sizes; a worker writes what a serial run does.
        def digests(workers):
            root = run_experiment(config_from_mapping({
                "trace": str(trace_path),
                "output_dir": str(tmp_path / f"workers-{workers}"),
                "epc_usable_sweep": "32MiB,64MiB",
                "sgx_fraction_sweep": "0.5,1.0",
                "malicious_n": 1,
                "workers": workers,
            }))
            return {p.relative_to(root).as_posix():
                    hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in root.rglob("*") if p.is_file()}

        serial = digests(1)
        assert len(serial) == 1 + 4 * 6
        assert digests(2) == serial

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_sweep_point_fails_before_any_point_runs(self, tmp_path,
                                                         trace_path, workers):
        out = tmp_path / "artifacts"
        with pytest.raises(ConfigError, match="^epc_usable_sweep 1000: "
                                              "usable_bytes must be a whole"):
            config_from_mapping({
                "trace": str(trace_path),
                "output_dir": str(out),
                "epc_usable_sweep": "64MiB,1000,128MiB",
                "workers": workers,
            })
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sweep, first, second", [
        ({"sgx_fraction_sweep": "0.251,0.254"},
         "(epc_usable default, sgx_fraction 0.251)",
         "(epc_usable default, sgx_fraction 0.254)"),
        ({"sgx_fraction_sweep": "0.5,0.1,0.5"},
         "(epc_usable default, sgx_fraction 0.5)",
         "(epc_usable default, sgx_fraction 0.5)"),
        ({"epc_usable_sweep": "64MiB,67108864", "sgx_fraction": "0.2"},
         "(epc_usable 67108864, sgx_fraction 0.2)",
         "(epc_usable 67108864, sgx_fraction 0.2)")])
    def test_points_sharing_a_label_fail_before_any_output(
            self, tmp_path, trace_path, workers, sweep, first, second):
        # One label is one directory: the later point would replace the
        # earlier one, or share its staging directory.
        out = tmp_path / "artifacts"
        cfg = config_from_mapping({"trace": str(trace_path),
                                   "output_dir": str(out),
                                   "workers": workers, **sweep})
        with pytest.raises(ConfigError,
                           match=re.escape(f"sweep points {first} and {second} "
                                           "share the run label 'epc-")):
            run_experiment(cfg)
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cluster_file_read_once_per_experiment(self, tmp_path, trace_path,
                                                   monkeypatch, workers):
        cluster = tmp_path / "cluster.json"
        cluster.write_text(json.dumps([
            {"node_id": "n1", "std_capacity": "64GiB"},
            {"node_id": "s1", "std_capacity": "8GiB", "epc_usable": "64MiB"}]))
        reads = []
        real = experiment.load_cluster
        monkeypatch.setattr(experiment, "load_cluster",
                            lambda path: reads.append(path) or real(path))
        root = run_experiment(config_from_mapping({
            "trace": str(trace_path),
            "cluster": str(cluster),
            "output_dir": str(tmp_path / "artifacts"),
            "epc_usable_sweep": "32MiB,64MiB",
            "sgx_fraction_sweep": "0.5,1.0",
            "workers": workers,
        }))
        assert reads == [str(cluster)]
        assert sorted(p.name for p in root.iterdir() if p.is_dir()) == [
            f"epc-{size}MiB_sgx-{frac}_binpack"
            for size in (32, 64) for frac in ("050", "100")]

    def test_errors_come_label_then_trace_then_cluster(self, tmp_path,
                                                       trace_path):
        bad = {"trace": str(tmp_path / "missing.csv"),
               "cluster": str(tmp_path / "nope.json"),
               "output_dir": str(tmp_path / "artifacts")}
        with pytest.raises(ConfigError, match="share the run label"):
            run_experiment(config_from_mapping(
                {**bad, "sgx_fraction_sweep": "0.5,0.5"}))
        with pytest.raises(FileNotFoundError, match="missing.csv"):
            run_experiment(config_from_mapping(bad))
        with pytest.raises(FileNotFoundError, match="nope.json"):
            run_experiment(config_from_mapping({**bad,
                                                "trace": str(trace_path)}))
        assert not (tmp_path / "artifacts").exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched writer only by fork")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_write_leaves_no_staging_and_cancels_the_rest(
            self, tmp_path, trace_path, monkeypatch, workers):
        calls = tmp_path / "calls"
        first = tmp_path / "first"

        def failing_writer(series, dest):
            with open(calls, "a") as fh:
                fh.write(f"{dest}\n")
            try:
                os.close(os.open(first, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                time.sleep(0.3)  # the first failure must beat these
            raise OSError("disk full")

        monkeypatch.setattr(report, "write_pending_csv", failing_writer)
        out = tmp_path / "artifacts"
        cfg = config_from_mapping({
            "trace": str(trace_path),
            "output_dir": str(out),
            "sgx_fraction_sweep": "0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7",
            "workers": workers,
        })
        with pytest.raises(OSError, match="disk full"):
            run_experiment(cfg)
        assert not list(out.glob("*.tmp"))
        assert [p.name for p in out.iterdir()] == ["experiment.json"]
        started = len(calls.read_text().splitlines())
        if workers == 1:
            assert started == 1
        else:
            assert started < 8  # the points not yet started were cancelled


class TestCli:
    def test_scale_round_trip(self, tmp_path, trace_path, capsys):
        out = tmp_path / "jobs.csv"
        rc = main(["scale", "--in", str(trace_path), "--out", str(out),
                   "--sgx-fraction", "1.0", "--seed", "9"])
        assert rc == 0
        jobs = read_jobs_csv(out)
        assert len(jobs) == 4
        assert all(j.kind is JobKind.SGX for j in jobs)
        assert "wrote 4 jobs" in capsys.readouterr().out

    def test_run_then_report(self, tmp_path, trace_path, capsys):
        cfg_path = flat_config(tmp_path, trace_path, "sgx_fraction = 1.0\n")
        assert main(["run", "--config", str(cfg_path)]) == 0
        artifacts = tmp_path / "artifacts"
        assert main(["report", "--dir", str(artifacts), "--figure", "7"]) == 0
        assert (artifacts / "fig7.dat").exists()

    def test_config_error_exits_2(self, tmp_path, trace_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"trace = {trace_path}\nnot_a_key = 1\n")
        assert main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("row", [
        {"node_id": "enc", "std_capacity": "8GiB", "epc_usabel": "64MiB"},
        {"node_id": None, "std_capacity": "8GiB"}])
    def test_bad_cluster_node_exits_2_before_any_output(self, tmp_path,
                                                       trace_path, capsys, row):
        cluster = tmp_path / "cluster.json"
        cluster.write_text(json.dumps([row]))
        cfg_path = flat_config(tmp_path, trace_path, f"cluster = {cluster}\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "epc_usabel" in err or "node_id" in err
        assert not (tmp_path / "artifacts").exists()

    def test_points_sharing_a_label_exit_2_before_any_output(
            self, tmp_path, trace_path, capsys):
        cfg_path = flat_config(tmp_path, trace_path,
                               "sgx_fraction_sweep = 0.251, 0.254\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "0.251" in err and "0.254" in err
        assert not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("key", INTEGER_KEYS)
    def test_non_integer_value_exits_2_before_any_output(
            self, tmp_path, trace_path, capsys, key, value):
        cfg_path = tmp_path / "experiment.json"
        cfg_path.write_text(json.dumps({
            "trace": str(trace_path), key: value,
            "output_dir": str(tmp_path / "artifacts")}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "artifacts").exists()

    def test_null_output_dir_exits_2_before_any_output(
            self, tmp_path, trace_path, capsys, monkeypatch):
        # str(None) would have written the sweep under ./None
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "experiment.json"
        cfg_path.write_text(json.dumps({"trace": str(trace_path),
                                        "output_dir": None}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "experiment.json", "trace.csv"]

    # The default cluster has two enclave-capable nodes, so `auto` injects
    # malicious-0 and malicious-1.
    @pytest.mark.parametrize("n, clash", [("auto", "malicious-1"),
                                          ("1", "malicious-0")])
    def test_trace_job_with_an_injected_id_exits_2_before_any_output(
            self, tmp_path, trace_path, capsys, n, clash):
        trace_path.write_text(TRACE + f"{clash},8,10,0.1,0.1\n")
        cfg_path = flat_config(tmp_path, trace_path, f"malicious_n = {n}\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"trace {trace_path}: job '{clash}'" in err
        assert not (tmp_path / "artifacts").exists()

    def test_trace_job_beyond_the_injected_ids_runs(self, tmp_path,
                                                    trace_path):
        trace_path.write_text(TRACE + "malicious-5,8,10,0.1,0.1\n")
        cfg_path = flat_config(tmp_path, trace_path, "malicious_n = 2\n")
        assert main(["run", "--config", str(cfg_path)]) == 0
        (point,) = [p for p in (tmp_path / "artifacts").iterdir()
                    if p.is_dir()]
        kinds = {j.job_id: j.kind for j in read_jobs_csv(point / "jobs.csv")}
        assert kinds["malicious-0"] is kinds["malicious-1"] is (
            JobKind.MALICIOUS_SGX)
        assert kinds["malicious-5"] is not JobKind.MALICIOUS_SGX
        assert len(kinds) == 7

    @pytest.mark.parametrize("bad, code", [("config", 2), ("cluster", 2),
                                           ("trace", 3), ("shard", 3)])
    def test_unreadable_input_exits_with_its_file_named(
            self, tmp_path, trace_path, capsys, bad, code):
        # A byte that is not UTF-8, or a shard cut off mid-stream.
        out = tmp_path / "jobs.csv"
        if bad == "config":
            named = flat_config(tmp_path, trace_path, "# \xff\n")
            named.write_bytes(named.read_text().encode("latin-1"))
            argv = ["run", "--config", str(named)]
        elif bad == "cluster":
            named = tmp_path / "cluster.json"
            named.write_bytes(b'[{"node_id": "n\xff", "std_capacity": 1}]')
            argv = ["run", "--config",
                    str(flat_config(tmp_path, trace_path,
                                    f"cluster = {named}\n"))]
        elif bad == "trace":
            named = trace_path
            named.write_bytes(TRACE.encode() + b"j5,8,10,0.1,0.1\xff\n")
            argv = ["scale", "--in", str(named), "--out", str(out)]
        else:
            named = tmp_path / "borg" / "task_events" / "part-00000.csv.gz"
            named.parent.mkdir(parents=True)
            rows = b"0,,42,0,,0,,,,,0.25\n" * 100
            named.write_bytes(gzip.compress(rows)[:-20])
            argv = ["scale", "--in", str(tmp_path / "borg"),
                    "--format", "borg_tables", "--out", str(out)]
        assert main(argv) == code
        assert str(named) in capsys.readouterr().err
        assert not (tmp_path / "artifacts").exists() and not out.exists()

    def test_missing_trace_exits_3(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"trace = {tmp_path / 'missing.csv'}\n")
        assert main(["run", "--config", str(cfg)]) == 3

    def test_missing_artifacts_exits_3(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path / "nope"),
                     "--figure", "6"]) == 3

    def test_bad_figure_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--dir", str(tmp_path), "--figure", "5"])

    def test_bad_malicious_fraction_exits_2_before_any_point(self, tmp_path,
                                                           trace_path):
        cfg_path = flat_config(tmp_path, trace_path,
                               "malicious_use_fraction = 2\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert not (tmp_path / "artifacts").exists()

    def test_rng_seed_beyond_philox_key_exits_2_before_any_output(
            self, tmp_path, trace_path, capsys):
        cfg_path = flat_config(tmp_path, trace_path)
        cfg_path.write_text(cfg_path.read_text().replace(
            "rng_seed = 3", f"rng_seed = {2 ** 128}"))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "rng_seed" in capsys.readouterr().err
        assert not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("row, field", [("j5,nan,10,0.1,0.1", "submit_s"),
                                            ("j5,8,inf,0.1,0.1", "duration_s")])
    def test_non_finite_trace_time_exits_3_before_any_output(
            self, tmp_path, trace_path, capsys, row, field):
        trace_path.write_text(TRACE + row + "\n")
        cfg_path = flat_config(tmp_path, trace_path)
        assert main(["run", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert f"{trace_path}: line 6" in err and field in err
        assert not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("command", ["scale", "scale borg", "report"])
    def test_an_oversized_field_exits_3_before_any_output(
            self, tmp_path, trace_path, capsys, command):
        # A field one character over csv.reader's size limit, on line 6 of
        # the trace, in row 2 of a shard, or on line 3 of an outcomes file.
        big = "x" * (csv.field_size_limit() + 1)
        out = tmp_path / "out.dat"
        if command == "scale":
            named, line = trace_path, 6
            trace_path.write_text(TRACE + big + "\n")
            argv = ["scale", "--in", str(trace_path), "--out", str(out)]
        elif command == "scale borg":
            named, line = (tmp_path / "trace" / "task_events"
                           / "part-00000.csv.gz"), 2
            named.parent.mkdir(parents=True)
            with gzip.open(named, "wt", newline="") as fh:
                fh.write(f"0,,42,0,,0,,,,,0.25\n0,,{big},0,,1,,,,,\n")
            argv = ["scale", "--in", str(tmp_path / "trace"),
                    "--format", "borg_tables", "--out", str(out)]
        else:
            cfg_path = flat_config(tmp_path, trace_path)
            assert main(["run", "--config", str(cfg_path)]) == 0
            (named,) = (tmp_path / "artifacts").glob("*/outcomes.csv")
            with open(named, "a", encoding="utf-8") as fh:
                fh.write(big + "\n")
            line = len(named.read_text().splitlines())
            argv = ["report", "--dir", str(tmp_path / "artifacts"),
                    "--figure", "7", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {named}: line {line}: field larger than field limit "
            f"({csv.field_size_limit()})\n")
        assert not out.exists()

    def test_scale_short_borg_row_exits_3(self, tmp_path, capsys):
        shard = tmp_path / "trace" / "task_events" / "part-00000.csv.gz"
        shard.parent.mkdir(parents=True)
        with gzip.open(shard, "wt", newline="") as fh:
            fh.write("0,,42,0,,0,,,,,0.25\n5\n")
        rc = main(["scale", "--in", str(tmp_path / "trace"),
                   "--out", str(tmp_path / "jobs.csv"),
                   "--format", "borg_tables"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "line 2" in err and str(shard) in err
        assert not (tmp_path / "jobs.csv").exists()

    def test_report_short_outcomes_row_exits_3(self, tmp_path, trace_path,
                                               capsys):
        cfg_path = flat_config(tmp_path, trace_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        (point,) = [p for p in (tmp_path / "artifacts").iterdir() if p.is_dir()]
        outcomes = point / "outcomes.csv"
        outcomes.write_text(outcomes.read_text() + "a,standard,0\n")
        rc = main(["report", "--dir", str(tmp_path / "artifacts"),
                   "--figure", "7"])
        assert rc == 3
        assert (f"{outcomes}: line 6: expected 9 fields, got 3"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("figure", [7, 8, 9, 10])
    def test_report_completed_row_without_finish_exits_3(
            self, tmp_path, trace_path, capsys, figure):
        cfg_path = flat_config(tmp_path, trace_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        (point,) = [p for p in (tmp_path / "artifacts").iterdir() if p.is_dir()]
        outcomes = point / "outcomes.csv"
        outcomes.write_text(outcomes.read_text()
                            + "j1,standard,0,5000,,Completed,n1,0,0\n")
        rc = main(["report", "--dir", str(tmp_path / "artifacts"),
                   "--figure", str(figure)])
        assert rc == 3
        assert (f"{outcomes}: line 6: Completed job 'j1' needs a start_ms and "
                "a finish_ms" in capsys.readouterr().err)

    def test_report_duplicate_job_exits_3(self, tmp_path, trace_path, capsys):
        cfg_path = flat_config(tmp_path, trace_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        (point,) = [p for p in (tmp_path / "artifacts").iterdir() if p.is_dir()]
        jobs = point / "jobs.csv"
        lines = jobs.read_text().splitlines(keepends=True)
        jobs.write_text("".join(lines + lines[1:2]))
        rc = main(["report", "--dir", str(tmp_path / "artifacts"),
                   "--figure", "8"])
        assert rc == 3
        assert (f"{jobs}: line 6: duplicate job_id 'j1' (first seen on line 2)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, value", [("slice_end_s", "nan"),
                                            ("slice_start_s", "inf"),
                                            ("slice_start_s", "nan")])
    @pytest.mark.parametrize("flat", [True, False])
    def test_non_finite_slice_bound_exits_2_naming_it(
            self, tmp_path, trace_path, capsys, flat, key, value):
        if flat:
            cfg_path = flat_config(tmp_path, trace_path, f"{key} = {value}\n")
        else:
            cfg_path = tmp_path / "experiment.json"
            cfg_path.write_text(json.dumps({
                "trace": str(trace_path), key: float(value),
                "output_dir": str(tmp_path / "artifacts")}))
        with pytest.raises(ConfigError, match=f"^{key} .*, got {value}$"):
            load_config(cfg_path)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert re.fullmatch(f"error: {key} .*, got {value}\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("flag, value", [("--slice-end", "nan"),
                                             ("--slice-start", "inf")])
    def test_scale_non_finite_slice_bound_exits_2(self, tmp_path, trace_path,
                                                  capsys, flag, value):
        out = tmp_path / "jobs.csv"
        assert main(["scale", "--in", str(trace_path), "--out", str(out),
                     flag, value]) == 2
        assert re.fullmatch(f"error: {flag} .*, got {value}\n",
                            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--stride", "0"),
                                             ("--sgx-fraction", "2"),
                                             ("--seed", "-1")])
    def test_scale_out_of_range_flag_exits_2_naming_it(
            self, tmp_path, trace_path, capsys, flag, value):
        out = tmp_path / "jobs.csv"
        assert main(["scale", "--in", str(trace_path), "--out", str(out),
                     flag, value]) == 2
        assert re.fullmatch(f"error: {flag} must .*\n",
                            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--std-multiplier", "--sgx-multiplier"])
    def test_scale_bad_size_flag_exits_2_naming_it(self, tmp_path, trace_path,
                                                   capsys, flag):
        out = tmp_path / "jobs.csv"
        assert main(["scale", "--in", str(trace_path), "--out", str(out),
                     flag, "lots"]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag}: cannot parse size 'lots'\n")
        assert not out.exists()

    def test_scale_bad_trace_exits_3(self, tmp_path):
        assert main(["scale", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "jobs.csv")]) == 3
