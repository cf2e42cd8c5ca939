"""Each run setting has one owner: the sweep's replay settings and their
defaults are `SimConfig`'s, `epcsched scale`'s flags default to
`ScalingConfig`'s, the trace formats are `TRACE_FORMATS`, and README's
config table lists the config keys; and a config key given twice is an
error, where the last value used to win; and the default usable protected
memory is written once."""

import ast
import dataclasses
import json
import re
import tokenize
from pathlib import Path

import pytest

from epcsched import cli, cluster, experiment, trace
from epcsched.cli import main
from epcsched.engine import ConfigError, SimConfig
from epcsched.experiment import ExperimentConfig, load_config
from epcsched.scheduler import POLICIES
from epcsched.synthetic import bundled_trace_path
from epcsched.trace import (TRACE_FORMATS, ScalingConfig, materialize,
                            parse_trace, slice_and_sample, write_jobs_csv)

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(experiment.__file__).resolve().parent

# `epcsched scale` flag destination -> the ScalingConfig field it sets.
SCALE_FLAGS = {"slice_start": "slice_start_s", "slice_end": "slice_end_s",
               "stride": "sampling_stride", "sgx_fraction": "sgx_fraction",
               "std_multiplier": "std_multiplier",
               "sgx_multiplier": "sgx_multiplier", "seed": "rng_seed"}


def _scale_actions() -> dict[str, object]:
    """The `epcsched scale` parser's actions, by destination."""
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    return {a.dest: a for a in subparsers.choices["scale"]._actions}


def _other_than(value):
    """A valid SimConfig value other than the default `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return next(policy for policy in POLICIES if policy != value)


class TestSimConfigIsTheOwner:
    def test_every_sim_field_is_an_experiment_field_with_its_default(self):
        run_fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
        for f in dataclasses.fields(SimConfig):
            assert f.name in run_fields
            assert run_fields[f.name].default == f.default, f.name
            assert run_fields[f.name].type == f.type, f.name

    def test_sim_config_carries_a_non_default_value_of_each_field(self):
        values = {f.name: _other_than(f.default)
                  for f in dataclasses.fields(SimConfig)}
        cfg = ExperimentConfig(trace_file="t.csv", **values)
        assert cfg.sim_config() == SimConfig(**values)
        assert all(getattr(cfg.sim_config(), name) != getattr(SimConfig(), name)
                   for name in values)


class TestScaleDefaults:
    def test_no_scaling_flags_write_what_the_default_scaling_writes(
            self, tmp_path):
        out = tmp_path / "cli.csv"
        assert main(["scale", "--in", str(bundled_trace_path()),
                     "--out", str(out)]) == 0
        scaling = ScalingConfig()
        expected = tmp_path / "api.csv"
        write_jobs_csv(materialize(slice_and_sample(
            parse_trace(bundled_trace_path()), scaling), scaling), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_each_scaling_flag_defaults_to_its_field(self):
        actions = _scale_actions()
        scaling = ScalingConfig()
        for dest, name in SCALE_FLAGS.items():
            default = actions[dest].default
            if name.endswith("_multiplier"):  # given as text, like the flag
                default = int(default)
            assert default == getattr(scaling, name), dest

    def test_format_offers_exactly_the_trace_formats(self):
        action = _scale_actions()["format"]
        assert tuple(action.choices) == TRACE_FORMATS
        assert action.default == TRACE_FORMATS[0]

    def test_trace_format_default_and_check_read_the_formats(self):
        assert ExperimentConfig(trace_file="t").trace_format == TRACE_FORMATS[0]
        for fmt in TRACE_FORMATS:
            ExperimentConfig(trace_file="t", trace_format=fmt)
        with pytest.raises(ConfigError, match="trace_format"):
            ExperimentConfig(trace_file="t", trace_format="excel")
        with pytest.raises(ValueError, match="canonical_csv"):
            parse_trace("t", "excel")


def test_readme_config_table_lists_exactly_the_config_keys():
    text = README.read_text(encoding="utf-8")
    table = text.split("Every key a config takes", 1)[1].split("\n\n")[1]
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert len(keys) == len(set(keys)) == 25
    assert set(keys) == experiment._FIELDS.keys()


class TestRepeatedKey:
    def test_flat_names_the_key_and_both_lines(self, tmp_path):
        p = tmp_path / "experiment.cfg"
        p.write_text("trace = t.csv\npolicy = binpack\n\npolicy = spread\n")
        with pytest.raises(ConfigError) as info:
            load_config(p)
        message = str(info.value)
        assert "'policy'" in message
        assert "line 2" in message and "line 4" in message

    def test_flat_repeat_of_the_same_value_is_an_error_too(self, tmp_path):
        p = tmp_path / "experiment.cfg"
        p.write_text("trace = t.csv\ntrace = t.csv\n")
        with pytest.raises(ConfigError, match="'trace'.*line 1"):
            load_config(p)

    def test_json_names_the_key(self, tmp_path):
        p = tmp_path / "experiment.json"
        p.write_text('{"trace": "t.csv", "policy": "binpack", '
                     '"policy": "spread"}')
        with pytest.raises(ConfigError, match="'policy'"):
            load_config(p)

    def test_cluster_file_names_itself_and_the_key(self, tmp_path):
        p = tmp_path / "cluster.json"
        p.write_text('[{"node_id": "a", "std_capacity": "8GiB", '
                     '"std_capacity": "4GiB"}]')
        with pytest.raises(ConfigError,
                           match=f"^cluster file {re.escape(str(p))}: "
                                 ".*'std_capacity'"):
            experiment.load_cluster(p)

    def test_run_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        p = tmp_path / "experiment.cfg"
        p.write_text(f"trace = {bundled_trace_path()}\n"
                     f"output_dir = {out}\n"
                     "policy = binpack\npolicy = spread\n")
        assert main(["run", "--config", str(p)]) == 2
        assert "'policy'" in capsys.readouterr().err
        assert not out.exists()

    def test_distinct_keys_still_load(self, tmp_path):
        p = tmp_path / "experiment.json"
        p.write_text(json.dumps({"trace": "t.csv", "policy": "spread"}))
        assert load_config(p).policy == "spread"


def test_the_default_usable_size_is_written_once():
    assert trace.DEFAULT_SGX_MULTIPLIER == cluster.DEFAULT_EPC_USABLE
    written = []
    for path in sorted(SRC.glob("*.py")):
        with tokenize.open(path) as fh:
            written += [(path.name, token.start[0])
                        for token in tokenize.generate_tokens(fh.readline)
                        if token.type == tokenize.NUMBER
                        and ast.literal_eval(token.string) == 98_041_856]
    assert len(written) == 1, written
