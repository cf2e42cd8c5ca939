"""The two front ends that turn a trace into jobs: the sweep materializes
each fraction once and, run serially, holds one fraction's jobs at a time;
`epcsched scale` takes one flag per scaling field from one table."""

import dataclasses
import weakref

from epcsched import cli, experiment
from epcsched.experiment import config_from_mapping, run_experiment
from epcsched.trace import ScalingConfig

TRACE = """\
job_id,submit_s,duration_s,assigned_mem_frac,max_mem_frac
a,0,60,0.05,0.06
b,10,30,0.01,0.02
c,20,45,0.02,0.015
d,30,90,0.10,0.12
"""


class _Jobs(list):
    """A jobs list that a weak reference can follow."""


def test_a_serial_sweep_holds_one_fractions_jobs_at_a_time(tmp_path,
                                                          monkeypatch):
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE)
    made, alive = [], []
    real = experiment.materialize

    def materialize(records, scaling):
        alive.append([ref() is not None for ref in made])
        jobs = _Jobs(real(records, scaling))
        made.append(weakref.ref(jobs))
        return jobs

    monkeypatch.setattr(experiment, "materialize", materialize)
    run_experiment(config_from_mapping({
        "trace": str(trace),
        "output_dir": str(tmp_path / "artifacts"),
        "epc_usable_sweep": "32MiB,64MiB",
        "sgx_fraction_sweep": "0.0,0.5,1.0",
        "workers": 1,
    }))
    # once per fraction, each list dead before the next one is made
    assert alive == [[], [False], [False, False]]


class TestScaleFlagTable:
    def test_each_scaling_field_has_exactly_one_flag(self):
        assert list(cli._SCALING_FLAGS) == [
            f.name for f in dataclasses.fields(ScalingConfig)]
        flags = [flag for flag, *_ in cli._SCALING_FLAGS.values()]
        assert len(set(flags)) == len(flags)

    def test_each_flag_stores_under_the_dest_scale_reads(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        dests = {flag: a.dest for a in sub.choices["scale"]._actions
                 for flag in a.option_strings}
        for flag, *_ in cli._SCALING_FLAGS.values():
            assert dests[flag] == flag[2:].replace("-", "_"), flag
