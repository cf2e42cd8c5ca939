"""Tests of the benchmark's own arithmetic and of its tracing wrappers.

    python3 -m pytest bench/tests
"""

import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from hostspeed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracing import (SpanRecorder, covered, overhead_frac,  # noqa: E402
                     percentile, ratio, self_times)


class FakeClock:
    """Returns the queued timestamps in order."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7], 99) == 7
    # ranks round up: 50% of 5 values is the 3rd smallest
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    # order of the input does not matter
    assert percentile([30, 10, 20], 99) == 30
    assert percentile([], 50) == 0.0


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile([1, 2], 0)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_covered_merges_overlaps_and_clips():
    assert covered((0, 100), []) == 0
    assert covered((0, 100), [(10, 20), (30, 50)]) == 30
    # overlapping children count once
    assert covered((0, 100), [(10, 40), (30, 50)]) == 40
    # a child contained in another adds nothing
    assert covered((0, 100), [(10, 60), (20, 30)]) == 50
    # children are clipped to the parent
    assert covered((10, 20), [(0, 15), (18, 40)]) == 7


def test_self_time_with_nested_spans():
    # run [0,100) > tick [10,60) > select [20,30) and [40,45); probe [70,80)
    starts = [0, 10, 20, 40, 70]
    ends = [100, 60, 30, 45, 80]
    parents = [-1, 0, 1, 1, 0]
    own = self_times(starts, ends, parents)
    assert own == [100 - 50 - 10, 50 - 15, 10, 5, 10]
    # self times of a tree add up to the root's duration
    assert sum(own) == 100


def test_recorder_links_parents_and_subtracts_children():
    rec = SpanRecorder(clock=FakeClock(0, 10, 20, 30, 40, 45, 60, 100))
    run = rec.open("engine.run")          # 0
    tick = rec.open("scheduler.tick")     # 10
    sel = rec.open("scheduler.select")    # 20
    rec.close(sel)                        # 30
    sel2 = rec.open("scheduler.select")   # 40
    rec.close(sel2)                       # 45
    rec.close(tick)                       # 60
    rec.close(run)                        # 100
    assert rec.parents == [-1, run, tick, tick]
    assert rec.durations() == [100, 50, 10, 5]
    assert rec.self_times() == [50, 35, 10, 5]


def test_recorder_rejects_out_of_order_close():
    rec = SpanRecorder(clock=FakeClock(0, 1, 2))
    outer = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_ratios_and_their_bases():
    # place_ratio: placements over select calls
    assert ratio(11232, 308144) == pytest.approx(0.03645, abs=1e-5)
    assert ratio(0, 0) == 0.0
    # overhead: traced minus untraced, over the untraced base
    assert overhead_frac(12.0, 10.0) == pytest.approx(0.2)
    assert overhead_frac(9.0, 10.0) == pytest.approx(-0.1)
    assert overhead_frac(1.0, 0.0) == 0.0


def test_speed_correction_uses_harmonic_mean_and_drops_probe_time():
    probe = SpeedProbe()
    # half the region at reference speed, half at half speed: the host
    # averaged 3/4 of the reference speed
    probe.samples = [REFERENCE_S, 2 * REFERENCE_S]
    probe.spent = 0.5
    assert probe.speed_factor() == pytest.approx(0.75)
    assert probe.corrected(10.5) == pytest.approx(7.5)


def test_speed_probe_samples_the_region_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        time.sleep(0.05)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 2  # the entry sample and at least one alarm
    assert 0 < probe.spent < 0.05


def test_instrument_records_nested_spans_and_restores_every_target():
    import layers
    from epcsched import engine, scheduler
    from epcsched.cluster import default_cluster
    from epcsched.engine import SimConfig
    from epcsched.trace import JobKind, JobSpec

    before = [(owner, attr, owner[attr] if isinstance(owner, dict)
               else vars(owner)[attr]) for owner, attr, _, _ in layers._targets()]
    job = JobSpec("j1", JobKind.SGX, 0, 1000, 4096, 4096, 1, 1)
    inst = layers.Instrument(SpanRecorder())
    with inst:
        engine.run([job], default_cluster(), SimConfig())
    for owner, attr, fn in before:
        now = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        assert now is fn, attr
    assert inst.missing == []
    rec = inst.recorder
    assert rec.names[0] == "engine.run" and rec.parents[0] == -1
    ticks = [i for i, n in enumerate(rec.names) if n == "scheduler.schedule_tick"]
    selects = [i for i, n in enumerate(rec.names) if n == "scheduler.select"]
    assert ticks and selects
    assert all(rec.parents[i] == 0 for i in ticks)
    assert all(rec.names[rec.parents[i]] == "scheduler.schedule_tick"
               for i in selects)
    metrics = layers.pass_metrics(inst, 0, 1.0)
    assert metrics["scheduler.placements"] == 1
    assert metrics["scheduler.place_ratio"] == 1 / len(selects)
    assert metrics["driver.init_calls"] == 1
    assert scheduler.POLICIES["binpack"] is scheduler.binpack_select
