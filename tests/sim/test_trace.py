"""Unit tests for the simulator's records/counters and time-series stats."""

from __future__ import annotations

import pytest

from repro.obs import Observability
from repro.obs.metrics import TimeSeries
from repro.sim import Simulator


def test_counters_always_on():
    obs = Observability(enabled=False)
    obs.count("nfs.bytes", 100)
    obs.count("nfs.bytes", 50)
    assert obs.metrics.counters["nfs.bytes"] == 150


def test_records_only_when_enabled():
    obs = Observability(enabled=False)
    obs.record("ev", 1.0, "ignored")
    assert len(obs.records) == 0
    obs.enabled = True
    obs.record("ev", 2.0, "kept")
    assert len(obs.records) == 1
    assert obs.records[0].kind == "ev"


def test_of_kind_filter():
    obs = Observability(enabled=True)
    obs.record("a", 1.0)
    obs.record("b", 2.0)
    obs.record("a", 3.0)
    assert [r.time for r in obs.records.of_kind("a")] == [1.0, 3.0]


def test_record_ring_buffer():
    obs = Observability(enabled=True, keep_records=3)
    for i in range(5):
        obs.record("x", float(i))
    assert len(obs.records) == 3
    assert obs.records[0].time == 2.0


def test_clear():
    obs = Observability(enabled=True)
    obs.record("x", 1.0)
    obs.count("c")
    obs.sample("s", 0.0, 1.0)
    obs.clear()
    assert not obs.records and not obs.metrics.counters and not obs.series


def test_timeseries_stats():
    ts = TimeSeries("q")
    assert ts.last == 0.0 and ts.mean() == 0.0 and ts.maximum() == 0.0
    ts.sample(0.0, 2.0)
    ts.sample(1.0, 4.0)
    ts.sample(3.0, 0.0)
    assert len(ts) == 3
    assert ts.last == 0.0
    assert ts.mean() == pytest.approx(2.0)
    assert ts.maximum() == 4.0


def test_time_weighted_mean_step_function():
    ts = TimeSeries("util")
    ts.sample(0.0, 1.0)   # holds 1.0 for [0, 2)
    ts.sample(2.0, 3.0)   # holds 3.0 for [2, 4)
    assert ts.time_weighted_mean(until=4.0) == pytest.approx(2.0)


def test_time_weighted_mean_single_sample():
    ts = TimeSeries("u")
    ts.sample(1.0, 7.0)
    assert ts.time_weighted_mean(until=1.0) == 7.0


def test_tracer_sample_creates_series():
    obs = Observability()
    obs.sample("cpu", 0.0, 0.5)
    obs.sample("cpu", 1.0, 0.7)
    assert obs.series["cpu"].maximum() == 0.7


def test_simulator_tracer_records_events():
    sim = Simulator(trace=True)

    def proc(sim):
        yield sim.timeout(1.0)

    sim.spawn(proc(sim))
    sim.run()
    assert len(sim.obs.records) >= 2


def test_dropped_counter_surfaces_ring_overflow():
    obs = Observability(enabled=True, keep_records=3)
    assert obs.records.dropped == 0
    for i in range(5):
        obs.record("x", float(i))
    assert obs.records.dropped == 2
    obs.clear()
    assert obs.records.dropped == 0


def test_of_kind_consistent_after_eviction():
    obs = Observability(enabled=True, keep_records=4)
    for i in range(4):
        obs.record("a" if i % 2 == 0 else "b", float(i))
    for i in range(4, 7):  # evicts times 0.0 ("a"), 1.0 ("b"), 2.0 ("a")
        obs.record("c", float(i))
    assert [r.time for r in obs.records.of_kind("a")] == []
    assert [r.time for r in obs.records.of_kind("b")] == [3.0]
    assert [r.time for r in obs.records.of_kind("c")] == [4.0, 5.0, 6.0]
    assert obs.records.dropped == 3
    # the index agrees with the surviving entries
    assert sorted(r.time for r in obs.records) == [3.0, 4.0, 5.0, 6.0]


def test_of_kind_unknown_kind_empty():
    obs = Observability(enabled=True)
    obs.record("a", 1.0)
    assert obs.records.of_kind("nope") == []


def test_time_weighted_mean_until_earlier_than_last_sample():
    ts = TimeSeries("u")
    ts.sample(0.0, 1.0)
    ts.sample(2.0, 5.0)
    # `until` before the last sample: the final interval gets zero
    # weight instead of a negative one
    assert ts.time_weighted_mean(until=1.0) == pytest.approx(1.0)


def test_time_weighted_mean_out_of_order_times():
    ts = TimeSeries("u")
    ts.sample(5.0, 2.0)   # negative interval to the next sample
    ts.sample(1.0, 4.0)   # holds 4.0 for [1, 3)
    assert ts.time_weighted_mean(until=3.0) == pytest.approx(4.0)


def test_time_weighted_mean_all_zero_weight_returns_last():
    ts = TimeSeries("u")
    ts.sample(3.0, 9.0)
    ts.sample(3.0, 7.0)
    assert ts.time_weighted_mean(until=3.0) == 7.0

