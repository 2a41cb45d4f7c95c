"""Unit tests for the discrete-event kernel: clock, ordering, run modes."""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Simulator
from repro.sim.events import Timeout


class _CountingTimeout(Timeout):
    """Timeout whose ``repr`` bumps a class counter (tracer-cost probe)."""

    reprs = 0

    def __repr__(self) -> str:
        _CountingTimeout.reprs += 1
        return "<_CountingTimeout>"


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == 2.5
    assert sim.now == 2.5


def test_zero_delay_timeout_fires_at_same_instant():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0.0)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == 0.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.spawn(proc(sim, "late", 3.0))
    sim.spawn(proc(sim, "early", 1.0))
    sim.spawn(proc(sim, "mid", 2.0))
    sim.run()
    assert order == ["early", "mid", "late"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in "abcd":
        sim.spawn(proc(sim, name))
    sim.run()
    assert order == list("abcd")


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(1.0)

    sim.spawn(proc(sim))
    sim.run(until=5.5)
    assert sim.now == 5.5


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return "finished"

    p = sim.spawn(proc(sim))
    assert sim.run(until=p) == "finished"


def test_run_until_event_raises_failure():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    p = sim.spawn(proc(sim))
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=p)


def test_run_until_never_firing_event_is_deadlock():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(DeadlockError):
        sim.run(until=ev)


def test_run_until_past_time_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.spawn(proc(sim))
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_step_without_events_raises():
    sim = Simulator()
    with pytest.raises(DeadlockError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_processed_events_counted():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.spawn(proc(sim))
    sim.run()
    assert sim.processed_events >= 3  # init + 2 timeouts


def test_spawn_requires_generator():
    sim = Simulator()

    def not_a_generator():
        return 42

    with pytest.raises(SimulationError):
        sim.spawn(not_a_generator())  # type: ignore[arg-type]


def test_untraced_step_never_reprs_events():
    sim = Simulator(trace=False)
    _CountingTimeout.reprs = 0
    _CountingTimeout(sim, 1.0)
    sim.run()
    assert sim.processed_events == 1
    assert _CountingTimeout.reprs == 0


def test_traced_step_records_one_repr_per_event():
    sim = Simulator(trace=True)
    _CountingTimeout.reprs = 0
    _CountingTimeout(sim, 1.0)
    sim.run()
    assert _CountingTimeout.reprs == 1
    events = sim.obs.records.of_kind("event")
    assert len(events) == 1
    assert events[0].detail == "<_CountingTimeout>"


def test_determinism_same_seed_same_schedule():
    def build():
        sim = Simulator(seed=7)
        log = []

        def proc(sim, name):
            jitter = float(sim.rng.stream("jitter").uniform(0, 1))
            yield sim.timeout(jitter)
            log.append((sim.now, name))

        for i in range(10):
            sim.spawn(proc(sim, f"p{i}"))
        sim.run()
        return log

    assert build() == build()


def test_rng_streams_independent():
    sim = Simulator(seed=1)
    a1 = sim.rng.stream("a").integers(0, 1000, size=5).tolist()
    # interleave another stream; "a" must be unaffected next time
    sim.rng.stream("b").integers(0, 1000, size=50)
    sim2 = Simulator(seed=1)
    sim2.rng.stream("b").integers(0, 1000, size=3)
    a2 = sim2.rng.stream("a").integers(0, 1000, size=5).tolist()
    assert a1 == a2
