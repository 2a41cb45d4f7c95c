"""Unit tests for processes: spawning, joining, interrupts, error paths."""

from __future__ import annotations

import pytest

from repro.errors import InterruptError, SimulationError
from repro.sim import Simulator


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        return {"answer": 42}

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == {"answer": 42}


def test_process_is_alive_until_done():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2)

    p = sim.spawn(proc(sim))
    sim.run(until=1.0)
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_process_exception_fails_event():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        raise KeyError("oops")

    p = sim.spawn(proc(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.value, KeyError)


def test_process_can_wait_on_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2)
        return "child-result"

    def parent(sim):
        res = yield sim.spawn(child(sim))
        return f"got {res}"

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == "got child-result"


def test_yielding_non_event_fails_cleanly():
    sim = Simulator()

    def proc(sim):
        yield 42  # type: ignore[misc]

    p = sim.spawn(proc(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_interrupt_delivers_cause():
    sim = Simulator()

    def victim(sim):
        try:
            yield sim.timeout(100)
        except InterruptError as exc:
            return ("interrupted", exc.cause, sim.now)

    victim_p = sim.spawn(victim(sim))

    def attacker(sim, target):
        yield sim.timeout(3)
        target.interrupt("deadline")

    sim.spawn(attacker(sim, victim_p))
    sim.run()
    assert victim_p.value == ("interrupted", "deadline", 3.0)


def test_interrupted_process_can_rewait():
    sim = Simulator()

    def victim(sim):
        sleep = sim.timeout(10)
        try:
            yield sleep
        except InterruptError:
            pass
        yield sleep  # original event is still valid
        return sim.now

    victim_p = sim.spawn(victim(sim))

    def attacker(sim, target):
        yield sim.timeout(1)
        target.interrupt()

    sim.spawn(attacker(sim, victim_p))
    sim.run()
    assert victim_p.value == 10.0


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)

    p = sim.spawn(proc(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupt_race_with_completion_is_safe():
    """Interrupt scheduled at the same instant the victim finishes."""
    sim = Simulator()

    def victim(sim):
        yield sim.timeout(5)
        return "done"

    victim_p = sim.spawn(victim(sim))

    def attacker(sim, target):
        yield sim.timeout(5)
        if target.is_alive:
            target.interrupt("late")

    sim.spawn(attacker(sim, victim_p))
    sim.run()
    # whichever order the heap picked, the run completes without error
    assert victim_p.triggered


def test_abort_interrupts_the_waited_on_tree_and_cancels_its_leaves():
    sim = Simulator()
    never = sim.event("never")  # a reply that never comes
    cancelled = []
    done = []

    def leaf(sim):
        try:
            yield never
        finally:
            done.append("leaf")

    def child(sim):
        yield sim.all_of([sim.spawn(leaf(sim)), sim.timeout(1)])

    def root(sim):
        try:
            yield sim.spawn(child(sim))
        finally:
            done.append("root")

    p = sim.spawn(root(sim))
    sim.run(until=2.0)
    p.abort("deadline", cancel=cancelled.append)
    sim.run()
    assert isinstance(p.value, InterruptError)
    assert sorted(done) == ["leaf", "root"]
    assert cancelled == [never]  # the expired timeout is not a leaf


def test_nested_spawn_fanout():
    sim = Simulator()

    def leaf(sim, i):
        yield sim.timeout(i)
        return i

    def root(sim):
        procs = [sim.spawn(leaf(sim, i)) for i in range(5)]
        res = yield sim.all_of(procs)
        return sum(res.values())

    p = sim.spawn(root(sim))
    sim.run()
    assert p.value == 10
