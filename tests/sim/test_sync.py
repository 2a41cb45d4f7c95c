"""Unit tests for Signal and Semaphore."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Semaphore, Signal, Simulator


def test_signal_wakes_all_current_waiters():
    sim = Simulator()
    sig = Signal(sim)
    woken = []

    def waiter(sim, sig, name):
        v = yield sig.wait()
        woken.append((name, v, sim.now))

    for n in ("a", "b"):
        sim.spawn(waiter(sim, sig, n))

    def firer(sim, sig):
        yield sim.timeout(2)
        n = sig.fire("pulse")
        return n

    p = sim.spawn(firer(sim, sig))
    sim.run()
    assert p.value == 2
    assert woken == [("a", "pulse", 2.0), ("b", "pulse", 2.0)]


def test_signal_pulse_not_sticky():
    sim = Simulator()
    sig = Signal(sim)
    sig.fire()  # nobody waiting: pulse lost

    def waiter(sim, sig):
        yield sig.wait()
        return sim.now

    def firer(sim, sig):
        yield sim.timeout(5)
        sig.fire()

    p = sim.spawn(waiter(sim, sig))
    sim.spawn(firer(sim, sig))
    sim.run()
    assert p.value == 5.0
    assert sig.fired_count == 2


def test_semaphore_limits_concurrency():
    sim = Simulator()
    sem = Semaphore(sim, value=2)
    active = []
    peak = []

    def worker(sim, sem, i):
        yield sem.acquire()
        active.append(i)
        peak.append(len(active))
        yield sim.timeout(1)
        active.remove(i)
        sem.release()

    for i in range(6):
        sim.spawn(worker(sim, sem, i))
    sim.run()
    assert max(peak) == 2
    assert sem.value == 2


def test_semaphore_fifo_handoff():
    sim = Simulator()
    sem = Semaphore(sim, value=0)
    order = []

    def waiter(sim, sem, name):
        yield sem.acquire()
        order.append(name)

    for n in ("x", "y", "z"):
        sim.spawn(waiter(sim, sem, n))

    def releaser(sim, sem):
        for _ in range(3):
            yield sim.timeout(1)
            sem.release()

    sim.spawn(releaser(sim, sem))
    sim.run()
    assert order == ["x", "y", "z"]


def test_semaphore_negative_init_rejected():
    with pytest.raises(SimulationError):
        Semaphore(Simulator(), value=-1)
