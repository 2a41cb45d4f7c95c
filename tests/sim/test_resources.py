"""Unit tests for Resource and Store semantics."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store


# ---------------------------------------------------------------- Resource


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    r = Resource(sim, capacity=2)
    r1, r2 = r.request(), r.request()
    assert r1.triggered and r2.triggered
    r3 = r.request()
    assert not r3.triggered
    assert r.count == 2
    assert r.queue_len == 1


def test_resource_fifo_order():
    sim = Simulator()
    r = Resource(sim, capacity=1)
    order = []

    def user(sim, r, name, hold):
        with r.request() as req:
            yield req
            order.append(name)
            yield sim.timeout(hold)

    for name in ("a", "b", "c"):
        sim.spawn(user(sim, r, name, 1.0))
    sim.run()
    assert order == ["a", "b", "c"]


def test_resource_release_is_idempotent():
    sim = Simulator()
    r = Resource(sim, capacity=1)
    req = r.request()
    r.release(req)
    r.release(req)
    assert r.count == 0


def test_resource_cancel_waiting_request():
    sim = Simulator()
    r = Resource(sim, capacity=1)
    holder = r.request()
    waiter = r.request()
    waiter.cancel()
    r.release(holder)
    assert not waiter.triggered
    assert r.count == 0


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_context_manager_releases_on_exception():
    sim = Simulator()
    r = Resource(sim, capacity=1)

    def bad_user(sim, r):
        with r.request() as req:
            yield req
            raise RuntimeError("die holding the slot")

    def next_user(sim, r):
        with r.request() as req:
            yield req
            return sim.now

    p1 = sim.spawn(bad_user(sim, r))
    p2 = sim.spawn(next_user(sim, r))
    sim.run()
    assert not p1.ok
    assert p2.ok  # the slot was not leaked


# ---------------------------------------------------------------- Store


def test_store_put_get_fifo():
    sim = Simulator()
    s = Store(sim)

    def producer(sim, s):
        for i in range(3):
            yield s.put(i)

    def consumer(sim, s):
        out = []
        for _ in range(3):
            out.append((yield s.get()))
        return out

    sim.spawn(producer(sim, s))
    p = sim.spawn(consumer(sim, s))
    sim.run()
    assert p.value == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    s = Store(sim)

    def consumer(sim, s):
        item = yield s.get()
        return (sim.now, item)

    def producer(sim, s):
        yield sim.timeout(4)
        yield s.put("late")

    p = sim.spawn(consumer(sim, s))
    sim.spawn(producer(sim, s))
    sim.run()
    assert p.value == (4.0, "late")


def test_store_bounded_put_blocks():
    sim = Simulator()
    s = Store(sim, capacity=1)

    def producer(sim, s):
        yield s.put("a")
        yield s.put("b")  # blocks until the consumer takes "a"
        return sim.now

    def consumer(sim, s):
        yield sim.timeout(2)
        yield s.get()

    p = sim.spawn(producer(sim, s))
    sim.spawn(consumer(sim, s))
    sim.run()
    assert p.value == 2.0


def test_store_try_get():
    sim = Simulator()
    s = Store(sim)
    assert s.try_get() is None
    s.put("x")
    assert s.try_get() == "x"


def test_store_handoff_to_waiting_getter():
    sim = Simulator()
    s = Store(sim)

    def consumer(sim, s):
        return (yield s.get())

    p = sim.spawn(consumer(sim, s))
    sim.run(until=0.0)
    s.put("direct")
    sim.run()
    assert p.value == "direct"
    assert len(s) == 0
