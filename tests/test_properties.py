"""Cross-cutting property-based tests on the simulation substrates.

These pin the conservation laws and invariants the whole evaluation rests
on: the CPU never creates or destroys work, the fabric never loses bytes,
memory accounting always returns to zero, and simulations are replayable.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CPUSpec, MemoryPolicy, NetworkConfig
from repro.hardware import MemoryModel, ProcessorSharingCPU
from repro.net import Fabric, Link
from repro.sim import Simulator
from repro.errors import OutOfMemoryError


# ------------------------------------------------------------------ CPU


@given(
    cores=st.integers(min_value=1, max_value=8),
    tasks=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0),     # arrival
            st.floats(min_value=1e6, max_value=5e9),      # ops
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=80, deadline=None)
def test_property_cpu_conserves_work(cores, tasks):
    """Delivered core-seconds == total submitted ops / per-core rate."""
    spec = CPUSpec("prop", cores=cores, clock_ghz=2.0)
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, spec)

    def submit(arrival, ops):
        if arrival:
            yield sim.timeout(arrival)
        yield cpu.submit(ops, "t")

    for arrival, ops in tasks:
        sim.spawn(submit(arrival, ops))
    sim.run()
    total_ops = sum(ops for _, ops in tasks)
    assert cpu.busy_core_seconds * spec.ops_per_sec_per_core == pytest.approx(
        total_ops, rel=1e-6
    )
    assert cpu.n_active == 0
    assert cpu.completed_tasks == len(tasks)


@given(
    cores=st.integers(min_value=1, max_value=4),
    ops=st.lists(st.floats(min_value=1e6, max_value=2e9), min_size=2, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_property_cpu_makespan_bounds(cores, ops):
    """Makespan lies between work/aggregate-rate and work/single-core-rate
    (plus the longest task alone)."""
    spec = CPUSpec("prop", cores=cores, clock_ghz=1.0)
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, spec)
    for i, o in enumerate(ops):
        cpu.submit(o, f"t{i}")
    sim.run()
    total = sum(ops)
    rate = spec.ops_per_sec_per_core
    lower = max(total / (cores * rate), max(ops) / rate)
    upper = total / rate
    assert lower - 1e-9 <= sim.now <= upper + 1e-9


# ------------------------------------------------------------------ fabric


@given(
    flows=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=50_000_000)),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_fabric_conserves_bytes(flows):
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig())
    names = [f"n{i}" for i in range(4)]
    for n in names:
        fab.attach(n)
    sent = 0
    latencies = []

    def xfer(src, dst, nbytes):
        t0 = sim.now
        yield fab.transfer(src, dst, nbytes)
        latencies.append((nbytes, sim.now - t0))

    for s, d, nb in flows:
        if s == d:
            continue
        sent += nb
        sim.spawn(xfer(names[s], names[d], nb))
    sim.run()
    assert fab.bytes_delivered == sent == sum(fab.pair_bytes.values())
    assert len(latencies) == sum(fab.pair_messages.values())
    assert len(latencies) == sum(1 for s, d, _ in flows if s != d)
    # per-transfer latency >= serialization floor
    for nbytes, latency in latencies:
        assert latency >= nbytes / NetworkConfig().link_bandwidth - 1e-9


@given(
    sends=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 0.001, 0.5]),
                      st.floats(min_value=0.0, max_value=1.0)),
            st.one_of(st.just(0), st.integers(min_value=0, max_value=20_000_000)),
        ),
        min_size=1,
        max_size=20,
    ),
    latency=st.sampled_from([0.0, 5e-5, 0.01]),
)
@settings(max_examples=80, deadline=None)
def test_property_link_is_a_fifo_recurrence(sends, latency):
    """Arrivals follow end_i = max(t_i, end_{i-1}) + n_i/bw, arrival =
    end_i + latency, in send order, to the last bit of the float."""
    sim = Simulator()
    bw = NetworkConfig().link_bandwidth
    link = Link(sim, bandwidth=bw, latency=latency)
    sent_at: list[float] = []
    arrived: list[tuple[int, float]] = []

    def sender():
        # sorted() is stable: equal times are same-instant sends in list order
        for t, nbytes in sorted(sends, key=lambda s: s[0]):
            if t > sim.now:
                yield sim.timeout(t - sim.now)
            i = len(sent_at)
            sent_at.append(sim.now)
            link.transmit(nbytes).add_callback(
                lambda ev, i=i: arrived.append((i, sim.now))
            )

    sim.spawn(sender())
    sim.run()
    expected, end = [], 0.0
    for (_, nbytes), t in zip(sorted(sends, key=lambda s: s[0]), sent_at):
        end = max(t, end) + nbytes / bw
        expected.append((len(expected), end + latency))
    assert arrived == expected
    assert link.bytes_sent == sum(nbytes for _, nbytes in sends)


# ------------------------------------------------------------------ memory


@given(
    actions=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=10**9)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_memory_accounting_never_leaks(actions):
    sim = Simulator()
    mem = MemoryModel(sim, 2 * 10**9, policy=MemoryPolicy())
    live = []
    for is_alloc, nbytes in actions:
        if is_alloc or not live:
            try:
                live.append(mem.alloc(nbytes))
            except OutOfMemoryError:
                assert mem.used + nbytes > mem.limit
        else:
            live.pop().free()
        assert 0 <= mem.used <= mem.limit
        assert mem.thrash_factor() >= 1.0
    for a in live:
        a.free()
    assert mem.used == 0
    assert mem.thrash_factor() == 1.0


# ------------------------------------------------------------------ determinism


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_property_simulation_replayable(seed):
    """Same seed, same program -> identical event count and clock."""

    def run():
        sim = Simulator(seed=seed)
        fab = Fabric(sim, NetworkConfig())
        fab.attach("a")
        fab.attach("b")

        def traffic():
            for _ in range(5):
                jitter = float(sim.rng.stream("j").uniform(0.0, 0.01))
                yield sim.timeout(jitter)
                yield fab.transfer("a", "b", 1_000_000)

        sim.spawn(traffic())
        sim.run()
        return sim.processed_events, sim.now

    assert run() == run()
