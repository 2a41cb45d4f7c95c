"""Unit tests for the Node abstraction."""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig, table1_cluster
from repro.errors import NetworkError
from repro.net import Fabric
from repro.node import Node
from repro.sim import Simulator
from repro.units import GiB, MB


@pytest.fixture()
def pair():
    cfg = table1_cluster()
    sim = Simulator(seed=1)
    fab = Fabric(sim, NetworkConfig())
    host = Node(sim, cfg.node("host"), fab)
    sd = Node(sim, cfg.node("sd0"), fab)
    return sim, host, sd


def test_node_composition(pair):
    sim, host, sd = pair
    assert host.cpu.cores == 4
    assert sd.cpu.cores == 2
    assert host.memory.capacity == GiB(2)
    assert host.fs is not None and host.inotify is not None


def test_memory_pressure_slows_cpu(pair):
    """The thrash wiring: allocation on the node slows its CPU."""
    sim, host, sd = pair
    sd.memory.alloc(int(GiB(2) * 1.5), owner="hog")
    assert sd.cpu.slowdown > 1.0
    done = {}

    def task():
        yield sd.cpu.submit(2.0e9, "t")
        done["t"] = sim.now

    sim.spawn(task())
    sim.run()
    assert done["t"] > 1.0  # would be 1.0s at full speed


def test_service_demux_routing(pair):
    sim, host, sd = pair
    got = []
    sd.bind("svc-a", lambda msg: got.append(("a", msg.payload, sim.now)))
    sd.bind("svc-b", lambda msg: got.append(("b", msg.payload, sim.now)))
    sent = []

    def producer():
        yield host.send(sd.name, "svc-b", {"x": 2}, nbytes=100)
        sent.append(sim.now)
        yield host.send(sd.name, "svc-a", {"x": 1}, nbytes=100)
        sent.append(sim.now)
        # a port nobody bound swallows its messages
        yield host.send(sd.name, "svc-c", {"x": 3}, nbytes=100)

    sim.spawn(producer())
    sim.run(until=2.0)
    # each handler runs on arrival, the instant the sender's send completes
    assert got == [("b", {"x": 2}, sent[0]), ("a", {"x": 1}, sent[1])]


def test_send_negative_bytes_rejected(pair):
    sim, host, sd = pair
    with pytest.raises(NetworkError):
        host.send(sd.name, "p", None, nbytes=-1)


def test_default_port_for_untagged_messages(pair):
    sim, host, sd = pair
    from repro.net.message import Message

    got = []
    sd.bind("default", lambda msg: got.append(msg.payload))

    def producer():
        yield host.fabric.send(Message(src="host", dst="sd0", nbytes=10, payload="raw"))

    sim.run(until=sim.spawn(producer()))
    assert got == ["raw"]


def test_mount_longest_prefix_wins(pair):
    sim, host, sd = pair

    class FakeMount:
        pass

    outer, inner = FakeMount(), FakeMount()
    host.add_mount("/mnt", outer)
    host.add_mount("/mnt/deep", inner)
    fs, rel = host.resolve_fs("/mnt/deep/file")
    assert fs is inner and rel == "/file"
    fs2, rel2 = host.resolve_fs("/mnt/other")
    assert fs2 is outer and rel2 == "/other"
    fs3, rel3 = host.resolve_fs("/elsewhere")
    assert fs3 is host.fs


def test_run_ops_is_cpu_submit(pair):
    sim, host, sd = pair

    def t():
        yield host.run_ops(2.66e9, "unit")
        return sim.now

    p = sim.spawn(t())
    sim.run(until=p)
    assert p.value == pytest.approx(1.0)
