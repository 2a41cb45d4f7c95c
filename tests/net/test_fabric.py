"""Unit tests for links, switch and fabric flows."""

from __future__ import annotations

import gc

import pytest

from repro.config import NetworkConfig
from repro.errors import NetworkError, RoutingError
from repro.net import Fabric, Link, Message, Switch
from repro.sim import Simulator, Store
from repro.units import Gbit, MB, MiB


def test_link_tx_time():
    sim = Simulator()
    link = Link(sim, bandwidth=Gbit(1), latency=0.0)
    assert link.tx_time(MB(125)) == pytest.approx(1.0)


def test_link_serializes_transfers():
    sim = Simulator()
    link = Link(sim, bandwidth=1e6, latency=0.0)
    ends = {}

    def tx(sim, link, name, nbytes):
        yield link.transmit(nbytes)
        ends[name] = sim.now

    sim.spawn(tx(sim, link, "a", 1_000_000))
    sim.spawn(tx(sim, link, "b", 1_000_000))
    sim.run()
    assert ends["a"] == pytest.approx(1.0)
    assert ends["b"] == pytest.approx(2.0)


def test_link_latency_after_serialization():
    sim = Simulator()
    link = Link(sim, bandwidth=1e6, latency=0.5)

    def tx(sim, link):
        yield link.transmit(1_000_000)
        return sim.now

    p = sim.spawn(tx(sim, link))
    sim.run()
    assert p.value == pytest.approx(1.5)


def test_link_validation():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Link(sim, bandwidth=0, latency=0)
    with pytest.raises(NetworkError):
        Link(sim, bandwidth=1, latency=-1)


def test_switch_ports_and_path():
    sim = Simulator()
    sw = Switch(sim, NetworkConfig())
    sw.attach("a")
    sw.attach("b")
    up, down = sw.path("a", "b")
    assert "a->" in up.name
    assert "->b" in down.name
    with pytest.raises(RoutingError):
        sw.path("a", "a")
    with pytest.raises(RoutingError):
        sw.path("a", "zzz")


def test_fabric_transfer_time_1gb():
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig())
    fab.attach("a")
    fab.attach("b")

    def main(sim, fab):
        yield fab.transfer("a", "b", MB(1000))
        return sim.now

    p = sim.spawn(main(sim, fab))
    sim.run(until=p)
    # 1 GB at 125 MB/s, pipelined segments: ~8s (+ segment pipeline slack)
    assert 8.0 <= p.value < 8.5


def test_fabric_zero_byte_message():
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig())
    fab.attach("a")
    fab.attach("b")

    def main(sim, fab):
        yield fab.transfer("a", "b", 0)
        return sim.now

    p = sim.spawn(main(sim, fab))
    sim.run(until=p)
    assert p.value < 0.01  # latency only


def test_fabric_loopback_is_free():
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig())
    fab.attach("a")

    def main(sim, fab):
        yield fab.transfer("a", "a", MB(500))
        return sim.now

    p = sim.spawn(main(sim, fab))
    sim.run(until=p)
    assert p.value == 0.0


def test_fabric_delivers_to_inbox():
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig())
    fab.attach("a")
    inbox = Store(sim)
    fab.attach("b", inbox.put)

    def consumer(sim, inbox):
        msg = yield inbox.get()
        return (msg.src, msg.nbytes)

    def producer(sim, fab):
        yield fab.transfer("a", "b", 1000)

    p = sim.spawn(consumer(sim, inbox))
    sim.spawn(producer(sim, fab))
    sim.run()
    assert p.value == ("a", 1000)


def test_concurrent_flows_share_downlink():
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig(segment_bytes=MiB(1)))
    for n in ("a", "b", "c"):
        fab.attach(n)
    ends = {}

    def f(sim, fab, src, nbytes, name):
        yield fab.transfer(src, "c", nbytes)
        ends[name] = sim.now

    sim.spawn(f(sim, fab, "a", MB(100), "a"))
    sim.spawn(f(sim, fab, "b", MB(100), "b"))
    sim.run()
    # each flow alone: 0.8s; sharing c's downlink: ~1.6s for both
    assert ends["a"] == pytest.approx(1.6, rel=0.1)
    assert ends["b"] == pytest.approx(1.6, rel=0.1)


def test_disjoint_flows_do_not_interfere():
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig())
    for n in ("a", "b", "c", "d"):
        fab.attach(n)
    ends = {}

    def f(sim, fab, src, dst, name):
        yield fab.transfer(src, dst, MB(125))
        ends[name] = sim.now

    sim.spawn(f(sim, fab, "a", "b", "ab"))
    sim.spawn(f(sim, fab, "c", "d", "cd"))
    sim.run()
    # size/bw plus one store-and-forward segment (~0.134s at 16 MiB segments)
    expect = 125e6 / 125e6 + (16 * 1024**2) / 125e6
    assert ends["ab"] == pytest.approx(expect, rel=0.05)
    assert ends["cd"] == pytest.approx(expect, rel=0.05)
    # crucially: the two disjoint flows do not slow each other down
    assert ends["ab"] == pytest.approx(ends["cd"], rel=1e-9)


def test_flow_stats_recorded():
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig())
    fab.attach("a")
    fab.attach("b")

    def main(sim, fab):
        yield fab.transfer("a", "b", MB(10))
        return sim.now

    p = sim.spawn(main(sim, fab))
    sim.run()
    assert fab.pair_messages == {("a", "b"): 1}
    assert fab.pair_bytes == {("a", "b"): MB(10)}
    goodput = MB(10) / p.value
    assert 0 < goodput < NetworkConfig().link_bandwidth
    assert fab.bytes_delivered == MB(10)


def test_send_to_unattached_endpoint_rejected():
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig())
    fab.attach("a")
    with pytest.raises(NetworkError):
        fab.transfer("a", "ghost", 10)


def test_posted_message_arrives_with_a_waited_one():
    """post (nobody waits) and send share one delivery path: the handler
    sees the message at the same instant, the waited send's event fires
    then, and only send schedules that completion event."""
    seen = {}
    for how in ("post", "send"):
        sim = Simulator()
        fab = Fabric(sim, NetworkConfig(segment_bytes=MiB(1)))
        fab.attach("a")
        fab.attach("b", lambda msg, how=how, sim=sim: seen.setdefault(how, sim.now))
        msg = Message(src="a", dst="b", nbytes=MB(3))
        if how == "send":
            fab.send(msg).add_callback(
                lambda ev: seen.setdefault("fired", (sim.now, ev.value))
            )
        else:
            assert fab.post(msg) is None
        sim.run()
        seen[f"{how}.events"] = sim.processed_events
    assert seen["post"] == seen["send"] > 0
    assert seen["fired"] == (seen["send"], msg)
    assert seen["send.events"] == seen["post.events"] + 1


def test_delivered_messages_leave_no_reference_cycles():
    """A message's walk over the links is freed by reference counting once
    delivered: garbage in cycles would wake the collector every few
    hundred messages, and an NFS poll sends two."""
    sim = Simulator()
    fab = Fabric(sim, NetworkConfig(segment_bytes=MiB(1)))
    fab.attach("a")
    fab.attach("b", lambda msg: None)
    gc.collect()
    gc.disable()
    try:
        for nbytes in (0, 256, MB(3)):
            fab.post(Message(src="a", dst="b", nbytes=nbytes))
            fab.send(Message(src="a", dst="b", nbytes=nbytes))
            fab.post(Message(src="a", dst="a", nbytes=nbytes))
        sim.run()
        assert gc.collect() == 0
    finally:
        gc.enable()
