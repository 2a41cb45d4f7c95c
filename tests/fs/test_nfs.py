"""Integration tests: NFS client/server over the simulated fabric."""

from __future__ import annotations

import pytest

from repro.config import NetworkConfig
from repro.errors import FileNotFoundInVFS
from repro.fs import NFSClient, NFSMount, NFSServer
from repro.fs.nfs import RPC_HEADER_BYTES
from repro.net import Fabric
from repro.node import Node
from repro.sim import Simulator
from repro.units import MB

from tests.conftest import run_proc


@pytest.fixture()
def nfs(sim, host_and_sd):
    host, sd = host_and_sd
    NFSServer(sd, export_root="/export")
    client = NFSClient(host)
    mount = NFSMount(client, "sd0")
    host.add_mount("/mnt/sd0", mount)

    def seed():
        yield sd.fs.mkdir("/export/data", parents=True)
        yield sd.fs.write("/export/data/f.txt", data=b"remote bytes", size=MB(50))

    run_proc(sim, seed())
    return sim, host, sd, mount


def test_remote_read_returns_payload(nfs):
    sim, host, sd, mount = nfs

    def proc():
        return (yield mount.read("/data/f.txt"))

    assert run_proc(sim, proc()) == b"remote bytes"


def test_remote_read_costs_disk_plus_network(nfs):
    sim, host, sd, mount = nfs

    def proc():
        t0 = sim.now
        yield mount.read("/data/f.txt")
        return sim.now - t0

    elapsed = run_proc(sim, proc())
    # 50 MB: disk 0.633s + network 0.4s, pipelining not modelled inside NFS
    expect = 50e6 / 80e6 + 50e6 / 125e6
    assert elapsed == pytest.approx(expect, rel=0.15)


def test_remote_write_appears_on_server(nfs):
    sim, host, sd, mount = nfs

    def proc():
        yield mount.write("/data/new.txt", data=b"written", size=MB(10))
        return sd.fs.vfs.read("/export/data/new.txt")

    assert run_proc(sim, proc()) == b"written"
    assert sd.fs.size_of("/export/data/new.txt") == MB(10)


def test_write_reply_carries_post_op_attributes(nfs):
    """A write's reply holds the file's size and mtime right after it, as
    an NFSv3 WRITE reply does: no getattr is needed for a baseline."""
    sim, host, sd, mount = nfs

    def proc():
        attrs = yield mount.write("/data/new.txt", data=b"written", size=MB(10))
        written_at = sd.fs.vfs.stat("/export/data/new.txt").mtime
        yield sim.timeout(1.0)
        return attrs, written_at

    attrs, written_at = run_proc(sim, proc())
    assert attrs == {"size": MB(10), "mtime": written_at}
    assert 0.0 < written_at < sim.now


def test_stat_and_listdir(nfs):
    sim, host, sd, mount = nfs

    def proc():
        attrs = yield mount.stat("/data/f.txt")
        names = yield mount.listdir("/data")
        return attrs, names

    attrs, names = run_proc(sim, proc())
    assert attrs["size"] == MB(50)
    assert not attrs["is_dir"]
    assert names == ["f.txt"]


def test_errors_propagate_to_client(nfs):
    sim, host, sd, mount = nfs

    def proc():
        try:
            yield mount.read("/data/ghost")
        except FileNotFoundInVFS:
            return "not found"

    assert run_proc(sim, proc()) == "not found"


def test_remove_and_access(nfs):
    sim, host, sd, mount = nfs

    def proc():
        before = yield mount.access("/data/f.txt")
        yield mount.unlink("/data/f.txt")
        after = yield mount.access("/data/f.txt")
        return before, after

    assert run_proc(sim, proc()) == (True, False)


def test_mount_resolution_via_node(nfs):
    sim, host, sd, mount = nfs
    fs, rel = host.resolve_fs("/mnt/sd0/data/f.txt")
    assert fs is mount
    assert rel == "/data/f.txt"
    fs2, rel2 = host.resolve_fs("/local/file")
    assert fs2 is host.fs
    assert rel2 == "/local/file"


def test_watch_detects_remote_modification(nfs):
    """A client-side getattr poll (how the smartFAM host watches its log
    over NFS) sees a server-side write within a poll round and an RTT."""
    sim, host, sd, mount = nfs
    write_done_at = []

    def modifier():
        yield sim.timeout(1.0)
        yield sd.fs.write("/export/data/f.txt", data=b"v2", size=MB(50))
        write_done_at.append(sim.now)

    def poller():
        baseline = yield mount.stat("/data/f.txt")
        polls = 0
        while True:
            yield sim.timeout(0.05)
            attrs = yield mount.stat("/data/f.txt")
            polls += 1
            if attrs["mtime"] != baseline["mtime"]:
                return sim.now, attrs["size"], polls

    sim.spawn(modifier())
    t, size, polls = run_proc(sim, poller())
    # detected within ~2 poll rounds + one getattr RTT of the write landing
    assert write_done_at and write_done_at[0] < t < write_done_at[0] + 0.15
    assert size == MB(50)
    assert polls > 2


def test_concurrent_rpcs_matched_by_xid(nfs):
    sim, host, sd, mount = nfs

    def proc():
        reads = [mount.read("/data/f.txt") for _ in range(4)]
        stats = [mount.stat("/data/f.txt") for _ in range(4)]
        res = yield sim.all_of(reads + stats)
        return list(res.values())

    values = run_proc(sim, proc())
    assert sum(1 for v in values if v == b"remote bytes") == 4
    assert sum(1 for v in values if isinstance(v, dict)) == 4


def test_nfs_traffic_counted(nfs):
    sim, host, sd, mount = nfs

    def proc():
        yield mount.read("/data/f.txt")
        yield mount.write("/data/g", size=MB(5))

    run_proc(sim, proc())
    assert mount.bytes_read == MB(50)
    assert mount.bytes_written == MB(5)


def test_getattr_round_trip_is_five_events_and_four_hops(sim, fabric, host_and_sd):
    """getattr charges no disk, so the server answers it in the arrival
    instant: four link hops and the call's reply, no server process and
    no completion event for the request or the reply."""
    host, sd = host_and_sd
    NFSServer(sd, export_root="/export")
    mount = NFSMount(NFSClient(host), "sd0")
    sd.fs.vfs.mkdir("/export")
    sd.fs.vfs.create("/export/f")

    call = mount.stat("/f")
    sim.run()

    assert sim.processed_events == 5
    assert call.value["size"] == 0 and not call.value["is_dir"]
    expect = 0.0
    for link in (*fabric.switch.path("host", "sd0"), *fabric.switch.path("sd0", "host")):
        expect = expect + link.tx_time(RPC_HEADER_BYTES) + link.latency
    assert sim.now == expect
    assert sd.disk.requests == 0


def test_traced_poll_records_each_event_repr(cluster_cfg):
    """A traced run records every processed event's ``repr``, which is
    what ``tools/trace_view.py`` and the flight recorder show.  Timeout,
    RPC and process-init names are formatted only when read; the text
    must not change."""
    sim = Simulator(seed=42, trace=True)
    fabric = Fabric(sim, NetworkConfig())
    host = Node(sim, cluster_cfg.node("host"), fabric)
    sd = Node(sim, cluster_cfg.node("sd0"), fabric)
    NFSServer(sd, export_root="/export")
    mount = NFSMount(NFSClient(host), "sd0")
    sd.fs.vfs.mkdir("/export")
    sd.fs.vfs.create("/export/log")

    def poll():
        yield sim.timeout(0.05)
        return (yield mount.stat("/log"))

    sim.run(until=sim.spawn(poll(), name="poller"))
    assert [r.detail for r in sim.obs.records.of_kind("event")] == [
        "<init:poller ok>",
        "<Timeout(0.05) ok>",
        "<host->switch ok>",
        "<switch->sd0 ok>",
        "<sd0->switch ok>",
        "<switch->host ok>",
        "<nfs-rpc:getattr ok>",
        "<Process poller ok>",
    ]
