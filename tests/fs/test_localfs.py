"""Unit tests for timed local-FS operations."""

from __future__ import annotations

import pytest

from repro.config import DiskSpec
from repro.hardware import DiskModel
from repro.fs import LocalFS
from repro.sim import Simulator
from repro.units import MB


@pytest.fixture()
def lfs():
    sim = Simulator()
    disk = DiskModel(sim, DiskSpec(bandwidth=100e6, seek_time=0.01))
    return sim, LocalFS(sim, disk)


def run(sim, gen):
    proc = sim.spawn(gen)
    sim.run(until=proc)
    return proc.value


def test_write_then_read_roundtrip(lfs):
    sim, fs = lfs

    def proc():
        yield fs.mkdir("/data")
        yield fs.write("/data/f", data=b"payload", size=MB(100))
        data = yield fs.read("/data/f")
        return data

    assert run(sim, proc()) == b"payload"
    assert fs.size_of("/data/f") == MB(100)


def test_read_charges_declared_size(lfs):
    sim, fs = lfs

    def proc():
        yield fs.write("/f", data=b"x", size=MB(100))
        t0 = sim.now
        yield fs.read("/f")
        return sim.now - t0

    elapsed = run(sim, proc())
    assert elapsed == pytest.approx(0.01 + 1.0)  # seek + 100MB/100MBps


def test_partial_read_charges_nbytes(lfs):
    sim, fs = lfs

    def proc():
        yield fs.write("/f", data=b"x", size=MB(100))
        t0 = sim.now
        yield fs.read("/f", nbytes=MB(10))
        return sim.now - t0

    assert run(sim, proc()) == pytest.approx(0.01 + 0.1)


def test_mutating_metadata_ops_cost_one_seek(lfs):
    sim, fs = lfs

    def proc():
        t0 = sim.now
        yield fs.mkdir("/d")
        yield fs.create("/d/f")
        yield fs.unlink("/d/f")
        return sim.now - t0

    assert run(sim, proc()) == pytest.approx(3 * 0.01)


def test_cached_metadata_ops_are_free(lfs):
    """stat and listdir are answered from the VFS: no clock, no disk."""
    sim, fs = lfs

    def proc():
        yield fs.create("/f")
        t0, requests = sim.now, fs.disk.requests
        inode = fs.vfs.stat("/f")
        names = fs.vfs.listdir("/")
        return sim.now - t0, fs.disk.requests - requests, inode.size, names

    assert run(sim, proc()) == (0.0, 0, 0, ["f"])


def test_mtime_is_simulation_clock(lfs):
    sim, fs = lfs

    def proc():
        yield sim.timeout(3.0)
        yield fs.write("/f", data=b"x")
        return fs.vfs.stat("/f").mtime

    # write completes after the disk charge (seek)
    assert run(sim, proc()) == pytest.approx(3.01)


def test_append_accumulates(lfs):
    sim, fs = lfs

    def proc():
        yield fs.write("/f", data=b"aa", size=10)
        yield fs.write("/f", data=b"bb", size=10, append=True)
        return (yield fs.read("/f"))

    assert run(sim, proc()) == b"aabb"
    assert fs.size_of("/f") == 20


def test_exists_is_free_metadata(lfs):
    sim, fs = lfs
    assert not fs.exists("/nope")

    def proc():
        yield fs.create("/yes")

    run(sim, proc())
    assert fs.exists("/yes")


def test_concurrent_io_contends_on_disk(lfs):
    sim, fs = lfs
    ends = {}

    def writer(name):
        yield fs.write(f"/{name}", size=MB(100))
        ends[name] = sim.now

    def proc():
        a = sim.spawn(writer("a"))
        b = sim.spawn(writer("b"))
        yield sim.all_of([a, b])

    run(sim, proc())
    # both 1.01s of device time, serialized
    assert ends["a"] == pytest.approx(1.01, rel=0.01)
    assert ends["b"] == pytest.approx(2.02, rel=0.01)
