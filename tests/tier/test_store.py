"""Unit tests for the real-engine TieredStore (bytes, not timing)."""

from __future__ import annotations

import os
import threading

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultRule, tier_chaos_plan
from repro.obs import Observability
from repro.tier import TieredStore, live_tier_dirs


def make_store(mem=1024, ssd=4096, **kw):
    return TieredStore(mem, ssd, **kw)


def test_put_get_roundtrip_and_counters():
    with make_store() as store:
        store.put("a/run-0", b"alpha" * 10)
        assert store.get("a/run-0") == b"alpha" * 10
        assert store.contains("a/run-0")
        assert store.get("a/missing") is None
        st = store.stats()
        assert st["tier.put"] == 1
        assert st["tier.hit.mem"] == 1
        assert st["tier.miss"] == 1


def test_overwrite_replaces_payload():
    with make_store() as store:
        store.put("k", b"old")
        store.put("k", b"newer bytes")
        assert store.get("k") == b"newer bytes"
        assert store.stats()["entries"] == 1


def test_demote_to_ssd_and_promote_back():
    with make_store(mem=1024, ssd=8192) as store:
        store.put("k0", b"x" * 600)
        store.put("k1", b"y" * 600)  # overflows mem: k0 demotes to ssd
        st = store.stats()
        assert st["tier.demote"] >= 1
        assert st["mem_used"] <= 1024
        assert store.get("k0") == b"x" * 600  # served from the ssd file
        st = store.stats()
        assert st["tier.hit.ssd"] >= 1


def test_ssd_capacity_eviction_drops_lru():
    with make_store(mem=600, ssd=1200) as store:
        for i in range(4):
            store.put(f"k{i}", bytes([i]) * 500)
        st = store.stats()
        assert st["tier.evict.capacity"] >= 1
        assert st["ssd_used"] <= 1200
        # the newest entry always survives
        assert store.get("k3") == bytes([3]) * 500


def test_oversized_payload_still_served():
    with make_store(mem=64, ssd=4096) as store:
        blob = b"z" * 1000  # larger than the whole mem level
        store.put("big", blob)
        assert store.get("big") == blob


def test_invalidate_and_prefix():
    with make_store() as store:
        store.put("job1/run-0", b"a")
        store.put("job1/run-1", b"b")
        store.put("job2/run-0", b"c")
        assert store.invalidate("job1/run-0")
        assert not store.invalidate("job1/run-0")  # already gone
        assert store.get("job2/run-0") == b"c"


def test_put_returns_with_the_entry_on_disk():
    with make_store(mem=1024, ssd=8192) as store:
        store.put("k", b"payload " * 8)
        # no flush: the SSD file is written before put() returns
        assert store.stats()["tier.writeback.bytes"] == 64
        files = os.listdir(store.ssd_dir)
        assert len(files) == 1
        with open(os.path.join(store.ssd_dir, files[0]), "rb") as fh:
            assert fh.read() == b"payload " * 8


def test_store_starts_no_thread():
    before = threading.active_count()
    store = make_store(mem=64, ssd=4096)
    assert threading.active_count() == before
    store.put("k0", b"a" * 48)
    store.put("k1", b"b" * 48)  # demotes k0 to the SSD level
    assert threading.active_count() == before
    assert store.get("k0") == b"a" * 48
    assert threading.active_count() == before
    store.close()
    assert threading.active_count() == before


def test_dropped_writeback_loses_entry_without_lying():
    plan = FaultPlan(
        rules=(FaultRule("tier.writeback", action="drop", count=3),), seed=1
    )
    inj = FaultInjector(plan)
    with make_store(faults=inj) as store:
        store.put("k", b"doomed")  # 1 attempt + 2 retries, all dropped
        st = store.stats()
        assert st["tier.writeback.retry"] == 2
        assert st["tier.writeback.lost"] == 1
        assert not store.contains("k")
        assert store.get("k") is None  # lost, never wrong


def test_reput_with_lost_write_leaves_no_stale_file():
    """A re-put whose write is dropped loses the key — and must take the
    old entry's SSD file with it, not leave the old bytes behind."""
    plan = FaultPlan(
        rules=(FaultRule("tier.writeback", action="drop", count=3, after=1),),
        seed=1,
    )
    inj = FaultInjector(plan)
    with make_store(faults=inj) as store:
        store.put("k", b"old bytes")  # written: the rule skips one write
        assert len(os.listdir(store.ssd_dir)) == 1
        store.put("k", b"new bytes")  # 1 attempt + 2 retries, all dropped
        assert store.stats()["tier.writeback.lost"] == 1
        assert store.get("k") is None
        assert os.listdir(store.ssd_dir) == []
        assert store.stats()["ssd_used"] == 0


def test_degraded_read_becomes_miss():
    plan = FaultPlan(
        rules=(FaultRule("tier.read", action="fail", count=1),), seed=1
    )
    inj = FaultInjector(plan)
    with make_store(faults=inj) as store:
        store.put("k", b"fragile")
        assert store.get("k") is None  # degraded: treat as miss
        assert store.stats()["tier.read.degraded"] == 1
        assert not store.contains("k")  # and invalidated, not stale


def test_corrupt_read_returns_tainted_bytes_once():
    plan = FaultPlan(
        rules=(FaultRule("tier.read", action="corrupt", count=1),), seed=1
    )
    inj = FaultInjector(plan)
    with make_store(faults=inj) as store:
        blob = b"checksummed upstream"
        store.put("k", blob)
        first = store.get("k")
        assert first != blob and len(first) == len(blob)  # one byte flipped
        assert store.stats()["tier.read.corrupted"] == 1
        assert store.get("k") == blob  # the stored copy was never touched


def test_wedged_eviction_counts_stuck():
    plan = FaultPlan(
        rules=(FaultRule("tier.evict", action="drop", count=1),), seed=1
    )
    inj = FaultInjector(plan)
    with make_store(mem=600, ssd=1000, faults=inj) as store:
        for i in range(4):
            store.put(f"k{i}", bytes([i]) * 500)
        assert store.stats()["tier.evict.stuck"] == 1


def test_counters_reach_observability():
    obs = Observability(enabled=False)
    with make_store(obs=obs) as store:
        store.put("k", b"counted")
        store.get("k")
    ctr = obs.metrics.counters
    assert ctr["tier.put"] == 1
    assert ctr["tier.hit.mem"] == 1


def test_close_removes_dir_and_leak_registry():
    store = make_store()
    d = store.ssd_dir
    assert d in live_tier_dirs()
    store.close()
    store.close()  # idempotent
    assert not os.path.isdir(d)
    assert d not in live_tier_dirs()
    with pytest.raises(RuntimeError):
        store.put("k", b"after close")


def test_chaos_plan_never_corrupts_silently():
    """Under the full tier chaos plan every get() is None or honest bytes
    (corrupt reads flip a byte but never shrink or grow the payload)."""
    inj = FaultInjector(tier_chaos_plan(seed=3))
    blobs = {f"k{i}": os.urandom(64) + bytes([i]) for i in range(12)}
    with make_store(mem=256, ssd=512, faults=inj) as store:
        for k, v in blobs.items():
            store.put(k, v)
        for k, v in blobs.items():
            got = store.get(k)
            assert got is None or len(got) == len(v)
