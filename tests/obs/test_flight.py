"""Flight recorder: bounded ring, black-box dumps, crash-path wiring."""

from __future__ import annotations

import glob
import operator
import os

import pytest

from repro.apps.wordcount import wc_map
from repro.errors import WorkerCrashError
from repro.exec import LocalMapReduce
from repro.faults import FaultPlan, FaultRule
from repro.obs import Observability
from repro.obs.flight import (
    FlightRecorder,
    default_capacity,
    dump_live,
    install_default,
    read_dump,
)


def test_ring_is_bounded_with_counted_drops():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.note_count("c", float(i), time_=float(i))
    assert len(rec) == 4
    assert rec.dropped == 6
    # the ring keeps the newest entries
    assert [e.detail for e in rec] == [6.0, 7.0, 8.0, 9.0]


def test_capacity_validation():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_records_and_counts_feed_with_tracing_off():
    obs = Observability(enabled=False, flight=True)
    obs.record("ev", 1.0, "detail")
    obs.count("nfs.bytes", 512)
    kinds = {e.kind for e in obs.flight}
    assert kinds == {"record", "count"}
    # tracing stayed off: the record log itself saw nothing
    assert len(list(obs.records)) == 0


def test_spans_feed_when_enabled():
    obs = Observability(enabled=True, flight=True)
    with obs.span("x", cat="c", track="t"):
        pass
    spans = [e for e in obs.flight if e.kind == "span"]
    assert [e.name for e in spans] == ["x"]
    dur, cat, track = spans[0].detail
    assert cat == "c" and track == "t"


def test_dump_read_round_trip(tmp_path):
    obs = Observability(enabled=False, flight=True)
    obs.count("a", 1)
    obs.record("ev", 2.0, "boom detail")
    path = obs.dump_blackbox(
        str(tmp_path / "box.jsonl"), reason="unit test", extra={"k": 1},
    )
    meta, entries = read_dump(path)
    assert meta["run_id"] == obs.run_id
    assert meta["reason"] == "unit test"
    assert meta["k"] == 1
    assert meta["entries"] == len(entries) == 2
    assert meta["dropped"] == 0
    assert meta["counters"]["a"] == 1
    assert {e["type"] for e in entries} == {"count", "record"}


def test_dump_blackbox_without_recorder_is_none(tmp_path):
    obs = Observability(enabled=False)
    assert obs.dump_blackbox(str(tmp_path / "box.jsonl")) is None


def test_dump_live_skips_empty_rings(tmp_path):
    full = FlightRecorder(capacity=8, run_id="full1234")
    full.note_count("c", 1.0, time_=0.0)
    FlightRecorder(capacity=8, run_id="empty567")  # nothing recorded
    paths = dump_live(str(tmp_path), reason="gate failed")
    names = {os.path.basename(p) for p in paths}
    assert any("full1234" in n for n in names)
    assert not any("empty567" in n for n in names)
    meta, entries = read_dump(next(p for p in paths if "full1234" in p))
    assert meta["reason"] == "gate failed" and len(entries) == 1


def test_install_default_governs_new_registries():
    before = default_capacity()
    try:
        install_default(32)
        obs = Observability(enabled=False)
        assert obs.flight is not None and obs.flight.capacity == 32
        install_default(None)
        assert Observability(enabled=False).flight is None
        # explicit flight beats the process default
        assert Observability(enabled=False, flight=16).flight.capacity == 16
    finally:
        install_default(before)


def test_clear_resets_ring_and_drop_counter():
    rec = FlightRecorder(capacity=2)
    for i in range(5):
        rec.note_count("c", 1.0, time_=float(i))
    rec.clear()
    assert len(rec) == 0 and rec.dropped == 0


def test_worker_crash_writes_readable_blackbox(tmp_path):
    """A task that exhausts its retries dumps the ring and names the file
    in the raised error — the post-mortem path end to end."""
    src = tmp_path / "f.txt"
    src.write_bytes(b"alpha beta gamma delta " * 40)
    plan = FaultPlan(
        rules=(FaultRule("pool.worker", action="fail", count=10,
                         where={"index": 0}),),
        seed=3,
    )
    obs = Observability(enabled=False, flight=True)
    with LocalMapReduce(
        map_fn=wc_map, combine_fn=operator.add,
        n_workers=2, start_method="fork",
        faults=plan, obs=obs, blackbox_dir=str(tmp_path),
    ) as eng:
        with pytest.raises(WorkerCrashError) as exc_info:
            eng.run(str(src), chunk_bytes=256)
    assert "[black box: " in str(exc_info.value)
    boxes = glob.glob(str(tmp_path / "blackbox-pool-*.jsonl"))
    assert len(boxes) == 1
    meta, entries = read_dump(boxes[0])
    assert meta["run_id"] == obs.run_id
    assert "exhausted retries" in meta["reason"]
    assert meta["task_index"] == 0
    # the ring caught the retry counters leading up to the failure
    assert any(e["type"] == "count" and e["name"] == "retry.pool"
               for e in entries)
    assert meta["counters"]["retry.pool"] >= 1
