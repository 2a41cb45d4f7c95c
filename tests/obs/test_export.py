"""Exporter round trips: Chrome trace, JSONL, and phase breakdown."""

from __future__ import annotations

import json

import pytest

from repro.errors import ProvenanceError
from repro.obs import Observability
from repro.obs.export import (
    chrome_trace,
    environment_provenance,
    format_breakdown,
    load_metrics,
    load_run_id,
    load_spans,
    phase_breakdown,
    span_dicts,
    write_chrome,
    write_jsonl,
)

from tests.obs.test_spans import make_obs


def build_trace() -> Observability:
    obs = make_obs()
    with obs.span("job", cat="phoenix", track="sd0", app="wc") as job:
        obs._advance(1.0)
        with obs.span("read", cat="phoenix", track="sd0"):
            obs._advance(2.0)
        with obs.span("map", cat="phoenix", track="sd0"):
            obs._advance(6.0)
        with obs.span("write", cat="phoenix", track="sd0"):
            obs._advance(1.0)
        job.set(done=True)
    obs.count("nfs.bytes_read", 4096)
    obs.record("event", 1.0, "detail")
    return obs


def test_chrome_trace_shape():
    obs = build_trace()
    doc = chrome_trace(obs)
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert len(complete) == 4
    assert any(
        m["name"] == "thread_name" and m["args"]["name"] == "sd0" for m in meta
    )
    job = next(e for e in complete if e["name"] == "job")
    assert job["ts"] == pytest.approx(0.0)
    assert job["dur"] == pytest.approx(10.0 * 1e6)  # microseconds
    assert job["args"]["app"] == "wc"
    assert doc["otherData"]["metrics"]["counters"]["nfs.bytes_read"] == 4096
    assert doc["otherData"]["environment"]["python"]


def test_chrome_round_trip(tmp_path):
    obs = build_trace()
    path = write_chrome(obs, str(tmp_path / "trace.json"))
    with open(path) as f:
        json.load(f)  # valid JSON for Perfetto
    spans = load_spans(path)
    assert {s["name"] for s in spans} == {"job", "read", "map", "write"}
    job = next(s for s in spans if s["name"] == "job")
    kids = [s for s in spans if s["parent_id"] == job["id"]]
    assert {s["name"] for s in kids} == {"read", "map", "write"}
    assert job["track"] == "sd0"
    assert job["dur"] == pytest.approx(10.0)


def test_jsonl_round_trip(tmp_path):
    obs = build_trace()
    path = write_jsonl(obs, str(tmp_path / "trace.jsonl"))
    with open(path) as f:
        lines = [json.loads(line) for line in f]
    assert lines[0]["type"] == "meta"
    assert any(line.get("type") == "record" for line in lines)
    spans = load_spans(path)
    assert {s["name"] for s in spans} == {"job", "read", "map", "write"}
    assert load_spans(path) == load_spans(path)  # stable


def test_both_formats_agree(tmp_path):
    obs = build_trace()
    a = load_spans(write_chrome(obs, str(tmp_path / "a.json")))
    b = load_spans(write_jsonl(obs, str(tmp_path / "b.jsonl")))
    key = lambda s: s["id"]  # noqa: E731
    for sa, sb in zip(sorted(a, key=key), sorted(b, key=key)):
        assert sa["name"] == sb["name"]
        assert sa["track"] == sb["track"]
        assert sa["dur"] == pytest.approx(sb["dur"])
        assert sa["parent_id"] == sb["parent_id"]


def test_phase_breakdown_covers_job():
    obs = build_trace()
    bd = phase_breakdown(span_dicts(obs))
    assert bd["root"]["name"] == "job"
    assert bd["total"] == pytest.approx(10.0)
    # read+map+write = 9 of 10 seconds; the attribute-set tail is outside
    assert bd["covered"] == pytest.approx(0.9)
    names = [row["name"] for row in bd["phases"]]
    assert names == ["map", "read", "write"]  # sorted by total desc
    table = format_breakdown(bd)
    assert "map" in table and "%" in table


def test_phase_breakdown_empty():
    bd = phase_breakdown([])
    assert bd["phases"] == [] and bd["total"] == 0.0
    assert format_breakdown(bd) == "(no spans)"


def test_environment_provenance_fields():
    env = environment_provenance()
    assert {"python", "implementation", "platform", "cpu_count", "argv"} <= set(env)


def test_run_id_round_trip(tmp_path):
    obs = build_trace()
    for path in (
        write_chrome(obs, str(tmp_path / "a.json")),
        write_jsonl(obs, str(tmp_path / "b.jsonl")),
    ):
        assert load_run_id(path) == obs.run_id
        # matching run id loads cleanly
        assert load_spans(path, run_id=obs.run_id)
        assert load_metrics(path, run_id=obs.run_id)


def test_mismatched_run_id_raises(tmp_path):
    obs = build_trace()
    path = write_jsonl(obs, str(tmp_path / "t.jsonl"))
    with pytest.raises(ProvenanceError) as exc_info:
        load_spans(path, run_id="someoneelse")
    err = exc_info.value
    assert err.path == path
    assert err.expected == "someoneelse"
    assert err.found == obs.run_id
    with pytest.raises(ProvenanceError):
        load_metrics(path, run_id="someoneelse")


def test_unstamped_file_warns(tmp_path):
    obs = build_trace()
    path = write_jsonl(obs, str(tmp_path / "old.jsonl"))
    # simulate a pre-provenance export: strip the stamp from the meta line
    with open(path) as f:
        lines = f.read().splitlines()
    meta = json.loads(lines[0])
    del meta["run_id"]
    with open(path, "w") as f:
        f.write("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
    assert load_run_id(path) is None
    with pytest.warns(UserWarning, match="no run id"):
        spans = load_spans(path, run_id="whatever")
    assert spans  # still loads
    # no expectation, no check, no warning
    assert load_spans(path)


def test_unjsonable_attrs_become_repr(tmp_path):
    obs = make_obs()
    with obs.span("odd", track="t", payload=object()):
        pass
    path = write_chrome(obs, str(tmp_path / "odd.json"))
    spans = load_spans(path)
    assert isinstance(spans[0]["attrs"]["payload"], str)
