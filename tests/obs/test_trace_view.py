"""Golden-output tests for ``tools/trace_view.py`` over a recorded trace.

The fixture trace runs on a fake clock, so every duration in the
rendered tables is exact and the assertions can pin whole lines, not
just substrings.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.obs.export import write_chrome, write_jsonl

from tests.obs.test_export import build_trace

_TOOLS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tools",
)


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_TOOLS, f"{name}.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def trace_view():
    return _load_tool("trace_view")


@pytest.fixture()
def trace(tmp_path):
    """One recorded fake-clock trace as (obs, jsonl_path)."""
    obs = build_trace()
    obs.count("fault.injected", 2)
    path = write_jsonl(obs, str(tmp_path / "trace.jsonl"))
    return obs, path


def test_breakdown_view_golden(trace_view, trace, capsys):
    obs, path = trace
    assert trace_view.main([path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == f"4 spans from {path} (run {obs.run_id})"
    assert "root: job — total 10s" in out
    # exact table rows: the fake clock makes durations integral
    assert any(l.startswith("map") and "6s" in l and "60.0%" in l
               for l in lines)
    assert any(l.startswith("read") and "2s" in l and "20.0%" in l
               for l in lines)
    assert any(l.startswith("(phases cover)") and "90.0%" in l
               for l in lines)
    # the fault counter triggers the reliability section
    assert "reliability counters" in out
    assert any(l.startswith("fault.injected") and l.rstrip().endswith("2")
               for l in lines)


def test_critpath_view_golden(trace_view, trace, capsys):
    _, path = trace
    assert trace_view.main(["critpath", path]) == 0
    out = capsys.readouterr().out
    assert "critical path of job — wall 10s" in out
    assert "cover 100.0%" in out
    assert "by span name" in out
    lines = out.splitlines()
    # map dominates the path: 6 of 10 seconds
    assert any(l.strip().startswith("map") and "60.0%" in l for l in lines)


def test_critpath_containment_view(trace_view, trace, capsys):
    _, path = trace
    assert trace_view.main(["critpath", path, "--containment"]) == 0
    out = capsys.readouterr().out
    assert "critical path of job" in out
    assert "cover 100.0%" in out


def test_tree_view_golden(trace_view, trace, capsys):
    _, path = trace
    assert trace_view.main([path, "--tree", "--unit", "ms"]) == 0
    out = capsys.readouterr().out
    assert "job" in out and "[sd0]" in out
    assert "10000ms" in out  # the 10s root in ms
    # children indented under the root
    assert any(l.startswith("  read") for l in out.splitlines())


def test_group_by_cat_view(trace_view, trace, capsys):
    _, path = trace
    assert trace_view.main([path, "--group", "cat"]) == 0
    out = capsys.readouterr().out
    assert "category" in out and "phoenix" in out


def test_chrome_format_agrees(trace_view, trace, tmp_path, capsys):
    obs, jsonl_path = trace
    chrome_path = write_chrome(obs, str(tmp_path / "trace.json"))
    assert trace_view.main([jsonl_path]) == 0
    jsonl_out = capsys.readouterr().out
    assert trace_view.main([chrome_path]) == 0
    chrome_out = capsys.readouterr().out
    # identical tables modulo the file name in the header
    assert jsonl_out.splitlines()[1:] == chrome_out.splitlines()[1:]


def test_recovery_view_golden(trace_view, tmp_path, capsys):
    from tests.obs.test_export import build_trace as _build

    obs = _build()
    obs.count("dist.restart.partial", 1)
    obs.count("spec.launched", 2)
    obs.count("spec.won", 1)
    obs.count("node.quarantined", 1)
    obs.count("node.rejoined", 1)
    for k in range(8):
        obs.sample("node.suspicion.sd0", 0.25 * k, 0.5 * k)
    path = write_jsonl(obs, str(tmp_path / "rec.jsonl"))
    assert trace_view.main([path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "recovery" in lines
    assert any(l.startswith("dist.restart.partial") and l.rstrip().endswith("1")
               for l in lines)
    assert "speculation win rate: 50% (1/2)" in out
    assert any(l.startswith("phi sd0") and "peak 3.5" in l for l in lines)
    # a calm trace renders no recovery section
    calm = write_jsonl(_build(), str(tmp_path / "calm.jsonl"))
    assert trace_view.main([calm]) == 0
    assert "recovery" not in capsys.readouterr().out.splitlines()


def test_scheduler_view_golden(trace_view, tmp_path, capsys):
    from tests.obs.test_export import build_trace as _build

    obs = _build()
    obs.count("sched.admitted", 5)
    obs.count("sched.dispatched", 6)
    obs.count("sched.completed", 5)
    obs.count("sched.requeued", 1)
    obs.count("sched.host_attempts", 2)
    obs.count("sched.host_bytes", 192_000_000)
    path = write_jsonl(obs, str(tmp_path / "sched.jsonl"))
    assert trace_view.main([path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "scheduler" in lines
    assert (
        "admitted 5  rejected 0  dispatched 6  completed 5  requeued 1  failed 0"
        in lines
    )
    assert "host placements 2: 0.19 GB of input read over NFS" in lines
    # a run that placed nothing on the host prints no host line
    obs = _build()
    obs.count("sched.admitted", 1)
    path = write_jsonl(obs, str(tmp_path / "sd.jsonl"))
    assert trace_view.main([path]) == 0
    out = capsys.readouterr().out
    assert "scheduler" in out.splitlines()
    assert "host placements" not in out


def test_empty_trace_fails(trace_view, tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text('{"type": "meta"}\n')
    assert trace_view.main([str(path)]) == 1
    assert "no spans" in capsys.readouterr().err
