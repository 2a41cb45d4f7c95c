"""Smoke test of the benchmark: a tiny run of every workload.

Run from the repository root with ``python3 -m pytest perfbench/tests``
(about two minutes).  Checks that every metric ``BENCHMARK.json`` names
is printed with its unit, that the output and leak checks pass, and that
sim-cluster's simulated-time metrics and counts repeat exactly for one
seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import common  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def run(workload: str, trace: int, seed: int = 3, seconds: int = 2) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(common.WORKLOADS)


def test_import_runs_nothing():
    """The forkserver re-imports ``__main__``: importing must not run."""
    code = "import perfbench.run, perfbench.engine, perfbench.cluster; print('quiet')"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "quiet\n"


def test_missing_sources_fail_without_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark."""
    os.makedirs(tmp_path / "perfbench")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as f:
        (tmp_path / "BENCHMARK.json").write_bytes(f.read())
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        src = os.path.join(ROOT, "perfbench", name)
        if os.path.isfile(src):
            with open(src, "rb") as f, open(tmp_path / "perfbench" / name, "wb") as g:
                g.write(f.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-memory",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", list(common.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(workload, trace):
    result, stdout = run(workload, trace)
    key = "per_layer" if trace else "end_to_end"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in BENCH[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"metric {m['name']} = " in stdout
    assert "info provenance" in stdout
    if trace:
        assert result["metrics"]["exec.outofcore.leaked_dirs"]["value"] == 0
    else:
        for name, m in result["metrics"].items():
            assert m["value"] > 0, name


#: sim-cluster metrics measured in simulated time or counted: exact per seed
SIM_EXACT_E2E = ("job_p50_s", "job_tail_s", "wire_bytes_per_input_byte")
SIM_EXACT_UNITS = ("sim_s", "count", "bytes")


def test_sim_cluster_repeats_exactly():
    first, _ = run("sim-cluster", 0)
    second, _ = run("sim-cluster", 0)
    for name in SIM_EXACT_E2E:
        assert first["metrics"][name] == second["metrics"][name], name
    first, _ = run("sim-cluster", 1)
    second, _ = run("sim-cluster", 1)
    exact = [m["name"] for m in BENCH["per_layer"] if m["unit"] in SIM_EXACT_UNITS]
    for name in exact + ["sched.cache.hit_ratio", "core.distributed.spec_useful_ratio"]:
        assert first["metrics"][name] == second["metrics"][name], name
