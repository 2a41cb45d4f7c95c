"""Gate verdicts come from each perf-gate suite's check rows alone.

``checks(payload)`` must pass on every committed BENCH file, and pushing
one measured number past its bound must fail exactly the row that guards
it, with the exit status ``tools/perf_gate.py`` reports: 1 for a wrong
answer (an ``output`` row), 2 for a missed bound (a ``gate`` row).
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import re

import pytest

from benchmarks.checks import (
    GATE,
    OUTPUT,
    canonical_output,
    failed,
    leak_scan,
    nonempty,
    verdict,
)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: BENCH file -> suite module in benchmarks/
SUITES = {
    "BENCH_shuffle.json": "bench_shuffle",
    "BENCH_real_engine.json": "bench_real_engine",
    "BENCH_serving.json": "bench_serving",
    "BENCH_distributed.json": "bench_distributed",
    "BENCH_tier.json": "bench_tier",
}

#: (BENCH file, row that must fail, payload path, value past the bound)
MUTATIONS = [
    ("BENCH_shuffle.json", "phoenix/matmul/10000 output",
     ("results", 3, "match"), False),
    ("BENCH_shuffle.json", "localmr/wordcount/100000 speedup",
     ("results", 7, "speedup"), 1.99),
    ("BENCH_real_engine.json", "outputs identical", ("all_match",), False),
    # the RSS probe's two runs must agree: a wrong answer, not a gate
    ("BENCH_real_engine.json", "rss outputs identical",
     ("rss", "outputs_match"), False),
    ("BENCH_real_engine.json", "streaming speedup", ("speedup",), 1.99),
    ("BENCH_real_engine.json", "throughput floor", ("throughput_mb_s",), 7.9),
    ("BENCH_real_engine.json", "out-of-core overhead",
     ("outofcore", "overhead_vs_streaming"), 2.51),
    ("BENCH_real_engine.json", "rss run modes",
     ("rss", "outofcore_fragments"), 1),
    ("BENCH_real_engine.json", "rss run modes",
     ("rss", "outofcore_run_mode"), "memory"),
    ("BENCH_real_engine.json", "rss bounded",
     ("rss", "outofcore_extra_kib"), 4501),
    ("BENCH_real_engine.json", "critpath coverage",
     ("critpath", "covered"), 0.89),
    ("BENCH_serving.json", "cached outputs identical",
     ("cache", "outputs_consistent"), False),
    ("BENCH_serving.json", "throughput scaling", ("throughput", "ratio"), 1.49),
    ("BENCH_serving.json", "fair share", ("fairness", "deviation"), 0.21),
    ("BENCH_serving.json", "fair share",
     ("fairness", "saturated_at_horizon"), False),
    ("BENCH_serving.json", "cache hit and invalidate",
     ("cache", "invalidations"), 0),
    ("BENCH_serving.json", "cache hit and invalidate", ("cache", "hits"), 8),
    ("BENCH_serving.json", "critpath coverage", ("critpath", "covered"), 0.89),
    ("BENCH_serving.json", "slo health",
     ("critpath", "health", "healthy"), False),
    ("BENCH_distributed.json", "wordcount x2 scaling identical",
     ("scaling", "runs", 1, "identical"), False),
    ("BENCH_distributed.json", "matmul x4 identical",
     ("identity", "rows", 8, "identical"), False),
    ("BENCH_distributed.json", "partial restart identical",
     ("recovery", "partial", "identical"), False),
    ("BENCH_distributed.json", "x2 speedup",
     ("scaling", "runs", 1, "speedup_vs_x1"), 1.59),
    ("BENCH_distributed.json", "x4 speedup",
     ("scaling", "runs", 2, "speedup_vs_x1"), 2.49),
    ("BENCH_distributed.json", "width-1 overhead",
     ("scaling", "width1_overhead"), 0.051),
    # the killed node's first failure is the detector's NodeDownError, at
    # or before kill + its bound (t=1.6724 + 3.1282 s)
    ("BENCH_distributed.json", "detected by the failure detector",
     ("recovery", "first_failure"), "OffloadTimeoutError"),
    ("BENCH_distributed.json", "detected by the failure detector",
     ("recovery", "detected_at_s"), 4.90),
    # kill -> done, less the detector's bound, over the clean run
    ("BENCH_distributed.json", "recovery ratio",
     ("recovery", "recovery_ratio"), 0.51),
    ("BENCH_distributed.json", "recovery contract",
     ("recovery", "partial", "partial_restarts"), 0),
    # the attempt in flight on the killed node re-queues at detection:
    # past quarantine + one heartbeat, or answered by the revived node
    ("BENCH_distributed.json", "in-flight attempt ends at detection",
     ("recovery", "rejoin", "attempt_redispatched_at_s"), 5.26),
    ("BENCH_distributed.json", "in-flight attempt ends at detection",
     ("recovery", "rejoin", "attempt_dispatches"), 1),
    ("BENCH_distributed.json", "node rejoins",
     ("recovery", "rejoin", "final_state"), "quarantined"),
    ("BENCH_distributed.json", "node rejoins",
     ("recovery", "rejoin", "canary_node"), None),
    ("BENCH_tier.json", "real outputs identical",
     ("real", "outputs_match"), False),
    ("BENCH_tier.json", "sim outputs identical", ("sim", "outputs_match"), False),
    ("BENCH_tier.json", "warm speedup", ("real", "warm_speedup"), 1.29),
    # one spilled run cannot show warm reuse across fragments
    ("BENCH_tier.json", "real runs spilled", ("real", "n_runs"), 1),
    # each warm pass reads the one merged run, and maps, spills and
    # reduces nothing
    ("BENCH_tier.json", "warm runs reused", ("real", "runs_reused_warm"), 1),
    ("BENCH_tier.json", "warm runs reused", ("real", "warm_spill_runs"), 1),
    ("BENCH_tier.json", "warm runs reused", ("real", "warm_tasks"), 2),
    ("BENCH_tier.json", "warm runs reused", ("real", "warm_reduce_calls"), 1),
    ("BENCH_tier.json", "no dirs leaked",
     ("real", "leaked_dirs"), ["/tmp/repro-tier-x"]),
    ("BENCH_tier.json", "readahead speedup",
     ("sim", "prefetch_speedup"), 1.04),
    ("BENCH_tier.json", "sim fragments", ("sim", "n_fragments"), 1),
    ("BENCH_tier.json", "prefetch hits", ("sim", "prefetch_hit_bytes"), 0),
]


def _suite(bench: str):
    return importlib.import_module(f"benchmarks.{SUITES[bench]}")


def _payload(bench: str) -> dict:
    with open(os.path.join(_ROOT, bench)) as f:
        return json.load(f)


def _set(payload: dict, path: tuple, value: object) -> dict:
    out = copy.deepcopy(payload)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("bench", sorted(SUITES))
def test_committed_payload_passes(bench):
    payload = _payload(bench)
    rows = _suite(bench).checks(payload)
    assert rows and verdict(rows) == 0, failed(rows)
    assert {kind for _, kind, _, _ in rows} <= {OUTPUT, GATE}
    # the BENCH file stores the verdict its rows gave when it was written
    assert payload["checks"] == {name: ok for name, _, ok, _ in rows}


@pytest.mark.parametrize(
    "bench,row,path,value", MUTATIONS,
    ids=[f"{b.split('.')[0]}:{r}:{'.'.join(map(str, p))}" for b, r, p, _ in MUTATIONS],
)
def test_past_the_bound_fails_its_row(bench, row, path, value):
    rows = _suite(bench).checks(_set(_payload(bench), path, value))
    assert failed(rows) == [row]
    kind = next(k for name, k, _, _ in rows if name == row)
    assert verdict(rows) == (1 if kind == OUTPUT else 2)


def _family(row: str) -> str:
    """A row name without its case prefix (shuffle grid cell, app x width)."""
    return re.sub(r"^(\w+/\w+/\d+|\w+ x\d+) ", "", row)


def test_every_row_has_a_mutation():
    # per-case rows (one per grid cell or app x width) by one representative
    mutated = {(bench, _family(row)) for bench, row, _, _ in MUTATIONS}
    for bench in SUITES:
        rows = _suite(bench).checks(_payload(bench))
        assert {(bench, _family(name)) for name, *_ in rows} <= mutated


def test_quick_shuffle_reports_speedups_without_gating():
    payload = _set(_payload("BENCH_shuffle.json"), ("mode",), "quick")
    payload = _set(payload, ("results", 7, "speedup"), 1.0)
    rows = _suite("BENCH_shuffle.json").checks(payload)
    assert verdict(rows) == 0
    assert all(kind == OUTPUT for _, kind, _, _ in rows)


def test_leak_scan_reports_spill_dirs_under_its_root_only(tmp_path):
    """A soak's leak check sees its own spill root, not another run's."""
    root, elsewhere = tmp_path / "root", tmp_path / "elsewhere"
    (root / "localmr-spill-mine").mkdir(parents=True)
    (elsewhere / "localmr-spill-theirs").mkdir(parents=True)
    (tmp_path / "ssd").mkdir()
    leaks = leak_scan(str(root), str(tmp_path / "ssd"), str(tmp_path / "gone"))
    # the registered (live) dirs may include ones other tests still hold
    planted = {kind: [d for d in dirs if d.startswith(str(tmp_path))]
               for kind, dirs in leaks.items()}
    assert planted == {
        "spill": [str(root / "localmr-spill-mine")],
        "tier": [str(tmp_path / "ssd")],
    }


def test_stringmatch_answers_compare_by_per_key_totals():
    """A 4-core host and a 2-core SD list the same matches in different
    groups; the answer is the per-key totals, and an empty answer, which
    every app canonicalizes alike, proves nothing."""
    host = [(b"K", 1), (b"J", 1), (b"K", 1)]
    sd = [(b"J", 1), (b"K", 2)]
    assert canonical_output("stringmatch", host) == canonical_output("stringmatch", sd)
    assert canonical_output("stringmatch", sd) != canonical_output(
        "stringmatch", [(b"J", 1), (b"K", 1)]
    )
    assert nonempty(canonical_output("stringmatch", sd))
    for app in ("wordcount", "stringmatch", "matmul"):
        assert not nonempty(canonical_output(app, []))
    assert not nonempty([canonical_output("stringmatch", sd), canonical_output("wordcount", [])])
