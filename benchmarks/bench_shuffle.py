"""Shuffle microbenchmarks: seed pipeline vs sort-once/merge-after.

This is the perf-gate workload (see ``tools/perf_gate.py``): it times the
intermediate-data path *only* — from per-worker combiner maps to the final
output — for both engines' shapes, on wordcount-shaped (Zipf keys, heavy
repeats) and matmul-shaped ((i, j) tuple keys, mostly distinct) key
distributions.  The "seed" side runs the frozen reference in
:mod:`repro.phoenix.seed_shuffle`; the "new" side runs the very helpers
the engines use (:func:`repro.phoenix.sort.shuffle_parallel` and
:func:`~repro.phoenix.sort.local_merge_maps`).  Outputs are compared for
byte-identity on every run — a benchmark that computes the wrong answer
fails instead of reporting a number.

Run standalone via ``python tools/perf_gate.py`` (writes
``BENCH_shuffle.json``) or under pytest-benchmark with
``pytest benchmarks/bench_shuffle.py --benchmark-only``.  Every output
must match; in full mode the gated cases in :data:`GATES` must also reach
their speedup (quick mode times once at the smallest size, where
timings are noise-dominated, so speedups are reported, not gated).
"""

from __future__ import annotations

import operator
import time
import typing as _t

from benchmarks.checks import GATE, OUTPUT, failed, print_rows
from repro.obs import Observability
from repro.obs.export import phase_breakdown, span_dicts, write_chrome
from repro.phoenix.seed_shuffle import (
    seed_local_merge_runs,
    seed_local_worker_run,
    seed_shuffle_parallel,
)
from repro.phoenix.sort import local_merge_maps, shuffle_parallel
from repro.workloads import zipf_corpus

#: shared no-op sink for untraced runs (span sites cost one branch)
_DISABLED_OBS = Observability(enabled=False)

#: worker/bucket counts: Phoenix default pool shape (4 tasks/core, quad)
N_MAPS = 16
N_BUCKETS = 4

SIZES = (10_000, 100_000, 500_000)
QUICK_SIZES = (10_000,)
ENGINES = ("phoenix", "localmr")
WORKLOADS = ("wordcount", "matmul")

#: full-mode gate: (engine, workload, n_pairs) -> minimum speedup
GATES = {
    ("phoenix", "wordcount", 100_000): 2.0,
    ("localmr", "wordcount", 100_000): 2.0,
}


def _sum_reduce(key: object, values: list, params: dict) -> object:
    return sum(values)


def wordcount_maps(n_pairs: int, n_maps: int = N_MAPS, seed: int = 0) -> list[dict]:
    """Per-worker combiner maps for ``n_pairs`` Zipf word emissions.

    Mirrors a combine-enabled wordcount map phase: contiguous corpus
    slices per worker, each worker folding (word, 1) emissions into
    running counts.
    """
    corpus = zipf_corpus(n_pairs * 8, seed=seed)
    words = corpus.split()[:n_pairs]
    per_map = max(1, len(words) // n_maps)
    maps: list[dict] = []
    for w in range(n_maps):
        acc: dict[object, int] = {}
        for word in words[w * per_map : (w + 1) * per_map if w < n_maps - 1 else len(words)]:
            acc[word] = acc.get(word, 0) + 1
        maps.append(acc)
    return maps


def matmul_maps(n_pairs: int, n_maps: int = N_MAPS, seed: int = 0) -> list[dict]:
    """Per-worker combiner maps with matmul-shaped keys.

    Block matrix multiply emits ((i, j), partial) once per k-block: keys
    are (row, col) tuples, each repeated ``k_blocks`` times across
    workers — the mostly-distinct-keys regime, opposite of wordcount.
    """
    k_blocks = 4
    cells = max(1, n_pairs // k_blocks)
    side = max(1, int(cells**0.5))
    maps = [dict() for _ in range(n_maps)]
    emitted = 0
    for kb in range(k_blocks):
        for i in range(side):
            if emitted >= n_pairs:
                break
            acc = maps[(kb * side + i) % n_maps]
            for j in range(side):
                if emitted >= n_pairs:
                    break
                key = (i, j)
                partial = (i * 31 + j * 17 + kb * 7 + seed) % 1000
                acc[key] = acc.get(key, 0) + partial
                emitted += 1
    return maps


def make_maps(workload: str, n_pairs: int, seed: int = 0) -> list[dict]:
    """Combiner maps for one named workload shape."""
    if workload == "wordcount":
        return wordcount_maps(n_pairs, seed=seed)
    if workload == "matmul":
        return matmul_maps(n_pairs, seed=seed)
    raise ValueError(f"unknown workload {workload!r}")


def _case_flags(workload: str) -> tuple[_t.Callable, _t.Callable, bool]:
    """(combine_fn, reduce_fn, sort_output) per workload shape."""
    if workload == "wordcount":
        return operator.add, _sum_reduce, True
    return operator.add, _sum_reduce, False


def run_seed(engine: str, workload: str, maps: list[dict]) -> list:
    """One pass through the frozen seed shuffle."""
    combine_fn, reduce_fn, sort_output = _case_flags(workload)
    if engine == "phoenix":
        return seed_shuffle_parallel(
            maps, combine_fn, reduce_fn, True, sort_output, N_BUCKETS, {}
        )
    runs = [seed_local_worker_run(m) for m in maps]
    return seed_local_merge_runs(runs, combine_fn, reduce_fn, sort_output, {})


def run_new(engine: str, workload: str, maps: list[dict]) -> list:
    """One pass through the sort-once/merge-after shuffle."""
    combine_fn, reduce_fn, sort_output = _case_flags(workload)
    if engine == "phoenix":
        return shuffle_parallel(
            maps, combine_fn, reduce_fn, True, sort_output, N_BUCKETS, {}
        )
    return local_merge_maps(maps, combine_fn, reduce_fn, sort_output, {})


def _best_of(fn: _t.Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_case(
    engine: str,
    workload: str,
    n_pairs: int,
    repeats: int = 3,
    seed: int = 0,
    obs: Observability | None = None,
) -> dict:
    """Time seed vs new shuffle on one case; verify identical outputs.

    Pass an enabled :class:`~repro.obs.registry.Observability` to record
    the case as a span tree (``bench.case`` with ``bench.seed``/
    ``bench.new`` children covering the timed repeats).
    """
    obs = obs or _DISABLED_OBS
    with obs.span(
        "bench.case", cat="bench", track="bench",
        engine=engine, workload=workload, n_pairs=n_pairs,
    ) as case_sp:
        maps = make_maps(workload, n_pairs, seed=seed)
        seed_out = run_seed(engine, workload, maps)
        new_out = run_new(engine, workload, maps)
        match = seed_out == new_out
        with obs.span("bench.seed", cat="bench", track="bench", repeats=repeats):
            seed_s = _best_of(lambda: run_seed(engine, workload, maps), repeats)
        with obs.span("bench.new", cat="bench", track="bench", repeats=repeats):
            new_s = _best_of(lambda: run_new(engine, workload, maps), repeats)
        case_sp.set(seed_s=seed_s, new_s=new_s, match=match)
    return {
        "engine": engine,
        "workload": workload,
        "n_pairs": n_pairs,
        "distinct_keys": len({k for m in maps for k in m}),
        "seed_s": round(seed_s, 6),
        "new_s": round(new_s, 6),
        "speedup": round(seed_s / new_s, 3) if new_s > 0 else float("inf"),
        "match": match,
    }


def run_grid(
    sizes: _t.Sequence[int] = SIZES,
    repeats: int = 3,
    obs: Observability | None = None,
) -> list[dict]:
    """The full microbenchmark grid: engines x workloads x sizes."""
    obs = obs or _DISABLED_OBS
    with obs.span("bench.suite", cat="bench", track="bench", repeats=repeats):
        return [
            run_case(engine, workload, n, repeats=repeats, obs=obs)
            for engine in ENGINES
            for workload in WORKLOADS
            for n in sizes
        ]


def run_suite(quick: bool = False, trace: str | None = None) -> dict:
    """The grid with spans on; the ``BENCH_shuffle.json`` payload.

    ``quick`` times the smallest size once; ``trace`` also writes the
    grid's span tree there as a Chrome trace.
    """
    repeats = 1 if quick else 3
    # a handful of spans per case: they give the payload its breakdown
    obs = Observability(enabled=True)
    results = run_grid(QUICK_SIZES if quick else SIZES, repeats=repeats, obs=obs)
    payload = {
        "benchmark": "shuffle pipeline: seed vs sort-once/merge-after",
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "gates": {f"{e}/{w}/{n}": need for (e, w, n), need in GATES.items()},
        "breakdown": phase_breakdown(span_dicts(obs), root_name="bench.suite"),
        "results": results,
    }
    if trace:
        write_chrome(obs, trace, extra={"benchmark": payload["benchmark"]})
        print(f"wrote trace {trace} ({len(obs.spans)} spans)")
    return payload


def checks(payload: dict) -> list[tuple]:
    """Every case's output matches the seed; full mode: gated speedups."""
    rows = []
    for r in payload["results"]:
        case = f"{r['engine']}/{r['workload']}/{r['n_pairs']}"
        rows.append((
            f"{case} output", OUTPUT, r["match"],
            f"{r['distinct_keys']} keys, seed {r['seed_s']:.6f}s vs new "
            f"{r['new_s']:.6f}s => {r['speedup']:.2f}x",
        ))
        need = GATES.get((r["engine"], r["workload"], r["n_pairs"]))
        if need is not None and payload["mode"] == "full":
            rows.append((
                f"{case} speedup", GATE, r["speedup"] >= need,
                f"{r['speedup']:.2f}x (gate >= {need}x)",
            ))
    return rows


# -- pytest-benchmark entry ---------------------------------------------------


def bench_shuffle_pipeline(benchmark):
    """100k-pair wordcount shuffle (both engines) under pytest-benchmark."""
    from benchmarks.conftest import once
    from repro.analysis.report import banner

    results = once(benchmark, lambda: run_grid(sizes=(100_000,), repeats=1))
    # one timing repeat: speedups are reported, not gated (as in quick mode)
    rows = checks({"mode": "quick", "results": results})
    print(banner("SHUFFLE - seed pipeline vs sort-once/merge-after"))
    print_rows(rows)
    assert not failed(rows)
