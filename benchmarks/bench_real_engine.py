"""Real-machine benchmark: streaming engine vs the frozen barrier path.

Unlike every other bench (whose *simulated* seconds carry the result and
whose pytest-benchmark numbers only measure the simulator), here the
wall-clock IS the measurement: real OS processes count words in real
files.  Three claims are measured:

* **Streaming speedup** — ``n_jobs`` back-to-back wordcount jobs on the
  streaming engine (persistent pool, mmap reads, one pickled result per
  batch over the result pipe, cached chunk plans, overlapped
  incremental scalar-fold merge) against the frozen pre-PR barrier
  engine (:class:`repro.exec.seed_engine.SeedLocalMapReduce`: fresh pool
  + open/seek/read + per-chunk result pickles + merge-after-barrier, per
  job).  Gated at >= 2.0x by ``tools/perf_gate.py --real``; outputs must
  be byte-identical.  The workload uses a fine-grained chunk plan
  (Phoenix-style task pool, several chunks per worker per batch) — the
  regime where the seed's per-chunk IPC and per-job pool costs bite.
  Both engines get one untimed warmup job first: the streaming engine's
  pool creation happens once per *process* (that is the architecture
  being measured), while the seed's warmup buys it nothing because it
  forks a fresh pool per job — also the architecture being measured.
  An absolute **throughput floor** (input MB/s through the streaming
  engine) guards against the ratio staying healthy while both sides
  regress together.
* **Out-of-core overhead** — the same input under a memory budget a
  fraction of its size: multiple spilled fragments, byte-identical
  output.  Like the paper's Fig 7, the partitioning machinery costs
  overhead at sizes that still fit in memory (its value is the memory
  bound), so the gate bounds that overhead against the live streaming
  engine on the same input and worker count: out-of-core time <=
  ``OUTOFCORE_OVERHEAD_MAX`` x streaming time.
* **Peak-RSS bound** — a value-list-heavy job (no combiner: every
  emitted value survives to the parent accumulator) measured by
  :mod:`benchmarks.rss_probe` in fresh subprocesses, in-memory vs
  out-of-core.  Out-of-core parent peak-over-baseline must stay under
  ``RSS_ALLOWANCE_FACTOR x budget`` (Python object overhead makes the
  resident footprint a multiple of the payload bytes — the same reason
  the paper quotes WC at ~3x input, Section V-C) and under the
  in-memory run's, which grows with the input instead.

On a single-core box the parallel engines cannot beat serial wall-clock —
the honesty clause in :func:`bench_real_wordcount` reports that and the
simulator carries the paper's multicore claims (DESIGN.md §2).  The
streaming-vs-seed gate is a different comparison (same worker count both
sides), so it holds on any core count.
"""

from __future__ import annotations

import json
import operator
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter

from benchmarks.checks import (
    CRITPATH_COVERAGE_GATE,
    GATE,
    OUTPUT,
    failed,
    print_rows,
    verdict,
)
from repro.analysis.report import banner
from repro.apps.wordcount import wc_map, wc_reduce
from repro.exec import LocalMapReduce, SeedLocalMapReduce
from repro.obs import Observability, critical_path
from repro.obs.export import span_dicts
from repro.workloads import zipf_corpus

#: gate workload: ~1.5 MB of Zipf text, wide vocabulary (more distinct
#: keys -> heavier per-chunk result pickles on the seed path)
GATE_PAYLOAD = 1_500_000
GATE_VOCAB = 12_000
GATE_CHUNK_BYTES = 16_000
GATE_JOBS = 6
GATE_WORKERS = 2
#: out-of-core case: budget a quarter of the input -> >= 4 spilled runs
GATE_BUDGET = 384_000

#: RSS case: value-list wordcount (no combiner) — every emitted value
#: lives in the parent accumulator in memory mode.  The corpus is
#: *uniform* (deterministic round-robin vocabulary), not Zipf: with skew,
#: the heaviest key's complete value list — which reduce semantics hand
#: to ``reduce_fn`` in one piece — is itself O(input) and would swamp
#: what the budget can bound (see DESIGN.md §9 for the skew caveat).
RSS_PAYLOAD = 8_000_000
RSS_VOCAB = 2_000
RSS_BUDGET = 768_000
RSS_CHUNK_BYTES = 96_000
#: resident bytes allowed per budget byte in out-of-core mode: Python
#: value lists + dicts + spill read-ahead blocks cost a small multiple of
#: the raw fragment payload (cf. the paper's ~3x WC footprint, Section V-C)
RSS_ALLOWANCE_FACTOR = 6.0
RSS_BOUND_KIB = RSS_ALLOWANCE_FACTOR * RSS_BUDGET / 1024

#: required streaming-over-seed speedup (enforced by perf_gate --real);
#: raised from 1.3x when the zero-copy data plane landed (typ. ~2.1-2.2x
#: measured on the CI shape; 2.5x is the aspirational target)
STREAMING_GATE = 2.0

#: out-of-core time allowed per second of streaming time over the same
#: jobs (the partition overhead of the paper's Fig 7, measured against
#: the live engine rather than the frozen seed).  Twenty runs per mode on
#: a 2-vCPU VM measured 1.3-2.4x quick and 1.3-2.0x full
OUTOFCORE_OVERHEAD_MAX = 2.5

#: absolute input-throughput floor for the streaming engine (MB/s of
#: corpus bytes per wall second across the timed jobs) — catches the
#: case where seed and streaming regress together and the ratio hides it.
#: Measured ~25-30 MB/s on the reference box; floored with ~3x headroom
#: for slower CI hardware.
THROUGHPUT_FLOOR_MB_S = 8.0

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _temp_file(data: bytes) -> str:
    """Write ``data`` to a new temp ``.txt`` file; the caller unlinks it."""
    with tempfile.NamedTemporaryFile(suffix=".txt", delete=False) as f:
        f.write(data)
    return f.name


def corpus_file(payload: int, vocab: int, seed: int) -> str:
    return _temp_file(zipf_corpus(payload, vocabulary=vocab, seed=seed))


def _uniform_corpus_file(payload: int, vocab: int) -> str:
    """Deterministic corpus where every vocabulary word is ~equally
    frequent (see the RSS_PAYLOAD note for why not Zipf)."""
    words = [f"w{i:04d}".encode() for i in range(vocab)]
    n_words = max(1, payload // 6)
    parts: list[bytes] = []
    for i in range(n_words):
        parts.append(words[i % vocab])
        parts.append(b"\n" if (i + 1) % 12 == 0 else b" ")
    return _temp_file(b"".join(parts))


def wordcount_engine(**kw) -> LocalMapReduce:
    return LocalMapReduce(
        map_fn=wc_map, reduce_fn=wc_reduce, combine_fn=operator.add,
        sort_output=True, **kw,
    )


def _time_jobs(run_one, n_jobs: int, passes: int = 2) -> tuple[float, list]:
    """Outputs and best-of-``passes`` wall seconds for ``n_jobs``
    back-to-back jobs, after one untimed warmup job.

    Best-of is applied identically to every engine measured (seed,
    streaming, out-of-core): a single multi-ms scheduler preemption
    inside one pass would otherwise decide a gated ratio on a loaded CI
    box.
    """
    run_one()
    best = float("inf")
    for _ in range(passes):
        outs = []
        t0 = time.perf_counter()
        for _ in range(n_jobs):
            outs.append(run_one())
        best = min(best, time.perf_counter() - t0)
    return best, outs


def _measure_rss(path: str, chunk_bytes: int, budget: int | None) -> dict:
    """Run :mod:`benchmarks.rss_probe` in a fresh subprocess; parsed JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (os.path.join(_ROOT, "src"), _ROOT, env.get("PYTHONPATH"))
        if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.rss_probe",
            path, str(chunk_bytes), str(budget or 0),
        ],
        capture_output=True, text=True, env=env, cwd=_ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"rss_probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_suite(quick: bool = False, n_workers: int = GATE_WORKERS) -> dict:
    """The whole real-engine suite; returns the BENCH_real_engine payload.

    ``quick`` shrinks the workload (fewer jobs, smaller corpus) for CI;
    the speedup gate and the RSS bound are checked in both modes.
    """
    payload = GATE_PAYLOAD // 2 if quick else GATE_PAYLOAD
    n_jobs = max(3, GATE_JOBS // 2) if quick else GATE_JOBS
    budget = GATE_BUDGET // 2 if quick else GATE_BUDGET

    path = corpus_file(payload, GATE_VOCAB, seed=1)
    rss_payload = RSS_PAYLOAD // 2 if quick else RSS_PAYLOAD
    rss_path = _uniform_corpus_file(rss_payload, RSS_VOCAB)
    try:
        # -- streaming vs frozen barrier path --------------------------------
        seed_eng = SeedLocalMapReduce(
            map_fn=wc_map, reduce_fn=wc_reduce, combine_fn=operator.add,
            sort_output=True, n_workers=n_workers,
        )
        seed_s, seed_outs = _time_jobs(
            lambda: seed_eng.run(path, chunk_bytes=GATE_CHUNK_BYTES).output,
            n_jobs,
        )

        with wordcount_engine(n_workers=n_workers) as stream_eng:
            resolved_method = stream_eng.start_method
            stream_s, stream_outs = _time_jobs(
                lambda: stream_eng.run(path, chunk_bytes=GATE_CHUNK_BYTES).output,
                n_jobs,
            )

        # -- out-of-core: multi-fragment, identical output -------------------
        with wordcount_engine(
            n_workers=n_workers, memory_budget=budget,
        ) as ooc_eng:
            ooc_s, ooc_results = _time_jobs(
                lambda: ooc_eng.run(path, chunk_bytes=GATE_CHUNK_BYTES),
                n_jobs,
            )
        ooc_outs = [r.output for r in ooc_results]

        reference = seed_outs[0]
        all_match = all(
            o == reference
            for outs in (seed_outs, stream_outs, ooc_outs)
            for o in outs
        )
        speedup = seed_s / stream_s if stream_s else float("inf")
        ooc_speedup = seed_s / ooc_s if ooc_s else float("inf")
        throughput_mb_s = (payload * n_jobs) / stream_s / 1e6 if stream_s else 0.0

        # -- critical path over one traced streaming job ---------------------
        # untimed: tracing costs real time, so this job rides outside the
        # gated measurements.  The span tree is parent-id linked (one
        # process track plus worker tracks stitched under the batch
        # spans), so the walk's exclusive segments partition the job span
        # exactly — coverage < 90% would mean spans escaped the tree.
        traced_obs = Observability(enabled=True)
        with wordcount_engine(n_workers=n_workers, obs=traced_obs) as traced_eng:
            traced_eng.run(path, chunk_bytes=GATE_CHUNK_BYTES)
        cp = critical_path(span_dicts(traced_obs), root_name="localmr.job")
        critpath = {
            "wall_s": round(cp["wall"], 4),
            "covered": round(cp["covered"], 4),
            "segments": len(cp["path"]),
            "by_name": [
                {
                    "name": r["name"], "count": r["count"],
                    "self_s": round(r["self"], 4), "pct": round(r["pct"], 2),
                }
                for r in cp["by_name"]
            ],
        }

        # -- peak-RSS bound ---------------------------------------------------
        rss_mem = _measure_rss(rss_path, RSS_CHUNK_BYTES, budget=None)
        rss_ooc = _measure_rss(rss_path, RSS_CHUNK_BYTES, budget=RSS_BUDGET)
        rss_outputs_match = (
            rss_mem["n_keys"] == rss_ooc["n_keys"]
            and rss_mem["digest"] == rss_ooc["digest"]
        )

        return {
            "benchmark": "real engine: streaming/out-of-core vs frozen barrier path",
            "mode": "quick" if quick else "full",
            "workload": {
                "payload_bytes": payload,
                "vocabulary": GATE_VOCAB,
                "chunk_bytes": GATE_CHUNK_BYTES,
                "n_jobs": n_jobs,
                "n_workers": n_workers,
                "start_method": resolved_method,
                "memory_budget": budget,
            },
            "gates": {
                "streaming_speedup_min": STREAMING_GATE,
                "throughput_floor_mb_s": THROUGHPUT_FLOOR_MB_S,
                "outofcore_overhead_max": OUTOFCORE_OVERHEAD_MAX,
            },
            "seed_s": round(seed_s, 4),
            "streaming_s": round(stream_s, 4),
            "speedup": round(speedup, 3),
            "throughput_mb_s": round(throughput_mb_s, 2),
            "all_match": all_match,
            "critpath": critpath,
            "outofcore": {
                "elapsed_s": round(ooc_s, 4),
                "speedup_vs_seed": round(ooc_speedup, 3),
                "overhead_vs_streaming": round(ooc_s / stream_s, 3),
                "n_fragments": ooc_results[0].n_fragments,
                "spilled_bytes": ooc_results[0].spilled_bytes,
            },
            "rss": {
                "payload_bytes": rss_payload,
                "budget_bytes": RSS_BUDGET,
                "allowance_factor": RSS_ALLOWANCE_FACTOR,
                "bound_kib": round(RSS_BOUND_KIB, 1),
                "memory_run_mode": rss_mem["mode"],
                "memory_mode_extra_kib": rss_mem["extra_kib"],
                "outofcore_run_mode": rss_ooc["mode"],
                "outofcore_extra_kib": rss_ooc["extra_kib"],
                "outofcore_fragments": rss_ooc["n_fragments"],
                "outofcore_spilled_bytes": rss_ooc["spilled_bytes"],
                "outputs_match": rss_outputs_match,
            },
        }
    finally:
        os.unlink(path)
        os.unlink(rss_path)


def checks(payload: dict) -> list[tuple]:
    """Outputs identical everywhere; speedup, throughput, RSS and critpath."""
    ooc, rss, cp = payload["outofcore"], payload["rss"], payload["critpath"]
    top = cp["by_name"][0] if cp["by_name"] else {"name": "?", "pct": 0}
    return [
        ("outputs identical", OUTPUT, payload["all_match"],
         f"seed, streaming and out-of-core ({ooc['n_fragments']} fragments) "
         f"over {payload['workload']['n_jobs']} jobs each"),
        ("rss outputs identical", OUTPUT, rss["outputs_match"],
         "in-memory vs out-of-core value-list job"),
        ("streaming speedup", GATE, payload["speedup"] >= STREAMING_GATE,
         f"seed {payload['seed_s']:.3f}s vs streaming "
         f"{payload['streaming_s']:.3f}s => {payload['speedup']:.2f}x "
         f"(gate >= {STREAMING_GATE}x)"),
        ("throughput floor", GATE,
         payload["throughput_mb_s"] >= THROUGHPUT_FLOOR_MB_S,
         f"{payload['throughput_mb_s']:.1f} MB/s "
         f"(floor {THROUGHPUT_FLOOR_MB_S} MB/s)"),
        ("out-of-core overhead", GATE,
         ooc["overhead_vs_streaming"] <= OUTOFCORE_OVERHEAD_MAX,
         f"out-of-core {ooc['elapsed_s']:.3f}s vs streaming "
         f"{payload['streaming_s']:.3f}s => {ooc['overhead_vs_streaming']:.2f}x "
         f"(gate <= {OUTOFCORE_OVERHEAD_MAX}x)"),
        ("rss run modes", GATE,
         rss["memory_run_mode"] == "memory"
         and rss["outofcore_run_mode"] == "outofcore"
         and rss["outofcore_fragments"] >= 2,
         f"{rss['memory_run_mode']} vs {rss['outofcore_run_mode']} with "
         f"{rss['outofcore_fragments']} fragments (need >= 2)"),
        ("rss bounded", GATE,
         rss["outofcore_extra_kib"] <= RSS_BOUND_KIB
         and rss["outofcore_extra_kib"] < rss["memory_mode_extra_kib"],
         f"out-of-core +{rss['outofcore_extra_kib']}KiB <= bound "
         f"{RSS_BOUND_KIB:.0f}KiB and < in-memory "
         f"+{rss['memory_mode_extra_kib']}KiB"),
        ("critpath coverage", GATE, cp["covered"] >= CRITPATH_COVERAGE_GATE,
         f"{cp['covered']:.1%} of one traced job's {cp['wall_s']:.3f}s "
         f"(gate >= {CRITPATH_COVERAGE_GATE:.0%}); top: {top['name']} "
         f"{top['pct']:.0f}%"),
    ]


# -- pytest-benchmark entry points ------------------------------------------


def bench_real_wordcount(benchmark):
    """Parallel vs serial wall-clock on this machine's real cores."""
    from benchmarks.conftest import once

    data = zipf_corpus(3_000_000, seed=1)
    path = _temp_file(data)
    try:
        with wordcount_engine() as engine:
            # untimed: the pool's first job pays worker start-up, a
            # one-time cost per engine that the timed run must not carry
            engine.run(path)

            def run_parallel():
                return engine.run(path)

            res = once(benchmark, run_parallel)
            serial = engine.run(path, parallel=False)
        truth = Counter(data.split())

        print(banner("REAL MACHINE - streaming mini-Phoenix, WordCount"))
        cores = os.cpu_count() or 1
        print(
            f"{len(data) / 1e6:.1f}MB file | {cores} core(s) | "
            f"parallel {res.elapsed:.3f}s ({res.n_workers} workers, "
            f"{res.n_chunks} chunks) vs serial {serial.elapsed:.3f}s "
            f"=> {serial.elapsed / res.elapsed:.2f}x"
        )
        # correctness is unconditional
        assert dict(res.output) == dict(truth)
        assert res.output == serial.output
        # honesty clause: only claim a speedup where the hardware has one
        if cores >= 2 and res.n_workers >= 2:
            assert res.elapsed < serial.elapsed * 1.10
        else:
            print(
                "single-core machine: no parallel speedup possible; "
                "the simulator carries the multicore claims"
            )
    finally:
        os.unlink(path)


def bench_streaming_vs_seed(benchmark):
    """The perf-gate suite under pytest-benchmark (quick shape)."""
    from benchmarks.conftest import once

    payload = once(benchmark, lambda: run_suite(quick=True))
    rows = checks(payload)
    if verdict(rows) == 2:
        # one retry absorbs transient machine load from the wider
        # benchmark session (the quick shape standalone sits at ~2.7x);
        # a real perf regression fails both runs
        rows = checks(run_suite(quick=True))
    print(banner("REAL MACHINE - streaming engine vs frozen barrier path"))
    print_rows(rows)
    assert not failed(rows)
