"""``engine-memory`` and ``engine-spill``: wordcount through one real
:class:`~repro.exec.LocalMapReduce`, a closed loop with one client.

Two phases, each in a fresh process started by ``perfbench/run.py``:

* ``prepare`` writes the seeded input files and the digest of each file's
  reference output (``collections.Counter`` over the file, sorted as the
  engine sorts) into ``--dir``.  Input generation never shares a process
  with the engine, so it is off the clock and out of ``peak_rss_mib``.
* ``measure`` sets the engine up ``SETUPS`` times (median = ``setup_s``),
  runs whole cycles over the file set until ``--seconds`` of job time
  have passed, checks every output against its reference off the clock,
  and checks that no spill or tier directory leaked after close.

``engine-memory`` cycles through more files than the engine's 4-entry
chunk-plan cache and the 8-entry mmap handle cache hold, in a fixed order,
so every job misses both.  ``engine-spill`` runs each file cold (its mtime
is bumped at the start of every cycle, which gives it a new tier identity)
and then twice warm, with one or two other files in between, through a
``TieredStore`` whose memory level is smaller than the cycle's spill.
"""

from __future__ import annotations

import collections
import json
import multiprocessing.forkserver as _forkserver
import operator
import os
import sys
import time
import typing as _t

import numpy as np

import repro.exec.localmr as localmr
import repro.exec.outofcore as outofcore
from perfbench import common
from perfbench.tracing import Tracer
from repro.apps.wordcount import wc_map, wc_reduce
from repro.exec import LocalMapReduce, WorkerPool
from repro.exec.chunks import handle_cache_stats
from repro.obs import Observability
from repro.tier import ReadaheadPrefetcher, TieredStore, live_tier_dirs

#: real-engine worker count: two, or fewer on a smaller machine
N_WORKERS = min(2, os.cpu_count() or 1)

#: (bytes, vocabulary) grid per workload.  Sizes and vocabularies are
#: geometric and decorrelated by a fixed stride, so a file set holds small
#: and large files with small and large maps; the seed draws the words and
#: the order, never the grid, which keeps runs of different seeds alike.


def _grid(n: int, lo: int, hi: int, vlo: int, vhi: int, stride: int) -> list[tuple[int, int]]:
    sizes = np.geomspace(lo, hi, n).astype(int).tolist()
    vocabs = np.geomspace(vlo, vhi, n).astype(int).tolist()
    return [(sizes[i], vocabs[(stride * i) % n]) for i in range(n)]


FILE_GRID = {
    "engine-memory": _grid(12, 400_000, 3_200_000, 1_000, 100_000, 5),
    "engine-spill": _grid(8, 600_000, 2_400_000, 2_000, 60_000, 3),
}
#: engine-spill chunking: SPILL_CHUNKS chunks a file, and a memory budget
#: of SPILL_BUDGET x the file size holds exactly 8 of them (a chunk ends a
#: few bytes past its draft point, so a budget of exactly 8/32 would fit 7
#: or 8 depending on the words): 4 fragments of 8 chunks, each mapped as 4
#: batches over the pool
SPILL_CHUNKS = 32
SPILL_BUDGET = 0.27
#: engine-spill tier levels (bytes).  A file's runs take ~0.5 MB and a
#: cycle spills ~4 MB: the memory level holds about one file's runs and
#: the SSD level the three files a step touches, so every cycle demotes
#: and evicts while the warm reruns (one or two files later) still hit
TIER_MEM_BYTES = 800_000
TIER_SSD_BYTES = 3_000_000
#: set-ups per run; the median is setup_s
SETUPS = 5
#: job seconds between two speed measurements (see common.CAL_REF_S)
RESCALE_S = 0.5
#: the fixed warm-up file (not seeded): set-up ends after one job on it
WARMUP_BYTES = 64_000


# -- inputs -------------------------------------------------------------------


def reference_digest(data: bytes) -> str:
    """Digest of the wordcount answer, in the engine's output order
    (count descending, ties by ``repr`` of the word)."""
    counts = collections.Counter(data.split())
    ref = sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    return common.output_digest(ref)


def prepare(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    gen_s = ref_s = 0.0
    files = []
    for i, (size, vocab) in enumerate(FILE_GRID[args.workload]):
        t0 = time.perf_counter()
        data = common.corpus(np.random.default_rng([args.seed, i]), size, vocab)
        path = os.path.join(args.dir, f"input-{i:02d}.txt")
        with open(path, "wb") as f:
            f.write(data)
        t1 = time.perf_counter()
        files.append({"path": path, "bytes": len(data), "digest": reference_digest(data)})
        gen_s += t1 - t0
        ref_s += time.perf_counter() - t1
    order = np.random.default_rng([args.seed, 1 << 20]).permutation(len(files)).tolist()
    warm = os.path.join(args.dir, "warmup.txt")
    with open(warm, "wb") as f:
        f.write(b"alpha beta gamma delta\n" * (WARMUP_BYTES // 23))
    with open(os.path.join(args.dir, "manifest.json"), "w") as f:
        json.dump({"files": files, "order": order, "warmup": warm}, f)
    print(f"info gen_s = {gen_s!r}")
    print(f"info reference_s = {ref_s!r}")
    return 0


# -- the engine -----------------------------------------------------------------


def stop_forkserver() -> None:
    """Stop the process-wide forkserver so the next set-up starts one
    cold, as a fresh process would; waiting for it also reaps the
    workers' CPU time into ``RUSAGE_CHILDREN``.  (The standard library
    has no public call for this; ``_stop`` is a no-op when none runs.)"""
    _forkserver._forkserver._stop()


class Engine:
    """One set-up: the engine (and tier) plus its warm-up job."""

    def __init__(self, workload: str, work_dir: str, warmup: str):
        self.obs = Observability(enabled=False)
        self.tier = None
        spill_dir = os.path.join(work_dir, "spill")
        os.makedirs(spill_dir, exist_ok=True)
        kw: dict = {}
        if workload == "engine-spill":
            self.tier = TieredStore(
                TIER_MEM_BYTES, TIER_SSD_BYTES,
                ssd_dir=os.path.join(work_dir, "tier"), obs=self.obs,
            )
            kw = {"tier": self.tier, "readahead": 1}
        self.mr = LocalMapReduce(
            map_fn=wc_map, reduce_fn=wc_reduce, combine_fn=operator.add,
            sort_output=True, n_workers=N_WORKERS, obs=self.obs,
            spill_dir=spill_dir, **kw,
        )
        self.mr.run(warmup)

    def close(self) -> None:
        self.mr.close()
        if self.tier is not None:
            self.tier.close()

    def counters(self) -> collections.Counter:
        return collections.Counter(self.obs.metrics.counters)


def schedule(workload: str, order: list[int]) -> list[int]:
    """One cycle's file indices, in run order.

    engine-spill: at step i the i-th file runs cold, then the two files
    before it run warm, so each file runs once cold and twice warm with
    one or two other files in between (cold share 1/3: p50 falls among
    warm jobs and p90 among cold ones).
    """
    if workload == "engine-memory":
        return list(order)
    out: list[int] = []
    n = len(order)
    for step in range(n + 2):
        out.extend(order[i] for i in (step, step - 1, step - 2) if 0 <= i < n)
    return out


class Loop:
    """The closed loop's measurements."""

    def __init__(self) -> None:
        #: job times in reference seconds (see common.CAL_REF_S)
        self.job_s: list[float] = []
        self.raw_job_s: list[float] = []
        self.input_bytes = 0
        #: job time as measured (the run's budget) and in reference seconds
        self.wall_s = 0.0
        self.ref_s = 0.0
        #: speed scale, and the job seconds measured since it was taken
        self.scale = 1.0
        self.since_scale = float("inf")
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.cycles = 0
        self.modes: collections.Counter = collections.Counter()
        self.transport = "inline"
        #: (input bytes, reference job seconds) per whole cycle
        self.per_cycle: list[tuple[int, float]] = []


def run_job(eng: Engine, workload: str, f: dict, loop: Loop, tracer: Tracer | None) -> None:
    """One timed job; its output is checked after the clock stops."""
    kw = {}
    if workload == "engine-spill":
        kw = {
            "chunk_bytes": f["bytes"] // SPILL_CHUNKS,
            "memory_budget": int(f["bytes"] * SPILL_BUDGET),
        }
    if loop.since_scale >= RESCALE_S:
        loop.scale, loop.since_scale = common.speed_scale(), 0.0
    loop.attempted += 1
    if tracer is not None:
        tracer.job = loop.attempted
    t0 = time.perf_counter()
    try:
        res = eng.mr.run(f["path"], **kw)
    except Exception as exc:  # a failed job is counted, not fatal
        res, error = None, exc
    dt = time.perf_counter() - t0
    loop.wall_s += dt
    loop.since_scale += dt
    loop.ref_s += dt * loop.scale
    if res is None:
        loop.failed += 1
        print(f"info job_error = {json.dumps(repr(error))}", file=sys.stderr)
        return
    loop.raw_job_s.append(dt)
    loop.job_s.append(dt * loop.scale)
    loop.input_bytes += f["bytes"]
    loop.modes[res.mode] += 1
    loop.transport = res.transport
    if common.output_digest(res.output) != f["digest"]:
        loop.failed += 1
        loop.mismatched += 1


def run_cycles(
    eng: Engine, workload: str, manifest: dict, loop: Loop,
    seconds: float | None = None, cycles: int | None = None,
    tracer: Tracer | None = None,
    after_job: _t.Callable[[], None] | None = None,
) -> None:
    """Whole cycles until ``seconds`` of job time or ``cycles`` cycles."""
    files = manifest["files"]
    plan = schedule(workload, manifest["order"])
    while not (
        (cycles is not None and loop.cycles >= cycles)
        or (seconds is not None and loop.wall_s >= seconds)
    ):
        if workload == "engine-spill":
            # a new mtime per cycle: a new tier identity, so each file is
            # cold again on its first run of the cycle
            stamp = time.time_ns()
            for f in files:
                os.utime(f["path"], ns=(stamp, stamp))
        bytes0, ref0 = loop.input_bytes, loop.ref_s
        for index in plan:
            run_job(eng, workload, files[index], loop, tracer)
            if after_job is not None:
                after_job()
        loop.per_cycle.append((loop.input_bytes - bytes0, loop.ref_s - ref0))
        loop.cycles += 1


def set_up(workload: str, work_dir: str, warmup: str) -> tuple[Engine, list[float]]:
    """``SETUPS`` cold set-ups, timed in reference seconds; the last engine
    stays up for the loop."""
    times = []
    eng = None
    for _ in range(SETUPS):
        if eng is not None:
            eng.close()
        stop_forkserver()
        scale = common.speed_scale()
        t0 = time.perf_counter()
        eng = Engine(workload, work_dir, warmup)
        times.append((time.perf_counter() - t0) * scale)
    assert eng is not None
    return eng, times


def leak_check() -> dict:
    return {
        "leaked_dirs": len(outofcore.live_spill_dirs()) + len(live_tier_dirs()),
        "open_handles": handle_cache_stats()["entries"],
    }


# -- measure ------------------------------------------------------------------------


def measure(args) -> int:
    with open(os.path.join(args.dir, "manifest.json")) as f:
        manifest = json.load(f)
    work_dir = os.path.join(args.dir, "work")
    if args.trace:
        return measure_traced(args, manifest, work_dir)
    eng, setups = set_up(args.workload, work_dir, manifest["warmup"])
    before = eng.counters()
    loop = Loop()
    run_cycles(eng, args.workload, manifest, loop, seconds=args.seconds)
    counters = eng.counters() - before
    method = eng.mr.start_method
    eng.close()
    stop_forkserver()
    leaks = leak_check()
    rss = common.peak_rss_mib()
    metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mib": rss,
        "job_p50_s": common.median(loop.job_s),
        "job_tail_s": common.tail(loop.job_s),
        # median over cycles: a cycle slowed by another tenant of the
        # machine does not move it
        "throughput_mb_s": common.median([b / t / 1e6 for b, t in loop.per_cycle]),
        "wire_bytes_per_input_byte": counters["transport.bytes"] / loop.input_bytes,
    }
    info = {
        "provenance": common.provenance(
            args, n_workers=N_WORKERS, start_method=method,
            transport=loop.transport,
        ),
        "jobs": len(loop.job_s),
        "cycles": loop.cycles,
        "modes": dict(loop.modes),
        "measured_job_p50_s": common.median(loop.raw_job_s),
        "measured_job_s": loop.wall_s,
        "setup_runs_s": setups,
        "mismatched_outputs": loop.mismatched,
        "leaks": leaks,
    }
    correct = loop.mismatched == 0 and leaks["leaked_dirs"] == 0
    return common.emit("end_to_end", metrics, loop.attempted, loop.failed, correct, info)


def install(tracer: Tracer, seen: dict) -> None:
    """Wrap the real-engine layer entry points (see README.md); ``seen``
    collects what the pool was given and what the prefetcher was advised.
    Module functions are wrapped where the engine looks them up."""
    tracer.host(LocalMapReduce, "run", "localmr.job")
    tracer.host(localmr, "chunk_file", "exec.chunks.plan")
    tracer.host(localmr, "fold_map_into", "phoenix.sort.fold")
    tracer.host(localmr, "finalize_folded_map", "phoenix.sort.finalize")
    tracer.host(outofcore, "decorate_sorted", "phoenix.sort.finalize")
    tracer.host(outofcore, "dump_run", "exec.outofcore.spill_write")
    tracer.host(outofcore, "write_run", "exec.outofcore.spill_write")
    tracer.host_consumed(outofcore, "merge_decorated_runs", "exec.outofcore.merge")
    tracer.host(TieredStore, "put", "tier.store.put")
    tracer.host(TieredStore, "get", "tier.store.get")

    def on_submit(args: tuple, kwargs: dict) -> None:
        tasks = args[2] if len(args) > 2 else kwargs["tasks"]
        seen["batches"] += len(tasks)
        for task in tasks:
            first = task[1][0]
            seen["mapped"].add((first.path, first.offset))

    tracer.host_blocking(WorkerPool, "imap_unordered", "exec.pool.wait", on_call=on_submit)

    def on_advise(args: tuple, kwargs: dict) -> None:
        # the fragments advise(i) schedules (the prefetcher skips ones it
        # already scheduled), keyed by their first chunk
        pf, index = args[0], args[1]
        scheduled = seen["advised"].setdefault(id(pf), set())
        for nxt in range(index + 1, min(index + 1 + pf.depth, len(pf.fragments))):
            if nxt not in scheduled:
                scheduled.add(nxt)
                frag = pf.fragments[nxt]
                seen["pending"][(frag[0].path, frag[0].offset)] = sum(c.length for c in frag)

    tracer.observe(ReadaheadPrefetcher, "advise", on_advise)


def settle_prefetch(seen: dict) -> None:
    """Score the last job's prefetches: useful if the fragment was mapped."""
    for key, nbytes in seen["pending"].items():
        seen["advised_bytes"] += nbytes
        if key in seen["mapped"]:
            seen["useful_bytes"] += nbytes
    seen["pending"].clear()
    seen["mapped"].clear()
    seen["advised"].clear()


def measure_traced(args, manifest: dict, work_dir: str) -> int:
    """Untraced pass, then the same cycles traced, on a fresh set-up."""
    eng, _ = set_up(args.workload, work_dir, manifest["warmup"])
    base = Loop()
    run_cycles(eng, args.workload, manifest, base, seconds=args.seconds / 2)
    eng.close()
    stop_forkserver()
    cpu0 = common.children_cpu_s()

    eng = Engine(args.workload, work_dir, manifest["warmup"])
    method = eng.mr.start_method
    before = eng.counters()
    tracer = Tracer()
    seen = {
        "batches": 0, "mapped": set(), "advised": {}, "pending": {},
        "advised_bytes": 0, "useful_bytes": 0,
    }
    install(tracer, seen)
    loop = Loop()
    try:
        run_cycles(
            eng, args.workload, manifest, loop, cycles=base.cycles,
            tracer=tracer, after_job=lambda: settle_prefetch(seen),
        )
    finally:
        tracer.restore()
    counters = eng.counters() - before
    tier_stats = eng.tier.stats() if eng.tier is not None else {}
    eng.close()
    stop_forkserver()
    worker_cpu = common.children_cpu_s() - cpu0
    leaks = leak_check()

    job_wall = sum(sp.dur for sp in tracer.spans_of("localmr.job"))
    lookups = sum(
        tier_stats.get(k, 0)
        for k in ("tier.hit.mem", "tier.hit.ssd", "tier.miss", "tier.read.degraded")
    )
    hits = tier_stats.get("tier.hit.mem", 0) + tier_stats.get("tier.hit.ssd", 0)
    metrics = dict.fromkeys(common.catalog("per_layer"), 0.0)
    metrics.update({
        "exec.chunks.plan_s": tracer.self_s("exec.chunks.plan"),
        "exec.chunks.plan_calls": tracer.entry_calls("exec.chunks.plan"),
        "exec.chunks.open_handles": leaks["open_handles"],
        "exec.pool.wait_s": tracer.self_s("exec.pool.wait"),
        "exec.pool.worker_cpu_s": worker_cpu,
        "exec.pool.batches": seen["batches"],
        "exec.pool.respawns": counters["pool.respawn"],
        "exec.pool.retries": counters["retry.pool"],
        "exec.transport.bytes_per_input_byte": counters["transport.bytes"] / loop.input_bytes,
        "exec.transport.fallbacks": counters["transport.fallback"],
        "exec.transport.slot_waits": counters["transport.slot_wait"],
        "phoenix.sort.fold_s": tracer.self_s("phoenix.sort.fold"),
        "phoenix.sort.finalize_s": tracer.self_s("phoenix.sort.finalize"),
        "exec.outofcore.spill_write_s": tracer.self_s("exec.outofcore.spill_write"),
        "exec.outofcore.merge_s": tracer.self_s("exec.outofcore.merge"),
        "exec.outofcore.spill_bytes": counters["localmr.spill_bytes"],
        "exec.outofcore.spill_runs": counters["localmr.spill_runs"],
        "exec.outofcore.recomputes": counters["localmr.recompute"],
        "exec.outofcore.leaked_dirs": leaks["leaked_dirs"],
        "tier.store.put_s": tracer.self_s("tier.store.put"),
        "tier.store.get_s": tracer.self_s("tier.store.get"),
        "tier.store.hit_ratio": hits / lookups if lookups else 0.0,
        "tier.store.reused_runs": counters["tier.spill.reuse"],
        "tier.store.writeback_bytes": tier_stats.get("tier.writeback.bytes", 0),
        "tier.store.demotions": tier_stats.get("tier.demote", 0),
        "tier.store.evictions": tier_stats.get("tier.evict.capacity", 0),
        "tier.prefetch.issued": counters["tier.prefetch.issued"],
        "tier.prefetch.useful_ratio": (
            seen["useful_bytes"] / seen["advised_bytes"] if seen["advised_bytes"] else 0.0
        ),
        "trace_overhead": loop.ref_s / base.ref_s - 1.0,
        "uncovered_share": tracer.self_s("localmr.job") / job_wall,
    })
    prov = common.provenance(
        args, n_workers=N_WORKERS, start_method=method, transport=loop.transport,
    )
    trace_path = common.write_trace(tracer, args, prov)
    info = {
        "provenance": prov,
        "jobs": len(loop.job_s),
        "cycles": loop.cycles,
        "untraced_wall_s": base.wall_s,
        "traced_wall_s": loop.wall_s,
        "spans": len(tracer.spans),
        "trace_file": trace_path,
        "tier_stats": tier_stats,
        "mismatched_outputs": loop.mismatched + base.mismatched,
        "leaks": leaks,
    }
    attempted = loop.attempted + base.attempted
    failed = loop.failed + base.failed
    correct = loop.mismatched + base.mismatched == 0 and leaks["leaked_dirs"] == 0
    return common.emit("per_layer", metrics, attempted, failed, correct, info)


def main(argv: list[str]) -> int:
    phase, rest = argv[0], argv[1:]
    args = common.parse_args(rest)
    if phase == "prepare":
        return prepare(args)
    if phase == "measure":
        return measure(args)
    raise SystemExit(f"unknown phase {phase!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
