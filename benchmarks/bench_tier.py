"""Burst-buffer tier benchmark: warm merged-run reuse + readahead overlap.

Two halves, mirroring the two halves of :mod:`repro.tier`:

* **Real engine, warm vs cold tier** — the same out-of-core wordcount run
  through one :class:`~repro.tier.store.TieredStore`, once cold and then
  twice warm, after one untimed job over another input has started the
  engine's worker pool.  The cold run maps every fragment, spills its
  runs into the tier, folds and reduces them and keeps the job's answer
  (its keys and counts in output order) as its *merged run* (the
  fragment runs are then dropped); each warm run reads that one run
  (``tier.spill.reuse``) and returns its pairs — no map task, no spill
  write, no fold, no ``reduce_fn`` call.  Wall-clock is the
  measurement; the gate is ``cold / warm >= WARM_GATE`` plus byte
  identity against a tier-less engine and the ground-truth Counter, and
  a reuse row: each warm pass reuses exactly one run and adds nothing to
  ``localmr.spill_runs``, to the pool's submitted tasks or to the calls
  of :func:`counting_reduce`.  The gate is 1.3x so slow CI hardware only
  has to show the *shape* of the win, not its size.
* **Simulated cluster, readahead vs none** — the Table I duo-core SD
  running the extended Phoenix workflow over a payload-less input (the
  serial-read regime: each fragment's bytes must be read before its map
  can split them — exactly where Fig 6's "process fragment N while N+1
  loads" pipeline matters).  Two identical burst buffers, one with
  ``readahead_fragments=1`` and one with 0; simulated seconds are exact,
  so the gate is a deterministic elapsed ratio plus byte-equal outputs
  and a nonzero prefetch-hit byte count.

``tools/perf_gate.py --tier`` runs :func:`run_suite`, judges it with
:func:`checks` and writes the payload to ``BENCH_tier.json`` (picked up
by ``tools/bench_diff.py``).
"""

from __future__ import annotations

import operator
import os
import shutil
import tempfile
import time
from collections import Counter

from benchmarks.bench_real_engine import corpus_file, wordcount_engine
from benchmarks.checks import GATE, OUTPUT, failed, leak_scan, print_rows
from repro.apps import make_wordcount_spec
from repro.apps.wordcount import wc_map, wc_reduce
from repro.cluster import Testbed
from repro.config import TierSpec, table1_cluster
from repro.exec import LocalMapReduce
from repro.obs import Observability
from repro.partition import ExtendedPhoenixRuntime
from repro.phoenix.api import InputSpec
from repro.tier import TieredStore
from repro.units import MB, MiB, GiB
from repro.workloads import text_input

#: real half: warm-tier merged-run read over cold map+spill+merge, both
#: on a started pool (the warm run skips the map, the spill, the fold and
#: the reduce); gated conservatively so CI noise cannot flip it.
WARM_GATE = 1.3

#: warm passes after the cold run
WARM_PASSES = 2

#: sim half: readahead=1 over readahead=0 at equal tier capacity in the
#: serial-read regime.  Simulated seconds are deterministic (measured
#: 1.22x on the duo SD); the gate allows for small model drift only.
PREFETCH_GATE = 1.05

#: real workload: ~1.5 MB Zipf corpus under a quarter-size budget ->
#: multiple spilled fragments per run
REAL_PAYLOAD = 1_500_000
REAL_VOCAB = 12_000
REAL_CHUNK_BYTES = 16_000
REAL_BUDGET = 384_000
#: tier sized to hold every run of the workload (the reuse case; eviction
#: behaviour is covered by tests, not this gate)
REAL_TIER_MEM = MiB(8)
REAL_TIER_SSD = MiB(64)

#: sim workload: 1.2 GB on the duo SD, 150 MB fragments -> 8 fragments
SIM_SIZE = MB(1200)
SIM_FRAGMENT = MB(150)
SIM_TIER = dict(mem_bytes=MiB(512), ssd_bytes=GiB(4))


#: keys reduced by :func:`counting_reduce` in this process (read as
#: differences, so earlier runs in the process do not matter)
_reduced = [0]


def counting_reduce(key, values, params):
    """``wc_reduce`` that counts its calls, so the gate sees whether a
    warm pass reduced anything (module-level: the engine names its
    callables by import path)."""
    _reduced[0] += 1
    return wc_reduce(key, values, params)


def _run_real_half(quick: bool) -> dict:
    payload = REAL_PAYLOAD // 2 if quick else REAL_PAYLOAD
    budget = REAL_BUDGET // 2 if quick else REAL_BUDGET
    path = corpus_file(payload, REAL_VOCAB, seed=1)
    # the untimed first job's input: it starts the pool, and a different
    # input keeps its runs out of the timed jobs' way
    warmup = corpus_file(payload, REAL_VOCAB, seed=2)
    spill_root = tempfile.mkdtemp(prefix="bench-tier-")
    obs = Observability(enabled=False)
    try:
        # ground truth + tier-less reference
        with open(path, "rb") as f:
            truth = Counter(f.read().split())
        with wordcount_engine(memory_budget=budget, spill_dir=spill_root) as plain_eng:
            plain_out = plain_eng.run(path, chunk_bytes=REAL_CHUNK_BYTES).output

        with TieredStore(REAL_TIER_MEM, REAL_TIER_SSD, obs=obs) as store:
            with LocalMapReduce(
                wc_map, reduce_fn=counting_reduce, combine_fn=operator.add,
                sort_output=True, memory_budget=budget, tier=store,
                readahead=1, obs=obs, spill_dir=spill_root,
            ) as eng:
                eng.run(warmup, chunk_bytes=REAL_CHUNK_BYTES)
                obs.clear()  # count the timed jobs only
                # the map tasks each job hands the pool
                submitted: list[int] = []
                imap = eng.pool.imap_unordered

                def counting_imap(fn, tasks):
                    submitted.append(len(tasks))
                    return imap(fn, tasks)

                eng.pool.imap_unordered = counting_imap
                reduced = _reduced[0]
                t0 = time.perf_counter()
                cold_res = eng.run(path, chunk_bytes=REAL_CHUNK_BYTES)
                cold_s = time.perf_counter() - t0
                cold_tasks = sum(submitted)
                cold_spill_runs = obs.metrics.counters.get("localmr.spill_runs", 0)
                cold_reduced = _reduced[0] - reduced
                warm_s = float("inf")
                warm_outs = []
                for _ in range(WARM_PASSES):
                    t0 = time.perf_counter()
                    warm_res = eng.run(path, chunk_bytes=REAL_CHUNK_BYTES)
                    warm_s = min(warm_s, time.perf_counter() - t0)
                    warm_outs.append(warm_res.output)
                warm_reduced = _reduced[0] - reduced - cold_reduced
            tier_dir = store.ssd_dir
        ctr = obs.metrics.counters

        leaks = leak_scan(spill_root, tier_dir)
        return {
            "payload_bytes": payload,
            "memory_budget": budget,
            "n_runs": cold_res.n_fragments,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "warm_speedup": round(cold_s / warm_s if warm_s else float("inf"), 3),
            "outputs_match": (
                cold_res.output == plain_out
                and dict(cold_res.output) == dict(truth)
                and all(o == cold_res.output for o in warm_outs)
            ),
            "warm_passes": WARM_PASSES,
            "runs_reused_warm": int(ctr.get("tier.spill.reuse", 0)),
            "cold_tasks": cold_tasks,
            "warm_tasks": sum(submitted) - cold_tasks,
            "warm_spill_runs": int(ctr.get("localmr.spill_runs", 0) - cold_spill_runs),
            "cold_reduce_calls": cold_reduced,
            "warm_reduce_calls": warm_reduced,
            "prefetch_issued": int(ctr.get("tier.prefetch.issued", 0)),
            "writeback_bytes": int(ctr.get("tier.writeback.bytes", 0)),
            "leaked_dirs": leaks["spill"] + leaks["tier"],
        }
    finally:
        os.unlink(path)
        os.unlink(warmup)
        shutil.rmtree(spill_root, ignore_errors=True)


def _sim_run(tier: TierSpec | None, size: int):
    bed = Testbed(config=table1_cluster(tier=tier, seed=1))
    inp = text_input("/data/huge", size, payload_bytes=20_000, seed=1)
    staged, _host_view, _p = bed.stage_on_sd("huge", inp)
    # payload-less view: each fragment's bytes are read from the VFS
    # before its map can split them — the serial-read regime where
    # fragment N+1's prefetch overlaps fragment N's compute
    view = InputSpec(
        path=staged.path, size=staged.size, payload=None, params=staged.params,
    )
    ext = ExtendedPhoenixRuntime(bed.sd, bed.config.phoenix)

    def gen():
        res = yield ext.run(make_wordcount_spec(), view, fragment_bytes=SIM_FRAGMENT)
        return res

    res = bed.run(gen())
    return res, bed.sim.obs.metrics.counters


def _run_sim_half(quick: bool) -> dict:
    size = SIM_SIZE // 2 if quick else SIM_SIZE
    res_none, _ = _sim_run(None, size)
    res_cold, _ = _sim_run(TierSpec(readahead_fragments=0, **SIM_TIER), size)
    res_ra, ctr = _sim_run(TierSpec(readahead_fragments=1, **SIM_TIER), size)

    speedup = res_cold.elapsed / res_ra.elapsed if res_ra.elapsed else float("inf")
    return {
        "input_bytes": size,
        "fragment_bytes": SIM_FRAGMENT,
        "n_fragments": res_ra.n_fragments,
        "no_tier_s": round(res_none.elapsed, 4),
        "no_readahead_s": round(res_cold.elapsed, 4),
        "readahead_s": round(res_ra.elapsed, 4),
        "prefetch_speedup": round(speedup, 3),
        "prefetch_hit_bytes": int(ctr.get("tier.prefetch.hit.bytes", 0)),
        "prefetch_issued": int(ctr.get("tier.prefetch.issued", 0)),
        "outputs_match": res_none.output == res_cold.output == res_ra.output,
    }


def run_suite(quick: bool = False) -> dict:
    """The whole tier suite; returns the BENCH_tier payload."""
    return {
        "benchmark": "burst-buffer tier: warm merged-run reuse + readahead overlap",
        "mode": "quick" if quick else "full",
        "gates": {
            "warm_speedup_min": WARM_GATE,
            "prefetch_speedup_min": PREFETCH_GATE,
        },
        "real": _run_real_half(quick),
        "sim": _run_sim_half(quick),
    }


def checks(payload: dict) -> list[tuple]:
    """Tiered outputs identical to tier-less; warm reuse and readahead win."""
    r, s = payload["real"], payload["sim"]
    return [
        ("real outputs identical", OUTPUT, r["outputs_match"],
         "cold and warm vs tier-less and the Counter truth"),
        ("sim outputs identical", OUTPUT, s["outputs_match"],
         "readahead, no-readahead and no tier"),
        ("warm speedup", GATE, r["warm_speedup"] >= WARM_GATE,
         f"cold {r['cold_s']:.3f}s vs warm {r['warm_s']:.3f}s => "
         f"{r['warm_speedup']:.2f}x (gate >= {WARM_GATE}x)"),
        ("real runs spilled", GATE, r["n_runs"] >= 2,
         f"{r['n_runs']} runs (need >= 2)"),
        ("warm runs reused", GATE,
         r["runs_reused_warm"] == r["warm_passes"]
         and r["warm_spill_runs"] == 0 and r["warm_tasks"] == 0
         and r["warm_reduce_calls"] == 0,
         f"{r['runs_reused_warm']} merged runs reused, "
         f"{r['warm_spill_runs']} runs spilled, {r['warm_tasks']} map "
         f"tasks submitted and {r['warm_reduce_calls']} keys reduced over "
         f"{r['warm_passes']} warm passes (need {r['warm_passes']}, 0, 0 "
         f"and 0; the cold run reduced {r['cold_reduce_calls']})"),
        ("no dirs leaked", GATE, not r["leaked_dirs"],
         f"{r['leaked_dirs'] or 'clean'}"),
        ("readahead speedup", GATE, s["prefetch_speedup"] >= PREFETCH_GATE,
         f"no-readahead {s['no_readahead_s']:.2f}s vs readahead "
         f"{s['readahead_s']:.2f}s => {s['prefetch_speedup']:.2f}x "
         f"(gate >= {PREFETCH_GATE}x)"),
        ("sim fragments", GATE, s["n_fragments"] >= 2,
         f"{s['n_fragments']} fragments (need >= 2)"),
        ("prefetch hits", GATE, s["prefetch_hit_bytes"] > 0,
         f"{s['prefetch_hit_bytes'] / 1e6:.0f}MB served from prefetched blocks"),
    ]


# -- pytest-benchmark entry point -------------------------------------------


def bench_tier_suite(benchmark):
    from benchmarks.conftest import once

    from repro.analysis.report import banner

    rows = checks(once(benchmark, lambda: run_suite(quick=True)))
    print(banner("TIER - burst buffer: warm merged-run reuse + readahead overlap"))
    print_rows(rows)
    assert not failed(rows)
