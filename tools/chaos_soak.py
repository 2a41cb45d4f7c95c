#!/usr/bin/env python3
"""Chaos soak: the fault-injection acceptance gate.

Usage:
    python tools/chaos_soak.py [--quick] [--seed N] [--only SUBSTR]
                               [--trace DIR] [--dump-dir DIR]

Runs the case table (:func:`cases`): the simulated cluster, the
scheduler, the distributed engine, the real streaming engine and the
burst-buffer tier, each clean and under faults, and asserts the
robustness contract:

* **byte-identical output**: a faulted run's answer equals the
  fault-free baseline's (faults may cost time, never answers);
* **full plan coverage**: every rule in the plan actually fired (a gate
  that silently stopped injecting proves nothing);
* **reproducible injection**: a second faulted run with the same seed
  produces the identical injection signature sequence;
* **bounded recovery**: attempts/retries stay inside the configured
  budgets — no unbounded retry storms;
* **no leaks**: no spill, tier or shuffle directories left behind and no
  worker processes left running after the engines close.

A case returns its check rows, the registry its faulted run recorded
into, and metadata for that registry's trace.  The runner prints the
rows (``benchmarks/checks.py``), exports one Chrome trace per case as
``DIR/chaos-<stem>.json`` under ``--trace DIR`` (``tools/trace_view.py``
renders its reliability and recovery sections), and when a check fails
with ``--dump-dir DIR`` (default: the ``REPRO_BLACKBOX_DIR`` environment
variable) dumps each live flight recorder's ring to DIR as a JSONL black
box.

``--quick`` runs one simulated app and a smaller engine input (a smoke
run); the default, which CI runs, soaks wordcount, stringmatch and
matmul.  ``--only SUBSTR`` runs the cases whose name contains SUBSTR.

Exit status 0 iff every check passes (2 when ``--only`` matches nothing).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import multiprocessing as mp
import os
import sys
import tempfile

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from benchmarks.checks import (  # noqa: E402
    canonical_output,
    failed,
    leak_scan,
    nonempty,
    print_rows,
)
from repro.apps.matmul import matmul_input  # noqa: E402
from repro.cluster import Testbed  # noqa: E402
from repro.config import table1_cluster  # noqa: E402
from repro.core import DataJob, DistributedEngine, DistributedJob  # noqa: E402
from repro.errors import RETRIES  # noqa: E402
from repro.exec import LocalMapReduce  # noqa: E402
from repro.exec.outofcore import install_signal_cleanup  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultInjector,
    FaultPlan,
    FaultRule,
    distributed_chaos_plan,
    recovery_chaos_plan,
    standard_engine_plan,
    standard_plan,
    tier_chaos_plan,
)
from repro.obs import Observability  # noqa: E402
from repro.obs import flight as _flight  # noqa: E402
from repro.obs.export import write_chrome  # noqa: E402
from repro.sched import ClusterScheduler  # noqa: E402
from repro.sched.health import DETECTION_BOUND  # noqa: E402
from repro.tier import TieredStore  # noqa: E402
from repro.units import MB  # noqa: E402
from repro.workloads import ArrivalProcess, text_input  # noqa: E402
from repro.workloads.keys import encrypted_input, keys_for  # noqa: E402


# -- shared helpers ----------------------------------------------------------


def _testbed(args: argparse.Namespace, n_sd: int, name: str,
             app: str = "wordcount", text_size: int = MB(20)):
    """A fresh ``n_sd``-node testbed with ``app``'s input staged on every
    SD node as ``name``; returns ``(bed, input, sd_path, params)``."""
    if app == "matmul":
        n = 256 if args.quick else 512
        inp = matmul_input(f"/data/{name}", n, payload_n=32, seed=args.seed)
        params = {"n": n}
    elif app == "stringmatch":
        keys = tuple(keys_for(4, seed=args.seed))
        inp, _, _ = encrypted_input(
            f"/data/{name}", text_size, payload_bytes=6_000, keys=list(keys),
            seed=args.seed,
        )
        params = {"keys": keys}
    else:
        inp = text_input(
            f"/data/{name}", text_size, payload_bytes=6_000, seed=args.seed,
        )
        params = {}
    bed = Testbed(config=table1_cluster(n_sd=n_sd, seed=args.seed), seed=args.seed)
    _, sd_path = bed.stage_replicated(name, inp)
    return bed, inp, sd_path, params


def _kill(bed, node: str, at: float) -> None:
    """Kill ``node``'s smartFAM daemon at simulated time ``at``."""

    def go():
        yield bed.sim.timeout(at)
        bed.cluster.sd_daemons[node].kill()

    bed.sim.spawn(go(), name=f"chaos.kill-{node}")


def _replay_rows(plan: FaultPlan, baseline, chaos, again, note: str):
    """The rows every clean / chaos / chaos-again case shares.

    ``chaos`` and ``again`` are ``(output, injector)`` from two runs under
    ``plan`` with the same seed; an output is canonical bytes, or a list
    of them for a stream.
    """
    (output, injector), (output2, injector2) = chaos, again
    fired = injector.fired_by_site()
    hit = {sig[3] for sig in injector.signatures()}  # rule indices
    missing = [
        f"{r.site}:{r.action}" for i, r in enumerate(plan.rules) if i not in hit
    ]
    return (
        ("output identical", output == baseline and nonempty(baseline), note),
        ("all rules fired", not missing,
         f"fired {fired}" + (f", missing {missing}" if missing else "")),
        ("injection reproducible",
         injector.signatures() == injector2.signatures() and output2 == baseline,
         f"{injector.injections} injections"),
    )


# -- simulated cluster cases -------------------------------------------------

#: per-attempt deadline of the simulated cases (simulated seconds)
SIM_TIMEOUT = 60.0
#: scheduler re-dispatches before a job is pinned to the host, and on it
SIM_RETRIES = 2
#: jobs per simulated case, one after another: the plan's two NFS errors
#: fail the host's own NFS client, so the first job stays on sd0, where
#: the plan's lost message makes it miss its deadline.  That quarantines
#: sd0, but its beats go on, so it re-enters on probation one monitor
#: tick later.  The disk, module and result faults then each cost a later
#: job an attempt, and every rule has fired by the third job; the fourth
#: runs clean, so each app's faulted run answers from an SD at least once
SIM_JOBS = 4


def _run_sim_once(args: argparse.Namespace, app: str, chaos: bool):
    bed, inp, sd_path, params = _testbed(
        args, 2, "mm" if app == "matmul" else "f", app,
        MB(50) if args.quick else MB(200),
    )
    job = DataJob(
        app=app, input_path=sd_path, input_size=inp.size, mode="parallel",
        params=params,
    )
    injector = bed.sim.install_faults(standard_plan(args.seed)) if chaos else None
    sched = ClusterScheduler(
        bed.cluster, attempt_timeout=SIM_TIMEOUT, max_retries=SIM_RETRIES,
        cache=None,
    )

    def go():
        outputs = []
        for _ in range(SIM_JOBS):
            result = yield sched.submit(job)
            outputs.append(canonical_output(app, result.output))
        return outputs

    return bed.run(go()), injector, sched, bed


def sim_case(args: argparse.Namespace, app: str):
    """A short stream of one app through the scheduler, clean and under faults."""
    baseline, _, _, _ = _run_sim_once(args, app, chaos=False)
    outputs, injector, sched, bed = _run_sim_once(args, app, chaos=True)
    outputs2, injector2, _, _ = _run_sim_once(args, app, chaos=True)
    # the scheduler's bound: max_retries + 1 attempts on SD nodes, as many
    # on the host
    budget = 2 * (SIM_RETRIES + 1)
    attempts = [rec.attempts for rec in sched.completed]
    failures = bed.sim.obs.metrics.counters["sched.attempt_failures"]
    rows = [
        *_replay_rows(
            standard_plan(args.seed), baseline, (outputs, injector),
            (outputs2, injector2),
            f"{SIM_JOBS} jobs x {len(baseline[0])} bytes",
        ),
        ("retries bounded", max(attempts) <= budget,
         f"{int(failures)} failed attempts, at most {max(attempts)} per job "
         f"<= {budget}"),
        ("an SD answered under faults",
         any(rec.offloaded for rec in sched.completed),
         f"jobs ended on {[rec.where for rec in sched.completed]}"),
    ]
    return rows, bed.sim.obs, {"faults": injector.fired_by_site()}


# -- scheduler cases ---------------------------------------------------------

#: per-attempt deadline while a daemon may be dead (simulated seconds)
SCHED_TIMEOUT = 10.0
#: arrival rate of the served streams (jobs per simulated second)
SCHED_RATE = 2.0


def _stream(args: argparse.Namespace, n_jobs: int, **sched_kw):
    """A 2-SD testbed, its scheduler and a Poisson wordcount stream.

    Returns ``(bed, sched, stream, factory)``.
    """
    bed, inp, sd_path, _ = _testbed(args, 2, "s")
    sched = ClusterScheduler(
        bed.cluster,
        attempt_timeout=SCHED_TIMEOUT,
        per_node_limit=1,
        max_queue=n_jobs + 1,
        cache=None,
        **sched_kw,
    )

    def factory(i: int) -> DataJob:
        return DataJob(
            app="wordcount", input_path=sd_path, input_size=inp.size,
            mode="parallel",
        )

    stream = ArrivalProcess.poisson(factory, rate=SCHED_RATE, n=n_jobs, seed=args.seed)
    return bed, sched, stream, factory


def _served_rows(report, baseline: bytes, against: str) -> list:
    """Every admitted job of a stream completed, each with one answer."""
    mismatched = [
        res for _, _, res in report.completed
        if canonical_output("wordcount", res.output) != baseline
    ]
    return [
        ("all admitted completed",
         not report.failed and report.admitted == len(report.completed),
         f"{len(report.completed)} completed, {len(report.failed)} failed, "
         f"{len(report.rejected)} rejected at admission"),
        ("outputs identical",
         not mismatched and len(report.completed) > 0 and nonempty(baseline),
         f"{len(report.completed)} outputs vs {against}"),
    ]


def sched_case(args: argparse.Namespace):
    """Kill one of two SD nodes mid-stream; admitted jobs still complete.

    The contract mirrors the admission semantics: the control plane may
    refuse work only at admission (AdmissionError), so once the stream is
    admitted a dead daemon can cost time (detection + re-queue on the
    surviving node or the host) but never answers.
    """
    n_jobs = 12 if args.quick else 24
    kill_at = 0.5 * n_jobs / SCHED_RATE  # mid-stream

    def serve(kill: bool):
        bed, sched, stream, _ = _stream(args, n_jobs, max_retries=2)
        drive = stream.drive(sched)
        if kill:
            _kill(bed, "sd0", kill_at)
        return bed.run(drive), sched, bed

    clean, clean_sched, _ = serve(kill=False)
    chaos, chaos_sched, bed = serve(kill=True)
    survivors = {
        rec.where for rec in chaos_sched.completed
        if rec.dispatched_at >= kill_at and rec.where != "sd0"
    }
    counters = bed.sim.obs.metrics.counters
    rows = _served_rows(
        chaos, canonical_output("wordcount", clean.completed[0][2].output),
        "clean baseline",
    ) + [
        ("dead node quarantined", "sd0" in chaos_sched.unhealthy,
         f"unhealthy={sorted(chaos_sched.unhealthy)}"),
        ("work re-routed", bool(survivors),
         f"post-kill completions on {sorted(survivors) or 'nothing'}"),
        ("recovery bounded", counters["sched.requeued"] <= chaos.admitted * 3,
         f"{int(counters['sched.requeued'])} requeues, "
         f"{int(counters['sched.attempt_failures'])} failed attempts"),
        ("clean run untouched",
         not clean.failed and not clean.rejected and not clean_sched.unhealthy,
         f"{len(clean.completed)} clean completions"),
    ]
    return rows, bed.sim.obs, {"stats": chaos_sched.stats()}


def sched_flaky_heartbeat_case(args: argparse.Namespace):
    """Drop one node's heartbeats for a window; it must quarantine AND
    rejoin through probation, completing work again after the window.

    The daemon stays alive the whole time — only its pings vanish — so
    this is the failure detector's false-positive path: the node is
    pulled from dispatch on suspicion alone, then earns its way back in
    once beats resume, with every admitted job still completing
    byte-identically.
    """
    drop_window = (3.0, 9.0)
    bed, sched, stream, factory = _stream(args, 20)
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("heartbeat.drop", action="drop",
                  where={"node": "sd0"}, window=drop_window),
    ), seed=args.seed))

    def scenario():
        report = yield stream.drive(sched)
        # the stream may drain before the probation window opens: wait for
        # beats to resume, then hand the rejoining node its canary job
        for _ in range(80):
            if sched.health.state["sd0"] != "quarantined":
                break
            yield bed.sim.timeout(0.25)
        yield sched.submit(dataclasses.replace(factory(-1), sd_node="sd0"))
        return report

    report = bed.run(scenario())
    counters = bed.sim.obs.metrics.counters
    rejoined_work = [
        rec for rec in sched.completed
        if rec.where == "sd0" and rec.dispatched_at >= drop_window[1]
    ]
    states = sched.stats()["node_states"]
    rows = _served_rows(
        report, canonical_output("wordcount", report.completed[0][2].output),
        "first completion",
    ) + [
        ("flaky node quarantined", counters["node.quarantined"] >= 1,
         f"{int(counters['node.quarantined'])} quarantines, "
         f"{int(counters['node.suspected'])} suspicions"),
        ("node rejoined via probation",
         counters["node.probation"] >= 1 and counters["node.rejoined"] >= 1,
         f"{int(counters['node.probation'])} probations, "
         f"{int(counters['node.rejoined'])} rejoins"),
        ("rejoined node completed work", bool(rejoined_work),
         f"{len(rejoined_work)} completions on sd0 after "
         f"t={drop_window[1]:.1f}s"),
        ("ends healthy", states.get("sd0") == "healthy", f"states {states}"),
    ]
    return rows, bed.sim.obs, {"stats": sched.stats()}


# -- distributed cases -------------------------------------------------------

#: per-attempt deadline while a shard's daemon may be dead (simulated s);
#: the backstop, should the failure detector miss the death
DIST_TIMEOUT = 5.0


def _dist_run(args: argparse.Namespace, app: str, timeout: float,
              kill=None, plan=None):
    """One job through ``DistributedEngine`` on a fresh 4-SD testbed.

    ``kill`` is a ``(node, at)`` daemon kill, ``plan`` a fault plan.
    Returns ``(result, bed, injector)``.
    """
    bed, inp, sd_path, params = _testbed(
        args, 4, f"d-{app}", app, MB(40) if args.quick else MB(100),
    )
    job = DistributedJob(
        app=app, input_path=sd_path, input_size=inp.size, params=params,
        fragment_bytes=None if app == "matmul" else (inp.size + 3) // 4,
    )
    injector = bed.sim.install_faults(plan) if plan is not None else None
    eng = DistributedEngine(bed.cluster)
    if kill is not None:
        _kill(bed, *kill)
    return bed.run(eng.run(job, timeout=timeout)), bed, injector


def _stale_shuffle_dirs(bed, final_id: str) -> list:
    """Shuffle dirs on any SD node other than the committed attempt's."""
    stale = []
    for node in bed.cluster.sd_nodes:
        vfs = node.fs.vfs
        if not vfs.exists("/export/shuffle"):
            continue
        for name in vfs.listdir("/export/shuffle"):
            if name != final_id:
                stale.append(f"{node.name}:/export/shuffle/{name}")
    return stale


def dist_case(args: argparse.Namespace, app: str):
    """Kill one shard's SD node mid-shuffle; the job recovers in place.

    Three runs: a clean one (the byte-identity baseline, which also
    records when the map phase ends and which node hosts the merge), a
    kill run where the merge node's daemon dies just as the gather
    begins (the failure detector must report it within its bound, and
    the engine re-derive ONLY the dead daemon's work — its committed map
    artifact stays host-readable on the SD disk, so nothing is re-mapped:
    a partial restart), and a shuffle-fault run under
    :func:`distributed_chaos_plan` (every transfer fault must be
    absorbed by the bounded in-place retry — no restart at all).
    """
    clean, _, _ = _dist_run(args, app, SIM_TIMEOUT)
    baseline = canonical_output(app, clean.output)
    victim = clean.merge_node
    kill_at = clean.timeline["map_done"] + 1e-3
    chaos, bed, _ = _dist_run(args, app, DIST_TIMEOUT, kill=(victim, kill_at))
    restarts = chaos.recovery["partial_restarts"]
    stale = _stale_shuffle_dirs(bed, chaos.job_id)
    first = min(chaos.recovery["failures"], key=lambda f: f["at"])
    detected = first["at"] - kill_at
    plan = distributed_chaos_plan(args.seed)
    absorbed, _, injector = _dist_run(args, app, SIM_TIMEOUT, plan=plan)
    absorbed_restarts = absorbed.recovery["partial_restarts"]

    rows = [
        ("output identical",
         canonical_output(app, chaos.output) == baseline and nonempty(baseline),
         f"{len(baseline)} bytes after killing {victim} at "
         f"t={kill_at:.3f}s"),
        ("partial restart, same attempt",
         restarts >= 1 and chaos.merge_node != victim,
         f"{restarts} partial restart(s), merge moved to "
         f"{chaos.merge_node}"),
        ("dead node's artifacts reused, no re-map",
         victim in chaos.shard_nodes
         and bed.sim.obs.metrics.counters["dist.invoke.map"] == chaos.n_shards,
         f"{chaos.n_shards} map invokes for {chaos.n_shards} shards, "
         f"artifacts on {list(chaos.shard_nodes)}"),
        ("detected by the failure detector",
         first["cause"] == "NodeDownError" and detected <= DETECTION_BOUND,
         f"first failure {first['cause']} {detected:.2f}s after the kill "
         f"(NodeDownError <= {DETECTION_BOUND:.2f}s)"),
        ("no shuffle dirs leaked", not stale, f"{stale or 'clean'}"),
        ("shuffle faults absorbed in place",
         absorbed_restarts == 0
         and canonical_output(app, absorbed.output) == baseline
         and injector.injections >= len(plan.rules),
         f"fired {injector.fired_by_site()}, {absorbed_restarts} restarts"),
    ]
    return rows, bed.sim.obs, {"killed": victim, "kill_at": kill_at}


def dist_corrupt_artifact_case(args: argparse.Namespace):
    """A corrupted artifact is repaired in place; nothing leaks.

    A fragment output corrupted as it is written under
    :func:`recovery_chaos_plan` must be caught by the frame crc at the
    merge's read and repaired by re-mapping exactly its shard (deduping
    every gather leg that already landed on the replay).
    """
    app = "wordcount"
    clean, _, _ = _dist_run(args, app, SIM_TIMEOUT)
    baseline = canonical_output(app, clean.output)
    repaired, bed, injector = _dist_run(
        args, app, SIM_TIMEOUT, plan=recovery_chaos_plan(args.seed),
    )
    restarts = repaired.recovery["partial_restarts"]
    stale = _stale_shuffle_dirs(bed, repaired.job_id)
    rows = [
        ("corrupt artifact repaired in place",
         canonical_output(app, repaired.output) == baseline
         and nonempty(baseline)
         and restarts >= 1
         and repaired.recovery["dedup_transfers"] >= 1
         and injector.fired_by_site().get("shuffle.artifact", 0) >= 1,
         f"{restarts} partial restarts, "
         f"{repaired.recovery['dedup_transfers']} transfers deduped"),
        ("no shuffle dirs leaked", not stale, f"{stale or 'clean'}"),
    ]
    return rows, bed.sim.obs, {}


# -- real-engine cases -------------------------------------------------------

#: chaos tier levels in units of one run, measured on the fault-free,
#: tier-less baseline (so a spill-format change cannot silently remove
#: the pressure): the memory level holds less than one run (every admit
#: demotes, so a run whose write-back was dropped is lost at once and
#: the pre-merge sweep finds it) and the SSD level a few of the 8+ runs
#: (capacity eviction fires, but enough runs stay resident that every
#: tier.read rule reaches its firing index during the merge's warm reads)
_TIER_CHAOS_MEM_RUNS = 0.6
_TIER_CHAOS_SSD_RUNS = 5
#: smaller fragments than the engine case -> ~6 runs even in --quick,
#: enough warm reads for every tier.read rule to reach its firing index
_TIER_CHAOS_BUDGET = 48 * 1024
_TIER_CHAOS_CHUNK = 16 * 1024
#: each disruption class (lost run, degraded read, corrupt read) can
#: cost one merge attempt, so the stacked plan needs a deeper budget
#: than the engine default
_TIER_CHAOS_RETRIES = 4


def _wc_map(data, emit, params):
    # module-level: crosses the multiprocessing pickle boundary
    for token in data.split():
        emit(token, 1)


def _wc_combine(a, b):
    return a + b


def _make_engine_input(tmpdir: str, quick: bool) -> str:
    words = [f"word{i:04d}".encode() for i in range(500)]
    repeats = 30_000 if quick else 120_000
    blob = b" ".join(words[(i * 7) % len(words)] for i in range(repeats))
    path = os.path.join(tmpdir, "chaos-input.txt")
    with open(path, "wb") as f:
        f.write(blob)
    return path


def _run_local(path: str, plan: FaultPlan | None, budget: int, chunk: int,
               trace: bool = False, tier_levels: tuple[int, int] | None = None,
               **engine_kw):
    """One out-of-core wordcount through ``LocalMapReduce``.

    ``tier_levels`` (memory, SSD bytes) puts a deliberately tiny burst
    buffer under the spills; the store and the engine then share one
    injector, so ``tier.*`` and engine-side sites draw from the same plan.
    Returns ``(output, engine, result, store)``.
    """
    obs = Observability(enabled=trace)
    inj = FaultInjector(plan, obs=obs) if plan is not None else None
    store = TieredStore(
        *tier_levels, obs=obs, faults=inj, name="chaos-tier",
    ) if tier_levels is not None else None
    engine = LocalMapReduce(
        _wc_map, combine_fn=_wc_combine, n_workers=2, memory_budget=budget,
        obs=obs, faults=inj, tier=store, **engine_kw,
    )
    try:
        result = engine.run(path, chunk_bytes=chunk)
    finally:
        engine.close()
        if store is not None:
            store.close()
    return canonical_output("wordcount", result.output), engine, result, store


def engine_case(args: argparse.Namespace):
    """The real out-of-core engine under the standard engine plan."""
    plan = standard_engine_plan(args.seed)
    with tempfile.TemporaryDirectory(prefix="chaos-soak-") as tmpdir:
        run = functools.partial(
            _run_local, _make_engine_input(tmpdir, args.quick),
            budget=128 * 1024, chunk=32 * 1024, spill_dir=tmpdir,
        )
        baseline, _, base_res, _ = run(None)
        output, engine, res, _ = run(plan, trace=bool(args.trace))
        output2, engine2, _, _ = run(plan)
        leaks = leak_scan(tmpdir)
    same, fired, repro = _replay_rows(
        plan, baseline, (output, engine.faults), (output2, engine2.faults),
        f"{len(baseline)} bytes, {base_res.n_fragments} fragments",
    )
    counters = engine.obs.metrics.counters
    children = mp.active_children()
    rows = [
        same, fired,
        ("worker respawned", engine.pool.respawns >= 1,
         f"{engine.pool.respawns} respawns"),
        ("fragment recomputed", counters["localmr.recompute"] >= 1,
         f"{counters['localmr.recompute']} recomputes"),
        repro,
        ("retries bounded",
         engine.pool.redispatches <= RETRIES * (res.n_chunks + 1),
         f"{engine.pool.redispatches} redispatches"),
        ("no spill dirs leaked", not leaks["spill"],
         f"{leaks['spill'] or 'clean'}"),
        ("no worker processes leaked", not children,
         f"{[c.pid for c in children] or 'clean'}"),
    ]
    return rows, engine.obs, {"faults": engine.faults.fired_by_site()}


def tier_kill_writeback_case(args: argparse.Namespace):
    """Kill write-backs, degrade and corrupt warm reads, wedge an eviction.

    The burst buffer's contract under fire: every entry the tier loses
    (dropped write-back, degraded read, capacity eviction racing the
    merge) degrades to a recompute from the durable input file, and a
    corrupted warm read is caught by the spill framing's crc — so the
    output stays byte-identical to a tier-less run and no tier directory
    survives ``close()``.  Loss costs time, never answers.
    """
    plan = tier_chaos_plan(args.seed)
    with tempfile.TemporaryDirectory(prefix="chaos-soak-") as tmpdir:
        path = _make_engine_input(tmpdir, args.quick)
        geometry = dict(budget=_TIER_CHAOS_BUDGET, chunk=_TIER_CHAOS_CHUNK,
                        spill_dir=tmpdir)
        baseline, _, base_res, _ = _run_local(path, None, **geometry)
        run_bytes = base_res.spilled_bytes / base_res.n_fragments
        levels = (int(_TIER_CHAOS_MEM_RUNS * run_bytes),
                  int(_TIER_CHAOS_SSD_RUNS * run_bytes))
        run = functools.partial(
            _run_local, path, **geometry, tier_levels=levels,
            readahead=1, spill_retries=_TIER_CHAOS_RETRIES,
        )
        output, engine, res, store = run(plan, trace=bool(args.trace))
        output2, engine2, _, _ = run(plan)
        leaks = leak_scan(tmpdir, store.ssd_dir)
    same, fired, repro = _replay_rows(
        plan, baseline, (output, engine.faults), (output2, engine2.faults),
        f"{len(baseline)} bytes, {res.n_fragments} runs through a "
        f"{levels[0]} B / {levels[1]} B tier",
    )
    c = engine.obs.metrics.counters
    rows = [
        same, fired,
        ("lost write-back recomputed",
         c["tier.writeback.lost"] >= 1 and c["tier.spill.lost"] >= 1
         and c["localmr.recompute"] >= 1,
         f"{int(c['tier.writeback.lost'])} lost, "
         f"{int(c['tier.spill.lost'])} found by sweep, "
         f"{int(c['localmr.recompute'])} recomputes"),
        ("eviction pressure exercised",
         c["tier.evict.stuck"] >= 1 and c["tier.demote"] >= 1,
         f"{int(c['tier.evict.stuck'])} wedged, "
         f"{int(c['tier.evict.capacity'])} evicted, "
         f"{int(c['tier.demote'])} demoted"),
        repro,
        ("retries bounded", c["retry.spill_merge"] <= _TIER_CHAOS_RETRIES,
         f"{int(c['retry.spill_merge'])} merge retries "
         f"(budget {_TIER_CHAOS_RETRIES})"),
        ("no tier dirs leaked", not leaks["tier"], f"{leaks['tier'] or 'clean'}"),
        ("no spill dirs leaked", not leaks["spill"],
         f"{leaks['spill'] or 'clean'}"),
    ]
    return rows, engine.obs, {"faults": engine.faults.fired_by_site()}


# -- driver ------------------------------------------------------------------


def cases(apps: list[str]) -> list[tuple]:
    """The case table: ``(name, trace file stem, case(args))`` rows."""
    return [
        *((f"sim:{app}", f"sim-{app}", functools.partial(sim_case, app=app))
          for app in apps),
        ("sched:kill-sd0", "sched", sched_case),
        *((f"dist:kill-shard:{app}", f"dist-{app}",
           functools.partial(dist_case, app=app)) for app in apps),
        ("dist:corrupt-artifact", "dist-corrupt-artifact", dist_corrupt_artifact_case),
        ("sched:flaky-heartbeat", "sched-flaky-heartbeat",
         sched_flaky_heartbeat_case),
        ("engine:wordcount", "engine", engine_case),
        ("tier:kill-writeback", "tier", tier_kill_writeback_case),
    ]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: one sim app, smaller engine input")
    ap.add_argument("--seed", type=int, default=7, help="fault plan seed")
    ap.add_argument("--trace", default=None, metavar="DIR",
                    help="export one Chrome trace per case into DIR")
    ap.add_argument("--dump-dir", default=os.environ.get("REPRO_BLACKBOX_DIR"),
                    metavar="DIR",
                    help="dump flight-recorder black boxes here on failure")
    ap.add_argument("--only", default=None, metavar="SUBSTR",
                    help="run only cases whose name contains SUBSTR")
    args = ap.parse_args(argv)

    table = cases(["wordcount"] if args.quick
                  else ["wordcount", "stringmatch", "matmul"])
    if args.only:
        table = [case for case in table if args.only in case[0]]
        if not table:
            print(f"chaos soak: no case matches --only {args.only!r}")
            return 2
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
    if args.dump_dir:
        # arm the recorder on every registry the cases create (the
        # testbeds build their own; the default covers them all)
        _flight.install_default()
    install_signal_cleanup()  # SIGTERM must not leak spill dirs either

    failures = 0
    dumped: list[str] = []
    for name, stem, case in table:
        print(f"== {name}")
        rows, obs, extra = case(args)
        print_rows(rows)
        if args.trace:
            write_chrome(obs, os.path.join(args.trace, f"chaos-{stem}.json"),
                         extra=extra)
        bad = failed(rows)
        failures += len(bad)
        if bad and args.dump_dir:
            dumped += _flight.dump_live(
                args.dump_dir,
                reason=f"chaos check failed: {name}: {', '.join(bad)}",
            )
    print()
    if failures:
        msg = f"chaos soak: {failures} check(s) FAILED"
        if dumped:
            msg += "\nblack boxes:\n" + "\n".join(f"  {p}" for p in dumped)
        print(msg)
        return 1
    print("chaos soak: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
