#!/usr/bin/env python3
"""Chaos soak: the fault-injection acceptance gate.

Usage:
    python tools/chaos_soak.py [--quick] [--seed N] [--trace DIR]
                               [--dump-dir DIR]

Runs every benchmark twice through the simulated cluster — once clean,
once with the standard fault plan installed — and the real streaming
engine the same way, then asserts the robustness contract:

* **byte-identical output**: the chaos run's pickled output equals the
  fault-free baseline's, app by app (faults may cost time, never
  answers);
* **full plan coverage**: every rule in the plan actually fired (a gate
  that silently stopped injecting proves nothing);
* **reproducible injection**: a second chaos run with the same seed
  produces the identical injection signature sequence;
* **bounded recovery**: attempts/retries stay inside the configured
  budgets — no unbounded retry storms;
* **no leaks** (engine): no spill directories left on disk and no worker
  processes left running after the engine closes.

``--quick`` runs one simulated app and a smaller engine input (the CI
smoke configuration); the default soaks wordcount, stringmatch and
matmul.  ``--trace DIR`` exports one Chrome trace per case, which
``tools/trace_view.py`` renders with a reliability-counter section.
``--dump-dir DIR`` (default: the ``REPRO_BLACKBOX_DIR`` environment
variable) arms the flight recorder on every registry the soak creates;
when a check fails, each live recorder's ring is dumped to DIR as a
JSONL black box and the paths are printed with the failure summary.

Exit status 0 iff every check passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import multiprocessing as mp
import os
import pickle
import sys
import tempfile

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from repro.apps.matmul import assemble_product, matmul_input  # noqa: E402
from repro.cluster import Testbed  # noqa: E402
from repro.config import table1_cluster  # noqa: E402
from repro.core import (  # noqa: E402
    DataJob,
    DistributedEngine,
    DistributedJob,
    FaultTolerantInvoker,
    SpeculationPolicy,
)
from repro.sched import ClusterScheduler  # noqa: E402
from repro.workloads import ArrivalProcess  # noqa: E402
from repro.exec import LocalMapReduce  # noqa: E402
from repro.exec.outofcore import install_signal_cleanup, live_spill_dirs  # noqa: E402
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
from repro.tier import TieredStore, live_tier_dirs  # noqa: E402
from repro.obs import flight as _flight  # noqa: E402
from repro.obs.export import write_chrome  # noqa: E402
from repro.units import MB  # noqa: E402
from repro.workloads import text_input  # noqa: E402


# -- simulated cluster cases -------------------------------------------------

#: per-attempt deadline for the chaos invoker (simulated seconds)
SIM_TIMEOUT = 60.0
#: same-target retries before failover
SIM_RETRIES = 2


def _sim_job(app: str, seed: int, quick: bool):
    """A fresh testbed with the app's input staged on both SD nodes."""
    bed = Testbed(config=table1_cluster(n_sd=2, seed=seed), seed=seed)
    if app == "matmul":
        n = 256 if quick else 512
        inp = matmul_input("/data/mm", n, payload_n=32, seed=seed)
        _sd, _host, sd_path = bed.stage_on_sd("mm", inp)
        bed.stage(bed.cluster.sd(1), sd_path, inp)
        job = DataJob(
            app="matmul", input_path=sd_path, input_size=inp.size,
            mode="parallel", params={"n": n},
        )
    else:
        size = MB(50) if quick else MB(200)
        inp = text_input("/data/f", size, payload_bytes=6_000, seed=seed)
        _sd, _host, sd_path = bed.stage_on_sd("f", inp)
        bed.stage(bed.cluster.sd(1), sd_path, inp)
        job = DataJob(
            app=app, input_path=sd_path, input_size=size, mode="parallel"
        )
    return bed, job


def _canonical(app: str, output: object) -> bytes:
    """The byte-comparable form of a job's answer.

    matmul's raw output is one (row_start, block) entry per map task, and
    the task count follows the executing node's core count — a failover
    to the host legitimately changes the blocking.  The *answer* is the
    assembled product matrix, so byte-identity is asserted on that; the
    text apps' outputs are already canonical.
    """
    if app == "matmul":
        return pickle.dumps(assemble_product(output))
    return pickle.dumps(output)


def _run_sim_once(app: str, seed: int, quick: bool, chaos: bool):
    bed, job = _sim_job(app, seed, quick)
    injector = bed.sim.install_faults(standard_plan(seed)) if chaos else None
    ft = FaultTolerantInvoker(bed.cluster, timeout=SIM_TIMEOUT, max_retries=SIM_RETRIES)

    def go():
        return (yield ft.run(job, replicas=["sd1"]))

    result = bed.run(go())
    return _canonical(app, result.output), injector, ft, bed


def sim_case(app: str, seed: int, quick: bool, trace_dir: str | None) -> list:
    """All gate checks for one simulated app; returns (check, ok, note) rows."""
    baseline, _, _, _ = _run_sim_once(app, seed, quick, chaos=False)
    output, injector, ft, bed = _run_sim_once(app, seed, quick, chaos=True)
    output2, injector2, _, _ = _run_sim_once(app, seed, quick, chaos=True)

    plan = standard_plan(seed)
    fired = injector.fired_by_site()
    # every rule's exact site should have seen at least one injection
    missing = [r.site for r in plan.rules if fired.get(r.site, 0) == 0]
    # FT invoker budget: (retries+1) per target (primary + 1 replica), +1 host
    attempt_budget = (SIM_RETRIES + 1) * 2 + 1

    if trace_dir:
        write_chrome(
            bed.sim.obs,
            os.path.join(trace_dir, f"chaos-sim-{app}.json"),
            extra={"faults": injector.fired_by_site()},
        )
    return [
        ("output identical", output == baseline,
         f"{len(baseline)} bytes"),
        ("all rules fired", not missing,
         f"fired {fired}" + (f", missing {missing}" if missing else "")),
        ("injection reproducible",
         injector.signatures() == injector2.signatures() and output2 == baseline,
         f"{injector.injections} injections"),
        ("retries bounded", ft.total_attempts <= attempt_budget,
         f"{ft.total_attempts} attempts <= {attempt_budget}"),
    ]


# -- scheduler case ----------------------------------------------------------

#: per-attempt deadline while a daemon may be dead (simulated seconds)
SCHED_TIMEOUT = 10.0


def _run_sched_once(seed: int, quick: bool, kill: bool):
    """One served stream on a 2-SD cluster; optionally kill sd0 mid-stream."""
    n_jobs = 12 if quick else 24
    rate = 2.0
    bed = Testbed(config=table1_cluster(n_sd=2, seed=seed), seed=seed)
    inp = text_input("/data/s", MB(20), payload_bytes=6_000, seed=seed)
    _, sd_path = bed.stage_replicated("s", inp)
    sched = ClusterScheduler(
        bed.cluster,
        attempt_timeout=SCHED_TIMEOUT,
        per_node_limit=1,
        max_queue=n_jobs + 1,
        max_retries=2,
        cache=None,
    )

    def factory(i: int) -> DataJob:
        return DataJob(
            app="wordcount", input_path=sd_path, input_size=inp.size,
            mode="parallel",
        )

    stream = ArrivalProcess.poisson(factory, rate=rate, n=n_jobs, seed=seed)
    drive = stream.drive(sched)
    kill_at = 0.5 * n_jobs / rate  # mid-stream
    if kill:

        def killer():
            yield bed.sim.timeout(kill_at)
            bed.cluster.sd_daemons["sd0"].kill()

        bed.sim.spawn(killer(), name="chaos.kill-sd0")
    report = bed.run(drive)
    return report, sched, bed, kill_at


def sched_case(seed: int, quick: bool, trace_dir: str | None) -> list:
    """Kill one of two SD nodes mid-stream; admitted jobs still complete.

    The contract mirrors the admission semantics: the control plane may
    refuse work only at admission (AdmissionError), so once the stream is
    admitted a dead daemon can cost time (deadline + re-queue on the
    surviving node or the host) but never answers.
    """
    clean, clean_sched, _, _ = _run_sched_once(seed, quick, kill=False)
    chaos, chaos_sched, bed, kill_at = _run_sched_once(seed, quick, kill=True)

    baseline = pickle.dumps(clean.completed[0][2].output)
    mismatched = [
        i for i, (_, _, res) in enumerate(chaos.completed)
        if pickle.dumps(res.output) != baseline
    ]
    survivors = {
        rec.where for rec in chaos_sched.completed
        if rec.dispatched_at >= kill_at and rec.where != "sd0"
    }

    if trace_dir:
        write_chrome(
            bed.sim.obs,
            os.path.join(trace_dir, "chaos-sched.json"),
            extra={"stats": chaos_sched.stats()},
        )
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    return [
        ("all admitted completed",
         not chaos.failed and chaos.admitted == len(chaos.completed),
         f"{len(chaos.completed)} completed, {len(chaos.failed)} failed, "
         f"{len(chaos.rejected)} rejected at admission"),
        ("outputs identical", not mismatched and len(chaos.completed) > 0,
         f"{len(chaos.completed)} outputs vs clean baseline"),
        ("dead node quarantined", "sd0" in chaos_sched.unhealthy,
         f"unhealthy={sorted(chaos_sched.unhealthy)}"),
        ("work re-routed", bool(survivors),
         f"post-kill completions on {sorted(survivors) or 'nothing'}"),
        ("recovery bounded",
         counters.get("sched.requeued", 0) <= chaos.admitted * 3,
         f"{int(counters.get('sched.requeued', 0))} requeues, "
         f"{int(counters.get('sched.attempt_failures', 0))} failed attempts"),
        ("clean run untouched",
         not clean.failed and not clean.rejected
         and not clean_sched.unhealthy,
         f"{len(clean.completed)} clean completions"),
    ]


# -- distributed case --------------------------------------------------------

#: per-attempt deadline while a shard's daemon may be dead (simulated s)
DIST_TIMEOUT = 5.0


def _dist_canonical(app: str, output: object) -> bytes:
    """Like :func:`_canonical`, tolerant of nested identity-merged pairs.

    A distributed matmul merge concatenates per-shard identity merges, so
    the (row_start, block) pairs may arrive one list level deeper than
    the single-node output; flatten before assembling the product.
    """
    if app != "matmul":
        return pickle.dumps(output)
    pairs: list = []

    def walk(x: object) -> None:
        if isinstance(x, tuple) and len(x) == 2:
            pairs.append(x)
        elif isinstance(x, list):
            for y in x:
                walk(y)

    walk(output)
    return pickle.dumps(assemble_product(pairs))


def _dist_job(app: str, seed: int, quick: bool):
    """A fresh 4-SD testbed with the input replicated on every node."""
    bed = Testbed(config=table1_cluster(n_sd=4, seed=seed), seed=seed)
    if app == "matmul":
        n = 256 if quick else 512
        inp = matmul_input("/data/dmm", n, payload_n=32, seed=seed)
        frag, params = None, {"n": n}
    else:
        size = MB(40) if quick else MB(100)
        inp = text_input("/data/df", size, payload_bytes=6_000, seed=seed)
        frag, params = (inp.size + 3) // 4, {}
    _, sd_path = bed.stage_replicated(f"d-{app}", inp)
    job = DistributedJob(
        app=app, input_path=sd_path, input_size=inp.size,
        fragment_bytes=frag, params=params,
    )
    return bed, job


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


def dist_case(app: str, seed: int, quick: bool, trace_dir: str | None) -> list:
    """Kill one shard's SD node mid-shuffle; the job recovers in place.

    Three runs: a clean one (the byte-identity baseline, which also
    records when the map phase ends and which node hosts the merge), a
    kill run where the merge node's daemon dies just as the exchange
    begins (the engine must detect it by deadline and re-derive ONLY the
    dead daemon's work — its committed map artifact stays host-readable
    on the SD disk, so nothing is re-mapped: a partial restart, not a
    second attempt), and a shuffle-fault run under
    :func:`distributed_chaos_plan` (every transfer fault must be
    absorbed by the bounded in-place retry — no restart at all).
    """
    bed, job = _dist_job(app, seed, quick)
    eng = DistributedEngine(bed.cluster)
    clean = bed.run(eng.run(job, timeout=SIM_TIMEOUT))
    baseline = _dist_canonical(app, clean.output)
    victim = clean.merge_node
    kill_at = clean.timeline["map_done"] + 1e-3

    bed, job = _dist_job(app, seed, quick)
    eng = DistributedEngine(bed.cluster)

    def killer():
        yield bed.sim.timeout(kill_at)
        bed.cluster.sd_daemons[victim].kill()

    bed.sim.spawn(killer(), name=f"chaos.kill-{victim}")
    chaos = bed.run(eng.run(job, timeout=DIST_TIMEOUT))
    output = _dist_canonical(app, chaos.output)
    stale = _stale_shuffle_dirs(bed, chaos.job_id)

    bed2, job2 = _dist_job(app, seed, quick)
    injector = bed2.sim.install_faults(distributed_chaos_plan(seed))
    eng2 = DistributedEngine(bed2.cluster)
    absorbed = bed2.run(eng2.run(job2, timeout=SIM_TIMEOUT))
    fired = injector.fired_by_site()
    plan = distributed_chaos_plan(seed)

    if trace_dir:
        write_chrome(
            bed.sim.obs,
            os.path.join(trace_dir, f"chaos-dist-{app}.json"),
            extra={"killed": victim, "kill_at": kill_at},
        )
    return [
        ("output identical", output == baseline,
         f"{len(baseline)} bytes after killing {victim} at "
         f"t={kill_at:.3f}s"),
        ("partial restart, same attempt",
         chaos.attempts == 1 and eng.partial_restarts >= 1
         and eng.full_restarts == 0
         and chaos.merge_node != victim,
         f"{chaos.attempts} attempt(s), {eng.partial_restarts} partial / "
         f"{eng.full_restarts} full restarts, merge moved to "
         f"{chaos.merge_node}"),
        ("dead node's artifacts reused, no re-map",
         victim in chaos.shard_nodes
         and bed.sim.obs.metrics.snapshot()["counters"].get(
             "dist.invoke.map", 0) == chaos.n_shards,
         f"{chaos.n_shards} map invokes for {chaos.n_shards} shards, "
         f"artifacts on {list(chaos.shard_nodes)}"),
        ("recovery bounded", chaos.attempts <= eng.max_attempts,
         f"{chaos.attempts} attempts <= {eng.max_attempts}"),
        ("no shuffle dirs leaked", not stale, f"{stale or 'clean'}"),
        ("shuffle faults absorbed in place",
         eng2.restarts == 0
         and _dist_canonical(app, absorbed.output) == baseline
         and injector.injections >= len(plan.rules),
         f"fired {fired}, {eng2.restarts} restarts"),
    ]


def dist_kill_exchange_case(
    seed: int, quick: bool, trace_dir: str | None
) -> list:
    """Kill a reduce owner mid-exchange; replay reuses surviving artifacts.

    Two recovery modes over the same fault: the partial-restart engine
    must finish in ONE attempt with zero full restarts, and a corrupted
    write under :func:`recovery_chaos_plan` must be caught by the frame
    crc and repaired by rebuilding exactly one artifact (deduping every
    surviving transfer on replay).  The legacy engine
    (``partial_restart=False``) burns a whole attempt on the same kill —
    and must clean the failed attempt's shuffle dirs once the retry
    commits.
    """
    app = "wordcount"
    bed, job = _dist_job(app, seed, quick)
    eng = DistributedEngine(bed.cluster)
    clean = bed.run(eng.run(job, timeout=SIM_TIMEOUT))
    baseline = _dist_canonical(app, clean.output)
    victims = [
        n for n in clean.reduce_nodes.values() if n != clean.merge_node
    ]
    victim = victims[0] if victims else clean.merge_node
    kill_at = (
        clean.timeline["map_done"] + clean.timeline["exchange_done"]
    ) / 2

    def killer(bed, victim, at):
        def go():
            yield bed.sim.timeout(at)
            bed.cluster.sd_daemons[victim].kill()
        return go()

    bed, job = _dist_job(app, seed, quick)
    eng = DistributedEngine(bed.cluster)
    bed.sim.spawn(killer(bed, victim, kill_at), name=f"chaos.kill-{victim}")
    chaos = bed.run(eng.run(job, timeout=DIST_TIMEOUT))
    stale = _stale_shuffle_dirs(bed, chaos.job_id)

    # corrupted artifact: persistent on-disk damage, repaired in place
    bed2, job2 = _dist_job(app, seed, quick)
    injector = bed2.sim.install_faults(recovery_chaos_plan(seed))
    eng2 = DistributedEngine(bed2.cluster)
    repaired = bed2.run(eng2.run(job2, timeout=SIM_TIMEOUT))

    # legacy mode: the same kill costs a whole attempt, then cleanup
    bed3, job3 = _dist_job(app, seed, quick)
    eng3 = DistributedEngine(bed3.cluster, partial_restart=False)
    bed3.sim.spawn(killer(bed3, victim, kill_at), name=f"chaos.kill-{victim}")
    legacy = bed3.run(eng3.run(job3, timeout=DIST_TIMEOUT))
    legacy_stale = _stale_shuffle_dirs(bed3, legacy.job_id)

    if trace_dir:
        write_chrome(
            bed.sim.obs,
            os.path.join(trace_dir, "chaos-dist-kill-exchange.json"),
            extra={"killed": victim, "kill_at": kill_at},
        )
    return [
        ("output identical",
         _dist_canonical(app, chaos.output) == baseline,
         f"{len(baseline)} bytes after killing {victim} at "
         f"t={kill_at:.3f}s"),
        ("partial restart, same attempt",
         chaos.attempts == 1 and eng.partial_restarts >= 1
         and eng.full_restarts == 0
         and victim not in chaos.reduce_nodes.values()
         and chaos.merge_node != victim
         and victim in chaos.shard_nodes,
         f"{chaos.attempts} attempt(s), {eng.partial_restarts} partial "
         f"restarts, dead mapper's artifact reused, reduce moved to "
         f"{sorted(set(chaos.reduce_nodes.values()))}"),
        ("corrupt artifact repaired in place",
         _dist_canonical(app, repaired.output) == baseline
         and repaired.attempts == 1 and eng2.full_restarts == 0
         and eng2.partial_restarts >= 1
         and repaired.recovery["dedup_transfers"] >= 1
         and injector.fired_by_site().get("shuffle.artifact", 0) >= 1,
         f"{eng2.partial_restarts} partial restarts, "
         f"{repaired.recovery['dedup_transfers']} transfers deduped"),
        ("legacy mode still restarts whole job",
         _dist_canonical(app, legacy.output) == baseline
         and legacy.attempts == 2 and eng3.full_restarts == 1,
         f"{legacy.attempts} attempts, {eng3.full_restarts} full restarts"),
        ("no shuffle dirs leaked", not stale and not legacy_stale,
         f"{(stale + legacy_stale) or 'clean'}"),
    ]


def dist_straggler_case(seed: int, quick: bool, trace_dir: str | None) -> list:
    """Stall one map dispatch; speculation outruns the straggler."""
    app = "wordcount"
    bed, job = _dist_job(app, seed, quick)
    eng = DistributedEngine(bed.cluster)
    clean = bed.run(eng.run(job, timeout=SIM_TIMEOUT))
    baseline = _dist_canonical(app, clean.output)
    victim = clean.shard_nodes[0]
    stall = max(4.0 * clean.timeline["map_done"], 1.0)

    bed, job = _dist_job(app, seed, quick)
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("fam.dispatch", action="delay", count=1, delay=stall,
                  where={"module": "dist_map", "node": victim}),
    ), seed=seed))
    eng = DistributedEngine(
        bed.cluster,
        speculation=SpeculationPolicy(multiplier=1.3, min_wait=0.02),
    )
    chaos = bed.run(eng.run(job, timeout=SIM_TIMEOUT))
    spec = chaos.recovery["speculation"]

    if trace_dir:
        write_chrome(
            bed.sim.obs,
            os.path.join(trace_dir, "chaos-dist-straggler.json"),
            extra={"victim": victim, "stall": stall},
        )
    return [
        ("output identical",
         _dist_canonical(app, chaos.output) == baseline,
         f"{len(baseline)} bytes with {victim} stalled {stall:.2f}s"),
        ("speculation launched and won",
         spec["launched"] >= 1 and spec["won"] >= 1,
         f"launched {spec['launched']}, won {spec['won']}, "
         f"cancelled {spec['cancelled']}"),
        ("no restarts", chaos.attempts == 1 and eng.restarts == 0,
         f"{chaos.attempts} attempt(s), {eng.restarts} restarts"),
        ("straggler off the critical path",
         chaos.elapsed < clean.elapsed + stall,
         f"{chaos.elapsed:.3f}s vs clean {clean.elapsed:.3f}s + "
         f"stall {stall:.2f}s"),
    ]


def sched_flaky_heartbeat_case(
    seed: int, quick: bool, trace_dir: str | None
) -> list:
    """Drop one node's heartbeats for a window; it must quarantine AND
    rejoin through probation, completing work again after the window.

    The daemon stays alive the whole time — only its pings vanish — so
    this is the failure detector's false-positive path: the node is
    pulled from dispatch on suspicion alone, then earns its way back in
    once beats resume, with every admitted job still completing
    byte-identically.
    """
    n_jobs = 20
    rate = 2.0
    drop_window = (3.0, 9.0)
    bed = Testbed(config=table1_cluster(n_sd=2, seed=seed), seed=seed)
    inp = text_input("/data/s", MB(20), payload_bytes=6_000, seed=seed)
    _, sd_path = bed.stage_replicated("s", inp)
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("heartbeat.drop", action="drop",
                  where={"node": "sd0"}, window=drop_window),
    ), seed=seed))
    sched = ClusterScheduler(
        bed.cluster,
        attempt_timeout=SCHED_TIMEOUT,
        per_node_limit=1,
        max_queue=n_jobs + 1,
        cache=None,
        heartbeat=True,
    )

    def factory(i: int) -> DataJob:
        return DataJob(
            app="wordcount", input_path=sd_path, input_size=inp.size,
            mode="parallel",
        )

    stream = ArrivalProcess.poisson(factory, rate=rate, n=n_jobs, seed=seed)

    def scenario():
        report = yield stream.drive(sched)
        # the stream may drain before the probation window opens: wait for
        # beats to resume, then hand the rejoining node its canary job
        for _ in range(80):
            if sched.health.state["sd0"] != "quarantined":
                break
            yield bed.sim.timeout(0.25)
        canary = factory(-1)
        canary = dataclasses.replace(canary, sd_node="sd0")
        yield sched.submit(canary)
        return report

    report = bed.run(scenario())

    baseline = pickle.dumps(report.completed[0][2].output)
    mismatched = [
        i for i, (_, _, res) in enumerate(report.completed)
        if pickle.dumps(res.output) != baseline
    ]
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    rejoined_work = [
        rec for rec in sched.completed
        if rec.where == "sd0" and rec.dispatched_at >= drop_window[1]
    ]

    if trace_dir:
        write_chrome(
            bed.sim.obs,
            os.path.join(trace_dir, "chaos-sched-flaky-heartbeat.json"),
            extra={"stats": sched.stats()},
        )
    return [
        ("all admitted completed",
         not report.failed and report.admitted == len(report.completed),
         f"{len(report.completed)} completed, {len(report.failed)} failed"),
        ("outputs identical", not mismatched and len(report.completed) > 0,
         f"{len(report.completed)} outputs vs first completion"),
        ("flaky node quarantined",
         counters.get("node.quarantined", 0) >= 1,
         f"{int(counters.get('node.quarantined', 0))} quarantines, "
         f"{int(counters.get('node.suspected', 0))} suspicions"),
        ("node rejoined via probation",
         counters.get("node.probation", 0) >= 1
         and counters.get("node.rejoined", 0) >= 1,
         f"{int(counters.get('node.probation', 0))} probations, "
         f"{int(counters.get('node.rejoined', 0))} rejoins"),
        ("rejoined node completed work",
         bool(rejoined_work),
         f"{len(rejoined_work)} completions on sd0 after "
         f"t={drop_window[1]:.1f}s"),
        ("ends healthy", sched.stats()["node_states"].get("sd0") == "healthy",
         f"states {sched.stats()['node_states']}"),
    ]


# -- real-engine case --------------------------------------------------------


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


def _run_engine_once(path: str, seed: int, chaos: bool, trace: bool):
    obs = Observability(enabled=trace)
    engine = LocalMapReduce(
        _wc_map,
        combine_fn=_wc_combine,
        n_workers=2,
        memory_budget=128 * 1024,
        obs=obs,
        faults=standard_engine_plan(seed) if chaos else None,
    )
    try:
        result = engine.run(path, chunk_bytes=32 * 1024)
    finally:
        engine.close()
    return pickle.dumps(result.output), engine, result


def engine_case(seed: int, quick: bool, trace_dir: str | None) -> list:
    """All gate checks for the real out-of-core engine under chaos."""
    install_signal_cleanup()  # SIGTERM must not leak spill dirs either
    with tempfile.TemporaryDirectory(prefix="chaos-soak-") as tmpdir:
        path = _make_engine_input(tmpdir, quick)
        baseline, _, base_res = _run_engine_once(path, seed, chaos=False, trace=False)
        output, engine, res = _run_engine_once(
            path, seed, chaos=True, trace=bool(trace_dir)
        )
        output2, engine2, _ = _run_engine_once(path, seed, chaos=True, trace=False)

        fired = engine.faults.fired_by_site()
        plan = standard_engine_plan(seed)
        missing = [r.site for r in plan.rules if fired.get(r.site, 0) == 0]
        counters = engine.obs.metrics.snapshot()["counters"]
        leftover = live_spill_dirs() + glob.glob(
            os.path.join(tempfile.gettempdir(), "localmr-spill-*")
        )
        children = mp.active_children()

        if trace_dir:
            write_chrome(
                engine.obs,
                os.path.join(trace_dir, "chaos-engine.json"),
                extra={"faults": fired},
            )
        return [
            ("output identical", output == baseline,
             f"{len(baseline)} bytes, {base_res.n_fragments} fragments"),
            ("all rules fired", not missing,
             f"fired {fired}" + (f", missing {missing}" if missing else "")),
            ("worker respawned", engine.pool.respawns >= 1,
             f"{engine.pool.respawns} respawns"),
            ("fragment recomputed", counters.get("localmr.recompute", 0) >= 1,
             f"{counters.get('localmr.recompute', 0)} recomputes"),
            ("injection reproducible",
             engine.faults.signatures() == engine2.faults.signatures()
             and output2 == baseline,
             f"{engine.faults.injections} injections"),
            ("retries bounded",
             engine.pool.redispatches <= engine.pool.max_task_retries
             * (res.n_chunks + 1),
             f"{engine.pool.redispatches} redispatches"),
            ("no spill dirs leaked", not leftover, f"{leftover or 'clean'}"),
            ("no worker processes leaked", not children,
             f"{[c.pid for c in children] or 'clean'}"),
        ]


# -- tier case ---------------------------------------------------------------

#: chaos tier sized against the ~16 KB runs the wordcount input spills:
#: one run of mem (every admit demotes its predecessor) and seven runs
#: of SSD for the 8-run workload (capacity eviction fires, but enough
#: runs stay resident that every tier.read rule reaches its firing
#: index during the merge's warm reads)
_TIER_CHAOS_MEM = 20 * 1024
_TIER_CHAOS_SSD = 112 * 1024
#: smaller fragments than the engine case -> ~6 runs even in --quick,
#: enough warm reads for every tier.read rule to reach its firing index
_TIER_CHAOS_BUDGET = 48 * 1024
_TIER_CHAOS_CHUNK = 16 * 1024
#: each disruption class (lost run, degraded read, corrupt read) can
#: cost one merge attempt, so the stacked plan needs a deeper budget
#: than the engine default
_TIER_CHAOS_RETRIES = 4


def _run_tier_once(path: str, seed: int, chaos: bool, trace: bool,
                   background: bool = False):
    """One out-of-core run through a deliberately tiny burst buffer.

    The store and the engine share one injector, so ``tier.*`` and
    engine-side sites draw from the same plan.  ``background`` enables
    the real write-back drain thread; the deterministic (synchronous)
    variant is what the coverage and reproducibility checks run on,
    because a background drain interleaves its fault decisions with the
    engine thread's and the injection order stops being a pure function
    of the seed.
    """
    obs = Observability(enabled=trace)
    inj = FaultInjector(tier_chaos_plan(seed), obs=obs) if chaos else None
    store = TieredStore(
        _TIER_CHAOS_MEM, _TIER_CHAOS_SSD,
        obs=obs, faults=inj, writeback=background, name="chaos-tier",
    )
    engine = LocalMapReduce(
        _wc_map,
        combine_fn=_wc_combine,
        n_workers=2,
        memory_budget=_TIER_CHAOS_BUDGET,
        obs=obs,
        faults=inj,
        tier=store,
        readahead=1,
        spill_retries=_TIER_CHAOS_RETRIES,
    )
    tier_dir = store.ssd_dir
    try:
        result = engine.run(path, chunk_bytes=_TIER_CHAOS_CHUNK)
    finally:
        engine.close()
        store.close()
    return pickle.dumps(result.output), engine, result, tier_dir


def tier_kill_writeback_case(seed: int, quick: bool, trace_dir: str | None) -> list:
    """Kill write-backs, degrade and corrupt warm reads, wedge an eviction.

    The burst buffer's contract under fire: every entry the tier loses
    (dropped write-back, degraded read, capacity eviction racing the
    merge) degrades to a recompute from the durable input file, and a
    corrupted warm read is caught by the spill framing's crc — so the
    output stays byte-identical to a tier-less run and no tier directory
    survives ``close()``.  Loss costs time, never answers.
    """
    install_signal_cleanup()
    with tempfile.TemporaryDirectory(prefix="chaos-soak-") as tmpdir:
        path = _make_engine_input(tmpdir, quick)
        baseline, _, base_res, _ = _run_tier_once(
            path, seed, chaos=False, trace=False,
        )
        output, engine, res, tier_dir = _run_tier_once(
            path, seed, chaos=True, trace=bool(trace_dir),
        )
        output2, engine2, _, _ = _run_tier_once(
            path, seed, chaos=True, trace=False,
        )
        # the real background drain thread, gated on the answer and the
        # leak check only (its injection interleaving is not seeded)
        output_bg, _, _, tier_dir_bg = _run_tier_once(
            path, seed, chaos=True, trace=False, background=True,
        )

        fired = engine.faults.fired_by_site()
        plan = tier_chaos_plan(seed)
        want = {(r.site, r.action) for r in plan.rules}
        actions = {(sig[1], sig[2]) for sig in engine.faults.signatures()}
        missing = sorted(f"{s}:{a}" for s, a in want - actions)
        counters = engine.obs.metrics.snapshot()["counters"]
        leftover_tiers = live_tier_dirs() + [
            d for d in (tier_dir, tier_dir_bg) if os.path.isdir(d)
        ]
        leftover_spills = live_spill_dirs() + glob.glob(
            os.path.join(tempfile.gettempdir(), "localmr-spill-*")
        )

        if trace_dir:
            write_chrome(
                engine.obs,
                os.path.join(trace_dir, "chaos-tier.json"),
                extra={"faults": fired},
            )
        return [
            ("output identical", output == baseline,
             f"{len(baseline)} bytes, {res.n_fragments} runs through the tier"),
            ("background drain identical", output_bg == baseline,
             "write-back thread on"),
            ("all rules fired", not missing,
             f"fired {fired}" + (f", missing {missing}" if missing else "")),
            ("lost write-back recomputed",
             counters.get("tier.writeback.lost", 0) >= 1
             and counters.get("tier.spill.lost", 0) >= 1
             and counters.get("localmr.recompute", 0) >= 1,
             f"{int(counters.get('tier.writeback.lost', 0))} lost, "
             f"{int(counters.get('tier.spill.lost', 0))} found by sweep, "
             f"{int(counters.get('localmr.recompute', 0))} recomputes"),
            ("eviction pressure exercised",
             counters.get("tier.evict.stuck", 0) >= 1
             and counters.get("tier.demote", 0) >= 1,
             f"{int(counters.get('tier.evict.stuck', 0))} wedged, "
             f"{int(counters.get('tier.evict.capacity', 0))} evicted, "
             f"{int(counters.get('tier.demote', 0))} demoted"),
            ("injection reproducible",
             engine.faults.signatures() == engine2.faults.signatures()
             and output2 == baseline,
             f"{engine.faults.injections} injections"),
            ("retries bounded",
             counters.get("retry.spill_merge", 0) <= _TIER_CHAOS_RETRIES,
             f"{int(counters.get('retry.spill_merge', 0))} merge retries "
             f"(budget {_TIER_CHAOS_RETRIES})"),
            ("no tier dirs leaked", not leftover_tiers,
             f"{leftover_tiers or 'clean'}"),
            ("no spill dirs leaked", not leftover_spills,
             f"{leftover_spills or 'clean'}"),
        ]


# -- driver ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: one sim app, smaller engine input")
    ap.add_argument("--seed", type=int, default=7, help="fault plan seed")
    ap.add_argument("--trace", default=None, metavar="DIR",
                    help="export one Chrome trace per case into DIR")
    ap.add_argument("--dump-dir", default=os.environ.get("REPRO_BLACKBOX_DIR"),
                    metavar="DIR",
                    help="dump flight-recorder black boxes here on failure")
    ap.add_argument("--only", default=None, metavar="SUBSTR",
                    help="run only cases whose name contains SUBSTR")
    args = ap.parse_args(argv)

    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
    if args.dump_dir:
        # arm the recorder on every registry the cases create (the
        # testbeds build their own; the default covers them all)
        _flight.install_default()

    apps = ["wordcount"] if args.quick else ["wordcount", "stringmatch", "matmul"]
    cases = [
        (f"sim:{app}", lambda app=app: sim_case(app, args.seed, args.quick, args.trace))
        for app in apps
    ]
    cases.append(("sched:kill-sd0",
                  lambda: sched_case(args.seed, args.quick, args.trace)))
    cases += [
        (f"dist:kill-shard:{app}",
         lambda app=app: dist_case(app, args.seed, args.quick, args.trace))
        for app in apps
    ]
    cases.append(("dist:kill-exchange",
                  lambda: dist_kill_exchange_case(
                      args.seed, args.quick, args.trace)))
    cases.append(("dist:straggler",
                  lambda: dist_straggler_case(
                      args.seed, args.quick, args.trace)))
    cases.append(("sched:flaky-heartbeat",
                  lambda: sched_flaky_heartbeat_case(
                      args.seed, args.quick, args.trace)))
    cases.append(("engine:wordcount",
                  lambda: engine_case(args.seed, args.quick, args.trace)))
    cases.append(("tier:kill-writeback",
                  lambda: tier_kill_writeback_case(
                      args.seed, args.quick, args.trace)))
    if args.only:
        cases = [(name, run) for name, run in cases if args.only in name]
        if not cases:
            print(f"chaos soak: no case matches --only {args.only!r}")
            return 2

    failures = 0
    dumped: list[str] = []
    for name, run in cases:
        print(f"== {name}")
        case_failed = []
        for check, ok, note in run():
            status = "ok  " if ok else "FAIL"
            print(f"  [{status}] {check:<28} {note}")
            if not ok:
                failures += 1
                case_failed.append(check)
        if case_failed and args.dump_dir:
            dumped += _flight.dump_live(
                args.dump_dir,
                reason=f"chaos check failed: {name}: {', '.join(case_failed)}",
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
