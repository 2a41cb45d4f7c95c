"""Distributed single-job benchmark: one job sharded across N SD replicas.

Two cases, both in simulated time (deterministic, seconds of wall clock):

* **scaling** — the same single wordcount job run distributed over 1, 2
  and 4 SD replicas of the input (``Testbed.stage_replicated``), with the
  fragment plan held fixed across runs so every configuration processes
  the identical global fragment grid.  The gate demands near-linear
  scaling: >= 1.6x at 2 shards and >= 2.5x at 4 shards over the 1-shard
  distributed run.  The 1-shard run is also compared against the plain
  single-node partitioned engine — the distributed plane's overhead at
  width 1 must stay under 5%.
* **identity** — wordcount, stringmatch and matmul run distributed at
  1, 2 and 4 shards; every output must be byte-identical to the
  single-node partitioned run of the same job (matmul compared on the
  assembled product matrix, whose blocking is the same global task grid
  by construction).
* **recovery** — a reduce-owning node is killed mid-exchange at 4
  shards.  The output must be byte-identical, the job must recover by
  partial restart, and the time from the kill to the job's end, less
  the one invoke deadline that detects the death, must be <= 0.5x the
  clean run.  A second scenario kills and revives an SD daemon under a
  heartbeat-enabled ``ClusterScheduler`` and proves the node rejoins
  through probation and serves a canary job again.

``run_suite`` returns the JSON payload for ``tools/perf_gate.py
--distributed`` and ``checks`` judges it (gates architectural, so they
hold in ``--quick`` too).
"""

from __future__ import annotations

import math

from benchmarks.checks import GATE, OUTPUT, canonical_output
from repro.apps.matmul import matmul_input
from repro.cluster.testbed import Testbed
from repro.config import table1_cluster
from repro.core import DataJob, DistributedEngine, DistributedJob, OffloadEngine
from repro.core.loadbalance import Placement
from repro.sched.health import HEALTHY
from repro.units import MB
from repro.workloads import text_input

__all__ = [
    "SCALE_GATES",
    "WIDTH1_OVERHEAD_GATE",
    "RECOVERY_GATE",
    "run_suite",
    "checks",
]

#: n_shards -> minimum speedup over the 1-shard distributed run
SCALE_GATES = {2: 1.6, 4: 2.5}
#: the 1-shard distributed run may cost at most this fraction over the
#: plain single-node partitioned engine (the plane's fixed overhead)
WIDTH1_OVERHEAD_GATE = 0.05
#: after one mid-exchange node kill at 4 shards, kill -> done minus the
#: detecting deadline may be at most this fraction of the clean run
RECOVERY_GATE = 0.5

#: generous per-job deadline for runs where nothing dies
_TIMEOUT = 3600.0
#: invoke deadline when a daemon is killed: the death's only signal
_KILL_DEADLINE = 5.0


def _inputs(app: str, quick: bool):
    """(factory, size, fragment_bytes, mode, params) for one app."""
    if app == "matmul":
        n = 256 if quick else 512
        factory = lambda: matmul_input("/data/dist", n, payload_n=32, seed=3)
        return factory, factory().size, None, "parallel", {"n": n}
    size = MB(100) if quick else MB(200)
    factory = lambda: text_input("/data/dist", size, payload_bytes=6_000, seed=7)
    # fixed fragment plan: the 4-shard grid, identical in every run
    return factory, size, math.ceil(size / 4), "partitioned", {}


def _staged(app: str, quick: bool, n_sd: int):
    """A fresh ``n_sd``-SD cluster with the app's input on every node:
    ``(bed, input, sd_path, fragment_bytes, mode, params)``."""
    factory, _, frag, mode, params = _inputs(app, quick)
    bed = Testbed(config=table1_cluster(n_sd=n_sd, seed=0), seed=0)
    inp = factory()
    _, sd_path = bed.stage_replicated("dist", inp)
    return bed, inp, sd_path, frag, mode, params


def _run_single(app: str, quick: bool):
    """The single-node partitioned baseline on a 1-SD cluster."""
    bed, inp, sd_path, frag, mode, params = _staged(app, quick, 1)
    job = DataJob(
        app=app, input_path=sd_path, input_size=inp.size, mode=mode,
        fragment_bytes=frag, params=params,
    )
    eng = OffloadEngine(bed.cluster)
    placement = Placement(node=bed.sd.name, offload=True, reason="bench")
    return bed.run(eng.run(job, placement))


def _run_dist(app: str, quick: bool, n_shards: int, kill=None, **engine_kw):
    """One distributed run at the given width on a fresh 4-SD cluster.

    ``kill`` is ``(node, at)``: that node's daemon dies at simulated time
    ``at``, and the invoke deadline drops to ``_KILL_DEADLINE`` so the
    death is detected.  Returns ``(result, engine)``.
    """
    bed, inp, sd_path, frag, _, params = _staged(app, quick, 4)
    job = DistributedJob(
        app=app, input_path=sd_path, input_size=inp.size,
        n_shards=n_shards, fragment_bytes=frag, params=params,
    )
    eng = DistributedEngine(bed.cluster, **engine_kw)
    if kill is not None:
        node, at = kill

        def killer():
            yield bed.sim.timeout(at)
            bed.cluster.sd_daemons[node].kill()

        bed.sim.spawn(killer(), name=f"bench.kill-{node}")
    timeout = _TIMEOUT if kill is None else _KILL_DEADLINE
    return bed.run(eng.run(job, timeout=timeout)), eng


# -- scaling ------------------------------------------------------------------


def scaling_case(quick: bool = False) -> dict:
    """One wordcount job, distributed over 1/2/4 SD replicas."""
    _, size, frag, _, _ = _inputs("wordcount", quick)
    single = _run_single("wordcount", quick)
    canon = canonical_output("wordcount", single.output)

    runs = []
    base_s = None
    for n in (1, 2, 4):
        res, _ = _run_dist("wordcount", quick, n)
        if base_s is None:
            base_s = res.elapsed
        speedup = base_s / res.elapsed if res.elapsed > 0 else 0.0
        runs.append({
            "n_shards": n,
            "shard_nodes": list(res.shard_nodes),
            "elapsed_s": round(res.elapsed, 4),
            "speedup_vs_x1": round(speedup, 3),
            "shuffle_bytes": res.shuffle_bytes,
            "shuffle_transfers": res.shuffle_transfers,
            "n_partitions": res.n_partitions,
            "merge_node": res.merge_node,
            "identical": canonical_output("wordcount", res.output) == canon,
        })
    overhead = (base_s - single.elapsed) / single.elapsed if single.elapsed else 0.0
    return {
        "input_mb": size // MB(1),
        "fragment_kib": None if frag is None else frag // 1024,
        "single_node_s": round(single.elapsed, 4),
        "width1_overhead": round(overhead, 4),
        "width1_overhead_gate": WIDTH1_OVERHEAD_GATE,
        "runs": runs,
        "gates": {str(k): v for k, v in SCALE_GATES.items()},
    }


# -- identity -----------------------------------------------------------------


def identity_case(quick: bool = False) -> dict:
    """Every app, every width: distributed output == single-node output."""
    rows = []
    for app in ("wordcount", "stringmatch", "matmul"):
        single = _run_single(app, quick)
        canon = canonical_output(app, single.output)
        for n in (1, 2, 4):
            res, _ = _run_dist(app, quick, n)
            rows.append({
                "app": app,
                "n_shards": n,
                "elapsed_s": round(res.elapsed, 4),
                "shuffle_bytes": res.shuffle_bytes,
                "identical": canonical_output(app, res.output) == canon,
            })
    return {"rows": rows}


# -- recovery -----------------------------------------------------------------


def _rejoin_demo() -> dict:
    """Kill a daemon under a heartbeat scheduler, revive it, and prove it
    rejoins through probation and serves a canary job again."""
    from repro.core.loadbalance import AlwaysOffloadPolicy
    from repro.sched import ClusterScheduler
    from repro.sched.health import PROBATION, QUARANTINED

    bed = Testbed(config=table1_cluster(n_sd=2, seed=0), seed=0)
    inp = text_input("/data/rejoin", MB(20), payload_bytes=6_000, seed=5)
    _, sd_path = bed.stage_replicated("rejoin", inp)
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(), cache=None,
        attempt_timeout=30.0, heartbeat=True,
    )
    timeline: dict[str, float] = {}

    def driver():
        yield bed.sim.timeout(2.0)
        bed.cluster.sd_daemons["sd0"].kill()
        for _ in range(200):
            if sched.health.state["sd0"] == QUARANTINED:
                break
            yield bed.sim.timeout(0.25)
        else:
            return None
        timeline["quarantined_at"] = bed.sim.now
        bed.cluster.sd_daemons["sd0"].revive()
        for _ in range(200):
            if sched.health.state["sd0"] == PROBATION:
                break
            yield bed.sim.timeout(0.25)
        else:
            return None
        timeline["probation_at"] = bed.sim.now
        # the canary: one job pinned to the rejoining node
        job = DataJob(
            app="wordcount", input_path=sd_path, input_size=inp.size,
            mode="parallel", sd_node="sd0",
        )
        res = yield sched.submit(job)
        timeline["canary_done_at"] = bed.sim.now
        return res

    res = bed.run(driver())
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    return {
        "node": "sd0",
        "quarantined_at_s": round(timeline.get("quarantined_at", -1.0), 3),
        "probation_at_s": round(timeline.get("probation_at", -1.0), 3),
        "canary_done_at_s": round(timeline.get("canary_done_at", -1.0), 3),
        "canary_node": res.where if res is not None else None,
        "final_state": sched.health.state["sd0"],
        "quarantines": int(counters.get("node.quarantined", 0)),
        "rejoins": int(counters.get("node.rejoined", 0)),
    }


def recovery_case(quick: bool = False) -> dict:
    """One node dies mid-exchange at 4 shards: byte-identical output by
    partial restart, with kill -> done less the detecting deadline <=
    ``RECOVERY_GATE`` of the clean run; plus the heartbeat quarantine ->
    probation -> rejoin demonstration."""
    clean, _ = _run_dist("wordcount", quick, 4)
    canon = canonical_output("wordcount", clean.output)
    # a reduce owner that is not the merge node: its partition must be
    # re-reduced on a survivor, so the engine does real recovery work
    owners = [n for n in clean.reduce_nodes.values() if n != clean.merge_node]
    victim = owners[0] if owners else clean.merge_node
    kill_at = (clean.timeline["map_done"] + clean.timeline["exchange_done"]) / 2
    res, eng = _run_dist("wordcount", quick, 4, (victim, kill_at))
    detect = min(f["at"] for f in res.recovery["failures"])
    done = res.timeline["merge_done"]
    kill_to_done = done - kill_at
    ratio = (kill_to_done - _KILL_DEADLINE) / clean.elapsed
    return {
        "killed": victim,
        "kill_at_s": round(kill_at, 4),
        "clean_s": round(clean.elapsed, 4),
        "deadline_s": _KILL_DEADLINE,
        "detected_at_s": round(detect, 4),
        "partial": {
            "elapsed_s": round(res.elapsed, 4),
            "kill_to_done_s": round(kill_to_done, 4),
            # detection -> job done: the re-derivation work alone
            "recovery_s": round(max(done - detect, 0.0), 4),
            "partial_restarts": eng.partial_restarts,
            "identical": canonical_output("wordcount", res.output) == canon,
        },
        "recovery_ratio": round(ratio, 4),
        "recovery_gate": RECOVERY_GATE,
        "rejoin": _rejoin_demo(),
    }


# -- suite --------------------------------------------------------------------


def run_suite(quick: bool = False) -> dict:
    """All three cases; the ``BENCH_distributed.json`` payload."""
    return {
        "benchmark": "distributed: one job sharded across N SD replicas",
        "mode": "quick" if quick else "full",
        "scaling": scaling_case(quick),
        "identity": identity_case(quick),
        "recovery": recovery_case(quick),
    }


def checks(payload: dict) -> list[tuple]:
    """Every output identical to single-node; scaling, overhead, recovery."""
    scaling, rec = payload["scaling"], payload["recovery"]
    part, rj = rec["partial"], rec["rejoin"]
    rows = [
        (f"wordcount x{r['n_shards']} scaling identical", OUTPUT,
         r["identical"], "vs single-node")
        for r in scaling["runs"]
    ] + [
        (f"{r['app']} x{r['n_shards']} identical", OUTPUT, r["identical"],
         f"vs single-node, {r['shuffle_bytes']} B shuffled")
        for r in payload["identity"]["rows"]
    ]
    rows.append(
        ("partial restart identical", OUTPUT, part["identical"],
         f"killed {rec['killed']} at t={rec['kill_at_s']}s"),
    )
    for r in scaling["runs"]:
        need = SCALE_GATES.get(r["n_shards"])
        if need is not None:
            rows.append((
                f"x{r['n_shards']} speedup", GATE, r["speedup_vs_x1"] >= need,
                f"{r['elapsed_s']:.3f}s sim => {r['speedup_vs_x1']:.2f}x "
                f"(gate >= {need}x); shuffle {r['shuffle_bytes']} B / "
                f"{r['shuffle_transfers']} transfers, merge@{r['merge_node']}",
            ))
    rows += [
        ("width-1 overhead", GATE,
         scaling["width1_overhead"] <= WIDTH1_OVERHEAD_GATE,
         f"{scaling['width1_overhead']:.1%} over single-node "
         f"{scaling['single_node_s']:.3f}s (gate <= "
         f"{WIDTH1_OVERHEAD_GATE:.0%})"),
        ("recovery ratio", GATE, rec["recovery_ratio"] <= RECOVERY_GATE,
         f"kill->done {part['kill_to_done_s']}s - {rec['deadline_s']}s "
         f"deadline over clean {rec['clean_s']}s => "
         f"{rec['recovery_ratio']:.2f}x (gate <= {RECOVERY_GATE}x); "
         f"{part['recovery_s']}s after detection"),
        ("recovery contract", GATE, part["partial_restarts"] >= 1,
         f"{part['partial_restarts']} partial restart(s)"),
        ("node rejoins", GATE,
         rj["canary_node"] == rj["node"] and rj["final_state"] == HEALTHY
         and rj["quarantines"] >= 1 and rj["rejoins"] >= 1,
         f"{rj['node']} quarantined at t={rj['quarantined_at_s']}s, "
         f"probation at t={rj['probation_at_s']}s, canary on "
         f"{rj['canary_node']} done at t={rj['canary_done_at_s']}s, ends "
         f"{rj['final_state']}"),
    ]
    return rows
