"""Serving benchmark: an open-loop job stream against the cluster scheduler.

Three cases, all in simulated time (deterministic, seconds of wall clock):

* **throughput** — the same saturating Poisson stream offered to a 1-SD
  and a 2-SD cluster.  Jobs carry no ``sd_node`` and the input is
  replicated, so the scheduler is free to spread; the gate demands the
  2-SD cluster sustain >= 1.5x the 1-SD jobs/sec at equal offered load.
* **fairness** — two tenants with weights 2:1 submit equal backlogs to a
  single serial SD node; the run stops at a fixed horizon *while both
  still have backlog* (a drained queue would make every policy look
  fair), and the completed-work ratio must sit within 20% of 2.
* **cache** — one job repeated: every submission after the first must be
  a cache hit, and a rewrite of the input must invalidate.
* **critpath** — one traced job end to end: the containment critical
  path over the recorded spans (the paper's dispatch/compute/return
  attribution, recovered mechanically) must cover >= 90% of the job's
  wall time, and the scheduler's SLO health snapshot rides along.

``run_suite`` returns the JSON payload for ``tools/perf_gate.py
--serving`` and ``checks`` judges it (gates: throughput ratio, fairness
band, cache behaviour, critical-path coverage and SLO health — all
architectural, so they hold in ``--quick`` too).
"""

from __future__ import annotations

import typing as _t

from benchmarks.checks import CRITPATH_COVERAGE_GATE, GATE, OUTPUT
from repro.cluster.testbed import Testbed
from repro.core.job import DataJob
from repro.core.loadbalance import AlwaysOffloadPolicy
from repro.obs import SLOPolicy, job_critical_path
from repro.obs.export import span_dicts
from repro.sched import ClusterScheduler, FairShareOrdering
from repro.units import MB
from repro.workloads import ArrivalProcess, text_input

__all__ = [
    "THROUGHPUT_GATE",
    "FAIRNESS_TOLERANCE",
    "run_suite",
    "checks",
]

#: 2-SD must sustain at least this multiple of the 1-SD jobs/sec
THROUGHPUT_GATE = 1.5
#: completed-work ratio may deviate from the weight ratio by this fraction
FAIRNESS_TOLERANCE = 0.20

#: generous per-attempt deadline — nothing dies in this benchmark
_TIMEOUT = 3600.0


def _quantile(sorted_vals: _t.Sequence[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def _latency_summary(totals: list[float]) -> dict:
    s = sorted(totals)
    return {
        "n": len(s),
        "p50_s": round(_quantile(s, 0.50), 4),
        "p95_s": round(_quantile(s, 0.95), 4),
        "p99_s": round(_quantile(s, 0.99), 4),
        "mean_s": round(sum(s) / len(s), 4) if s else 0.0,
    }


# -- throughput -------------------------------------------------------------


def _serve_stream(
    n_sd: int, size: int, n_jobs: int, rate: float, seed: int
) -> dict:
    tb = Testbed(n_sd=n_sd)
    inp = text_input("/data/serve.txt", size, seed=1)
    _, sd_path = tb.stage_replicated("serve.txt", inp)

    def factory(i: int) -> DataJob:
        return DataJob(app="wordcount", input_path=sd_path, input_size=inp.size)

    sched = ClusterScheduler(
        tb.cluster,
        policy=AlwaysOffloadPolicy(),
        attempt_timeout=_TIMEOUT,
        per_node_limit=1,
        max_queue=n_jobs + 1,
        cache=None,
    )
    stream = ArrivalProcess.poisson(factory, rate=rate, n=n_jobs, seed=seed)
    report = tb.run(stream.drive(sched))
    assert not report.failed and not report.rejected, "clean stream expected"
    per_node: dict[str, int] = {}
    for rec in sched.completed:
        per_node[rec.where] = per_node.get(rec.where, 0) + 1
    return {
        "n_sd": n_sd,
        "offered_rate": rate,
        "n_jobs": n_jobs,
        "completed": len(report.completed),
        "jobs_per_sec": round(report.throughput, 4),
        "span_s": round(report.span, 3),
        "per_node": per_node,
        "latency": _latency_summary([r.total for r in sched.completed]),
    }


def throughput_case(quick: bool = False) -> dict:
    """Same offered load, 1 vs 2 SD nodes; the scaling gate."""
    if quick:
        size, n_jobs, rate = MB(20), 16, 5.0
    else:
        size, n_jobs, rate = MB(100), 40, 1.0
    single = _serve_stream(1, size, n_jobs, rate, seed=11)
    dual = _serve_stream(2, size, n_jobs, rate, seed=11)
    ratio = (
        dual["jobs_per_sec"] / single["jobs_per_sec"]
        if single["jobs_per_sec"] > 0 else 0.0
    )
    return {
        "input_mb": size // MB(1),
        "single": single,
        "dual": dual,
        "ratio": round(ratio, 3),
        "gate": THROUGHPUT_GATE,
    }


# -- fairness ---------------------------------------------------------------


def fairness_case(quick: bool = False) -> dict:
    """Weighted fair share under saturation, measured at a horizon.

    Both tenants submit identical backlogs at t=0 to one serial SD node.
    The simulation stops while both still have queued jobs — only then is
    the completed-work ratio the *scheduler's* choice rather than the
    workload's.
    """
    weights = {"gold": 2.0, "silver": 1.0}
    per_tenant = 12 if quick else 30
    size = MB(20)

    tb = Testbed(n_sd=1)
    inp = text_input("/data/fair.txt", size, seed=2)
    _, sd_path = tb.stage_replicated("fair.txt", inp)
    sched = ClusterScheduler(
        tb.cluster,
        policy=AlwaysOffloadPolicy(),
        ordering=FairShareOrdering(weights),
        attempt_timeout=_TIMEOUT,
        per_node_limit=1,
        max_queue=2 * per_tenant + 2,
        cache=None,
    )
    # calibrate: one probe job's measured service time sets the horizon
    probe = sched.submit(DataJob(
        app="wordcount", input_path=sd_path, input_size=inp.size,
        tenant="probe",
    ))
    tb.sim.run(until=probe)
    service = sched.completed[0].service
    trace = []
    t0 = tb.sim.now
    for i in range(per_tenant):
        for tenant in ("gold", "silver"):
            trace.append((t0, DataJob(
                app="wordcount", input_path=sd_path, input_size=inp.size,
                tenant=tenant,
            )))
    stream = ArrivalProcess.from_trace(trace)
    stream.drive(sched)

    # advance until exactly half the backlog has completed, so both
    # tenants still have queued jobs when we measure (a drained queue
    # would make every ordering look like the submission ratio)
    total = 2 * per_tenant
    step = max(0.05, service / 4)
    for _ in range(100 * total):
        if len(sched.completed) - 1 >= total // 2:
            break
        tb.sim.run(until=tb.sim.now + step)
    horizon = tb.sim.now - t0

    work = {t: 0 for t in weights}
    for rec in sched.completed:
        if rec.tenant in weights:
            work[rec.tenant] = work.get(rec.tenant, 0) + rec.job.input_size
    still_queued = {t: 0 for t in weights}
    for entry in sched.queue:
        still_queued[entry.tenant] = still_queued.get(entry.tenant, 0) + 1
    saturated = all(v > 0 for v in still_queued.values())

    want = weights["gold"] / weights["silver"]
    got = (work["gold"] / work["silver"]) if work["silver"] else float("inf")
    deviation = abs(got - want) / want
    return {
        "weights": weights,
        "per_tenant_jobs": per_tenant,
        "horizon_s": round(horizon, 2),
        "completed_work": work,
        "still_queued": still_queued,
        "saturated_at_horizon": saturated,
        "want_ratio": want,
        "got_ratio": round(got, 3),
        "deviation": round(deviation, 3),
        "tolerance": FAIRNESS_TOLERANCE,
    }


# -- cache ------------------------------------------------------------------


def cache_case(quick: bool = False) -> dict:
    """Repeat-submission memoization and write invalidation."""
    repeats = 4 if quick else 8
    size = MB(20)
    tb = Testbed(n_sd=1)
    inp = text_input("/data/cached.txt", size, seed=3)
    _, sd_path = tb.stage_replicated("cached.txt", inp)
    sched = ClusterScheduler(
        tb.cluster, policy=AlwaysOffloadPolicy(), attempt_timeout=_TIMEOUT,
    )
    job = DataJob(app="wordcount", input_path=sd_path, input_size=inp.size)
    outputs = []
    for _ in range(repeats):
        ev = sched.submit(job)
        tb.sim.run(until=ev)
        outputs.append(ev.value.output)
    hits_before = sched.cache.hits
    # rewrite the input: the next submission must miss and recompute
    tb.stage(tb.sd, sd_path, text_input("/data/cached.txt", size, seed=3))
    ev = sched.submit(job)
    tb.sim.run(until=ev)
    outputs.append(ev.value.output)
    return {
        "repeats": repeats,
        "hits_before_rewrite": hits_before,
        "hits": sched.cache.hits,
        "misses": sched.cache.misses,
        "invalidations": sched.cache.invalidations,
        "hit_rate": round(hits_before / max(1, repeats), 3),
        "outputs_consistent": all(o == outputs[0] for o in outputs),
    }


# -- critical path ----------------------------------------------------------


def critpath_case(quick: bool = False) -> dict:
    """One traced job: containment critical path + SLO health snapshot.

    A single job keeps the containment tree unambiguous (concurrent jobs
    would interleave their node-track spans under one synthetic root).
    The gate is coverage: the path's exclusive segments must account for
    ``CRITPATH_COVERAGE_GATE`` of the job's recorded wall time — spans
    escaping the tree, not the walk, are what would break it.
    """
    size = MB(20) if quick else MB(50)
    tb = Testbed(n_sd=1, trace=True)
    inp = text_input("/data/critpath.txt", size, seed=5)
    _, sd_path = tb.stage_replicated("critpath.txt", inp)
    sched = ClusterScheduler(
        tb.cluster,
        policy=AlwaysOffloadPolicy(),
        attempt_timeout=_TIMEOUT,
        cache=None,
        slo=SLOPolicy(tenant="*", target_s=_TIMEOUT, error_budget=0.05),
    )
    ev = sched.submit(DataJob(
        app="wordcount", input_path=sd_path, input_size=inp.size,
    ))
    tb.sim.run(until=ev)
    spans = span_dicts(tb.sim.obs)
    cp = job_critical_path(spans, root_name="job")
    health = sched.health_report()
    path = [
        {
            "name": seg["name"],
            "track": seg["track"],
            "self_s": round(seg["self"], 6),
            "slack_s": round(seg["slack"], 6),
            "depth": seg["depth"],
        }
        for seg in cp["path"]
    ]
    by_name = [
        {
            "name": row["name"],
            "count": row["count"],
            "self_s": round(row["self"], 6),
            "pct": round(row["pct"], 2),
        }
        for row in cp["by_name"]
    ]
    return {
        "input_mb": size // MB(1),
        "spans_recorded": len(spans),
        "wall_s": round(cp["wall"], 6),
        "covered": round(cp["covered"], 4),
        "path": path,
        "by_name": by_name,
        "health": health.to_dict(),
        "coverage_gate": CRITPATH_COVERAGE_GATE,
    }


# -- suite ------------------------------------------------------------------


def run_suite(quick: bool = False) -> dict:
    """All four cases; the ``BENCH_serving.json`` payload."""
    return {
        "benchmark": "serving: open-loop job stream through ClusterScheduler",
        "mode": "quick" if quick else "full",
        "throughput": throughput_case(quick),
        "fairness": fairness_case(quick),
        "cache": cache_case(quick),
        "critpath": critpath_case(quick),
    }


def checks(payload: dict) -> list[tuple]:
    """Cached answers consistent; scaling, fairness, cache, critpath, SLO."""
    tput, fair = payload["throughput"], payload["fairness"]
    cache, cp = payload["cache"], payload["critpath"]
    top = cp["by_name"][0] if cp["by_name"] else {"name": "?", "pct": 0}
    return [
        ("cached outputs identical", OUTPUT, cache["outputs_consistent"],
         f"{cache['repeats'] + 1} submissions vs the first"),
        ("throughput scaling", GATE, tput["ratio"] >= THROUGHPUT_GATE,
         f"1-SD {tput['single']['jobs_per_sec']:.3f} vs 2-SD "
         f"{tput['dual']['jobs_per_sec']:.3f} jobs/s => {tput['ratio']:.2f}x "
         f"(gate >= {THROUGHPUT_GATE}x); 2-SD p95 "
         f"{tput['dual']['latency']['p95_s']:.2f}s"),
        ("fair share", GATE,
         fair["saturated_at_horizon"] and fair["deviation"] <= FAIRNESS_TOLERANCE,
         f"completed-work ratio {fair['got_ratio']:.2f} vs weights "
         f"{fair['want_ratio']:.1f} (deviation {fair['deviation']:.1%} <= "
         f"{FAIRNESS_TOLERANCE:.0%}, saturated={fair['saturated_at_horizon']})"),
        ("cache hit and invalidate", GATE,
         cache["hits_before_rewrite"] == cache["repeats"] - 1
         and cache["hits"] == cache["hits_before_rewrite"]
         and cache["invalidations"] >= 1,
         f"{cache['hits']} hits / {cache['misses']} misses, "
         f"{cache['invalidations']} invalidations over {cache['repeats']} "
         "repeats and one rewrite"),
        ("critpath coverage", GATE, cp["covered"] >= CRITPATH_COVERAGE_GATE,
         f"{cp['covered']:.1%} of {cp['wall_s']:.2f}s wall (gate >= "
         f"{CRITPATH_COVERAGE_GATE:.0%}); top: {top['name']} {top['pct']:.0f}%"),
        ("slo health", GATE, cp["health"]["healthy"],
         f"worst burn {cp['health']['worst_burn_rate']:.2f}"),
    ]
