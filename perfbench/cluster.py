"""``sim-cluster``: an open-loop job stream on a simulated 4-SD McSD cluster.

A run is a fixed number of streams (derived from ``--seconds``, never from
host speed), each on a fresh :class:`~repro.cluster.testbed.Testbed` with a
:class:`~repro.sched.ClusterScheduler` (heartbeat failure detector on,
default adaptive placement, result cache on).  A stream is a fixed mix of
jobs arriving as a Poisson process in simulated time, so the generator
never runs late.  The streams are drawn from a fixed stream seed and
``--seed`` draws the data (every payload's words, the target keys, and a
common scale of up to ``TIME_SCALE`` on declared sizes and arrival times):
with the arrivals drawn from ``--seed`` too, the sim-time percentiles of
four 40-job streams moved by about 15% between seeds, more than any bound
allows, while with fixed arrivals they move by a few percent through the
data alone (chunk weights, map and shuffle sizes).  Each stream holds:

* wordcount and stringmatch jobs whose declared sizes span the SD memory
  threshold — ``parallel`` below it, ``partitioned`` above it;
* a share of the wordcount jobs through ``submit_distributed``;
* a minority of exact repeats of earlier jobs (result-cache hits unless
  the dataset was rewritten in between);
* a dataset rewritten (same bytes, new mtime) every ``REWRITE_EVERY``
  arrivals, which invalidates its cached results;
* the SD daemon with the most in-flight work killed at arrival
  ``KILL_AT`` and revived ``REVIVE_AFTER`` simulated seconds later.

``prepare`` builds the payloads, the streams and one reference output per
distinct (app, payload, mode, size, fragment size), computed by the
runtime directly on a fresh fault-free testbed; a distributed job's
reference is the single-node partitioned run with the same fragment size.
``measure`` runs the streams untraced (``--trace 0``) or one untraced and
one traced pass over the same streams (``--trace 1``).
"""

from __future__ import annotations

import collections
import dataclasses
import os
import pickle
import random
import sys
import time

import numpy as np

import repro.apps.stringmatch as sm
import repro.apps.wordcount as wc
from perfbench import common
from perfbench.tracing import Span, Tracer
from repro.apps import spec_for_app
from repro.cluster.testbed import Testbed
from repro.config import table1_cluster
from repro.core.distributed import DistributedEngine, DistributedJob
from repro.core.job import DataJob
from repro.core.offload import OffloadEngine
from repro.errors import AdmissionError
from repro.hardware.disk import DiskModel
from repro.partition.extended import ExtendedPhoenixRuntime
from repro.phoenix.api import InputSpec
from repro.phoenix.runtime import PhoenixRuntime
from repro.sched import ClusterScheduler
from repro.sched.health import NodeHealthTracker
from repro.smartfam.daemon import HostSmartFAM
from repro.smartfam.logfile import LogFileCodec
from repro.workloads.keys import encrypted_input, keys_for

MB = 1_000_000
N_SD = 4
#: jobs per stream, by class: (app, mode, sizes in MB, payload variants)
JOB_CLASSES = (
    ("wordcount", "parallel", (32, 64, 128, 256, 512), (0, 1, 2), 14),
    ("wordcount", "partitioned", (1700, 1900), (0, 1, 2), 3),
    ("wordcount", "distributed", (128, 256, 512), (0, 1, 2), 6),
    ("stringmatch", "parallel", (64, 128, 256, 512), (0, 1), 8),
    ("stringmatch", "partitioned", (1700, 1900), (0, 1), 3),
)
#: exact repeats of earlier (non-distributed) jobs per stream
REPEATS = 6
#: mean arrivals per simulated second
RATE = 0.2
#: every REWRITE_EVERY-th arrival's dataset is rewritten as it arrives
REWRITE_EVERY = 10
#: the kill happens right after this arrival; the revive REVIVE_AFTER later
KILL_AT = 13
REVIVE_AFTER = 20.0
#: per-attempt deadline: above the longest clean service time, so no
#: healthy attempt ever requeues
ATTEMPT_TIMEOUT = 240.0
#: distributed jobs cut their input into this many global fragments
DIST_FRAGMENTS = 8
#: payload bytes behind every dataset (declared sizes are metadata)
PAYLOAD_BYTES = 8_000
WC_VOCABULARY = (500, 2_000, 8_000)
N_KEYS = 4
#: set-ups per stream; setup_s is the median over all of a run's set-ups
SETUPS = 5
#: simulated events between two speed measurements (about a second of host
#: time; see common.CAL_REF_S)
CAL_EVERY = 150_000
#: ``--seed`` scales a run's declared sizes and arrival times together by
#: up to this share, so runs of different seeds do not all read the same
#: simulated times (payload words alone leave most of them identical);
#: scaling both keeps the order of events, where scaling sizes alone
#: moved placements and so the bytes moved
TIME_SCALE = 0.01


def streams_for(seconds: int, traced: bool) -> int:
    """Streams per run: a function of ``--seconds`` only, so both commits
    of a comparison simulate the same jobs."""
    n = max(2, seconds // 5)
    return max(1, n // 2) if traced else n


@dataclasses.dataclass
class PlannedJob:
    at: float
    app: str
    mode: str
    size: int
    variant: int
    fragment_bytes: int | None
    repeat: bool = False

    @property
    def dataset(self) -> str:
        return f"{self.app}-v{self.variant}-{self.size}b"

    @property
    def ref_key(self) -> tuple:
        mode = "partitioned" if self.mode == "distributed" else self.mode
        return (self.app, self.variant, mode, self.size, self.fragment_bytes)


def plan_stream(seed: int, index: int) -> list[PlannedJob]:
    """Stream ``index``: the class mix in a shuffled order, Poisson arrivals
    (drawn from the fixed stream seed, see the module docstring), sizes and
    times scaled by the seed's factor."""
    scale = 1 + TIME_SCALE * (2 * random.Random(f"{seed}/scale").random() - 1)
    rng = random.Random(f"sim-cluster/{index}")
    jobs: list[PlannedJob] = []
    for app, mode, sizes, variants, count in JOB_CLASSES:
        grid = [(s, v) for s in sizes for v in variants]
        rng.shuffle(grid)
        for size_mb, variant in grid[:count]:
            size = int(size_mb * MB * scale)
            frag = -(-size // DIST_FRAGMENTS) if mode == "distributed" else None
            jobs.append(PlannedJob(0.0, app, mode, size, variant, frag))
    rng.shuffle(jobs)
    for _ in range(REPEATS):
        pos = rng.randrange(4, len(jobs) + 1)
        candidates = [j for j in jobs[:pos] if j.mode != "distributed" and not j.repeat]
        jobs.insert(pos, dataclasses.replace(rng.choice(candidates), repeat=True))
    t = 0.0
    for job in jobs:
        t += rng.expovariate(RATE)
        job.at = t * scale
    return jobs


def payloads(seed: int) -> tuple[dict, tuple]:
    """The payloads behind every dataset, and the string-match keys."""
    keys = tuple(keys_for(N_KEYS, seed=seed))
    out = {}
    for v, vocab in enumerate(WC_VOCABULARY):
        out[("wordcount", v)] = common.corpus(
            np.random.default_rng([seed, v]), PAYLOAD_BYTES, vocab
        )
    for v in range(2):
        inp, _, _ = encrypted_input("/p", PAYLOAD_BYTES, payload_bytes=PAYLOAD_BYTES,
                                    keys=list(keys), seed=seed * 10 + v)
        out[("stringmatch", v)] = inp.payload
    return out, keys


def app_params(app: str, keys: tuple) -> dict:
    return {"keys": keys} if app == "stringmatch" else {}


def reference(key: tuple, data: dict, keys: tuple) -> tuple[str, str]:
    """Digests of one distinct job's answer on a fresh 1-SD testbed: as
    produced, and as per-key totals (see :func:`check`)."""
    app, variant, mode, size, frag = key
    tb = Testbed(config=table1_cluster(n_sd=1, seed=0), seed=0)
    sd = tb.cluster.sd(0)
    inp = tb.stage(sd, "/export/data/ref", InputSpec(
        path="/ref", size=size, payload=data[(app, variant)],
        params=app_params(app, keys),
    ))
    spec = spec_for_app(app)
    if mode == "parallel":
        result = tb.run(PhoenixRuntime(sd).run(spec, inp, mode="parallel"))
    else:
        result = tb.run(ExtendedPhoenixRuntime(sd).run(spec, inp, fragment_bytes=frag))
    return common.output_digest(result.output), common.output_digest(match_totals(result.output))


def match_totals(output: list) -> list:
    """A (key, count) list summed per key, sorted."""
    totals: collections.Counter = collections.Counter()
    for key, count in output:
        totals[key] += count
    return sorted(totals.items())


def check(job: PlannedJob, output: list, ref: tuple[str, str]) -> str:
    """``"ok"``, ``"grouping"`` or ``"wrong"``.

    stringmatch neither sorts nor reduces: its output lists one (key,
    count) pair per key and map task, so how matches are grouped and
    ordered follows the executing node's task count (the 4-core host
    splits differently from a 2-core SD), the way chaos_soak treats matmul
    blocks.  The answer is the number of matches per key; an output that
    has the SD reference's totals in another grouping counts as
    ``"grouping"``, not as a failure.
    """
    if common.output_digest(output) == ref[0]:
        return "ok"
    if job.app == "stringmatch" and common.output_digest(match_totals(output)) == ref[1]:
        return "grouping"
    return "wrong"


def prepare(args) -> int:
    t0 = time.perf_counter()
    os.makedirs(args.dir, exist_ok=True)
    data, keys = payloads(args.seed)
    n = streams_for(args.seconds, traced=False)
    streams = [plan_stream(args.seed, s) for s in range(n)]
    gen_s = time.perf_counter() - t0
    refs = {}
    for stream in streams:
        for job in stream:
            if job.ref_key not in refs:
                refs[job.ref_key] = reference(job.ref_key, data, keys)
    with open(os.path.join(args.dir, "plan.pkl"), "wb") as f:
        pickle.dump({"payloads": data, "keys": keys, "streams": streams, "refs": refs}, f)
    print(f"info gen_s = {gen_s!r}")
    print(f"info reference_s = {time.perf_counter() - t0 - gen_s!r}")
    print(f"info references = {len(refs)}")
    return 0


# -- one stream ---------------------------------------------------------------------


class StreamResult:
    def __init__(self) -> None:
        #: set-up and simulation host seconds, in reference seconds (see
        #: common.CAL_REF_S), and the simulation's as measured
        self.setup_s: list[float] = []
        self.host_s = 0.0
        self.raw_host_s = 0.0
        self.events = 0
        self.latency: list[float] = []
        self.declared_run = 0
        self.net_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.regrouped = 0
        self.kill_at = 0.0
        self.end = 0.0
        self.victim = ""
        self.tb = None
        self.sched = None
        self.submitted: list[tuple[int, object]] = []
        self.finished: dict[int, float] = {}


def run_stream(
    seed: int, index: int, jobs: list[PlannedJob], plan: dict,
    hooks: "TraceHooks | None" = None,
) -> StreamResult:
    res = StreamResult()
    data, keys = plan["payloads"], plan["keys"]

    def set_up():
        tb = Testbed(config=table1_cluster(n_sd=N_SD, seed=seed * 1000 + index),
                     seed=seed * 1000 + index)
        paths: dict[str, str] = {}
        specs: dict[str, InputSpec] = {}
        for job in jobs:
            if job.dataset not in paths:
                spec = InputSpec(path="/" + job.dataset, size=job.size,
                                 payload=data[(job.app, job.variant)])
                specs[job.dataset] = spec
                _, paths[job.dataset] = tb.stage_replicated(job.dataset, spec)
        sched = ClusterScheduler(
            tb.cluster, heartbeat=True, attempt_timeout=ATTEMPT_TIMEOUT,
            max_queue=len(jobs) + 1,
        )
        return tb, sched, paths, specs

    # set up SETUPS times (setup_s is the median); the last one runs
    for _ in range(SETUPS):
        scale = common.speed_scale()
        t0 = time.perf_counter()
        tb, sched, paths, specs = set_up()
        res.setup_s.append((time.perf_counter() - t0) * scale)
    res.tb, res.sched = tb, sched
    sim = tb.sim

    def revive(name: str):
        yield sim.timeout(REVIVE_AFTER)
        tb.cluster.sd_daemons[name].revive()
        if hooks is not None:
            hooks.revived(sim.now)

    def rewrite(dataset: str) -> None:
        for node in tb.cluster.sd_nodes:
            tb.stage(node, paths[dataset], specs[dataset])

    def driver():
        waits = []
        for k, job in enumerate(jobs):
            if job.at > sim.now:
                yield sim.timeout(job.at - sim.now)
            params = app_params(job.app, keys)
            res.attempted += 1
            try:
                if job.mode == "distributed":
                    submitted = DistributedJob(
                        app=job.app, input_path=paths[job.dataset], input_size=job.size,
                        fragment_bytes=job.fragment_bytes, params=params,
                    )
                    done = sched.submit_distributed(submitted)
                else:
                    submitted = DataJob(
                        app=job.app, input_path=paths[job.dataset], input_size=job.size,
                        mode=job.mode, params=params,
                    )
                    done = sched.submit(submitted)
            except AdmissionError:
                res.failed += 1
                continue
            if hooks is not None:
                hooks.submitted(k, submitted)
            res.submitted.append((k, done))
            done.add_callback(lambda ev, k=k: res.finished.__setitem__(k, sim.now))
            waits.append(done)
            if k == KILL_AT:
                loads = {n.name: sched.engine.inflight.get(n.name, 0) for n in tb.cluster.sd_nodes}
                res.victim = max(sorted(loads), key=lambda n: loads[n])
                res.kill_at = sim.now
                tb.cluster.sd_daemons[res.victim].kill()
                if hooks is not None:
                    hooks.killed(res.victim, sim.now)
                sim.spawn(revive(res.victim), name="bench.revive")
            if (k + 1) % REWRITE_EVERY == 0:
                rewrite(job.dataset)
        for done in waits:
            try:
                yield done
            except Exception:
                pass

    res.raw_host_s, res.host_s = simulate(sim, sim.spawn(driver(), name="bench.driver"))
    res.end = sim.now
    res.events = sim.processed_events
    res.net_bytes = sim.obs.metrics.counters.get("net.bytes", 0)
    res.declared_run = sum(r.job.input_size for r in sched.completed if not r.from_cache)
    # output checks, off the clock
    for k, done in res.submitted:
        job = jobs[k]
        if not done.ok:
            res.failed += 1
            continue
        res.latency.append(res.finished[k] - job.at)
        verdict = check(job, done.value.output, plan["refs"][job.ref_key])
        if verdict == "grouping":
            res.regrouped += 1
        elif verdict == "wrong":
            res.failed += 1
            res.mismatched += 1
    return res


def simulate(sim, proc) -> tuple[float, float]:
    """Step ``sim`` until ``proc`` is processed, as ``Simulator.run(until=
    proc)`` does; returns its host seconds as measured and in reference
    seconds, re-measuring the speed every CAL_EVERY events."""
    done: list[bool] = []
    proc.add_callback(lambda _ev: done.append(True))
    raw = ref = 0.0
    while not done:
        scale = common.speed_scale()
        t0 = time.perf_counter()
        for _ in range(CAL_EVERY):
            sim.step()
            if done:
                break
        dt = time.perf_counter() - t0
        raw += dt
        ref += dt * scale
    if not proc.ok:
        raise proc.value
    return raw, ref


# -- tracing --------------------------------------------------------------------------


class TraceHooks:
    """Per-stream bookkeeping the traced pass needs beyond spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.sub_of: dict[int, int] = {}
        #: attempts still running: span id -> (submission index, nodes)
        self.active: dict[int, tuple[int, tuple]] = {}
        self.kill = ("", 0.0)
        self.revive_at = 0.0
        self.affected: set[int] = set()
        self.transitions: list[tuple[float, str, str, str]] = []
        self.state: dict[str, str] = {}

    def submitted(self, k: int, job: object) -> None:
        self.sub_of[id(job.params)] = k

    def killed(self, victim: str, now: float) -> None:
        self.kill = (victim, now)
        self.affected = {k for k, nodes in self.active.values() if victim in nodes}

    def revived(self, now: float) -> None:
        self.revive_at = now

    def attempt(self, job: object, nodes: tuple, sp: Span) -> None:
        # a placed copy of a submitted job shares its params dict
        k = self.sub_of.get(id(getattr(job, "params", None)))
        if k is not None:
            self.active[id(sp)] = (k, nodes)

    def attempt_done(self, sp: Span) -> None:
        self.active.pop(id(sp), None)

    def health_changed(self, tracker: object) -> None:
        now = tracker.sim.now
        for node, state in tracker.state.items():
            old = self.state.get(node, "healthy")
            if state != old:
                self.transitions.append((now, node, old, state))
                self.state[node] = state


def install(tracer: Tracer, box: dict) -> None:
    """Wrap the simulated layers' entry points (see README.md)."""
    for name in ("encode", "decode", "append", "find", "latest"):
        tracer.host(LogFileCodec, name, "smartfam.logfile.codec")
    tracer.host(wc, "wc_map", "phoenix.runtime.callback")
    tracer.host(sm, "sm_map", "phoenix.runtime.callback")

    def invoke_done(sp: Span, ev) -> None:
        if not ev.ok:
            return
        value = ev.value
        stats = getattr(value, "stats", None)
        inner = stats.elapsed if stats is not None else getattr(value, "elapsed", None)
        if isinstance(inner, float):
            box["invoke_overhead"].append(sp.dur - inner)

    tracer.sim_event(HostSmartFAM, "invoke", "smartfam.daemon.invoke", on_done=invoke_done)

    ext_of: dict[int, Span] = {}

    def phoenix_start(rt, sp: Span, args, kwargs) -> None:
        sp.parent = ext_of.get(id(rt))

    def ext_start(ext, sp: Span, args, kwargs) -> None:
        ext_of[id(ext.inner)] = sp

    def ext_done(sp: Span, ev) -> None:
        if ev.ok:
            box["fragments"] += ev.value.n_fragments

    tracer.sim_event(PhoenixRuntime, "run", "phoenix.runtime.run", on_start=phoenix_start)
    tracer.sim_event(ExtendedPhoenixRuntime, "run", "partition.extended.run",
                     on_start=ext_start, on_done=ext_done)
    tracer.sim_event(DiskModel, "read", "hardware.disk.io")
    tracer.sim_event(DiskModel, "write", "hardware.disk.io")

    def offload_start(eng, sp: Span, args, kwargs) -> None:
        job, placement = args[0], args[1]
        if placement.offload:
            box["hooks"].attempt(job, (placement.node,), sp)

    def dist_start(eng, sp: Span, args, kwargs) -> None:
        nodes = kwargs.get("nodes") or (args[1] if len(args) > 1 else ())
        box["hooks"].attempt(args[0], tuple(nodes or ()), sp)

    def dist_done(sp: Span, ev) -> None:
        box["hooks"].attempt_done(sp)
        if ev.ok:
            box["shuffle_bytes"] += ev.value.shuffle_bytes

    def offload_done(sp: Span, ev) -> None:
        box["hooks"].attempt_done(sp)

    tracer.sim_event(OffloadEngine, "run", "core.offload.run",
                     on_start=offload_start, on_done=offload_done)
    tracer.sim_event(DistributedEngine, "run", "core.distributed.run",
                     on_start=dist_start, on_done=dist_done)

    def health_after(args, kwargs) -> None:
        box["hooks"].health_changed(args[0])

    for name in ("evaluate", "job_succeeded", "job_failed", "force_quarantine"):
        tracer.observe(NodeHealthTracker, name, after=health_after)


def health_metrics(hooks: TraceHooks, end: float) -> tuple[float, float, bool, int]:
    """Kill -> victim quarantined; revive -> victim healthy again (or ->
    ``end`` when it never rejoined, flagged False); suspicions of nodes
    whose daemon was alive."""
    victim, kill_at = hooks.kill
    detect, rejoin = None, None
    false = 0
    for t, node, _old, new in hooks.transitions:
        if node == victim and t >= kill_at:
            if new == "quarantined" and detect is None:
                detect = t - kill_at
            if new == "healthy" and rejoin is None and t >= hooks.revive_at:
                rejoin = t - hooks.revive_at
        elif new in ("suspected", "quarantined"):
            false += 1
    rejoined = rejoin is not None
    if rejoin is None:
        rejoin = end - hooks.revive_at
    return (detect if detect is not None else end - kill_at), rejoin, rejoined, false


# -- measure ---------------------------------------------------------------------------


def measure(args) -> int:
    with open(os.path.join(args.dir, "plan.pkl"), "rb") as f:
        plan = pickle.load(f)
    if args.trace:
        return measure_traced(args, plan)
    results = [
        run_stream(args.seed, s, jobs, plan) for s, jobs in enumerate(plan["streams"])
    ]
    latency = [x for r in results for x in r.latency]
    host_s = sum(r.host_s for r in results)
    declared = sum(r.declared_run for r in results)
    metrics = {
        "setup_s": common.median([t for r in results for t in r.setup_s]),
        "peak_rss_mib": common.peak_rss_mib(),
        "job_p50_s": common.median(latency),
        "job_tail_s": common.tail(latency),
        # median over streams: a stream slowed by another tenant of the
        # machine does not move it
        "throughput_mb_s": common.median([r.declared_run / r.host_s / 1e6 for r in results]),
        "wire_bytes_per_input_byte": sum(r.net_bytes for r in results) / declared,
    }
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    mismatched = sum(r.mismatched for r in results)
    info = {
        "provenance": common.provenance(args, n_sd=N_SD, streams=len(results)),
        "jobs": attempted,
        "host_s": host_s,
        "measured_host_s": sum(r.raw_host_s for r in results),
        "sim_events": sum(r.events for r in results),
        "victims": [r.victim for r in results],
        "mismatched_outputs": mismatched,
        "regrouped_outputs": sum(r.regrouped for r in results),
    }
    return common.emit("end_to_end", metrics, attempted, failed, mismatched == 0, info)


def measure_traced(args, plan: dict) -> int:
    n = streams_for(args.seconds, traced=True)
    streams = plan["streams"][:n]
    base = []
    for s, jobs in enumerate(streams):
        r = run_stream(args.seed, s, jobs, plan)
        r.tb = r.sched = None
        base.append(r)

    tracer = Tracer()
    box: dict = {
        "invoke_overhead": [], "fragments": 0, "shuffle_bytes": 0, "hooks": None,
    }
    install(tracer, box)
    traced: list[StreamResult] = []
    hooks_all: list[TraceHooks] = []
    counters: collections.Counter = collections.Counter()
    extra = collections.Counter()
    completed = []
    max_log = 0
    try:
        for s, jobs in enumerate(streams):
            hooks = TraceHooks(tracer)
            box["hooks"] = hooks
            tracer.job = f"stream{s}"
            r = run_stream(args.seed, s, jobs, plan, hooks=hooks)
            traced.append(r)
            hooks_all.append(hooks)
            counters.update(r.tb.sim.obs.metrics.counters)
            sched = r.sched
            completed.extend(c for c in sched.completed if not c.from_cache)
            extra["host_runs"] += sched.engine.host_runs
            extra["cache_hits"] += sched.cache.hits
            extra["cache_lookups"] += sched.cache.hits + sched.cache.misses
            extra["cache_invalidations"] += sched.cache.invalidations
            extra["spec_launched"] += sched.dist_engine.spec_launched
            extra["spec_won"] += sched.dist_engine.spec_won
            extra["fabric_bytes"] += r.tb.cluster.fabric.bytes_delivered
            for daemon in r.tb.cluster.sd_daemons.values():
                for module in daemon.registry.names():
                    payload = daemon.node.fs.vfs.read(daemon.log_path(module)) or b""
                    max_log = max(max_log, len(payload))
            r.tb = r.sched = None
    finally:
        tracer.restore()

    recovery, detect, rejoin, rejoined, false = [], [], [], [], 0
    for r, hooks in zip(traced, hooks_all):
        if hooks.affected:
            recovery.append(max(r.finished.get(k, r.kill_at) for k in hooks.affected) - r.kill_at)
        d, j, ok, f = health_metrics(hooks, r.end)
        detect.append(d)
        rejoin.append(j)
        rejoined.append(ok)
        false += f
    # per-layer host times are as measured; trace_overhead compares the
    # two passes in reference seconds
    base_host = sum(r.raw_host_s for r in base)
    traced_host = sum(r.raw_host_s for r in traced)
    base_events = sum(r.events for r in base)
    host_covered = tracer.self_s("smartfam.logfile.codec", "phoenix.runtime.callback")
    waits = [c.queue_wait for c in completed]
    metrics = dict.fromkeys(common.catalog("per_layer"), 0.0)
    metrics.update({
        "sim.kernel.events": sum(r.events for r in traced),
        "sim.kernel.host_us_per_event": base_host / base_events * 1e6,
        "smartfam.logfile.codec_s": tracer.self_s("smartfam.logfile.codec"),
        "smartfam.logfile.codec_calls": tracer.entry_calls("smartfam.logfile.codec"),
        "smartfam.logfile.max_bytes": max_log,
        "smartfam.daemon.invoke_overhead_s": common.median(box["invoke_overhead"]),
        "smartfam.daemon.retries": sum(v for k, v in counters.items() if k.startswith("retry.fam")),
        "phoenix.runtime.callback_s": tracer.self_s("phoenix.runtime.callback"),
        "phoenix.runtime.sim_s": tracer.self_s("phoenix.runtime.run"),
        "partition.extended.fragments": box["fragments"],
        "partition.extended.sim_s": tracer.self_s("partition.extended.run"),
        "sched.queue_wait_p50_s": common.median(waits),
        "sched.queue_wait_tail_s": common.quantile(waits, common.TAIL_Q),
        "sched.service_p50_s": common.median([c.service for c in completed]),
        "sched.requeued": counters["sched.requeued"],
        "sched.attempt_failures": counters["sched.attempt_failures"],
        "sched.host_placements": extra["host_runs"],
        "sched.cache.hit_ratio": extra["cache_hits"] / max(1, extra["cache_lookups"]),
        "sched.cache.invalidations": extra["cache_invalidations"],
        "sched.health.detect_s": common.median(detect),
        "sched.health.rejoin_s": common.median(rejoin),
        "sched.health.false_suspicions": false,
        "core.distributed.sim_s": sum(sp.dur for sp in tracer.spans_of("core.distributed.run")),
        "core.distributed.shuffle_bytes": box["shuffle_bytes"],
        "core.distributed.restarts_partial": counters["dist.restart.partial"],
        "core.distributed.restarts_full": counters["dist.restart.full"],
        "core.distributed.transfer_dedup": counters["dist.transfer.dedup"],
        "core.distributed.spec_useful_ratio": (
            extra["spec_won"] / extra["spec_launched"] if extra["spec_launched"] else 0.0
        ),
        "fs.nfs.bytes_read": counters["nfs.bytes_read"],
        "fs.nfs.bytes_written": counters["nfs.bytes_written"],
        "fs.nfs.ops": sum(v for k, v in counters.items() if k.startswith("nfs.op.")),
        "net.fabric.bytes": extra["fabric_bytes"],
        "hardware.disk.sim_s": sum(sp.dur for sp in tracer.spans_of("hardware.disk.io")),
        "recovery_s": common.median(recovery),
        "host_s": base_host,
        "trace_overhead": sum(r.host_s for r in traced) / sum(r.host_s for r in base) - 1.0,
        "uncovered_share": 1.0 - host_covered / traced_host,
    })
    prov = common.provenance(args, n_sd=N_SD, streams=len(streams))
    trace_path = common.write_trace(tracer, args, prov)
    attempted = sum(r.attempted for r in base + traced)
    failed = sum(r.failed for r in base + traced)
    mismatched = sum(r.mismatched for r in base + traced)
    info = {
        "provenance": prov,
        "jobs": attempted,
        "untraced_host_s": base_host,
        "traced_host_s": traced_host,
        "spans": len(tracer.spans),
        "trace_file": trace_path,
        "recovery_per_stream_s": recovery,
        "victim_rejoined_per_stream": rejoined,
        "mismatched_outputs": mismatched,
    }
    return common.emit("per_layer", metrics, attempted, failed, mismatched == 0, info)


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
