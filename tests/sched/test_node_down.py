"""A quarantine ends a dead node's work, and a killed daemon's runs die.

The failure detector quarantines a killed SD in about 3 sim-seconds.
From then on nothing waits for the node: every deadline-bounded smartFAM
call in flight to it fails with :class:`~repro.errors.NodeDownError`, so
the scheduler re-queues the attempt and the distributed engine restarts
the lost shard work on the survivors at detection, not at the deadline.
The daemon's own module runs die with it, so a revived daemon starts idle
and its probation canary runs at once.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import DataJob, DistributedEngine, DistributedJob
from repro.core.loadbalance import AlwaysOffloadPolicy
from repro.errors import NodeDownError, OffloadTimeoutError
from repro.faults import FaultPlan, FaultRule
from repro.sched import ClusterScheduler
from repro.sched.health import DETECTION_BOUND, HEALTHY, PROBATION, QUARANTINED
from repro.smartfam.logfile import RESULT, LogFileCodec
from repro.units import MB
from repro.workloads import text_input

#: a deadline far past every run here: only a quarantine can end a call
DEADLINE = 240.0
SIZE = MB(200)


def make_bed(n_sd: int = 2, seed: int = 7):
    bed = Testbed(config=table1_cluster(n_sd=n_sd, seed=seed), seed=seed)
    inp = text_input("/data/s", SIZE, payload_bytes=6_000, seed=seed)
    _view, sd_path = bed.stage_replicated("s", inp)
    return bed, inp, sd_path


def make_job(sd_path: str, **kw) -> DataJob:
    return DataJob(
        app="wordcount", input_path=sd_path, input_size=SIZE,
        mode="parallel", **kw,
    )


def expected_total(inp) -> int:
    return len(inp.payload_bytes.split())


def recording_scheduler(bed) -> tuple[ClusterScheduler, list]:
    """A scheduler and the (node, sim time) of each quarantine."""
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(), cache=None,
        attempt_timeout=DEADLINE,
    )
    quarantines: list = []
    hook = sched.health.on_quarantine

    def record(node: str) -> None:
        quarantines.append((node, bed.sim.now))
        hook(node)

    sched.health.on_quarantine = record
    return sched, quarantines


def wait_until(bed, predicate, polls: int = 80):
    """Poll every 0.25 sim-s until ``predicate()`` holds (20 s at most)."""
    for _ in range(polls):
        if predicate():
            return
        yield bed.sim.timeout(0.25)
    raise AssertionError("the awaited state never came")


def clean_service() -> float:
    """Service time of one ``make_job`` on an idle SD."""
    bed, _, sd_path = make_bed()
    sched = ClusterScheduler(bed.cluster, policy=AlwaysOffloadPolicy(), cache=None)
    bed.run(sched.submit(make_job(sd_path)))
    return sched.completed[0].service


# -- the scheduler -----------------------------------------------------------


def test_attempt_on_killed_sd_completes_elsewhere_at_detection():
    """The victim's attempt re-queues at detection, not at its 240 s
    deadline; the revived victim's canary runs at once and restores it."""
    service = clean_service()
    bed, inp, sd_path = make_bed()
    sched, quarantines = recording_scheduler(bed)
    kill_at = service / 4

    def driver():
        done = sched.submit(make_job(sd_path))
        yield bed.sim.timeout(kill_at)
        bed.cluster.sd_daemons["sd0"].kill()
        yield from wait_until(bed, lambda: quarantines)
        bed.cluster.sd_daemons["sd0"].revive()
        yield from wait_until(bed, lambda: sched.health.state["sd0"] == PROBATION)
        canary = yield sched.submit(make_job(sd_path, sd_node="sd0"))
        return (yield done), canary

    res, canary = bed.run(driver())
    [(node, detected_at)] = quarantines
    assert node == "sd0" and detected_at - kill_at < 4.0
    requeued, _canary = sched.completed
    assert requeued.where == "sd1" and requeued.attempts == 2
    assert requeued.finished_at <= detected_at + service * 1.02
    assert sum(v for _, v in res.output) == expected_total(inp)
    # the revived daemon ran nothing left over from before its death
    assert canary.where == "sd0" and canary.elapsed <= service * 1.02
    assert sched.health.state["sd0"] == HEALTHY


def test_attempt_without_deadline_ends_at_detection():
    """A call with no deadline still ends at its node's quarantine: with
    ``attempt_timeout=None`` only detection can free the job from a dead
    daemon, and it completes on the survivor on its second attempt."""
    bed, inp, sd_path = make_bed(n_sd=2, seed=3)
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(), attempt_timeout=None,
        cache=None,
    )
    done = sched.submit(make_job(sd_path))

    def killer():
        yield bed.sim.timeout(2.0)
        bed.cluster.sd_daemons["sd0"].kill()

    bed.sim.spawn(killer(), name="killer")
    bed.sim.run(until=30.0)
    assert done.ok
    assert sum(v for _, v in done.value.output) == expected_total(inp)
    (rec,) = sched.completed
    assert (rec.where, rec.attempts) == ("sd1", 2)
    assert rec.finished_at < 2.0 + DETECTION_BOUND + clean_service() + 1.0
    assert sched.unhealthy == {"sd0"}


def test_quarantine_fails_no_call_to_another_node():
    """Two attempts, one per SD: killing sd0 ends its attempt only."""
    service = clean_service()
    bed, inp, sd_path = make_bed()
    sched, quarantines = recording_scheduler(bed)

    def driver():
        done = [sched.submit(make_job(sd_path)) for _ in range(2)]
        yield bed.sim.timeout(service / 4)
        bed.cluster.sd_daemons["sd0"].kill()
        for d in done:
            yield d

    bed.run(driver())
    [(node, detected_at)] = quarantines
    assert node == "sd0"
    by_attempts = sorted(sched.completed, key=lambda rec: rec.attempts)
    untouched, requeued = by_attempts
    assert untouched.attempts == 1 and untouched.where == "sd1"
    assert untouched.service == pytest.approx(service, rel=1e-3)
    assert requeued.attempts == 2 and requeued.where == "sd1"
    assert requeued.dispatched_at == detected_at


def bed4():
    """A 4-SD testbed and a distributed wordcount over its replicas."""
    bed = Testbed(config=table1_cluster(n_sd=4, seed=0), seed=0)
    inp = text_input("/data/s", SIZE, payload_bytes=6_000, seed=9)
    _, sd_path = bed.stage_replicated("s", inp)
    job = DistributedJob(
        app="wordcount", input_path=sd_path, input_size=SIZE,
        fragment_bytes=(SIZE + 3) // 4,
    )
    return bed, job


def test_distributed_shard_on_killed_node_restarts_at_detection():
    """The merge node dies: one partial restart, at detection, and the
    answer is byte-identical to an undisturbed run."""
    bed, job = bed4()
    ref = bed.run(DistributedEngine(bed.cluster).run(job, timeout=DEADLINE))
    victim = ref.merge_node
    kill_at = (ref.timeline["map_done"] + ref.timeline["gather_done"]) / 2

    bed, job = bed4()
    sched, quarantines = recording_scheduler(bed)

    def killer():
        yield bed.sim.timeout(kill_at)
        bed.cluster.sd_daemons[victim].kill()

    bed.sim.spawn(killer(), name="killer")
    res = bed.run(sched.submit_distributed(job))
    [(node, detected_at)] = quarantines
    assert node == victim
    assert bed.sim.obs.metrics.counters["dist.restart.partial"] == 1
    [failure] = res.recovery["failures"]
    assert failure["node"] == victim and failure["cause"] == "NodeDownError"
    assert failure["at"] == pytest.approx(detected_at)
    assert res.merge_node != victim
    assert pickle.dumps(res.output) == pickle.dumps(ref.output)
    assert sched.completed[0].attempts == 1


def test_standalone_distributed_run_detects_a_killed_shard_node():
    """Without a scheduler, the run's own failure detector ends the dead
    mapper's call within its bound of the kill, long before the 240 s
    deadline, and the shard re-maps on a survivor."""
    bed, job = bed4()
    ref = bed.run(DistributedEngine(bed.cluster).run(job, timeout=DEADLINE))
    kill_at = ref.timeline["map_done"] / 2

    bed, job = bed4()
    eng = DistributedEngine(bed.cluster)

    def killer():
        yield bed.sim.timeout(kill_at)
        bed.cluster.sd_daemons["sd1"].kill()

    bed.sim.spawn(killer(), name="killer")
    res = bed.run(eng.run(job, timeout=DEADLINE))
    [failure] = res.recovery["failures"]
    assert (failure["node"], failure["phase"], failure["cause"]) == (
        "sd1", "map", "NodeDownError",
    )
    assert kill_at < failure["at"] <= kill_at + DETECTION_BOUND
    assert bed.cluster.health.state["sd1"] == QUARANTINED
    assert "sd1" not in res.shard_nodes
    assert pickle.dumps(res.output) == pickle.dumps(ref.output)


def test_call_to_a_quarantined_node_fails_at_once():
    """A run that starts after a node's quarantine waits for nothing
    there: its call to the node fails with NodeDownError in the instant
    it would start, and the shard runs on a survivor."""
    bed, job = bed4()
    eng = DistributedEngine(bed.cluster)

    def driver():
        ref = yield eng.run(job, timeout=DEADLINE)
        bed.cluster.sd_daemons["sd3"].kill()
        yield from wait_until(bed, lambda: "sd3" in bed.cluster.health.unhealthy)
        start = bed.sim.now
        return ref, start, (yield eng.run(job, timeout=DEADLINE))

    ref, start, res = bed.run(driver())
    [failure] = res.recovery["failures"]
    assert (failure["node"], failure["cause"], failure["at"]) == (
        "sd3", "NodeDownError", round(start, 6),
    )
    assert "sd3" not in res.shard_nodes
    assert pickle.dumps(res.output) == pickle.dumps(ref.output)


# -- the channel and the daemon ------------------------------------------------


def test_node_down_ends_the_call_and_frees_the_channel():
    bed, inp, sd_path = make_bed(n_sd=1)
    channel = bed.cluster.host_channels["sd0"]
    daemon = bed.cluster.sd_daemons["sd0"]
    params = make_job(sd_path).invoke_params()

    def driver():
        daemon.kill()
        call = channel.invoke("wordcount", params, timeout=DEADLINE)
        queued = channel.invoke("wordcount", params, timeout=DEADLINE)
        yield bed.sim.timeout(1.0)
        channel.node_down()
        outcomes = []
        for ev in (call, queued):
            try:
                yield ev
            except NodeDownError as exc:
                outcomes.append((exc.node, bed.sim.now))
        daemon.revive()
        # the module lock was released: a new call goes straight through
        result = yield channel.invoke("wordcount", params, timeout=DEADLINE)
        return outcomes, result

    outcomes, result = bed.run(driver())
    assert outcomes == [("sd0", 1.0), ("sd0", 1.0)]
    assert sum(v for _, v in result.output) == expected_total(inp)


def _log_results(bed) -> list:
    daemon = bed.cluster.sd_daemons["sd0"]
    log = daemon.node.fs.vfs.read(daemon.log_path("wordcount"))
    return [r.seq for r in LogFileCodec.decode(log) if r.kind == RESULT]


def test_kill_aborts_the_runs_in_flight():
    """A run dies with its daemon: CPU and memory come back at once, and
    a revive before the run would have ended writes no result."""
    service = clean_service()
    bed, _, sd_path = make_bed(n_sd=1)
    sd0 = bed.cluster.node("sd0")
    daemon = bed.cluster.sd_daemons["sd0"]
    channel = bed.cluster.host_channels["sd0"]
    before = sd0.memory.used

    def probe():
        return sd0.cpu.n_active, sd0.memory.used

    def driver():
        channel.invoke("wordcount", make_job(sd_path).invoke_params())
        yield bed.sim.timeout(service / 4)
        running = probe()
        daemon.kill()
        yield bed.sim.timeout(0.0)
        killed = probe()
        daemon.revive()
        yield bed.sim.timeout(service)  # past the run's natural end
        return running, killed

    running, killed = bed.run(driver())
    assert running[0] > 0 and running[1] > before
    assert killed == (0, before)
    assert _log_results(bed) == []
    assert daemon.results_dropped == 0


def test_results_dropped_counts_only_injected_drops():
    bed, _, sd_path = make_bed(n_sd=1)
    bed.sim.install_faults(
        FaultPlan(rules=(FaultRule("fam.result", action="drop", count=1),))
    )
    daemon = bed.cluster.sd_daemons["sd0"]
    channel = bed.cluster.host_channels["sd0"]
    params = make_job(sd_path).invoke_params()

    with pytest.raises(OffloadTimeoutError):
        bed.run(channel.invoke("wordcount", params, timeout=30.0))
    assert daemon.results_dropped == 1
