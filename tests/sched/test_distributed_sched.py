"""Distributed jobs through the cluster scheduler's control plane."""

from __future__ import annotations

import pickle

import pytest

from repro.cluster.testbed import Testbed
from repro.config import table1_cluster
from repro.core import DistributedEngine, DistributedJob
from repro.faults import FaultPlan, FaultRule
from repro.sched import ClusterScheduler
from repro.units import MB
from repro.workloads import text_input

SIZE = MB(20)


def _bed():
    bed = Testbed(config=table1_cluster(n_sd=4, seed=0), seed=0)
    inp = text_input("/data/s", SIZE, payload_bytes=6_000, seed=9)
    _, sd_path = bed.stage_replicated("s", inp)
    return bed, sd_path


def _job(sd_path, **kw):
    return DistributedJob(
        app="wordcount", input_path=sd_path, input_size=SIZE,
        fragment_bytes=(SIZE + 3) // 4, **kw,
    )


def _reference(sd_path=None):
    bed, path = _bed()
    eng = DistributedEngine(bed.cluster)
    res = bed.run(eng.run(_job(path), timeout=3600.0))
    return res


def test_submit_distributed_completes_and_counts():
    ref = _reference()
    bed, sd_path = _bed()
    sched = ClusterScheduler(bed.cluster, attempt_timeout=3600.0, max_queue=4)
    res = bed.run(sched.submit_distributed(_job(sd_path)))
    assert pickle.dumps(res.output) == pickle.dumps(ref.output)
    assert res.offloaded and res.n_shards == 4
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    assert counters.get("sched.dist.submitted") == 1
    assert counters.get("sched.dist.completed") == 1
    assert counters.get("sched.dist.shards") == 4
    # the control-plane record is duck-type compatible with DataJob results
    assert sched.completed and sched.completed[0].where == res.merge_node


def test_distributed_jobs_skip_the_result_cache():
    bed, sd_path = _bed()
    sched = ClusterScheduler(bed.cluster, attempt_timeout=3600.0, max_queue=4)
    first = bed.run(sched.submit_distributed(_job(sd_path)))
    second = bed.run(sched.submit_distributed(_job(sd_path)))
    assert pickle.dumps(first.output) == pickle.dumps(second.output)
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    assert counters.get("sched.cache.hit", 0) == 0


def test_killed_shard_node_recovers_and_job_completes():
    ref = _reference()
    victim = ref.merge_node
    kill_at = ref.timeline["map_done"] + 1e-3

    bed, sd_path = _bed()
    sched = ClusterScheduler(bed.cluster, attempt_timeout=5.0, max_queue=4)

    def killer():
        yield bed.sim.timeout(kill_at)
        bed.cluster.sd_daemons[victim].kill()

    bed.sim.spawn(killer(), name="killer")
    res = bed.run(sched.submit_distributed(_job(sd_path)))
    assert pickle.dumps(res.output) == pickle.dumps(ref.output)
    # post-map kill: the victim's committed artifact is reused in place,
    # but no daemon work lands on it — reduce and merge move to survivors
    assert victim in res.shard_nodes
    assert victim not in res.reduce_nodes.values()
    assert res.merge_node != victim
    assert res.recovery["failures"]


def test_whole_fleet_dead_falls_back_to_host():
    ref = _reference()
    bed, sd_path = _bed()
    sched = ClusterScheduler(
        bed.cluster, attempt_timeout=2.0, max_queue=4, max_retries=1,
    )
    for name in list(bed.cluster.sd_daemons):
        bed.cluster.sd_daemons[name].kill()
    res = bed.run(sched.submit_distributed(_job(sd_path)))
    assert pickle.dumps(res.output) == pickle.dumps(ref.output)
    assert not res.offloaded and res.where == "host"


def test_host_fallback_runs_under_the_attempt_deadline():
    """A lost NFS message in the host fallback costs one deadline; then the
    fallback runs again on the host."""
    ref = _reference()
    bed, sd_path = _bed()
    sched = ClusterScheduler(
        bed.cluster, attempt_timeout=2.0, max_queue=4, max_retries=1,
    )
    for name in list(bed.cluster.sd_daemons):
        bed.cluster.sd_daemons[name].kill()
    # the dead fleet costs the job until t = 3 s, when the failure detector
    # quarantines the three daemons still unheard from and the fallback
    # starts
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("nfs.call", action="drop", count=1, window=(3.0, 4.0)),
    )))
    res = bed.run(sched.submit_distributed(_job(sd_path)))
    assert pickle.dumps(res.output) == pickle.dumps(ref.output)
    rec = sched.completed[0]
    assert res.where == "host" and rec.attempts == 3
    assert rec.dispatched_at == pytest.approx(5.0)


def test_failed_job_excludes_the_node_its_failures_name():
    """Every dist_map on sd2 crashes, so each recovery pass fails there
    and the engine gives the job up naming sd2 alone.  The re-queued job
    shards over the other two nodes: the lead node sd0, on which nothing
    failed, stays eligible."""
    bed = Testbed(config=table1_cluster(n_sd=3, seed=0), seed=0)
    inp = text_input("/data/s", MB(60), payload_bytes=6_000, seed=9)
    _, sd_path = bed.stage_replicated("s", inp)
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("fam.module", "fail", where={"module": "dist_map", "node": "sd2"}),
    )))
    sched = ClusterScheduler(bed.cluster, attempt_timeout=600.0, cache=None)
    placed = []
    launch = sched._launch

    def record(entry, job, placement):
        placed.append(entry.shard_nodes if placement.offload else placement.node)
        return launch(entry, job, placement)

    sched._launch = record
    res = bed.run(sched.submit_distributed(DistributedJob(
        app="wordcount", input_path=sd_path, input_size=MB(60),
        fragment_bytes=MB(10),
    )))
    assert placed == [("sd0", "sd1", "sd2"), ("sd0", "sd1")]
    assert res.offloaded and set(res.shard_nodes) == {"sd0", "sd1"}
    assert sched.completed[0].attempts == 2
