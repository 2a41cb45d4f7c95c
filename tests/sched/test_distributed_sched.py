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
    # the dead fleet costs the job until t = 8 s, when the fallback starts
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("nfs.call", action="drop", count=1, window=(8.0, 9.0)),
    )))
    res = bed.run(sched.submit_distributed(_job(sd_path)))
    assert pickle.dumps(res.output) == pickle.dumps(ref.output)
    rec = sched.completed[0]
    assert res.where == "host" and rec.attempts == 3
    assert rec.dispatched_at == pytest.approx(10.0)
