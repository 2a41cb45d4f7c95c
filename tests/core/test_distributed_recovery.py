"""Fine-grained recovery: partial restart and artifact repair."""

from __future__ import annotations

import pickle

from repro.cluster.testbed import Testbed
from repro.config import table1_cluster
from repro.core import DistributedEngine, DistributedJob
from repro.faults import FaultPlan, FaultRule, recovery_chaos_plan
from repro.units import MB
from repro.workloads import text_input

_TIMEOUT = 3600.0


def _bed(n_sd: int = 4, size: int = MB(20)):
    bed = Testbed(config=table1_cluster(n_sd=n_sd, seed=0), seed=0)
    inp = text_input("/data/d", size, payload_bytes=6_000, seed=5)
    _, sd_path = bed.stage_replicated("d", inp)
    return bed, sd_path


def _job(sd_path, size=MB(20)):
    return DistributedJob(
        app="wordcount", input_path=sd_path, input_size=size,
        fragment_bytes=(size + 3) // 4,
    )


def _clean():
    bed, sd_path = _bed()
    eng = DistributedEngine(bed.cluster)
    res = bed.run(eng.run(_job(sd_path), timeout=_TIMEOUT))
    return res


def test_killing_a_mapper_after_the_map_costs_nothing():
    clean = _clean()
    # a mapper that is NOT the merge node: its committed parts stay on the
    # (host-readable) disk, the gather copies them from there and the
    # merge runs elsewhere, so the job needs nothing from its daemon
    victim = next(n for n in clean.shard_nodes if n != clean.merge_node)
    kill_at = clean.timeline["map_done"] + 1e-3

    bed, sd_path = _bed()
    eng = DistributedEngine(bed.cluster)

    def killer():
        yield bed.sim.timeout(kill_at)
        bed.cluster.sd_daemons[victim].kill()

    bed.sim.spawn(killer(), name="killer")
    res = bed.run(eng.run(_job(sd_path), timeout=5.0))
    assert pickle.dumps(res.output) == pickle.dumps(clean.output)
    assert res.recovery["partial_restarts"] == 0 and not res.recovery["failures"]
    assert victim in res.shard_nodes and res.merge_node == clean.merge_node
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    assert counters.get("dist.invoke.map", 0) == res.n_shards
    assert res.elapsed == clean.elapsed


def test_map_failing_on_one_node_moves_its_shard():
    # dist_map always fails on sd2 (a module fault, not a death): its shard
    # moves to a survivor for the next pass instead of failing there again
    def run(plan):
        bed, sd_path = _bed(n_sd=3, size=MB(60))
        if plan is not None:
            bed.sim.install_faults(plan)
        job = DistributedJob(
            app="wordcount", input_path=sd_path, input_size=MB(60),
            fragment_bytes=MB(10),
        )
        res = bed.run(DistributedEngine(bed.cluster).run(job, timeout=600.0))
        return bed, res

    _, clean = run(None)
    bed, res = run(FaultPlan(rules=(
        FaultRule("fam.module", "fail", where={"module": "dist_map", "node": "sd2"}),
    )))
    assert pickle.dumps(res.output) == pickle.dumps(clean.output)
    assert res.recovery["partial_restarts"] == 1
    assert res.shard_nodes == ["sd0", "sd1", "sd0"]
    assert bed.sim.obs.metrics.counters["dist.invoke.map"] == 3 + 3


def test_corrupted_artifact_rebuilt_in_place():
    clean = _clean()
    bed, sd_path = _bed()
    injector = bed.sim.install_faults(recovery_chaos_plan(0))
    eng = DistributedEngine(bed.cluster)
    res = bed.run(eng.run(_job(sd_path), timeout=_TIMEOUT))
    assert injector.fired_by_site().get("shuffle.artifact", 0) == 1
    assert pickle.dumps(res.output) == pickle.dumps(clean.output)
    # crc caught the on-disk damage; only that artifact was re-derived
    assert res.recovery["partial_restarts"] >= 1
    # the replay re-copied only the rebuilt shard's buckets; every other
    # surviving transfer was recognized and skipped
    assert res.recovery["dedup_transfers"] >= 1


def _straggler_stream_finish_times(trace: bool) -> list[str]:
    """Four 100 MB jobs back to back on 4 SDs; one dist_map dispatch of
    the third job stalls 1 s."""
    bed = Testbed(config=table1_cluster(n_sd=4, seed=3), seed=3, trace=trace)
    inp = text_input("/data/d", MB(100), payload_bytes=6_000, seed=3)
    _, sd_path = bed.stage_replicated("d", inp)
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("fam.dispatch", action="delay", delay=1.0, count=1, after=12,
                  where={"module": "dist_map"}),
    )))
    eng = DistributedEngine(bed.cluster)

    def stream():
        finished = []
        for _ in range(4):
            yield eng.run(
                DistributedJob(app="wordcount", input_path=sd_path, input_size=MB(100)),
                timeout=_TIMEOUT,
            )
            finished.append(repr(bed.sim.now))
        return finished

    return bed.run(stream())


def test_tracing_does_not_change_a_distributed_stream():
    # the engine's decisions must not read anything only tracing fills
    assert _straggler_stream_finish_times(False) == _straggler_stream_finish_times(True)
