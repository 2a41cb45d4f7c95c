"""Fine-grained recovery: partial restart, artifact repair, speculation."""

from __future__ import annotations

import pickle

from repro.cluster.testbed import Testbed
from repro.config import table1_cluster
from repro.core import DistributedEngine, DistributedJob
from repro.core.distributed import SpeculationPolicy
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


def test_kill_at_exchange_partial_restart():
    clean = _clean()
    # a reduce owner that is NOT the merge node: its death loses its
    # derived working state, but its committed map artifact stays on the
    # (host-readable) disk, so NO map is re-run — the partition it owned
    # is re-reduced on a survivor from the surviving artifacts
    victims = [n for n in clean.reduce_nodes.values() if n != clean.merge_node]
    victim = victims[0] if victims else clean.merge_node
    kill_at = (clean.timeline["map_done"] + clean.timeline["exchange_done"]) / 2

    bed, sd_path = _bed()
    eng = DistributedEngine(bed.cluster)

    def killer():
        yield bed.sim.timeout(kill_at)
        bed.cluster.sd_daemons[victim].kill()

    bed.sim.spawn(killer(), name="killer")
    res = bed.run(eng.run(_job(sd_path), timeout=5.0))
    assert pickle.dumps(res.output) == pickle.dumps(clean.output)
    assert eng.partial_restarts >= 1
    # the dead mapper's committed artifact was reused in place
    assert victim in res.shard_nodes
    # but no daemon work was re-dispatched to it
    assert victim not in res.reduce_nodes.values()
    assert res.merge_node != victim
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    # recovery never re-ran a map: one dist_map invoke per shard, total
    assert counters.get("dist.invoke.map", 0) == res.n_shards
    assert counters.get("dist.restart.partial", 0) >= 1


def test_corrupted_artifact_rebuilt_in_place():
    clean = _clean()
    bed, sd_path = _bed()
    injector = bed.sim.install_faults(recovery_chaos_plan(0))
    eng = DistributedEngine(bed.cluster)
    res = bed.run(eng.run(_job(sd_path), timeout=_TIMEOUT))
    assert injector.fired_by_site().get("shuffle.artifact", 0) == 1
    assert pickle.dumps(res.output) == pickle.dumps(clean.output)
    # crc caught the on-disk damage; only that artifact was re-derived
    assert eng.partial_restarts >= 1
    # the replay re-copied only the rebuilt shard's buckets; every other
    # surviving transfer was recognized and skipped
    assert res.recovery["dedup_transfers"] >= 1


def test_straggler_speculation_wins():
    clean = _clean()
    victim = clean.shard_nodes[0]
    map_span = max(clean.timeline["map_done"], 0.2)
    stall = 6.0 * map_span

    bed, sd_path = _bed()
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("fam.dispatch", action="delay", count=1, delay=stall,
                  where={"module": "dist_map", "node": victim}),
    )))
    eng = DistributedEngine(
        bed.cluster,
        speculation=SpeculationPolicy(multiplier=1.3, min_wait=0.02),
    )
    res = bed.run(eng.run(_job(sd_path), timeout=_TIMEOUT))
    assert pickle.dumps(res.output) == pickle.dumps(clean.output)
    assert eng.partial_restarts == 0
    spec = res.recovery["speculation"]
    assert spec["launched"] >= 1 and spec["won"] >= 1
    # the duplicate shard ran on a spare, so the stall never gated the job
    assert res.elapsed < clean.elapsed + stall


def test_speculation_disabled_by_policy():
    bed, sd_path = _bed()
    eng = DistributedEngine(
        bed.cluster, speculation=SpeculationPolicy(enabled=False)
    )
    res = bed.run(eng.run(_job(sd_path), timeout=_TIMEOUT))
    assert res.recovery["speculation"] == {
        "launched": 0, "won": 0, "cancelled": 0,
    }


def _straggler_stream_finish_times(trace: bool) -> list[str]:
    """Four 100 MB jobs back to back on 4 SDs; one dist_map dispatch of
    the third job stalls 1 s, so speculation has to pick a threshold."""
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


def test_tracing_does_not_change_speculation():
    # the straggler cutoff once read a histogram only tracing fills
    assert _straggler_stream_finish_times(False) == _straggler_stream_finish_times(True)
