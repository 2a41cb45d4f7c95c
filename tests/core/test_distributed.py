"""Distributed single-job engine: planning, gather, faults, recovery."""

from __future__ import annotations

import pickle

import pytest

from repro.apps import spec_for_app
from repro.cluster.testbed import Testbed
from repro.config import table1_cluster
from repro.core import (
    DataJob,
    DistributedEngine,
    DistributedJob,
    OffloadEngine,
    plan_distribution,
)
from repro.core.distributed import ShardFragment
from repro.core.loadbalance import Placement
from repro.errors import DistributedJobError, OffloadError
from repro.faults import distributed_chaos_plan
from repro.phoenix import InputSpec
from repro.sched.health import DETECTION_BOUND
from repro.units import MB
from repro.workloads import text_input

_TIMEOUT = 3600.0


def _bed(n_sd: int = 4, size: int = MB(20), **stage_kw):
    bed = Testbed(config=table1_cluster(n_sd=n_sd, seed=0), seed=0)
    inp = text_input("/data/d", size, payload_bytes=6_000, seed=5)
    _, sd_path = bed.stage_replicated("d", inp, **stage_kw)
    return bed, sd_path, inp


def _job(sd_path, size=MB(20), **kw):
    kw.setdefault("fragment_bytes", (size + 3) // 4)
    return DistributedJob(
        app="wordcount", input_path=sd_path, input_size=size, **kw,
    )


# -- planning ----------------------------------------------------------------


def _plan(job, payload, nodes):
    cfg = table1_cluster(n_sd=4, seed=0)
    return plan_distribution(
        job, payload, nodes, cfg.node("sd0").mem_bytes, cfg.phoenix
    )


def test_plan_slices_contiguous_fragments_over_shards():
    payload = b"alpha beta gamma delta " * 200
    size = MB(8)
    job = _job("/x", size=size, fragment_bytes=MB(2), n_shards=4)
    plan = _plan(job, payload, ["sd0", "sd1", "sd2", "sd3"])
    assert plan.kind == "bytes"
    assert len(plan.shards) == 4
    assert sum(s.size for s in plan.shards) == size
    # contiguous global fragment indices, in order, no gaps
    indices = [f.index for s in plan.shards for f in s.fragments]
    assert indices == list(range(plan.n_fragments))
    # payload slices tile the payload exactly
    spans = [(f.p0, f.p1) for s in plan.shards for f in s.fragments]
    assert spans[0][0] == 0 and spans[-1][1] == len(payload)
    for (_, p1), (q0, _) in zip(spans, spans[1:]):
        assert p1 == q0


def test_plan_drops_empty_shards_when_fragments_are_scarce():
    # one fragment, four requested shards: only one shard is planned
    payload = b"tiny"
    job = _job("/x", size=MB(1), fragment_bytes=MB(8), n_shards=4)
    plan = _plan(job, payload, ["sd0", "sd1", "sd2", "sd3"])
    assert len(plan.shards) == 1
    assert plan.shards[0].size == MB(1)


def test_plan_split_kind_for_non_byte_payloads():
    from repro.apps.matmul import matmul_input

    inp = matmul_input("/data/m", 64, payload_n=8, seed=1)
    job = DistributedJob(
        app="matmul", input_path="/x", input_size=inp.size,
        n_shards=3, params={"n": 64},
    )
    plan = _plan(job, inp.payload, ["sd0", "sd1", "sd2", "sd3"])
    assert plan.kind == "split"
    assert len(plan.shards) == 3
    assert sum(s.size for s in plan.shards) == inp.size
    # declared sizes differ by at most one byte (divmod apportionment)
    sizes = [s.size for s in plan.shards]
    assert max(sizes) - min(sizes) <= 1


def test_plan_requires_nodes():
    job = _job("/x")
    with pytest.raises(OffloadError):
        _plan(job, b"x", [])


def test_shard_fragment_is_frozen():
    f = ShardFragment(size=10, p0=0, p1=4, index=0)
    with pytest.raises(Exception):
        f.size = 20  # type: ignore[misc]


# -- clean runs --------------------------------------------------------------


def test_distributed_run_reports_shuffle_accounting():
    bed, sd_path, inp = _bed()
    eng = DistributedEngine(bed.cluster)
    res = bed.run(eng.run(_job(sd_path), timeout=_TIMEOUT))
    assert res.n_shards == 4 and res.offloaded
    assert res.where == res.merge_node
    # exactly the fragment outputs not already on the merge node cross
    # the wire, each at its declared output size
    profile = spec_for_app("wordcount").profile
    remote = [
        f for s, node in zip(res.plan.shards, res.shard_nodes)
        if node != res.merge_node for f in s.fragments
    ]
    assert remote
    assert res.shuffle_bytes == sum(max(1, profile.output_bytes(f.size)) for f in remote)
    assert res.shuffle_transfers == len(remote)
    # the observable counters mirror the result's accounting
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    assert counters.get("shuffle.bytes") == res.shuffle_bytes
    assert counters.get("shuffle.transfers") == res.shuffle_transfers
    assert counters.get("dist.jobs") == 1
    # one map call per shard and one merge: no other module runs
    invokes = {k: v for k, v in counters.items() if k.startswith("dist.invoke.")}
    assert invokes == {"dist.invoke.map": res.n_shards, "dist.invoke.merge": 1}
    # the timeline is monotone through the phases
    tl = res.timeline
    assert tl["started"] <= tl["map_done"] <= tl["gather_done"] <= tl["merge_done"]


def test_uneven_shards_map_once_each():
    # 6 fragments over 4 shards split 1/2/1/2: the 2-fragment shards take
    # longer, and a clean run still maps every shard exactly once
    bed, sd_path, _ = _bed(size=MB(60))
    eng = DistributedEngine(bed.cluster)
    res = bed.run(eng.run(
        _job(sd_path, size=MB(60), fragment_bytes=MB(10)), timeout=_TIMEOUT,
    ))
    assert [len(s.fragments) for s in res.plan.shards] == [1, 2, 1, 2]
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    assert counters.get("dist.invoke.map") == res.n_shards == 4
    assert res.recovery["partial_restarts"] == 0


def test_width_one_runs_without_exchange():
    bed, sd_path, inp = _bed()
    eng = DistributedEngine(bed.cluster)
    res = bed.run(eng.run(_job(sd_path, n_shards=1), timeout=_TIMEOUT))
    assert res.n_shards == 1
    assert res.shuffle_bytes == 0 and res.shuffle_transfers == 0


def test_engine_restricted_to_explicit_nodes():
    bed, sd_path, inp = _bed()
    eng = DistributedEngine(bed.cluster)
    res = bed.run(eng.run(_job(sd_path), nodes=["sd1", "sd3"], timeout=_TIMEOUT))
    assert set(res.shard_nodes) == {"sd1", "sd3"}


def test_engine_only_uses_nodes_holding_a_replica():
    # stage on 2 of the 4 nodes: shards must not land on the bare ones
    bed, sd_path, inp = _bed(n_replicas=2)
    eng = DistributedEngine(bed.cluster)
    res = bed.run(eng.run(_job(sd_path), timeout=_TIMEOUT))
    assert set(res.shard_nodes) <= {"sd0", "sd1"}


def test_default_fragments_fit_node_memory():
    # one shard over 2 GB: a size/width fragment would be the whole input,
    # past original Phoenix's memory limit, so every map would fail
    size = MB(2000)
    bed, sd_path, _ = _bed(n_sd=1, size=size)
    job = DistributedJob(
        app="wordcount", input_path=sd_path, input_size=size, n_shards=1,
    )
    res = bed.run(DistributedEngine(bed.cluster).run(job, timeout=_TIMEOUT))
    assert res.plan.n_fragments > 1

    ref_bed, ref_path, _ = _bed(n_sd=1, size=size)
    ref = ref_bed.run(OffloadEngine(ref_bed.cluster).run(
        DataJob(app="wordcount", input_path=ref_path, input_size=size),
        Placement(node="sd0", offload=True, reason="reference"),
    ))
    assert pickle.dumps(res.output) == pickle.dumps(ref.output)


# -- faults ------------------------------------------------------------------


def test_shuffle_chaos_plan_absorbed_in_place():
    bed, sd_path, inp = _bed()
    eng = DistributedEngine(bed.cluster)
    clean = bed.run(eng.run(_job(sd_path), timeout=_TIMEOUT))

    bed2, path2, _ = _bed()
    injector = bed2.sim.install_faults(distributed_chaos_plan(0))
    eng2 = DistributedEngine(bed2.cluster)
    res = bed2.run(eng2.run(_job(path2), timeout=_TIMEOUT))
    assert pickle.dumps(res.output) == pickle.dumps(clean.output)
    # every rule fired, yet the bounded in-place retry absorbed them all
    assert injector.fired_by_site().get("shuffle.exchange", 0) == 3
    assert res.recovery["partial_restarts"] == 0
    counters = bed2.sim.obs.metrics.snapshot()["counters"]
    assert counters.get("retry.shuffle", 0) >= 1


def test_killed_shard_restarts_on_survivors():
    bed, sd_path, inp = _bed()
    eng = DistributedEngine(bed.cluster)
    clean = bed.run(eng.run(_job(sd_path), timeout=_TIMEOUT))
    victim = clean.merge_node
    # mid-map: the victim dies before committing its map artifact, so its
    # shard is the one thing re-run — on a survivor
    kill_at = clean.timeline["map_done"] * 0.5

    bed2, path2, _ = _bed()
    eng2 = DistributedEngine(bed2.cluster)

    def killer():
        yield bed2.sim.timeout(kill_at)
        bed2.cluster.sd_daemons[victim].kill()

    bed2.sim.spawn(killer(), name="killer")
    res = bed2.run(eng2.run(_job(path2), timeout=5.0))
    assert pickle.dumps(res.output) == pickle.dumps(clean.output)
    # surviving map artifacts are reused: a partial restart only
    assert res.recovery["partial_restarts"] >= 1
    assert victim not in res.shard_nodes
    assert res.recovery["failures"]


def _kill_after_map(victims, size=MB(20)):
    """Kill ``victims``' daemons just after the clean run's map phase,
    with a 5 s invoke deadline.

    Returns ``(bed, kill_at, clean_result, outcome)``; the outcome is
    the result, or the exception the job raised.
    """
    bed, sd_path, _ = _bed(size=size)
    clean = bed.run(DistributedEngine(bed.cluster).run(
        _job(sd_path, size=size), timeout=_TIMEOUT,
    ))
    kill_at = clean.timeline["map_done"] + 1e-3
    victims = victims(clean)

    bed2, path2, _ = _bed(size=size)

    def killer():
        yield bed2.sim.timeout(kill_at)
        for name in victims:
            bed2.cluster.sd_daemons[name].kill()

    def go():
        try:
            return (yield DistributedEngine(bed2.cluster).run(
                _job(path2, size=size), timeout=5.0,
            ))
        except Exception as exc:
            return exc

    bed2.sim.spawn(killer(), name="killer")
    return bed2, kill_at, clean, bed2.run(go())


def test_dead_shard_detected_by_the_failure_detector():
    # the run's own failure detector ends the dead node's call, well
    # inside the 5 s deadline, and starts the recovery pass
    _, kill_at, clean, res = _kill_after_map(lambda c: [c.merge_node])
    assert pickle.dumps(res.output) == pickle.dumps(clean.output)
    first = min(res.recovery["failures"], key=lambda f: f["at"])
    assert first["cause"] == "NodeDownError"
    assert first["at"] <= kill_at + DETECTION_BOUND


def test_failed_job_leaves_no_shuffle_dir():
    bed, _, _, exc = _kill_after_map(
        lambda c: list(c.shard_nodes), size=MB(40),
    )
    assert isinstance(exc, DistributedJobError)
    for node in bed.cluster.sd_nodes:
        vfs = node.fs.vfs
        leaked = vfs.listdir("/export/shuffle") if vfs.exists("/export/shuffle") else []
        assert not leaked, (node.name, leaked)


def test_whole_fleet_dead_raises_distributed_job_error():
    bed, sd_path, inp = _bed()
    for name in list(bed.cluster.sd_daemons):
        bed.cluster.sd_daemons[name].kill()
    eng = DistributedEngine(bed.cluster)

    def go():
        try:
            yield eng.run(_job(sd_path), timeout=1.0)
        except DistributedJobError as exc:
            return exc
        raise AssertionError("expected DistributedJobError")

    exc = bed.run(go())
    assert isinstance(exc, DistributedJobError)
    assert exc.excluded  # the 1 s deadline fires before the detector could
