"""Grand integration: the full system under a realistic mixed workload.

One scenario, everything at once: a 2-SD Table I cluster with SMB routine
traffic, an adaptive-placement McSD runtime running a burst of mixed
programs (MM on the host + WC/SM/dbselect offloads), a scatter-gather
query across both storage nodes, and a fault injected mid-run that the
scheduler must absorb by moving the job — all while every result stays
exactly correct and every conservation invariant holds.
"""

from __future__ import annotations

import pytest

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import (
    AdaptivePolicy,
    AlwaysOffloadPolicy,
    ComputeJob,
    DataJob,
    McSDProgram,
    McSDRuntime,
    ScatterGatherEngine,
    ScatterJob,
)
from repro.apps.dbselect import make_dbselect_spec
from repro.faults import FaultPlan, FaultRule
from repro.sched import ClusterScheduler
from repro.smartfam.registry import mapreduce_module, standard_registry
from repro.units import MB
from repro.workloads import encrypted_input, text_input
from repro.workloads.records import records_input


@pytest.fixture(scope="module")
def world():
    """Build the scenario once; every test inspects the same completed run."""
    registry = standard_registry()
    registry.register("dbselect", mapreduce_module(lambda p: make_dbselect_spec()))
    bed = Testbed(
        config=table1_cluster(n_sd=2, seed=77),
        registry=registry,
        with_smb=True,
        seed=77,
    )

    # datasets
    wc_inp = text_input("/data/wc", MB(700), payload_bytes=12_000, seed=77)
    _s, _h, wc_path = bed.stage_on_sd("wc", wc_inp)
    bed.stage(bed.cluster.sd(1), wc_path, wc_inp)  # replica for failover

    sm_inp, sm_keys, sm_planted = encrypted_input(
        "/data/sm", MB(500), payload_bytes=10_000, hit_rate=0.1, seed=78
    )
    _s, _h, sm_path = bed.stage_on_sd("sm", sm_inp, sd_index=1)

    db_inp = records_input("/data/db", MB(600), payload_bytes=12_000, seed=79)
    _s, _h, db_path = bed.stage_on_sd("db", db_inp)

    big_inp = text_input("/data/big", MB(1600), payload_bytes=12_000, seed=80)
    shards = bed.stage_shards("big", big_inp)

    # sd0's daemon flakes once mid-run
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("fam.module", action="fail", count=1,
                  where={"node": "sd0", "module": "wordcount"}),
    )))

    runtime = McSDRuntime(bed.cluster, policy=AdaptivePolicy())
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(), attempt_timeout=90.0,
        cache=None,
    )
    scatter = ScatterGatherEngine(bed.cluster)

    results: dict = {}

    def driver():
        t0 = bed.sim.now
        # a WC offload that will hit the injected crash and move to sd1
        p_wc = sched.submit(
            DataJob(app="wordcount", input_path=wc_path, input_size=wc_inp.size)
        )
        # a mixed program: MM on the host + SM offloaded (data on sd1)
        p_prog = runtime.submit(
            McSDProgram(
                name="mix",
                host_part=ComputeJob.matmul(n=1024, payload_n=32),
                sd_part=DataJob(
                    app="stringmatch",
                    input_path=sm_path,
                    input_size=sm_inp.size,
                    mode="parallel",
                    params=sm_inp.params,
                    sd_node="sd1",
                ),
            )
        )
        # a database query, partition-enabled on sd0
        p_db = bed.cluster.channel("sd0").invoke(
            "dbselect",
            {
                "input_path": db_path,
                "input_size": db_inp.size,
                "mode": "partitioned",
                "app": {"threshold": 100.0, "agg": "sum"},
            },
        )
        # a scatter-gather across both SD nodes, issued once the WC offload
        # holds sd0's wordcount channel (calls to one module serialize), so
        # the injected crash lands on the scheduled job
        yield bed.sim.timeout(0.001)
        p_scatter = scatter.run(ScatterJob(app="wordcount", shards=shards))
        gathered = yield bed.sim.all_of([p_wc, p_prog, p_db, p_scatter])
        results["wc"] = gathered[p_wc]
        results["prog"] = gathered[p_prog]
        results["db"] = gathered[p_db]
        results["scatter"] = gathered[p_scatter]
        results["makespan"] = bed.sim.now - t0

    bed.run(driver())
    return bed, results, {
        "wc_inp": wc_inp,
        "sm_planted": sm_planted,
        "db_inp": db_inp,
        "big_inp": big_inp,
        "sched": sched,
    }


def test_everything_completed(world):
    bed, results, ctx = world
    assert results["makespan"] > 0
    assert all(k in results for k in ("wc", "prog", "db", "scatter"))


def test_wordcount_failed_over_and_is_exact(world):
    bed, results, ctx = world
    wc = results["wc"]
    assert wc.where == "sd1"  # crashed on sd0, recovered on the replica
    assert ctx["sched"].completed[0].attempts == 2
    assert bed.sim.obs.metrics.counters["sched.attempt_failures"] == 1
    assert sum(v for _, v in wc.output) == len(ctx["wc_inp"].payload_bytes.split())


def test_mixed_program_results(world):
    bed, results, ctx = world
    prog = results["prog"]
    assert prog.host_result.where == "host"
    assert prog.sd_result.where in ("sd1", "host")  # adaptive may shed
    assert sum(v for _, v in prog.sd_result.output) == ctx["sm_planted"]


def test_db_query_matches_direct_scan(world):
    bed, results, ctx = world
    truth: dict[bytes, float] = {}
    for line in ctx["db_inp"].payload_bytes.splitlines():
        key, _, raw = line.partition(b",")
        v = float(raw)
        if v >= 100.0:
            truth[key] = truth.get(key, 0.0) + v
    got = {k: round(v, 6) for k, v in results["db"].output}
    assert got == {k: round(v, 6) for k, v in truth.items()}


def test_scatter_used_both_sd_nodes(world):
    bed, results, ctx = world
    scatter = results["scatter"]
    assert {r.where for r in scatter.shard_results} == {"sd0", "sd1"}
    assert sum(v for _, v in scatter.output) == len(
        ctx["big_inp"].payload_bytes.split()
    )


def test_conservation_invariants_after_the_storm(world):
    bed, results, ctx = world
    # memory fully returned on every node
    for node in bed.cluster.nodes.values():
        assert node.memory.used == 0, node.name
        assert node.cpu.n_active == 0, node.name
    # SMB really ran and never touched the SD nodes
    assert bed.cluster.smb.messages_sent > 0
    for src, dst in bed.cluster.fabric.pair_messages:
        if src.startswith("sd") and dst.startswith("sd"):
            pytest.fail(f"unexpected SD-to-SD traffic {src} -> {dst}")


def test_deterministic_replay(world):
    """The whole storm replays to the identical makespan."""
    bed, results, ctx = world

    def rebuild():
        registry = standard_registry()
        registry.register(
            "dbselect", mapreduce_module(lambda p: make_dbselect_spec())
        )
        bed2 = Testbed(
            config=table1_cluster(n_sd=2, seed=77),
            registry=registry,
            with_smb=True,
            seed=77,
        )
        inp = text_input("/data/wc", MB(700), payload_bytes=12_000, seed=77)
        _s, _h, path = bed2.stage_on_sd("wc", inp)

        def go():
            t0 = bed2.sim.now
            yield bed2.cluster.channel().invoke(
                "wordcount",
                {"input_path": path, "input_size": inp.size, "mode": "partitioned"},
            )
            return bed2.sim.now - t0

        return bed2.run(go())

    assert rebuild() == rebuild()
