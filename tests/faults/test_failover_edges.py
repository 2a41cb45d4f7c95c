"""Edge-case tests for failover through the scheduler: replicas, host, counters."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import AlwaysOffloadPolicy, DataJob
from repro.errors import FileNotFoundInVFS
from repro.faults import FaultPlan, FaultRule
from repro.sched import ClusterScheduler
from repro.units import MB
from repro.workloads import text_input


@pytest.fixture()
def env():
    bed = Testbed(config=table1_cluster(n_sd=2, seed=12), seed=12)
    inp = text_input("/data/f", MB(50), payload_bytes=4_000, seed=12)
    _sd, _h, sd_path = bed.stage_on_sd("f", inp)
    bed.stage(bed.cluster.sd(1), sd_path, inp)
    job = DataJob(
        app="wordcount", input_path=sd_path, input_size=MB(50), mode="parallel"
    )
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(), attempt_timeout=60.0,
        cache=None,
    )
    return bed, inp, job, sched


def _always_crashing(bed, **where):
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("fam.module", action="fail", count=1000, where=where or None),
    ), seed=12))


def _expected(inp):
    return len(inp.payload_bytes.split())


def test_zero_replicas_falls_back_to_host(env):
    bed, inp, job, sched = env
    _always_crashing(bed)
    # pinned to sd0: no other SD node is a candidate
    res = bed.run(sched.submit(dataclasses.replace(job, sd_node="sd0")))
    assert res.where == bed.cluster.host.name  # degraded but correct
    assert sum(v for _, v in res.output) == _expected(inp)
    assert sched.completed[0].attempts == 2


def test_replica_failover_succeeds_before_host(env):
    bed, inp, job, sched = env
    # only sd0's module crashes: the rule is scoped by daemon node
    _always_crashing(bed, node="sd0")
    res = bed.run(sched.submit(job))
    assert res.where == "sd1"
    assert sum(v for _, v in res.output) == _expected(inp)
    assert sched.engine.host_runs == 0  # replica absorbed it; host never entered


def test_permanent_error_fails_fast_per_target(env):
    bed, _inp, _job, sched = env
    bad = DataJob(
        app="wordcount", input_path="/export/data/ghost",
        input_size=MB(1), mode="parallel",
    )
    done = sched.submit(bad)

    def go():
        try:
            yield done
        except Exception as exc:
            return exc

    exc = bed.run(go())
    assert isinstance(exc, FileNotFoundInVFS)
    counters = bed.sim.obs.metrics.counters
    # one attempt, no requeue: a missing input is not fixed by retrying
    assert counters["sched.attempt_failures"] == 1
    assert counters["sched.requeued"] == 0
    assert counters["sched.failed"] == 1
    assert bed.sim.now < 1.0


def test_counters_track_retries_and_failovers(env):
    bed, _inp, job, sched = env
    _always_crashing(bed)
    bed.run(sched.submit(job))
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    # sd0 -> sd1 -> host: two failed attempts, each re-queued
    assert counters["fault.injected.fam.module"] == 2
    assert counters["sched.attempt_failures"] == 2
    assert counters["sched.requeued"] == 2
    assert sched.engine.host_runs == 1
