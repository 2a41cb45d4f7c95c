"""Edge-case tests for FaultTolerantInvoker: replicas, fallback, counters."""

from __future__ import annotations

import pytest

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import DataJob, FaultTolerantInvoker
from repro.errors import OffloadError
from repro.faults import FaultPlan, FaultRule
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
    return bed, inp, job


def _always_crashing(bed):
    bed.sim.install_faults(
        FaultPlan(rules=(FaultRule("fam.module", action="fail", count=1000),), seed=12)
    )


def _expected(inp):
    return len(inp.payload_bytes.split())


def test_zero_replicas_falls_back_to_host(env):
    bed, inp, job = env
    _always_crashing(bed)
    ft = FaultTolerantInvoker(bed.cluster, timeout=60.0, max_retries=1)

    def go():
        return (yield ft.run(job))  # no replicas at all

    res = bed.run(go())
    assert res.where == bed.cluster.host.name  # degraded but correct
    assert sum(v for _, v in res.output) == _expected(inp)
    assert ft.failovers == 1
    trail = ft.history[0]
    assert [a.outcome for a in trail] == ["error", "ok"]
    assert trail[-1].detail == "failover"
    assert bed.cluster.channel("sd0").retries == 1


def test_all_replicas_down_without_fallback_raises(env):
    bed, _inp, job = env
    _always_crashing(bed)
    ft = FaultTolerantInvoker(
        bed.cluster, timeout=60.0, max_retries=1, fallback_to_host=False
    )

    def go():
        try:
            return (yield ft.run(job, replicas=["sd1"]))
        except OffloadError as exc:
            return exc

    exc = bed.run(go())
    assert isinstance(exc, OffloadError)
    # budget fully spent, nothing beyond it: one try + one retry per target
    assert ft.total_attempts == 2
    assert [bed.cluster.channel(n).retries for n in ("sd0", "sd1")] == [1, 1]
    assert ft.failovers == 0


def test_replica_failover_succeeds_before_host(env):
    bed, inp, job = env
    # only sd0's module crashes: the rule is scoped by daemon node
    bed.sim.install_faults(
        FaultPlan(
            rules=(
                FaultRule(
                    "fam.module", action="fail", count=1000, where={"node": "sd0"}
                ),
            ),
            seed=12,
        )
    )
    ft = FaultTolerantInvoker(bed.cluster, timeout=60.0, max_retries=1)

    def go():
        return (yield ft.run(job, replicas=["sd1"]))

    res = bed.run(go())
    assert res.where == "sd1"
    assert sum(v for _, v in res.output) == _expected(inp)
    assert ft.failovers == 0  # replica absorbed it; host never entered


def test_permanent_error_fails_fast_per_target(env):
    bed, _inp, job = env
    bad = DataJob(
        app="wordcount", input_path="/export/data/ghost",
        input_size=MB(1), mode="parallel",
    )
    ft = FaultTolerantInvoker(
        bed.cluster, timeout=60.0, max_retries=3, fallback_to_host=False
    )

    def go():
        try:
            return (yield ft.run(bad, replicas=["sd1"]))
        except OffloadError as exc:
            return exc

    exc = bed.run(go())
    assert isinstance(exc, OffloadError)
    # one attempt per target despite max_retries=3: the error is permanent
    assert ft.total_attempts == 2
    assert [bed.cluster.channel(n).retries for n in ("sd0", "sd1")] == [0, 0]


def test_unknown_replica_names_are_skipped(env):
    bed, inp, job = env
    ft = FaultTolerantInvoker(bed.cluster, timeout=60.0)

    def go():
        return (yield ft.run(job, replicas=["no-such-node"]))

    res = bed.run(go())
    assert res.where == "sd0"
    assert sum(v for _, v in res.output) == _expected(inp)
    assert ft.total_attempts == 1


def test_counters_track_retries_and_failovers(env):
    bed, _inp, job = env
    _always_crashing(bed)
    ft = FaultTolerantInvoker(bed.cluster, timeout=60.0, max_retries=1)

    def go():
        return (yield ft.run(job, replicas=["sd1"]))

    bed.run(go())
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    # 1 retry on each SD target, then sd0 -> sd1 and sd1 -> host failovers
    assert counters["retry.smartfam.wordcount"] == 2
    assert counters["failover.count"] == 2
    assert counters["failover.host"] == 1


def test_invoker_validates_budgets(env):
    bed, _inp, _job = env
    with pytest.raises(OffloadError):
        FaultTolerantInvoker(bed.cluster, max_retries=-1)
