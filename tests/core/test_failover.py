"""Tests for fault tolerance: deadlines, retries, failover (Section VI)."""

from __future__ import annotations

import pytest

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import DataJob, FaultTolerantInvoker
from repro.errors import OffloadError, OffloadTimeoutError, SmartFAMError
from repro.faults import FaultPlan, FaultRule
from repro.units import MB
from repro.workloads import text_input


@pytest.fixture()
def env():
    bed = Testbed(config=table1_cluster(n_sd=2, seed=5), seed=5)
    inp = text_input("/data/f", MB(200), payload_bytes=6_000, seed=5)
    _sd, _h, sd_path = bed.stage_on_sd("f", inp)
    # replicate the dataset on the second SD node (failover target)
    bed.stage(bed.cluster.sd(1), sd_path, inp)
    job = DataJob(app="wordcount", input_path=sd_path, input_size=MB(200), mode="parallel")
    return bed, inp, job


def expected_total(inp):
    return len(inp.payload_bytes.split())


def inject(bed, *rules):
    bed.sim.install_faults(FaultPlan(rules=rules))


def crash(node, count):
    """The next ``count`` wordcount runs on ``node`` fail."""
    return FaultRule("fam.module", action="fail", count=count,
                     where={"node": node, "module": "wordcount"})


def drop(node, count):
    """The next ``count`` wordcount results on ``node`` are lost."""
    return FaultRule("fam.result", action="drop", count=count,
                     where={"node": node, "module": "wordcount"})


def test_clean_run_single_attempt(env):
    bed, inp, job = env
    ft = FaultTolerantInvoker(bed.cluster, timeout=60.0)

    def go():
        return (yield ft.run(job))

    res = bed.run(go())
    assert res.where == "sd0"
    assert ft.total_attempts == 1
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_injected_crash_retried_on_same_node(env):
    bed, inp, job = env
    inject(bed, crash("sd0", 1))
    ft = FaultTolerantInvoker(bed.cluster, timeout=60.0, max_retries=1)

    def go():
        return (yield ft.run(job))

    res = bed.run(go())
    assert res.where == "sd0"
    trail = ft.history[0]
    # one trail entry per target; the same-node retry is the channel's
    assert [a.outcome for a in trail] == ["ok"]
    assert bed.cluster.channel("sd0").retries == 1


def test_dropped_result_times_out_and_retries(env):
    bed, inp, job = env
    inject(bed, drop("sd0", 1))
    ft = FaultTolerantInvoker(bed.cluster, timeout=20.0, max_retries=1)

    def go():
        return (yield ft.run(job))

    res = bed.run(go())
    trail = ft.history[0]
    assert [a.outcome for a in trail] == ["ok"]
    assert bed.cluster.channel("sd0").retries == 1
    # the first try waited out its whole deadline before the retry
    assert trail[0].finished_at - trail[0].started_at > 20.0
    assert res.where == "sd0"
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_failover_to_replica_sd(env):
    bed, inp, job = env
    inject(bed, crash("sd0", 5))
    ft = FaultTolerantInvoker(bed.cluster, timeout=60.0, max_retries=1)

    def go():
        return (yield ft.run(job, replicas=["sd1"]))

    res = bed.run(go())
    assert res.where == "sd1"
    targets = [a.target for a in ft.history[0]]
    assert targets == ["sd0", "sd1"]
    assert bed.cluster.channel("sd0").retries == 1
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_slow_sd_answers_the_retry_from_its_first_run(env):
    """A timed-out try is re-invoked under the same seq: a slow but alive
    daemon runs the module once and that run answers the retry."""
    bed, inp, job = env
    # the clean run takes ~6.15 s: the first try misses its deadline
    ft = FaultTolerantInvoker(bed.cluster, timeout=3.69, max_retries=1)

    def go():
        return (yield ft.run(job))

    res = bed.run(go())
    assert res.where == "sd0"
    assert bed.cluster.channel("sd0").retries == 1
    assert bed.cluster.sd_daemons["sd0"].invocations == 1
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_failover_to_host_when_all_sds_dead(env):
    bed, inp, job = env
    inject(bed, crash("sd0", 5), crash("sd1", 5))
    ft = FaultTolerantInvoker(bed.cluster, timeout=60.0, max_retries=0)

    def go():
        return (yield ft.run(job, replicas=["sd1"]))

    res = bed.run(go())
    assert res.where == "host"
    assert not res.offloaded
    assert ft.failovers == 1
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_no_fallback_raises(env):
    bed, inp, job = env
    inject(bed, crash("sd0", 5))
    ft = FaultTolerantInvoker(
        bed.cluster, timeout=60.0, max_retries=1, fallback_to_host=False
    )

    def go():
        yield ft.run(job)

    with pytest.raises(OffloadError):
        bed.run(go())


def test_raw_channel_timeout_error(env):
    bed, inp, job = env
    inject(bed, drop("sd0", 1))

    def go():
        try:
            yield bed.cluster.channel().invoke(
                "wordcount", job.invoke_params(), timeout=10.0
            )
        except OffloadTimeoutError as exc:
            return (bed.sim.now, exc.module)

    t, module = bed.run(go())
    assert t == pytest.approx(10.0, rel=0.01)
    assert module == "wordcount"


def test_channel_recovers_after_timeout(env):
    """The per-module lock must not be leaked by an abandoned call."""
    bed, inp, job = env
    inject(bed, drop("sd0", 1))
    channel = bed.cluster.channel()

    def go():
        try:
            yield channel.invoke("wordcount", job.invoke_params(), timeout=10.0)
        except OffloadTimeoutError:
            pass
        res = yield channel.invoke("wordcount", job.invoke_params(), timeout=120.0)
        return res

    res = bed.run(go())
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_validation():
    bed = Testbed(seed=1)
    with pytest.raises(OffloadError):
        FaultTolerantInvoker(bed.cluster, max_retries=-1)
