"""Tests for fault tolerance: deadlines, requeue, replica/host failover (Section VI).

One path absorbs a failed offload: the scheduler re-queues the job on
another SD node holding the input, then on the host.
"""

from __future__ import annotations

import pytest

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import AlwaysOffloadPolicy, DataJob
from repro.errors import ConfigError, OffloadTimeoutError
from repro.faults import FaultPlan, FaultRule
from repro.sched import ClusterScheduler
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


def schedule(bed, timeout=60.0):
    return ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(), attempt_timeout=timeout,
        cache=None,
    )


def test_clean_run_single_attempt(env):
    bed, inp, job = env
    sched = schedule(bed)
    res = bed.run(sched.submit(job))
    assert res.where == "sd0"
    assert sched.completed[0].attempts == 1
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_dropped_result_times_out_and_retries(env):
    bed, inp, job = env
    inject(bed, drop("sd0", 1))
    sched = schedule(bed, timeout=20.0)
    res = bed.run(sched.submit(job))
    rec = sched.completed[0]
    # the first try waited out its whole deadline, then the job moved
    assert rec.attempts == 2 and rec.dispatched_at >= 20.0
    assert res.where == "sd1"
    # a missed deadline quarantines the SD; its beats go on, so it is
    # back on probation by the end of the job
    assert bed.sim.obs.metrics.counters["node.quarantined"] == 1
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_failover_to_replica_sd(env):
    bed, inp, job = env
    inject(bed, crash("sd0", 5))
    sched = schedule(bed)
    res = bed.run(sched.submit(job))
    assert res.where == "sd1"
    assert sched.completed[0].attempts == 2
    assert not sched.unhealthy  # a crash answers; only a silence quarantines
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_failover_to_host_when_all_sds_dead(env):
    bed, inp, job = env
    inject(bed, crash("sd0", 5), crash("sd1", 5))
    sched = schedule(bed)
    res = bed.run(sched.submit(job))
    assert res.where == "host"
    assert not res.offloaded
    assert sched.completed[0].attempts == 3
    assert sum(v for _, v in res.output) == expected_total(inp)


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
    with pytest.raises(ConfigError):
        ClusterScheduler(bed.cluster, max_retries=-1)
