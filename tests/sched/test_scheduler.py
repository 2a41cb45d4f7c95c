"""End-to-end tests for the cluster control plane (ClusterScheduler)."""

from __future__ import annotations

import pytest

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import DataJob
from repro.core.loadbalance import AdaptivePolicy, AlwaysOffloadPolicy, HostOnlyPolicy
from repro.errors import AdmissionError, DiskError, OffloadTimeoutError
from repro.faults import FaultPlan, FaultRule
from repro.sched import ClusterScheduler
from repro.units import MB
from repro.workloads import ArrivalProcess, text_input


def make_bed(n_sd: int = 2, seed: int = 7):
    bed = Testbed(config=table1_cluster(n_sd=n_sd, seed=seed), seed=seed)
    inp = text_input("/data/s", MB(20), payload_bytes=6_000, seed=seed)
    _view, sd_path = bed.stage_replicated("s", inp)
    return bed, inp, sd_path


def make_job(sd_path: str, **kw) -> DataJob:
    return DataJob(
        app="wordcount", input_path=sd_path, input_size=MB(20),
        mode="parallel", **kw,
    )


def expected_total(inp) -> int:
    return len(inp.payload_bytes.split())


def test_open_loop_stream_completes():
    bed, inp, sd_path = make_bed()
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(), per_node_limit=1, cache=None
    )
    stream = ArrivalProcess.poisson(
        lambda i: make_job(sd_path), rate=2.0, n=6, seed=3
    )
    report = bed.run(stream.drive(sched))
    assert len(report.completed) == 6
    assert not report.failed and not report.rejected
    for _, _, res in report.completed:
        assert sum(v for _, v in res.output) == expected_total(inp)
    st = sched.stats()
    assert st["completed"] == 6 and st["rejected"] == 0 and st["queued"] == 0
    assert report.throughput > 0


def test_admission_backpressure_sheds_burst():
    """A burst beyond max_queue is rejected, never silently queued."""
    bed, _, sd_path = make_bed(n_sd=1)
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(),
        per_node_limit=1, max_queue=2, cache=None,
    )
    stream = ArrivalProcess.from_trace(
        [(0.0, make_job(sd_path)) for _ in range(5)]
    )
    report = bed.run(stream.drive(sched))
    assert len(report.rejected) == 3
    assert len(report.completed) == 2
    assert sched.rejected == 3
    assert all(isinstance(e, AdmissionError) for _, _, e in report.rejected)


def test_replicated_input_spreads_across_sd_nodes():
    bed, _, sd_path = make_bed(n_sd=2)
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(),
        per_node_limit=1, max_queue=16, cache=None,
    )
    stream = ArrivalProcess.from_trace(
        [(0.0, make_job(sd_path)) for _ in range(6)]
    )
    report = bed.run(stream.drive(sched))
    assert len(report.completed) == 6
    where = {n: 0 for n in ("sd0", "sd1")}
    for rec in sched.completed:
        where[rec.where] += 1
    assert where == {"sd0": 3, "sd1": 3}


def test_per_node_limit_never_exceeded():
    """Regression: a one-instant burst must not overshoot node capacity.

    The pump dispatches synchronously but the engine only registers a job
    in ``inflight`` when the runner process starts — the scheduler's
    pending bridge count is what keeps the capacity check honest.
    """
    bed, _, sd_path = make_bed(n_sd=2)
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(),
        per_node_limit=1, max_queue=16, cache=None,
    )
    peaks: dict[str, int] = {}

    def monitor():
        while True:
            for node, n in sched.engine.inflight.items():
                peaks[node] = max(peaks.get(node, 0), n)
            yield bed.sim.timeout(0.01)

    bed.sim.spawn(monitor(), name="inflight-monitor")
    stream = ArrivalProcess.from_trace(
        [(0.0, make_job(sd_path)) for _ in range(8)]
    )
    report = bed.run(stream.drive(sched))
    assert len(report.completed) == 8
    assert peaks and all(n <= 1 for n in peaks.values()), peaks


def test_dead_node_quarantined_and_jobs_requeued():
    bed, inp, sd_path = make_bed(n_sd=2)
    bed.cluster.sd_daemons["sd0"].kill()
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(),
        per_node_limit=1, attempt_timeout=10.0, max_retries=2,
        max_queue=16, cache=None,
    )
    stream = ArrivalProcess.from_trace(
        [(0.0, make_job(sd_path)) for _ in range(4)]
    )
    report = bed.run(stream.drive(sched))
    assert len(report.completed) == 4 and not report.failed
    assert "sd0" in sched.unhealthy
    assert all(rec.where != "sd0" for rec in sched.completed)
    # whatever was first sent to the dead node came back and retried
    assert any(rec.attempts > 1 for rec in sched.completed)
    for _, _, res in report.completed:
        assert sum(v for _, v in res.output) == expected_total(inp)


def test_host_nfs_failure_keeps_the_sd_eligible():
    """The host's own NFS client fails twice: that blames the host, so
    both SD nodes stay eligible and the job completes offloaded."""
    bed, inp, sd_path = make_bed(n_sd=2)
    bed.sim.install_faults(
        FaultPlan(rules=(FaultRule("nfs.call", action="fail", count=2),), seed=7)
    )
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(), attempt_timeout=60.0,
        cache=None,
    )
    res = bed.run(sched.submit(make_job(sd_path)))
    rec = sched.completed[0]
    assert bed.sim.obs.metrics.counters["sched.attempt_failures"] == 2
    assert rec.attempts == 3 and rec.offloaded and rec.where == "sd0"
    assert not sched.unhealthy
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_mark_healthy_readmits_a_revived_node():
    bed, _, sd_path = make_bed(n_sd=2)
    daemon = bed.cluster.sd_daemons["sd0"]
    daemon.kill()
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(),
        per_node_limit=1, attempt_timeout=10.0, max_queue=16, cache=None,
    )
    first = ArrivalProcess.from_trace([(0.0, make_job(sd_path))])
    bed.run(first.drive(sched))
    assert "sd0" in sched.unhealthy
    daemon.revive()
    sched.mark_healthy("sd0")
    assert "sd0" not in sched.unhealthy
    again = ArrivalProcess.from_trace(
        [(bed.sim.now, make_job(sd_path)) for _ in range(2)]
    )
    report = bed.run(again.drive(sched))
    assert len(report.completed) == 2
    assert any(rec.where == "sd0" for rec in sched.completed[-2:])


def test_admitted_job_completes_on_host_when_all_sds_dead():
    """The completion guarantee: retries exhausted => pinned to the host."""
    bed, inp, sd_path = make_bed(n_sd=1)
    bed.cluster.sd_daemons["sd0"].kill()
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(),
        attempt_timeout=5.0, max_retries=1, cache=None,
    )
    stream = ArrivalProcess.from_trace([(0.0, make_job(sd_path))])
    report = bed.run(stream.drive(sched))
    assert len(report.completed) == 1 and not report.failed
    rec = sched.completed[-1]
    assert rec.where == "host" and not rec.offloaded
    _, _, res = report.completed[0]
    assert sum(v for _, v in res.output) == expected_total(inp)


def _host_only(bed, **kw) -> ClusterScheduler:
    kw.setdefault("attempt_timeout", 60.0)
    return ClusterScheduler(bed.cluster, policy=HostOnlyPolicy(), cache=None, **kw)


@pytest.mark.parametrize("site", ["nfs.call", "disk.read"])
def test_transient_host_fault_is_retried_on_the_host(site):
    bed, inp, sd_path = make_bed()
    bed.sim.install_faults(FaultPlan(rules=(FaultRule(site, count=1),), seed=7))
    sched = _host_only(bed)
    res = bed.run(sched.submit(make_job(sd_path)))
    rec = sched.completed[0]
    assert rec.where == "host" and rec.attempts == 2
    assert sum(v for _, v in res.output) == expected_total(inp)


def test_host_fault_that_never_burns_out_fails_within_the_bound():
    bed, _, sd_path = make_bed()
    bed.sim.install_faults(FaultPlan(rules=(FaultRule("disk.read"),), seed=7))
    sched = _host_only(bed, max_retries=2)
    with pytest.raises(DiskError):
        bed.run(sched.submit(make_job(sd_path)))
    counters = bed.sim.obs.metrics.counters
    assert counters["sched.attempt_failures"] == 2 + 1  # max_retries + 1
    assert counters["sched.failed"] == 1
    assert bed.sim.now < 1.0  # the budget ran out; nothing livelocked


@pytest.mark.parametrize("site", ["nfs.call", "net.deliver"])
def test_lost_message_times_out_the_host_attempt(site):
    bed, inp, sd_path = make_bed()
    bed.sim.install_faults(
        FaultPlan(rules=(FaultRule(site, action="drop", count=1),), seed=7)
    )
    sched = _host_only(bed)
    res = bed.run(sched.submit(make_job(sd_path)))
    rec = sched.completed[0]
    # the first attempt waited for a reply that never came, until its deadline
    assert rec.attempts == 2 and rec.dispatched_at == pytest.approx(60.0)
    assert not sched.unhealthy  # the host is never quarantined
    assert bed.cluster.host.memory.used == 0
    assert sum(v for _, v in res.output) == expected_total(inp)


def _sample(bed, at: float, probe):
    yield bed.sim.timeout(at)
    return probe()


def test_timed_out_host_run_gives_back_memory_and_cpu():
    """A deadline shorter than the host run aborts it while it maps."""
    bed, _, sd_path = make_bed()
    host = bed.cluster.host
    # the clean host run maps for its first ~0.17 s of ~0.55 s
    sched = _host_only(bed, attempt_timeout=0.1, max_retries=1)
    done = sched.submit(make_job(sd_path))
    mid_run = bed.run(_sample(bed, 0.05, lambda: (host.memory.used, host.cpu.n_active)))
    assert mid_run[0] > 0 and mid_run[1] > 0
    with pytest.raises(OffloadTimeoutError):
        bed.run(done)
    # two host attempts of 0.1 s each, both aborted: nothing left behind
    assert bed.sim.now == pytest.approx(0.2)
    assert host.memory.used == 0 and host.cpu.n_active == 0


def test_cache_hit_answers_without_queueing():
    bed, _, sd_path = make_bed(n_sd=1)
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(), cache=True
    )

    def go(job):
        return (yield sched.submit(job))

    r1 = bed.run(go(make_job(sd_path)))
    r2 = bed.run(go(make_job(sd_path)))
    assert sched.cache.hits == 1 and sched.cache.misses == 1
    rec = sched.completed[-1]
    assert rec.from_cache and rec.where == "cache" and rec.attempts == 0
    assert r2.output == r1.output
    assert r2.elapsed == 0.0
    st = sched.stats()
    assert st["cache"]["hits"] == 1 and st["cache"]["entries"] == 1


def test_latency_accounting_on_completed_records():
    bed, _, sd_path = make_bed(n_sd=1)
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(),
        per_node_limit=1, max_queue=8, cache=None,
    )
    stream = ArrivalProcess.from_trace(
        [(0.0, make_job(sd_path)) for _ in range(3)]
    )
    bed.run(stream.drive(sched))
    # serial node: each later job waited at least one service time
    waits = sorted(rec.queue_wait for rec in sched.completed)
    assert waits[0] == pytest.approx(0.0, abs=1e-9)
    assert waits[-1] > waits[1] > 0
    for rec in sched.completed:
        assert rec.total == pytest.approx(rec.queue_wait + rec.service)
        assert rec.service > 0


def test_default_policy_is_adaptive_over_shared_ledgers():
    """Placement reads one ledger: distributed shards land in the offload
    engine's per-node job counts and predicted ops."""
    bed, _, _ = make_bed(n_sd=1)
    sched = ClusterScheduler(bed.cluster)
    assert isinstance(sched.policy, AdaptivePolicy)
    assert sched.dist_engine.inflight is sched.engine.inflight
    assert sched.dist_engine.inflight_ops is sched.engine.inflight_ops
