"""Tests for the simulator-side injection hooks and end-to-end recovery."""

from __future__ import annotations

import collections

import pytest

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import DataJob
from repro.errors import DiskError, NFSError, is_retryable
from repro.faults import FaultPlan, FaultRule, standard_plan
from repro.fs.inotify import IN_MODIFY, InotifyManager
from repro.fs.vfs import VFS
from repro.hardware.disk import DiskModel
from repro.sched import ClusterScheduler
from repro.sim import Simulator
from repro.units import MB
from repro.workloads import text_input
from repro.workloads.keys import encrypted_input, keys_for


# -- per-hook unit tests -----------------------------------------------------


def test_disk_read_fail_raises_retryable_disk_error():
    sim = Simulator()
    disk = DiskModel(sim)
    sim.install_faults(
        FaultPlan(rules=(FaultRule("disk.read", action="fail", count=1),), seed=2)
    )

    def proc():
        try:
            yield disk.read(4096)
        except DiskError as exc:
            return exc

    p = sim.spawn(proc())
    sim.run()
    assert isinstance(p.value, DiskError)
    assert is_retryable(p.value)
    assert sim.faults.fired_by_site() == {"disk.read": 1}


def test_disk_write_site_is_separate_from_read():
    sim = Simulator()
    disk = DiskModel(sim)
    sim.install_faults(
        FaultPlan(rules=(FaultRule("disk.write", action="fail", count=1),), seed=2)
    )

    def proc():
        n = yield disk.read(100)  # unaffected
        try:
            yield disk.write(100)
        except DiskError as exc:
            return (n, exc)

    p = sim.spawn(proc())
    sim.run()
    n, exc = p.value
    assert n == 100 and is_retryable(exc)


def test_inotify_drop_loses_one_event_then_recovers():
    sim = Simulator()
    vfs = VFS()
    mgr = InotifyManager(sim, vfs, latency=0.0)
    sim.install_faults(
        FaultPlan(rules=(FaultRule("inotify.deliver", action="drop", count=1),), seed=2)
    )
    vfs.create("/log")
    w = mgr.add_watch("/log", IN_MODIFY)
    vfs.write("/log", data=b"a")  # dropped
    vfs.write("/log", data=b"ab")  # delivered (rule burned out)
    sim.run()
    events = []
    while (item := w.queue.try_get()) is not None:
        events.append(item)
    assert mgr.dropped == 1
    assert len(events) == 1


def test_nfs_call_fail_surfaces_transient_nfs_error():
    bed = Testbed(seed=4)
    inp = text_input("/data/f", MB(10), payload_bytes=2_000, seed=4)
    _sd, _host, sd_path = bed.stage_on_sd("f", inp)
    channel = bed.cluster.channel()
    bed.sim.install_faults(
        FaultPlan(rules=(FaultRule("nfs.call", action="fail", count=1),), seed=4)
    )

    def proc():
        try:
            yield channel.mount.stat(channel.log_dir)
        except NFSError as exc:
            first = exc
        # the next RPC goes through: the fault was transient
        attrs = yield channel.mount.stat(channel.log_dir)
        return first, attrs

    first, attrs = bed.run(proc())
    assert is_retryable(first)
    assert attrs is not None


# -- end-to-end recovery under the standard plan -----------------------------

#: the scheduler's budget: max_retries + 1 attempts on SD nodes, as many
#: on the host
RETRIES = 2
BOUND = 2 * (RETRIES + 1)


def _standard_plan_run(app, seed, chaos=True, n_jobs=1):
    """``n_jobs`` ``app`` jobs, one after another, through the scheduler
    on two replicated SD nodes; returns (outputs, injector, scheduler)."""
    bed = Testbed(config=table1_cluster(n_sd=2, seed=seed), seed=seed)
    params = {}
    if app == "stringmatch":
        keys = tuple(keys_for(4, seed=seed))
        inp, _, _ = encrypted_input(
            "/data/f", MB(50), payload_bytes=4_000, keys=list(keys), seed=seed
        )
        params = {"keys": keys}
    else:
        inp = text_input("/data/f", MB(50), payload_bytes=4_000, seed=seed)
    _view, sd_path = bed.stage_replicated("f", inp)
    injector = bed.sim.install_faults(standard_plan(seed)) if chaos else None
    sched = ClusterScheduler(
        bed.cluster, attempt_timeout=60.0, max_retries=RETRIES, cache=None
    )
    job = DataJob(
        app=app, input_path=sd_path, input_size=MB(50), mode="parallel",
        params=params,
    )

    def go():
        outputs = []
        for _ in range(n_jobs):
            result = yield sched.submit(job)
            outputs.append(result.output)
        return outputs

    return bed.run(go()), injector, sched


@pytest.mark.parametrize("app", ["wordcount", "stringmatch"])
def test_standard_plan_preserves_job_output(app):
    baseline, _, _ = _standard_plan_run(app, 6, chaos=False)
    output, injector, sched = _standard_plan_run(app, 6)
    assert output == baseline  # faults cost time, never answers
    assert baseline[0]  # two empty answers would prove nothing
    assert injector.injections >= 1
    assert sched.completed[0].attempts <= BOUND


def test_standard_plan_one_job_gets_the_reference_answer():
    """Two NFS errors of the host's own client leave sd0 eligible; the
    third sd0 attempt's request is then lost, its deadline quarantines
    sd0, and with the retries spent the host runs the job."""
    bed = Testbed(config=table1_cluster(n_sd=2, seed=7), seed=7)
    inp = text_input("/data/f", MB(50), payload_bytes=6_000, seed=7)
    _view, sd_path = bed.stage_replicated("f", inp)
    bed.sim.install_faults(standard_plan(7))
    sched = ClusterScheduler(
        bed.cluster, attempt_timeout=60.0, max_retries=RETRIES, cache=None
    )
    job = DataJob(app="wordcount", input_path=sd_path, input_size=MB(50),
                  mode="parallel")
    result = bed.run(sched.submit(job))
    assert dict(result.output) == collections.Counter(inp.payload_bytes.split())
    rec = sched.completed[0]
    assert rec.where == bed.cluster.host.name and rec.attempts <= BOUND
    assert bed.cluster.host.name not in sched.unhealthy


def test_standard_plan_injection_is_reproducible():
    # four jobs: the first meets the two NFS errors (its SD stays eligible)
    # and the lost message, whose deadline quarantines that SD; the others
    # meet the disk, module and result faults on the other SD, one a job
    def run_once():
        _, injector, sched = _standard_plan_run("wordcount", 8, n_jobs=4)
        assert all(rec.attempts <= BOUND for rec in sched.completed)
        return injector

    first, again = run_once(), run_once()
    assert first.signatures() == again.signatures()
    assert {sig[3] for sig in first.signatures()} == set(range(len(standard_plan(8))))
