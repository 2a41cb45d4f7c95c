"""Tests for retrying smartFAM calls: fresh sequence numbers, one budget.

The host never re-sends a call: whoever retries (the scheduler) invokes
again, and every invoke writes a new INVOKE record under a fresh seq.
"""

from __future__ import annotations

from repro.cluster import Testbed
from repro.core import DataJob
from repro.errors import FileNotFoundInVFS, NFSError, SmartFAMError, is_retryable
from repro.faults import FaultPlan, FaultRule
from repro.sched import ClusterScheduler
from repro.smartfam.logfile import INVOKE, LogFileCodec
from repro.units import MB
from repro.workloads import text_input


def _env(*rules):
    bed = Testbed(seed=9)
    inp = text_input("/data/f", MB(50), payload_bytes=4_000, seed=9)
    _sd, _host, sd_path = bed.stage_on_sd("f", inp)
    if rules:
        bed.sim.install_faults(FaultPlan(rules=rules, seed=9))
    job = DataJob(app="wordcount", input_path=sd_path, input_size=MB(50),
                  mode="parallel")
    return bed, inp, job


def _total(output):
    return sum(v for _, v in output)


def _daemon(bed):
    return bed.cluster.sd_daemons[bed.sd.name]


def _outcome(bed, event):
    def go():
        try:
            return (yield event)
        except Exception as exc:
            return exc

    return bed.run(go())


def test_injected_module_crash_is_retried_with_fresh_seq():
    bed, inp, job = _env(FaultRule("fam.module", action="fail", count=1))
    channel = bed.cluster.channel()

    def proc():
        try:
            yield channel.invoke("wordcount", job.invoke_params(), timeout=60.0)
        except SmartFAMError as exc:
            crashed = exc
        result = yield channel.invoke("wordcount", job.invoke_params(), timeout=60.0)
        return crashed, result

    crashed, result = bed.run(proc())
    assert is_retryable(crashed)
    assert _total(result.output) == len(inp.payload_bytes.split())
    assert _daemon(bed).invocations == 2  # crashed run + the new call's run
    log = _daemon(bed).node.fs.vfs.read(_daemon(bed).log_path("wordcount"))
    seqs = [r.seq for r in LogFileCodec.decode(log) if r.kind == INVOKE]
    assert len(seqs) == 2 and seqs[0] != seqs[1]


def test_permanent_module_failure_is_not_retried():
    bed, _inp, _job = _env()
    sched = ClusterScheduler(bed.cluster, attempt_timeout=60.0, cache=None)
    ghost = DataJob(app="wordcount", input_path="/export/data/ghost",
                    input_size=MB(1), mode="parallel")
    exc = _outcome(bed, sched.submit(ghost))
    assert isinstance(exc, FileNotFoundInVFS)
    assert bed.sim.obs.metrics.counters["sched.requeued"] == 0
    assert _daemon(bed).invocations == 1


def test_retry_budget_exhaustion_raises_the_last_error():
    # every NFS round trip fails: each SD attempt, then each host attempt
    bed, _inp, job = _env(FaultRule("nfs.call", action="fail"))
    sched = ClusterScheduler(
        bed.cluster, attempt_timeout=60.0, max_retries=1, cache=None
    )
    exc = _outcome(bed, sched.submit(job))
    assert isinstance(exc, NFSError)
    counters = bed.sim.obs.metrics.counters
    # the host's own NFS client fails, so the SD stays eligible for
    # max_retries + 1 attempts, then max_retries + 1 host attempts: the
    # whole budget of 2 x (max_retries + 1)
    assert counters["sched.attempt_failures"] == 2 + 2
    assert not sched.unhealthy
    assert counters["sched.failed"] == 1
    assert bed.sim.now < 1.0  # spent, not livelocked


def test_retry_counters_reach_the_metrics_registry():
    bed, _inp, job = _env(FaultRule("fam.module", action="fail", count=1))
    sched = ClusterScheduler(bed.cluster, attempt_timeout=60.0, cache=None)
    bed.run(sched.submit(job))
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    assert counters["fault.injected.fam.module"] == 1
    assert counters["sched.attempt_failures"] == 1
    assert counters["sched.requeued"] == 1
