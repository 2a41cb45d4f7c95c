"""Tests for the load signals (node_load / least_loaded / backlog_s) and
the adaptive policy's placement by predicted cost."""

from __future__ import annotations

import types

import pytest

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import DataJob
from repro.core.loadbalance import (
    AdaptivePolicy,
    backlog_s,
    least_loaded,
    node_load,
    predicted_ops,
)
from repro.errors import PlacementError
from repro.sched import ClusterScheduler
from repro.units import MB
from repro.workloads import text_input

def wc_ops(mb: float) -> int:
    """Predicted ops of one wordcount over ``MB(mb)`` (119 ops per byte)."""
    return predicted_ops("wordcount", {}, MB(mb))


def fake_engine(ops: dict | None = None, **inflight) -> types.SimpleNamespace:
    return types.SimpleNamespace(inflight=dict(inflight), inflight_ops=dict(ops or {}))


@pytest.fixture()
def bed():
    return Testbed(config=table1_cluster(n_sd=2, seed=1), seed=1)


def wc_job(mb: float, app: str = "wordcount") -> DataJob:
    return DataJob(
        app=app, input_path="/export/data/x", input_size=MB(mb),
        mode="parallel", sd_node="sd0",
    )


def test_node_load_stacks_all_three_signals(bed):
    cluster = bed.cluster
    assert node_load(cluster, None, "sd0") == 0.0  # idle CPU, nothing placed
    assert node_load(cluster, fake_engine(sd0=2), "sd0") == 2.0
    assert node_load(cluster, fake_engine(sd0=2), "sd0", {"sd0": 3}) == 5.0
    # other nodes' inflight/depths do not bleed over
    assert node_load(cluster, fake_engine(sd0=2), "sd1", {"sd0": 3}) == 0.0
    # accepts a Node object as well as a name
    assert node_load(cluster, None, cluster.sd(0)) == 0.0


def test_least_loaded_prefers_the_lower_load(bed):
    eng = fake_engine(sd0=2, sd1=0)
    assert least_loaded(bed.cluster, eng, ["sd0", "sd1"]) == "sd1"
    assert least_loaded(bed.cluster, eng, ["sd1", "sd0"]) == "sd1"


def test_least_loaded_ties_break_toward_first_candidate(bed):
    eng = fake_engine()
    # callers list the preferred (primary) node first; a tie keeps it
    assert least_loaded(bed.cluster, eng, ["sd1", "sd0"]) == "sd1"
    assert least_loaded(bed.cluster, eng, ["sd0", "sd1"]) == "sd0"
    # only a strictly better later candidate displaces the first
    assert least_loaded(bed.cluster, eng, ["sd1", "sd0"], {"sd1": 1}) == "sd0"


def test_least_loaded_requires_candidates(bed):
    with pytest.raises(PlacementError):
        least_loaded(bed.cluster, None, [])


def test_backlog_stacks_ledger_pending_and_cpu_floor(bed):
    """Ledger ops plus pending ops over the node's rate (a Table I SD runs
    2 cores x 2e9 ops/s), never less than its runnable CPU work."""
    cluster = bed.cluster
    assert backlog_s(cluster, None, "sd0") == 0.0
    eng = fake_engine(ops={"sd0": 8_000_000_000})
    assert backlog_s(cluster, eng, "sd0") == 2.0
    assert backlog_s(cluster, eng, cluster.sd(0), {"sd0": 4_000_000_000}) == 3.0
    # other nodes' ops do not bleed over
    assert backlog_s(cluster, eng, "sd1", {"sd0": 4_000_000_000}) == 0.0
    # a task no placed job accounts for (a synthetic hog) sets the floor
    cluster.sd(0).cpu.submit(2.0e10, name="hog")
    assert backlog_s(cluster, eng, "sd0") == 5.0
    bed.sim.run(until=1.0)  # one task runs on one core: 2e9 ops per second
    assert backlog_s(cluster, eng, "sd0") == pytest.approx(4.5)
    assert backlog_s(cluster, eng, "sd0") == pytest.approx(4.5)  # a pure read


def test_large_job_stays_on_a_busy_sd(bed):
    """Past the host's original-Phoenix limit (1.61 GB on Table I nodes) a
    job stays where its data lives, however far behind its SD is."""
    eng = fake_engine(ops={"sd0": 3 * wc_ops(1900)}, sd0=3)
    placement = AdaptivePolicy().place(wc_job(1700), bed.cluster, eng)
    assert placement.offload and placement.node == "sd0"
    assert placement.reason == "input 1.70 GB > host Phoenix limit 1.61 GB"


def test_small_job_moves_to_host_that_finishes_first(bed):
    """One 400 MB job ahead on the SD (11.9 s of work) against the host's
    1.1 s of CPU plus 0.8 s moving 100 MB over GbE: the host wins."""
    eng = fake_engine(ops={"sd0": wc_ops(400)}, sd0=1)
    placement = AdaptivePolicy().place(wc_job(100), bed.cluster, eng)
    assert not placement.offload and placement.node == "host"
    assert placement.reason == "host finish 1.9 s <= sd backlog 11.9 s"


def test_job_stays_on_sd_while_host_finishes_later(bed):
    """Three jobs placed on the SD, but little work: their count does not
    send a job over the wire when the SD clears them sooner."""
    eng = fake_engine(ops={"sd0": 3 * wc_ops(1)}, sd0=3)
    placement = AdaptivePolicy().place(wc_job(100), bed.cluster, eng)
    assert placement.offload and placement.node == "sd0"
    assert placement.reason == "sd backlog 0.1 s < host finish 1.9 s"
    # a busy host moves its finish later still: the job stays
    eng = fake_engine(ops={"sd0": wc_ops(400), "host": 2 * wc_ops(600)}, sd0=1)
    assert AdaptivePolicy().place(wc_job(100), bed.cluster, eng).offload


def test_app_without_cost_profile_never_leaves_its_sd(bed):
    eng = fake_engine(ops={"sd0": 10 * wc_ops(1900)}, sd0=10)
    placement = AdaptivePolicy().place(wc_job(1, app="dbselect"), bed.cluster, eng)
    assert placement.offload and placement.node == "sd0"
    assert predicted_ops("dbselect", {}, MB(1)) == 0


def test_params_its_spec_rejects_fail_the_job_not_the_dispatcher():
    """No prediction for a matmul of dimension 0: the job stays on its SD,
    the SD's run reports the error, and the scheduler keeps serving."""
    bed = Testbed(config=table1_cluster(n_sd=1, seed=1), seed=1)
    inp = text_input("/data/b", MB(10), payload_bytes=6_000, seed=1)
    _view, sd_path = bed.stage_replicated("b", inp)
    bad = DataJob(app="matmul", input_path=sd_path, input_size=MB(10),
                  mode="parallel", params={"n": 0})
    assert predicted_ops("matmul", {"n": 0}, MB(10)) == 0
    assert AdaptivePolicy().place(bad, bed.cluster).offload
    sched = ClusterScheduler(bed.cluster, cache=None)

    def stream():
        failed = sched.submit(bad)
        try:
            yield failed
        except Exception as exc:
            error = exc
        ok = yield sched.submit(DataJob(
            app="wordcount", input_path=sd_path, input_size=MB(10),
            mode="parallel",
        ))
        return error, ok

    error, ok = bed.run(stream())
    assert "dimension" in str(error)
    assert ok.where == "sd0"


def test_burst_sees_its_own_placements_through_the_pending_bridge():
    """Four 100 MB jobs dispatched in one pump pass: each placement counts
    the ones before it, which the engine's ledger does not hold yet, so
    the burst alternates SD (2.98 s a job) and host (1.9 s, then 3.04 s)."""
    bed = Testbed(config=table1_cluster(n_sd=1, seed=1), seed=1)
    inp = text_input("/data/b", MB(100), payload_bytes=6_000, seed=1)
    _view, sd_path = bed.stage_replicated("b", inp)
    sched = ClusterScheduler(bed.cluster, per_node_limit=4, cache=None)

    def burst():
        done = [
            sched.submit(DataJob(
                app="wordcount", input_path=sd_path, input_size=MB(100),
                mode="parallel",
            ))
            for _ in range(4)
        ]
        yield bed.sim.all_of(done)

    bed.run(burst())
    wheres = [rec.where for rec in sorted(sched.completed, key=lambda r: r.seq)]
    assert wheres == ["sd0", "host", "sd0", "host"]
    assert all(rec.dispatched_at == 0.0 for rec in sched.completed)
