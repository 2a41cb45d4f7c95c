"""Phi-accrual failure detection and the node recovery state machine."""

from __future__ import annotations

import pytest

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import DataJob, OffloadEngine
from repro.core.loadbalance import AlwaysOffloadPolicy, Placement
from repro.errors import ConfigError
from repro.sched import ClusterScheduler, PhiAccrualDetector
from repro.sched.health import (
    DETECTION_BOUND,
    HEALTHY,
    INTERVAL,
    PHI_QUARANTINE,
    PHI_SUSPECT,
    PROBATION,
    QUARANTINED,
    SUSPECTED,
    NodeHealthTracker,
)
from repro.units import MB
from repro.workloads import text_input


def make_bed(n_sd: int = 2, seed: int = 7):
    bed = Testbed(config=table1_cluster(n_sd=n_sd, seed=seed), seed=seed)
    inp = text_input("/data/s", MB(20), payload_bytes=6_000, seed=seed)
    _view, sd_path = bed.stage_replicated("s", inp)
    return bed, inp, sd_path


# -- detector ----------------------------------------------------------------


def test_phi_grace_before_first_beat():
    det = PhiAccrualDetector()
    assert det.phi("n", now=100.0) == 0.0


def test_phi_rises_with_silence():
    det = PhiAccrualDetector()
    for k in range(8):
        det.beat("n", 0.25 * k)
    t_last = 0.25 * 7
    quiet = det.phi("n", t_last + 0.25)
    silent = det.phi("n", t_last + 3.0)
    assert quiet < 1.0 < silent
    # phi is monotone in the silence
    assert det.phi("n", t_last + 1.0) < det.phi("n", t_last + 2.0)


def test_reset_drops_dead_gap_from_window():
    det = PhiAccrualDetector()
    for k in range(8):
        det.beat("n", 0.25 * k)
    # a 100 s dead gap, then beats resume
    det.watch("n", 101.75)
    det.beat("n", 101.75)
    for k in range(1, 4):
        det.beat("n", 101.75 + 0.25 * k)
    # without watching afresh the gap would sit in the window and the
    # mean would be ~25 s, flattening phi to uselessness
    assert det.phi("n", 102.5 + 3.0) > 5.0


def test_silence_counts_from_watch_before_the_first_beat():
    """A daemon that dies before it ever beats is quarantined within the
    detector's bound of the watch, not spared by a startup grace."""
    det = PhiAccrualDetector()
    det.watch("n", 10.0)
    assert det.phi("n", 10.0 + INTERVAL) < PHI_SUSPECT
    assert det.phi("n", 10.0 + DETECTION_BOUND - INTERVAL) >= PHI_QUARANTINE


# -- tracker state machine ---------------------------------------------------


def test_tracker_transitions_through_probation():
    bed, _, _ = make_bed()
    trk = NodeHealthTracker(bed.sim, ["a", "b"])
    for k in range(8):
        trk.beat("a", 0.25 * k)
        trk.beat("b", 0.25 * k)
    t_last = 0.25 * 7
    assert not trk.evaluate(t_last + 0.25)

    # node a goes silent: suspected first, then quarantined
    trk.beat("b", t_last + 1.5)
    assert trk.evaluate(t_last + 1.5)
    assert trk.state["a"] == SUSPECTED and "a" not in trk.unhealthy
    trk.beat("b", t_last + 4.0)
    assert trk.evaluate(t_last + 4.0)
    assert trk.state["a"] == QUARANTINED and "a" in trk.unhealthy

    # beats resume: probation (limited trust), not straight to healthy
    trk.beat("a", t_last + 6.0)
    trk.beat("a", t_last + 6.25)
    assert trk.evaluate(t_last + 6.3)
    assert trk.state["a"] == PROBATION and "a" not in trk.unhealthy

    # the canary job decides: success restores, failure re-quarantines
    trk.job_succeeded("a")
    counters = bed.sim.obs.metrics.counters
    assert trk.state["a"] == HEALTHY and counters["node.rejoined"] == 1


def test_probation_failure_requarantines():
    bed, _, _ = make_bed()
    trk = NodeHealthTracker(bed.sim, ["a"])
    trk.force_quarantine("a")
    assert trk.state["a"] == QUARANTINED and "a" in trk.unhealthy
    trk.beat("a", 10.0)
    trk.beat("a", 10.25)
    assert trk.evaluate(10.3)
    assert trk.state["a"] == PROBATION
    trk.job_failed("a")
    assert trk.state["a"] == QUARANTINED and "a" in trk.unhealthy


def test_suspected_recovers_for_free():
    bed, _, _ = make_bed()
    trk = NodeHealthTracker(bed.sim, ["a"])
    for k in range(8):
        trk.beat("a", 0.25 * k)
    t_last = 0.25 * 7
    assert trk.evaluate(t_last + 1.5)
    assert trk.state["a"] == SUSPECTED
    trk.beat("a", t_last + 1.6)
    assert trk.evaluate(t_last + 1.7)
    counters = bed.sim.obs.metrics.counters
    assert trk.state["a"] == HEALTHY and counters["node.quarantined"] == 0


# -- scheduler integration ---------------------------------------------------


def test_scheduler_quarantines_and_rejoins_dead_node():
    """Kill a daemon: heartbeats stop, phi quarantines it; revive: the
    node re-enters through probation, serves one canary job pinned to it,
    and is restored to full trust."""
    bed, inp, sd_path = make_bed(n_sd=2)
    sched = ClusterScheduler(
        bed.cluster, policy=AlwaysOffloadPolicy(), cache=None,
        attempt_timeout=30.0,
    )
    assert sched.health is bed.cluster.health

    def driver():
        yield bed.sim.timeout(2.0)
        bed.cluster.sd_daemons["sd0"].kill()
        yield bed.sim.timeout(6.0)
        assert sched.health.state["sd0"] == QUARANTINED
        assert "sd0" in sched.unhealthy
        assert sched.health.state["sd1"] == HEALTHY

        bed.cluster.sd_daemons["sd0"].revive()
        yield bed.sim.timeout(2.0)
        assert sched.health.state["sd0"] == PROBATION
        assert "sd0" not in sched.unhealthy

        # the canary: a job pinned to the rejoining node
        job = DataJob(
            app="wordcount", input_path=sd_path, input_size=MB(20),
            mode="parallel", sd_node="sd0",
        )
        res = yield sched.submit(job)
        assert res.where == "sd0"
        assert sched.health.state["sd0"] == HEALTHY
        return res

    res = bed.run(driver())
    assert sum(v for _, v in res.output) == len(inp.payload_bytes.split())
    counters = bed.sim.obs.metrics.snapshot()["counters"]
    assert counters.get("node.quarantined", 0) >= 1
    assert counters.get("node.probation", 0) >= 1
    assert counters.get("node.rejoined", 0) >= 1
    assert sched.stats()["node_states"]["sd0"] == HEALTHY


# -- one detector per cluster ------------------------------------------------


def heartbeats(bed) -> int:
    """Messages delivered to the host's heartbeat endpoint so far."""
    return sum(
        n for (_src, dst), n in bed.cluster.fabric.pair_messages.items()
        if dst.startswith("hb:")
    )


def test_offload_engine_alone_sends_no_heartbeat():
    """Only a scheduler or a distributed run starts the detector: a
    cluster that just offloads jobs carries no heartbeat traffic."""
    bed, inp, sd_path = make_bed(n_sd=2)
    job = DataJob(
        app="wordcount", input_path=sd_path, input_size=MB(20), mode="parallel",
    )
    res = bed.run(OffloadEngine(bed.cluster).run(
        job, Placement(node="sd0", offload=True, reason="test"),
    ))
    # long enough for a daemon to have pinged twice, had it been asked to
    assert res.where == "sd0" and bed.sim.now > 2 * INTERVAL
    assert bed.cluster.health is None and heartbeats(bed) == 0

    sched = ClusterScheduler(bed.cluster, cache=None)
    assert sched.health is bed.cluster.health is not None
    bed.run(sched.submit(job))
    assert heartbeats(bed) > 0


def test_heartbeat_keyword_accepts_only_true():
    bed, _, _ = make_bed()
    assert ClusterScheduler(bed.cluster, heartbeat=True).health is not None
    for value in (None, False, 0.25):
        with pytest.raises(ConfigError):
            ClusterScheduler(bed.cluster, heartbeat=value)
