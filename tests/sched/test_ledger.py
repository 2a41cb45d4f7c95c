"""Property: the placement ledger returns exactly to zero after a stream.

The adaptive policy reads each node's backlog from per-node ledgers: the
offload engine's ``inflight`` (jobs) and ``inflight_ops`` (their predicted
CPU ops, shared with the distributed engine's map shards) plus the
scheduler's pending bridge.  A leaked entry would bias every later
placement, so after a faulty stream every ledger must read exactly 0 on
every node — integer ops, so no float residue can hide a leak.

The stream runs under ``standard_plan`` (NFS errors, a crashed module, a
dropped result that costs a deadline), plus a delayed map dispatch that
makes one shard of the distributed job straggle into a speculative
duplicate, and one SD daemon killed mid-stream and revived later.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import DataJob
from repro.core.distributed import DistributedJob
from repro.faults import FaultPlan, FaultRule, standard_plan
from repro.phoenix.api import InputSpec
from repro.sched import ClusterScheduler
from repro.units import MB
from repro.workloads import text_input
from repro.workloads.keys import encrypted_input, keys_for

KEYS = tuple(keys_for(4, seed=5))

#: (arrival s, app, mode, declared MB)
STREAM = (
    (0.2, "wordcount", "distributed", 128),
    (0.5, "wordcount", "parallel", 64),
    (1.0, "stringmatch", "parallel", 128),
    (3.0, "wordcount", "parallel", 256),
    (4.0, "stringmatch", "parallel", 64),
    (6.0, "wordcount", "parallel", 128),
    (8.0, "stringmatch", "parallel", 256),
    (10.0, "wordcount", "parallel", 64),
)


def run_stream(seed: int, victim: str, kill_at: float):
    """Run the stream; returns (scheduler, failure class names, counters)."""
    bed = Testbed(config=table1_cluster(n_sd=3, seed=seed), seed=seed)
    paths: dict = {}
    for app, size in sorted({(app, mb) for _, app, _, mb in STREAM}):
        if app == "wordcount":
            spec = text_input(f"/{app}{size}", MB(size), payload_bytes=4_000, seed=size)
        else:
            spec, _, _ = encrypted_input(
                f"/{app}{size}", MB(size), payload_bytes=4_000, keys=list(KEYS), seed=size
            )
            spec = InputSpec(path=spec.path, size=spec.size, payload=spec.payload)
        _, paths[(app, size)] = bed.stage_replicated(f"{app}{size}", spec)
    straggler = FaultRule(
        "fam.dispatch", action="delay", count=1, delay=4.0,
        where={"module": "dist_map"},
    )
    bed.sim.install_faults(
        FaultPlan(rules=standard_plan(seed).rules + (straggler,), seed=seed)
    )
    sched = ClusterScheduler(bed.cluster, attempt_timeout=20.0, cache=None)
    failures: list[str] = []
    on_failure = sched._on_failure

    def record(entry, placement, exc):
        failures.append(type(exc).__name__)
        on_failure(entry, placement, exc)

    sched._on_failure = record
    sim = bed.sim

    def driver():
        waits = []
        for at, app, mode, size in STREAM:
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            params = {"keys": KEYS} if app == "stringmatch" else {}
            path = paths[(app, size)]
            if mode == "distributed":
                waits.append(sched.submit_distributed(DistributedJob(
                    app=app, input_path=path, input_size=MB(size),
                    fragment_bytes=MB(size) // 6, params=params,
                )))
            else:
                waits.append(sched.submit(DataJob(
                    app=app, input_path=path, input_size=MB(size),
                    mode=mode, params=params,
                )))
        yield sim.all_of(waits)

    def chaos():
        yield sim.timeout(kill_at)
        bed.cluster.sd_daemons[victim].kill()
        yield sim.timeout(10.0)
        bed.cluster.sd_daemons[victim].revive()

    sim.spawn(chaos(), name="ledger.chaos")
    bed.run(driver())
    # let cancelled duplicates and abandoned calls wind down
    sim.run(until=sim.now + 30.0)
    return sched, failures, sim.obs.metrics.counters


def assert_ledgers_zero(sched: ClusterScheduler) -> None:
    nodes = [n.name for n in sched.cluster.sd_nodes] + [sched.cluster.host.name]
    for ledger in (
        sched.engine.inflight, sched.engine.inflight_ops,
        sched._pending, sched._pending_ops,
    ):
        assert {n: ledger.get(n, 0) for n in nodes} == dict.fromkeys(nodes, 0)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 20),
    victim=st.sampled_from(["sd0", "sd1", "sd2"]),
    kill_at=st.floats(2.0, 14.0),
)
@example(seed=0, victim="sd2", kill_at=6.0)
def test_ledgers_return_to_zero_after_a_faulty_stream(seed, victim, kill_at):
    sched, _failures, counters = run_stream(seed, victim, kill_at)
    assert counters.get("sched.failed", 0) == 0
    assert len(sched.completed) == len(STREAM)
    assert_ledgers_zero(sched)


def test_the_stream_exercises_every_exit_path():
    """The explicit example above reaches each way a ledger entry ends: a
    speculative duplicate, a quarantine of the killed SD, a deadline miss
    and an injected module crash, beside clean completions."""
    sched, failures, counters = run_stream(0, "sd2", 6.0)
    assert counters["spec.launched"] >= 1
    assert {"NodeDownError", "OffloadTimeoutError", "SmartFAMError"} <= set(failures)
    assert counters["fault.injected.fam.result"] == 1
    assert_ledgers_zero(sched)
