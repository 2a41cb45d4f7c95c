"""Golden determinism: a fixed scheduler stream reproduces exact sim times.

A small open-loop stream on a 2-SD testbed crosses every network layer:
smartFAM invokes over NFS, distributed shuffles over the fabric, heartbeats
to the failure detector, and one daemon kill and revive.  Every job's finish
time (its float ``repr``) and output digest are pinned.  A change to the
network, NFS or kernel code that moves any simulated instant — even by one
ulp, through a reordered tie — fails here.  So does one that merges, drops
or adds a kernel event, or moves byte accounting, while every finish time
stays put: the stream's processed-event count and ``net.bytes`` counter are
pinned too.
"""

from __future__ import annotations

import hashlib

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import DataJob
from repro.core.distributed import DistributedJob
from repro.phoenix.api import InputSpec
from repro.sched import ClusterScheduler
from repro.units import MB
from repro.workloads import text_input
from repro.workloads.keys import encrypted_input, keys_for

KEYS = tuple(keys_for(4, seed=5))

#: (arrival s, app, mode, declared MB)
STREAM = (
    (0.5, "wordcount", "parallel", 64),
    (1.0, "stringmatch", "parallel", 128),
    (2.5, "wordcount", "partitioned", 1700),
    (4.0, "wordcount", "distributed", 256),
    (6.0, "stringmatch", "parallel", 64),
    (9.0, "wordcount", "parallel", 128),
    (12.0, "stringmatch", "partitioned", 1700),
    (20.0, "wordcount", "parallel", 64),
)
KILL_AT = 6.5
REVIVE_AT = 16.0

#: (finish time repr, sha256 of the output repr) per job, in STREAM order.
#: The adaptive policy places by predicted cost, and the detector
#: quarantines the killed sd0 at 9.25 s, ending the two calls in flight
#: there.  Job by job:
#:
#: 0. 64 MB wordcount: sd0 is idle, so it runs there.
#: 1. 128 MB stringmatch: runs on sd1, the less loaded replica.
#: 2. 1.7 GB wordcount: past the host's Phoenix limit (1.61 GB), so it
#:    stays on sd0.  The quarantine ends it there, and it moves to sd1,
#:    which was predicted to clear it in 54.4 s but needs 61.7 s.  That
#:    misses the 60 s deadline at 69.25 s, quarantines sd1 and pins the
#:    job to the host, where it ends at 106.3 s.
#: 3. Distributed 256 MB wordcount: its map shard on sd0 restarts on sd1
#:    at the quarantine; the job ends on sd1 at 20.4 s.
#: 4. 64 MB stringmatch: the host finishes it, wire included, in 0.8 s,
#:    before sd0 clears its 3.8 s backlog, so it runs on the host.
#: 5. 128 MB wordcount: runs on sd1, since sd0 still holds job 2.
#: 6. 1.7 GB stringmatch: stays on the SDs; sd1 is full until sd0
#:    rejoins, and the job runs on sd0 as its probation canary.
#: 7. A repeat of job 0: a result-cache hit at its arrival.
GOLDEN = [
    ("2.533251263999997", "2eb533b239b508f0342793f0237b43831f9e4bc2cc53778bc4cc8e6e6b559ada"),
    ("2.884957531247312", "d9daafde5ea2662e58152ce811ebb3fa75fe71ed4fa9c7346e0a3970aca99afe"),
    ("106.30736049977827", "169b838522e29281d981138e042e4e6d6c35639204db6a91be1d4912e2d7ee74"),
    ("20.369009873333844", "2cc84311a404b8907bb495d5a73201a829c06fd9fb1daa344a29f1f33033b3ec"),
    ("7.234150452724215", "696e620d1a21341181c30428636397c2f4d189c0eb79d0ede23f089a80b3bcf4"),
    ("15.652404928000403", "9480045a2ceca830a68aeabf7e3cea18c9ce0365543c2e272dfb479187e41d10"),
    ("41.88110150400087", "c22050f63aa49b8e192c09cea9f5b2dbe27d0afce97d421de8f2da5519f14746"),
    ("20.0", "2eb533b239b508f0342793f0237b43831f9e4bc2cc53778bc4cc8e6e6b559ada"),
]
#: job 6 (stringmatch, partitioned) runs on sd0: its matches group by the
#: node's core count, so its digest is pinned beside these per-key totals
GOLDEN_JOB6_KEY_TOTALS = {
    b"EXZRBBPH": 1, b"LKVXNZUG": 3, b"QUHBVPTS": 1, b"SZIWNJZN": 2,
}
#: the stream's ``sim.processed_events`` and ``net.bytes`` counter at its end
#: (the events include the deadline timers that fire inside the stream;
#: a distributed map phase arms none of its own)
GOLDEN_EVENTS = 20445
GOLDEN_NET_BYTES = 3735371760


def digest(output: object) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


def run_stream() -> tuple[list[tuple[str, str]], int, int, list]:
    """Per-job (finish time repr, output digest), processed events,
    ``net.bytes`` at the end of the stream, and the jobs' outputs."""
    bed = Testbed(config=table1_cluster(n_sd=2, seed=11), seed=11)
    paths: dict[tuple[str, int], str] = {}
    for app, size in sorted({(app, mb) for _, app, _, mb in STREAM}):
        if app == "wordcount":
            spec = text_input(f"/{app}{size}", MB(size), payload_bytes=6_000, seed=size)
        else:
            spec, _, _ = encrypted_input(
                f"/{app}{size}", MB(size), payload_bytes=6_000, keys=list(KEYS), seed=size
            )
            spec = InputSpec(path=spec.path, size=spec.size, payload=spec.payload)
        _, paths[(app, size)] = bed.stage_replicated(f"{app}{size}", spec)
    sched = ClusterScheduler(bed.cluster, attempt_timeout=60.0)
    sim = bed.sim
    finished: dict[int, float] = {}

    def driver():
        waits = []
        for k, (at, app, mode, size) in enumerate(STREAM):
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            params = {"keys": KEYS} if app == "stringmatch" else {}
            path = paths[(app, size)]
            if mode == "distributed":
                done = sched.submit_distributed(DistributedJob(
                    app=app, input_path=path, input_size=MB(size),
                    fragment_bytes=MB(size) // 4, params=params,
                ))
            else:
                done = sched.submit(DataJob(
                    app=app, input_path=path, input_size=MB(size),
                    mode=mode, params=params,
                ))
            done.add_callback(lambda _ev, k=k: finished.__setitem__(k, sim.now))
            waits.append(done)
        results = []
        for done in waits:
            results.append((yield done))
        return results

    def chaos():
        yield sim.timeout(KILL_AT)
        bed.cluster.sd_daemons["sd0"].kill()
        yield sim.timeout(REVIVE_AT - KILL_AT)
        bed.cluster.sd_daemons["sd0"].revive()

    sim.spawn(chaos(), name="golden.chaos")
    results = bed.run(driver())
    rows = [(repr(finished[k]), digest(r.output)) for k, r in enumerate(results)]
    outputs = [r.output for r in results]
    return rows, sim.processed_events, sim.obs.metrics.counters["net.bytes"], outputs


def test_golden_stream_finish_times_and_outputs():
    rows, events, net_bytes, outputs = run_stream()
    assert rows == GOLDEN
    assert (events, net_bytes) == (GOLDEN_EVENTS, GOLDEN_NET_BYTES)
    totals: dict = {}
    for key, n in outputs[6]:
        totals[key] = totals.get(key, 0) + n
    assert totals == GOLDEN_JOB6_KEY_TOTALS
