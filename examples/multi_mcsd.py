#!/usr/bin/env python3
"""Parallelism across multiple McSD nodes (Section VI future work #2).

Shards a 2 GB Word Count across a cluster with 1, 2 and 4 smart-storage
nodes; each node runs the partition-enabled module over its local shard
concurrently and the host merges the results (scatter-gather).  Also
shows the scheduler moving a job to a replica when one storage node's
module crashes on every run.

Run:  python examples/multi_mcsd.py
"""

from __future__ import annotations

from repro.cluster import Testbed
from repro.config import table1_cluster
from repro.core import DataJob, ScatterGatherEngine, ScatterJob
from repro.faults import FaultPlan, FaultRule
from repro.sched import ClusterScheduler
from repro.units import MB, fmt_time
from repro.workloads import text_input

SIZE = MB(2000)


def main() -> None:
    print(f"WordCount({SIZE / 1e6:.0f}MB) sharded across n smart-storage nodes:\n")
    base = None
    for n_sd in (1, 2, 4):
        bed = Testbed(config=table1_cluster(n_sd=n_sd, seed=8), seed=8)
        inp = text_input("/data/huge", SIZE, payload_bytes=16_000, seed=8)
        shards = bed.stage_shards("huge", inp)
        engine = ScatterGatherEngine(bed.cluster)

        def go(engine=engine, shards=shards):
            return (yield engine.run(ScatterJob(app="wordcount", shards=shards)))

        res = bed.run(go())
        base = base or res.elapsed
        total = sum(v for _, v in res.output)
        print(
            f"  {n_sd} SD node(s): {fmt_time(res.elapsed):>10s}  "
            f"speedup {base / res.elapsed:.2f}x  ({total} words, exact)"
        )

    # --- fault tolerance on top: sd0's module crashes, the job moves
    print("\nnow with sd0's wordcount module crashing on every run:")
    bed = Testbed(config=table1_cluster(n_sd=2, seed=8), seed=8)
    inp = text_input("/data/huge", MB(400), payload_bytes=8_000, seed=8)
    _sd, _h, sd_path = bed.stage_on_sd("huge", inp)
    bed.stage(bed.cluster.sd(1), sd_path, inp)  # replica on sd1
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("fam.module", action="fail", count=99,
                  where={"node": "sd0", "module": "wordcount"}),
    )))
    sched = ClusterScheduler(bed.cluster, attempt_timeout=60.0, cache=None)
    job = DataJob(app="wordcount", input_path=sd_path, input_size=MB(400))
    res = bed.run(sched.submit(job))
    rec = sched.completed[-1]
    failed = bed.sim.obs.metrics.counters["sched.attempt_failures"]
    print(f"  {rec.attempts} attempts, {int(failed)} failed; completed on "
          f"{res.where} in {fmt_time(rec.total)}; results exact:",
          sum(v for _, v in res.output) == len(inp.payload_bytes.split()))


if __name__ == "__main__":
    main()
