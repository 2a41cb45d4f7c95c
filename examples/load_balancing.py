#!/usr/bin/env python3
"""Load balancing between host and smart storage (the placement policies).

The McSD framework "automatically handles computation offload, data
partitioning, and load balancing".  This example submits a burst of
data-intensive jobs under three placement policies and shows the adaptive
policy moving a job to the host only when the host, reading the input
over NFS, would finish it before the SD node clears the work already
placed there.

Run:  python examples/load_balancing.py
"""

from __future__ import annotations

from repro.cluster import Testbed
from repro.core import (
    AdaptivePolicy,
    AlwaysOffloadPolicy,
    DataJob,
    HostOnlyPolicy,
    McSDProgram,
    McSDRuntime,
)
from repro.units import MB, fmt_time
from repro.workloads import text_input

N_JOBS = 4
SIZE = MB(400)


def burst(bed: Testbed, runtime: McSDRuntime, sd_path: str):
    """Submit N_JOBS concurrently; return (makespan, where-each-ran)."""

    def driver():
        t0 = bed.sim.now
        procs = [
            runtime.submit(
                McSDProgram(
                    name=f"job{i}",
                    sd_part=DataJob(
                        app="wordcount",
                        input_path=sd_path,
                        input_size=SIZE,
                        mode="parallel",
                    ),
                )
            )
            for i in range(N_JOBS)
        ]
        res = yield bed.sim.all_of(procs)
        wheres = [r.sd_result.where for r in res.values()]
        return bed.sim.now - t0, wheres

    return bed.run(driver())


def main() -> None:
    print(f"burst of {N_JOBS} x WordCount({SIZE / 1e6:.0f}MB), per policy:\n")
    for policy in (AlwaysOffloadPolicy(), HostOnlyPolicy(), AdaptivePolicy()):
        bed = Testbed(seed=5)
        dataset = text_input("/data/burst.txt", SIZE, seed=5)
        _sd, _host, sd_path = bed.stage_on_sd("burst.txt", dataset)
        runtime = McSDRuntime(bed.cluster, policy=policy)
        makespan, wheres = burst(bed, runtime, sd_path)
        placement = ", ".join(
            f"{wheres.count(n)}x {n}" for n in sorted(set(wheres))
        )
        print(f"  {policy.name:15s} makespan {fmt_time(makespan):>10s}  ({placement})")
    print(
        "\nalways-offload funnels everything into the 2-core SD node; "
        "host-only pays NFS\nand host contention; adaptive splits the burst "
        "across both."
    )


if __name__ == "__main__":
    main()
