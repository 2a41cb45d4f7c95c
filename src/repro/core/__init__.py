"""The McSD programming framework (Section IV, Fig 4).

This is the user-facing API of the reproduction: a program is split into a
*host part* (computation-intensive, runs on the host computing node) and
an *SD part* (data-intensive, offloaded to a smart-storage node through
smartFAM).  The runtime owns placement, offload and load balancing — "the
APIs and runtime environment in our McSD programming framework
automatically handles computation offload, data partitioning, and load
balancing" (Section I).

Typical use::

    from repro.cluster import Testbed
    from repro.core import DataJob, ComputeJob, McSDProgram, McSDRuntime

    bed = Testbed()
    runtime = McSDRuntime(bed.cluster)
    program = McSDProgram(
        name="analytics",
        host_part=ComputeJob.matmul(n=2048),
        sd_part=DataJob(app="wordcount", input_path=..., input_size=...),
    )
    result = bed.run(runtime.submit(program))
"""

from repro.core.framework import McSDProgram, ProgramResult
from repro.core.job import ComputeJob, DataJob, JobResult
from repro.core.loadbalance import (
    AdaptivePolicy,
    AlwaysOffloadPolicy,
    HostOnlyPolicy,
    Placement,
    PlacementPolicy,
)
from repro.core.artifacts import AttemptManifest, MapArtifact
from repro.core.cmdline import parse_command, run_command
from repro.core.distributed import (
    DistPlan,
    DistributedEngine,
    DistributedJob,
    DistributedResult,
    ShardAssignment,
    ShardFragment,
    plan_distribution,
)
from repro.core.offload import OffloadEngine
from repro.core.scatter import ScatterGatherEngine, ScatterJob, ScatterResult, Shard
from repro.core.runtime import McSDRuntime

__all__ = [
    "DataJob",
    "ComputeJob",
    "JobResult",
    "McSDProgram",
    "ProgramResult",
    "McSDRuntime",
    "OffloadEngine",
    "ScatterGatherEngine",
    "ScatterJob",
    "ScatterResult",
    "Shard",
    "DistributedEngine",
    "DistributedJob",
    "DistributedResult",
    "DistPlan",
    "ShardAssignment",
    "ShardFragment",
    "AttemptManifest",
    "MapArtifact",
    "plan_distribution",
    "parse_command",
    "run_command",
    "Placement",
    "PlacementPolicy",
    "AlwaysOffloadPolicy",
    "HostOnlyPolicy",
    "AdaptivePolicy",
]
