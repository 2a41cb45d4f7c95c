"""The cluster control plane: queueing, admission, placement, dispatch.

``repro.sched`` turns the repo's one-shot job runners into a *served*
system: an open-loop stream of :class:`~repro.core.job.DataJob`\\ s flows
through a bounded admission queue, a pluggable ordering policy (FIFO /
SJF / weighted fair share), a result cache, and out to the existing
offload machinery — with completion guaranteed for every admitted job.

See ``DESIGN.md`` §11 for the lifecycle and policy table.
"""

from repro.sched.cache import ResultCache
from repro.sched.health import NodeHealthTracker, PhiAccrualDetector
from repro.sched.policies import (
    FairShareOrdering,
    FIFOOrdering,
    OrderingPolicy,
    SJFOrdering,
    make_ordering,
)
from repro.sched.queue import JobQueue, QueuedJob
from repro.sched.scheduler import ClusterScheduler, CompletedJob

__all__ = [
    "ResultCache",
    "OrderingPolicy",
    "FIFOOrdering",
    "SJFOrdering",
    "FairShareOrdering",
    "make_ordering",
    "JobQueue",
    "QueuedJob",
    "ClusterScheduler",
    "CompletedJob",
    "NodeHealthTracker",
    "PhiAccrualDetector",
]
