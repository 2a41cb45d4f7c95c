"""The bounded admission queue of the cluster control plane.

A :class:`JobQueue` holds admitted-but-undispatched jobs.  Admission is
the *only* point where the control plane may refuse work: a full queue
raises :class:`~repro.errors.AdmissionError` (explicit backpressure — the
overloaded system sheds load instead of queueing unboundedly), while
re-queues of already-admitted jobs (fault-path re-placement) always
succeed, so an admitted job can never be dropped by its own retry.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.job import DataJob
from repro.errors import AdmissionError
from repro.sched.policies import OrderingPolicy
from repro.sim.events import Event

__all__ = ["QueuedJob", "JobQueue"]


@dataclasses.dataclass
class QueuedJob:
    """One admitted job and its control-plane bookkeeping."""

    job: DataJob
    seq: int
    submitted_at: float
    #: fires with the JobResult (or fails) when the job completes
    done: Event
    #: SD nodes that may serve the job (primary first)
    candidates: tuple[str, ...] = ()
    #: dispatch attempts so far (0 while never dispatched)
    attempts: int = 0
    #: nodes that failed this job (excluded from later placements)
    excluded: set = dataclasses.field(default_factory=set)
    #: set once the SD retries are spent or a host attempt failed: place
    #: on the host, which never leaves the eligible set (completion
    #: guarantee for admitted jobs)
    force_host: bool = False
    dispatched_at: float | None = None
    #: the open ``sched.queue`` span (None with tracing off)
    queue_span: object = None
    #: admission-time result-cache key (None = uncacheable / cache off)
    cache_key: tuple | None = None
    #: distributed jobs only: the replica set chosen at the latest
    #: dispatch (every healthy, uncrowded candidate at that instant)
    shard_nodes: tuple[str, ...] | None = None
    #: structured per-shard failure records from the most recent failed
    #: attempt (``DistributedJobError.failures``) — what the force-host
    #: log line and trace_view surface as the "why"
    last_failures: list = dataclasses.field(default_factory=list)

    @property
    def tenant(self) -> str:
        """The submitting tenant."""
        return self.job.tenant


class JobQueue:
    """Bounded queue with a pluggable ordering policy."""

    def __init__(self, ordering: OrderingPolicy, limit: int = 64):
        if limit < 1:
            raise AdmissionError("queue", 0, limit)
        self.ordering = ordering
        self.limit = limit
        self._entries: list[QueuedJob] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> _t.Iterator[QueuedJob]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        """True when admission would be refused."""
        return len(self._entries) >= self.limit

    def admit(self, entry: QueuedJob) -> None:
        """Admit a new job; raises :class:`AdmissionError` when full."""
        if self.full:
            raise AdmissionError(entry.job.app, len(self._entries), self.limit)
        self._entries.append(entry)

    def requeue(self, entry: QueuedJob) -> None:
        """Put an already-admitted job back (fault path).

        Never refused: admission happened once; the bound exists to shed
        *new* load, not to drop work the control plane already accepted.
        """
        self._entries.append(entry)

    def ordered(self) -> list[QueuedJob]:
        """Queued entries in the policy's dispatch-preference order."""
        return self.ordering.ordered(self._entries)

    def take(self, entry: QueuedJob) -> QueuedJob:
        """Remove ``entry`` for dispatch, charging the ordering policy."""
        self._entries.remove(entry)
        self.ordering.on_dispatch(entry)
        return entry

    def depth_for(self, node: str) -> int:
        """Queued jobs whose *only* feasible target is ``node``."""
        return sum(
            1
            for e in self._entries
            if len(e.candidates) == 1 and e.candidates[0] == node
        )

    def depths(self) -> dict[str, int]:
        """Per-node pinned queue depth (the placement load signal).

        A job with one candidate is future load on that node; a job free
        to go anywhere is not attributed to any single node.
        """
        out: dict[str, int] = {}
        for e in self._entries:
            if len(e.candidates) == 1:
                name = e.candidates[0]
                out[name] = out.get(name, 0) + 1
        return out
