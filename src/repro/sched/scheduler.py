"""The cluster scheduler: an open-loop job stream served by the McSD cluster.

:class:`ClusterScheduler` is the control plane in front of the data plane
the repo already has (:class:`~repro.core.offload.OffloadEngine` running
:class:`~repro.core.job.DataJob`\\ s wherever a
:class:`~repro.core.loadbalance.PlacementPolicy` says).  The lifecycle of
one job::

    submit --> cache? --> admit --> (queued) --> place --> dispatch --> run
                 |          |                                 |
                 hit     AdmissionError                 retryable failure
                 |      (queue full: shed)                    |
              done now                                  requeue (node
                                                        excluded), after
                                                        max_retries: host

Guarantees:

* **Backpressure, not collapse** — a full queue rejects at admission with
  :class:`~repro.errors.AdmissionError`; an *admitted* job is never
  dropped.
* **Completion within one budget** — a retryable failure (a quarantine,
  a missed deadline, an injected fault) re-queues the job with the node
  it happened on excluded — the SD node, unless the error names the host
  (its own NFS client failed), which leaves the candidates as they were;
  after ``max_retries`` re-dispatches, or once no trusted SD
  node is left, the job is pinned to the host.  The host is never
  excluded or quarantined: a retryable failure there re-queues the job
  on the host until its host attempts exceed ``max_retries``.  A job so
  makes at most 2 × (``max_retries`` + 1) attempts.  Only a permanent
  error (unknown app, bad params, a missing input) or a host failure
  past that budget fails the submitter's ``done`` event.
* **Work conservation** — the dispatcher walks the ordering policy's
  preference order and skips entries whose feasible nodes are at their
  ``per_node_limit``, so a blocked head never idles a free node.
* **Load spreading** — jobs free to run on several SD nodes (replicated
  input, no explicit ``sd_node``) go to the least loaded via
  :func:`~repro.core.loadbalance.least_loaded` (jobs placed, dispatched
  and queued per node), and the placement policy then decides SD or host
  — by default :class:`~repro.core.loadbalance.AdaptivePolicy`, by
  predicted cost: the job moves to the host only when the host would
  finish it, input transfer included, before the SD clears its backlog.
  The backlog counts the jobs this pump pass already dispatched through
  the pending bridge, so a burst in one instant sees its own placements.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.core.distributed import DistributedEngine, DistributedJob
from repro.core.job import DataJob, JobResult
from repro.core.loadbalance import (
    AdaptivePolicy,
    Placement,
    PlacementPolicy,
    least_loaded,
    predicted_ops,
)
from repro.core.offload import OffloadEngine
from repro.errors import (
    RETRIES,
    AdmissionError,
    ConfigError,
    DistributedJobError,
    OffloadTimeoutError,
    is_retryable,
)
from repro.obs.slo import HealthReport, SLOPolicy, SLOTracker, build_health_report
from repro.sched.cache import ResultCache
from repro.sched.health import NodeHealthTracker
from repro.sched.policies import OrderingPolicy, make_ordering
from repro.sched.queue import JobQueue, QueuedJob
from repro.sim.events import Event
from repro.sim.sync import Signal

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import BuiltCluster

__all__ = ["CompletedJob", "ClusterScheduler"]


def _failure_summary(failures: list, limit: int = 3) -> str:
    """Compact ``phase@node:Cause`` rendering of shard-failure records."""
    if not failures:
        return ""
    parts = [
        f"{f.get('phase', '?')}@{f.get('node', '?')}:{f.get('cause', '?')}"
        for f in failures[:limit]
    ]
    extra = len(failures) - limit
    if extra > 0:
        parts.append(f"+{extra} more")
    return ", ".join(parts)


@dataclasses.dataclass
class CompletedJob:
    """One finished job's control-plane record (the benchmark's raw data)."""

    job: DataJob
    seq: int
    where: str
    offloaded: bool
    submitted_at: float
    dispatched_at: float
    finished_at: float
    attempts: int = 1
    from_cache: bool = False

    @property
    def tenant(self) -> str:
        """The submitting tenant."""
        return self.job.tenant

    @property
    def queue_wait(self) -> float:
        """Seconds spent admitted-but-undispatched."""
        return self.dispatched_at - self.submitted_at

    @property
    def service(self) -> float:
        """Seconds from dispatch to completion (all attempts)."""
        return self.finished_at - self.dispatched_at

    @property
    def total(self) -> float:
        """Submit-to-completion latency."""
        return self.finished_at - self.submitted_at


class ClusterScheduler:
    """Multi-tenant job scheduler over a built McSD cluster.

    Parameters
    ----------
    cluster:
        The :class:`~repro.cluster.builder.BuiltCluster` to serve.
    policy:
        Placement policy (default: :class:`AdaptivePolicy`, placement by
        predicted cost; it reads the offload engine's ledger of predicted
        ops plus the scheduler's pending bridge).
    ordering:
        Queue ordering — ``"fifo"`` (default), ``"sjf"``, ``"fair"``, or
        an :class:`~repro.sched.policies.OrderingPolicy` instance.
    max_queue:
        Admission bound: queued-but-undispatched jobs beyond this are
        rejected with :class:`AdmissionError`.
    per_node_limit:
        Max jobs concurrently placed on any one node (SD or host).
    attempt_timeout:
        Deadline for every attempt, offloaded or on the host; expiry
        re-queues the job, and an SD node that missed it is quarantined.
        A dead daemon's attempts end at detection, so the deadline is the
        backstop for a daemon that is alive but hung, and for a host run
        whose NFS message was lost.  ``None`` disables deadlines (such a
        hang then holds its job — benchmarks always set one).
    max_retries:
        Re-dispatches (>= 0) before the job is pinned to the host, and
        again on the host before the job fails.
    cache:
        ``True`` (default) builds a :class:`ResultCache` watching every SD
        node's VFS; pass an instance to share/configure one, or
        ``None``/``False`` to disable memoization.
    slo:
        Per-tenant latency objectives — anything
        :class:`~repro.obs.slo.SLOTracker` accepts (a single
        :class:`~repro.obs.slo.SLOPolicy`, an iterable, a mapping, or a
        ready tracker).  Every completion and permanent failure feeds the
        tracker; :meth:`health_report` snapshots it.  ``None`` (default)
        still tracks latencies, just with no objective to verdict against.
    heartbeat:
        Only ``True`` (the default): the scheduler always starts and
        places by the cluster's failure detector.  Suspected nodes are
        avoided (not torn down).  A quarantined node leaves the eligible
        set, and its attempts and distributed shards in flight fail at
        once with :class:`~repro.errors.NodeDownError`, so they re-queue
        or restart on the survivors at detection.  A quarantined node
        whose beats resume re-enters through probation — one canary job
        at a time until a success restores it.
    """

    def __init__(
        self,
        cluster: "BuiltCluster",
        policy: PlacementPolicy | None = None,
        ordering: str | OrderingPolicy | None = None,
        max_queue: int = 64,
        per_node_limit: int = 2,
        attempt_timeout: float | None = None,
        max_retries: int = RETRIES,
        cache: ResultCache | bool | None = True,
        slo: SLOTracker | SLOPolicy | _t.Mapping[str, SLOPolicy]
        | _t.Iterable[SLOPolicy] | None = None,
        heartbeat: bool = True,
    ):
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        if heartbeat is not True:
            raise ConfigError(
                f"the failure detector is always on, got heartbeat={heartbeat!r}"
            )
        self.cluster = cluster
        self.sim = cluster.sim
        self.engine = OffloadEngine(cluster)
        # shares the offload engine's ledgers so shard load is visible to
        # every placement decision
        self.dist_engine = DistributedEngine(
            cluster, inflight=self.engine.inflight,
            inflight_ops=self.engine.inflight_ops,
        )
        self.queue = JobQueue(make_ordering(ordering), limit=max_queue)
        self.policy = policy or AdaptivePolicy()
        if cache is True:
            cache = ResultCache()
        elif cache is False:
            cache = None
        self.cache: ResultCache | None = cache
        if self.cache is not None:
            self.cache.watch_cluster(cluster)
            if self.cache.obs is None:
                self.cache.obs = self.sim.obs
        self.per_node_limit = max(1, per_node_limit)
        self.attempt_timeout = attempt_timeout
        self.max_retries = max_retries
        #: per-tenant SLO evaluation (always present; policies optional)
        self.slo: SLOTracker = (
            slo if isinstance(slo, SLOTracker) else SLOTracker(slo)
        )
        #: dispatched jobs whose runner process has not started yet — the
        #: engine's ``inflight`` only sees a job once the runner calls it,
        #: so capacity checks within one pump pass need this bridge count,
        #: and the placement policy their predicted ops
        self._pending: dict[str, int] = {}
        self._pending_ops: dict[str, int] = {}
        #: finished jobs, completion order
        self.completed: list[CompletedJob] = []
        #: jobs refused at admission
        self.rejected = 0
        self._seq = itertools.count()
        self._wake = Signal(self.sim, name="sched.wake")
        self._dispatcher = self.sim.spawn(self._dispatch_loop(), name="sched.dispatcher")
        #: the cluster's phi-accrual failure detector
        self.health: NodeHealthTracker = cluster.start_detector()
        self.health.on_change.append(self._wake.fire)

    # -- submission --------------------------------------------------------

    def submit(self, job: DataJob) -> Event:
        """Submit one job; the returned event fires with its JobResult.

        Raises :class:`AdmissionError` when the queue is full (the job was
        *not* accepted; nothing will run).  A cache hit completes the
        returned event in the same instant without entering the queue.
        """
        obs = self.sim.obs
        done = Event(self.sim, name=f"sched.done:{job.app}")
        key = None
        if self.cache is not None:
            key = self.cache.key_for(job, self.cluster)
            hit = self.cache.get(key)
            if hit is not None:
                obs.count("sched.cache.hit")
                self._finish_cached(job, hit, done)
                return done
            obs.count("sched.cache.miss")
        self._admit(job, done, key)
        return done

    def submit_distributed(self, job: DistributedJob) -> Event:
        """Submit one distributed (sharded) job; fires with its result.

        Distributed jobs skip the result cache (their placement depends on
        the live replica set) and dispatch as ONE logical job whose shards
        fan out over every healthy candidate SD node at dispatch time.
        Individual shard-node failures are handled inside the
        :class:`~repro.core.distributed.DistributedEngine` (partial
        restart on the survivors); only a job its recovery passes cannot
        finish surfaces here, where the normal retry path is the
        whole-job retry — requeue on the remaining replicas, ultimately a
        single-node partitioned run on the host, under the same deadline
        and budget as any host attempt.
        """
        done = Event(self.sim, name=f"sched.done:{job.app}")
        self._admit(job, done, None)
        return done

    def _admit(
        self, job: DataJob | DistributedJob, done: Event, cache_key: tuple | None
    ) -> None:
        """Queue ``job``, or raise :class:`AdmissionError` if it is full."""
        obs = self.sim.obs
        seq = next(self._seq)
        entry = QueuedJob(
            job,
            seq,
            self.sim.now,
            done,
            candidates=self._candidates(job),
            cache_key=cache_key,
        )
        try:
            self.queue.admit(entry)
        except AdmissionError:
            obs.count("sched.rejected")
            self.rejected += 1
            raise
        obs.count("sched.admitted")
        attrs = {"app": job.app, "tenant": job.tenant}
        if isinstance(job, DistributedJob):
            obs.count("sched.dist.submitted")
            attrs["distributed"] = True
        entry.queue_span = obs.span(
            "sched.queue", cat="sched", track=f"sched:j{seq}", **attrs
        )
        self._sample_depth()
        self._wake.fire()

    def _candidates(self, job: DataJob) -> tuple[str, ...]:
        """SD nodes that can serve the job (primary preference first).

        An explicit ``sd_node`` pins the job; otherwise every SD node
        holding the input path is a candidate (replicated staging makes
        the whole fleet eligible — that is what multi-SD scaling needs).
        """
        if job.sd_node:
            return (job.sd_node,)
        names = []
        for node in self.cluster.sd_nodes:
            try:
                node.fs.vfs.stat(job.input_path)
            except Exception:
                continue
            names.append(node.name)
        return tuple(names) or (self.cluster.sd_nodes[0].name,)

    def _finish_cached(self, job: DataJob, hit: JobResult, done: Event) -> None:
        obs = self.sim.obs
        now = self.sim.now
        result = dataclasses.replace(hit, elapsed=0.0)
        self.completed.append(
            CompletedJob(
                job=job, seq=-1, where="cache", offloaded=False,
                submitted_at=now, dispatched_at=now, finished_at=now,
                attempts=0, from_cache=True,
            )
        )
        obs.count("sched.completed")
        obs.count(f"sched.tenant.{job.tenant}.completed")
        self.slo.observe(job.tenant, now, 0.0)
        done.succeed(result)

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> _t.Generator:
        """The scheduler's pump: dispatch whatever fits, then sleep.

        The pump runs atomically (no yields), so registering the wake
        waiter right after it cannot lose a pulse — any submit/completion
        happens in another process, which only runs once we are waiting.
        """
        while True:
            self._pump()
            yield self._wake.wait()

    def _pump(self) -> None:
        obs = self.sim.obs
        for entry in self.queue.ordered():
            placed = self._placement_for(entry)
            if placed is None:
                continue  # every feasible node is at capacity; stay queued
            job, placement = placed
            self.queue.take(entry)
            entry.attempts += 1
            entry.dispatched_at = self.sim.now
            if entry.queue_span is not None:
                entry.queue_span.close()
                entry.queue_span = None
            obs.count("sched.dispatched")
            if not placement.offload:
                obs.count("sched.host_attempts")
                obs.count("sched.host_bytes", job.input_size)
            with obs.span(
                "sched.dispatch", cat="sched", track=f"sched:j{entry.seq}"
            ) as sp:
                sp.set(node=placement.node, offload=placement.offload,
                       reason=placement.reason, attempt=entry.attempts)
            node = placement.node
            ops = predicted_ops(job.app, job.params, job.input_size)
            self._pending[node] = self._pending.get(node, 0) + 1
            self._pending_ops[node] = self._pending_ops.get(node, 0) + ops
            self.sim.spawn(
                self._run_entry(entry, job, placement, ops),
                name=f"sched.run:j{entry.seq}",
            )
            self._sample_depth()

    def _placement_for(
        self, entry: QueuedJob
    ) -> tuple[DataJob | DistributedJob, Placement] | None:
        """Where ``entry`` should run now, or ``None`` if it must wait."""
        host = self.cluster.host.name
        distributed = isinstance(entry.job, DistributedJob)
        if not entry.force_host:
            names = self._trusted(entry)
            if not names:
                # nowhere offloadable is trustworthy: fall through to host
                entry.force_host = True
        if entry.force_host:
            if self._occupancy(host) >= self.per_node_limit:
                return None
            kind = "distributed job " if distributed else ""
            reason = f"sched: {kind}forced host"
            why = _failure_summary(entry.last_failures)
            if why:
                reason += f" after {why}"
            return entry.job, Placement(node=host, offload=False, reason=reason)
        eligible = [
            c for c in names if self._occupancy(c) < self._node_limit(c)
        ]
        if not eligible:
            return None
        if distributed:
            return self._distributed_placement(entry, eligible)
        depths = self.queue.depths()
        for node, n in self._pending.items():
            if n:
                depths[node] = depths.get(node, 0) + n
        best = least_loaded(self.cluster, self.engine, eligible, depths)
        job = entry.job
        if job.sd_node != best:
            job = dataclasses.replace(job, sd_node=best)
        placement = self.policy.place(
            job, self.cluster, self.engine, self._pending_ops
        )
        if not placement.offload:
            if self._occupancy(host) >= self.per_node_limit:
                return None
        return job, placement

    def _distributed_placement(
        self, entry: QueuedJob, eligible: list[str]
    ) -> tuple[DistributedJob, Placement]:
        """Placement for a distributed entry: the whole eligible replica set.

        The lead node of the set is the Placement's nominal node (capacity
        and pending bookkeeping hang off it); the full set rides on
        ``entry.shard_nodes`` for the engine to shard over.
        """
        # a rejoining node earns trust through single canary jobs, not by
        # carrying shards of a fan-out job
        settled = [c for c in eligible if c not in self.health.probation]
        if settled:
            eligible = settled
        entry.shard_nodes = tuple(eligible)
        return entry.job, Placement(
            node=eligible[0], offload=True,
            reason=f"sched: distributed over {len(eligible)} SD node(s)",
        )

    def _occupancy(self, node: str) -> int:
        """Jobs placed on (or dispatched toward) ``node`` right now."""
        return self.engine.inflight.get(node, 0) + self._pending.get(node, 0)

    def _trusted(self, entry: QueuedJob) -> list[str]:
        """Candidates worth dispatching to, quarantine- and phi-aware.

        Quarantine (``unhealthy``) is authoritative; *suspicion* is
        advisory — a suspected node is skipped only while an unsuspected
        alternative exists, so a transient stall of the whole fleet never
        pins jobs to the host.
        """
        unhealthy = self.unhealthy
        names = [
            c for c in entry.candidates
            if c not in entry.excluded and c not in unhealthy
        ]
        if names:
            calm = [c for c in names if c not in self.health.suspected]
            if calm:
                names = calm
        return names

    def _node_limit(self, node: str) -> int:
        """Concurrent-placement cap for ``node`` (probation gets a canary)."""
        if node in self.health.probation:
            return 1
        return self.per_node_limit

    # -- running -----------------------------------------------------------

    def _run_entry(
        self, entry: QueuedJob, job: DataJob, placement: Placement, ops: int
    ) -> _t.Generator:
        obs = self.sim.obs
        span = obs.span(
            "sched.run", cat="sched", track=f"sched:j{entry.seq}",
            node=placement.node, attempt=entry.attempts,
        )
        try:
            try:
                # engine.run registers the job in its ledgers synchronously,
                # so the pending bridge can drop it in the same instant
                try:
                    running = self._launch(entry, job, placement)
                finally:
                    self._pending[placement.node] -= 1
                    self._pending_ops[placement.node] -= ops
                result = yield running
            finally:
                span.close()
        except Exception as exc:
            self._on_failure(entry, placement, exc)
            return
        self._on_success(entry, job, placement, result)

    def _launch(
        self, entry: QueuedJob, job: DataJob | DistributedJob,
        placement: Placement,
    ) -> Event:
        """Start the right engine for ``job``; returns the running event."""
        if isinstance(job, DistributedJob):
            if placement.offload:
                return self.dist_engine.run(
                    job, nodes=entry.shard_nodes, timeout=self.attempt_timeout
                )
            # completion guarantee: the replica fleet is burned, so run the
            # same work single-node on the host through the extended
            # (partitioned) runtime
            fallback = DataJob(
                app=job.app,
                input_path=job.input_path,
                input_size=job.input_size,
                mode="partitioned",
                fragment_bytes=job.fragment_bytes,
                params=dict(job.params),
                tenant=job.tenant,
            )
            return self.engine.run(fallback, placement, timeout=self.attempt_timeout)
        return self.engine.run(job, placement, timeout=self.attempt_timeout)

    def _on_failure(
        self, entry: QueuedJob, placement: Placement, exc: BaseException
    ) -> None:
        obs = self.sim.obs
        obs.count("sched.attempt_failures")
        if isinstance(exc, DistributedJobError):
            # the engine evicted these replicas, each quarantined or past a
            # deadline; the next placement also skips every node a failure
            # happened on, and not the lead node unless one did
            entry.last_failures = list(exc.failures)
            entry.excluded |= exc.excluded
            entry.excluded.update(f["node"] for f in exc.failures)
            for node in exc.excluded:
                self._quarantine(node)
        if isinstance(exc, OffloadTimeoutError) and placement.offload:
            # a deadline miss: the daemon is hung, or died before its first
            # beat; quarantine the node so the queue drains elsewhere
            self._quarantine(placement.node)
        retry = is_retryable(exc)
        if retry and not isinstance(exc, DistributedJobError):
            entry.last_failures.append({
                "node": placement.node,
                "phase": "job",
                "cause": type(exc).__name__,
                "attempt": entry.attempts,
                "at": self.sim.now,
            })
        if retry and placement.offload:
            # exclude the node the failure happened on, if it is the SD: a
            # failure of the host's own NFS client leaves the SD eligible
            if not isinstance(exc, DistributedJobError) and (
                (getattr(exc, "node", None) or placement.node) == placement.node
            ):
                entry.excluded.add(placement.node)
                self.health.job_failed(placement.node)
            if entry.attempts > self.max_retries:
                entry.force_host = True
        elif retry:
            # the host never leaves the eligible set: retry there, with
            # its own budget of max_retries + 1 attempts
            entry.force_host = True
            host_failures = sum(
                f["node"] == placement.node for f in entry.last_failures
            )
            retry = host_failures <= self.max_retries
        if retry:
            obs.count("sched.requeued")
            entry.queue_span = obs.span(
                "sched.queue", cat="sched", track=f"sched:j{entry.seq}",
                requeued_after=type(exc).__name__,
            )
            self.queue.requeue(entry)
            self._sample_depth()
            self._wake.fire()
            return
        # permanent (unknown app, bad params, a missing input) or the
        # host's budget is spent: the submitter gets the exception
        obs.count("sched.failed")
        now = self.sim.now
        self.slo.observe(
            entry.job.tenant, now, now - entry.submitted_at, failed=True
        )
        entry.done.fail(exc)
        self._wake.fire()

    def _on_success(
        self,
        entry: QueuedJob,
        job: DataJob,
        placement: Placement,
        result: JobResult,
    ) -> None:
        obs = self.sim.obs
        now = self.sim.now
        record = CompletedJob(
            job=job,
            seq=entry.seq,
            where=result.where,
            offloaded=result.offloaded,
            submitted_at=entry.submitted_at,
            dispatched_at=entry.dispatched_at
            if entry.dispatched_at is not None else entry.submitted_at,
            finished_at=now,
            attempts=entry.attempts,
        )
        self.completed.append(record)
        obs.count("sched.completed")
        obs.count(f"sched.tenant.{job.tenant}.completed")
        obs.count(f"sched.tenant.{job.tenant}.work", max(1, job.input_size))
        obs.observe("sched.latency.queue", record.queue_wait)
        obs.observe("sched.latency.run", record.service)
        obs.observe("sched.latency.total", record.total)
        if isinstance(job, DistributedJob):
            obs.count("sched.dist.completed")
            obs.count("sched.dist.shards", getattr(result, "n_shards", 1))
        self.slo.observe(job.tenant, now, record.total)
        if result.offloaded:
            # probation credit: the nodes that carried this job earned it
            served = {result.where}
            served.update(getattr(result, "shard_nodes", ()) or ())
            for node in served:
                self.health.job_succeeded(node)
        if self.cache is not None and entry.cache_key is not None:
            self.cache.put(entry.cache_key, result)
        entry.done.succeed(result)
        self._sample_depth()
        self._wake.fire()

    # -- health / introspection -------------------------------------------

    @property
    def unhealthy(self) -> set[str]:
        """Quarantined nodes (skipped until probation or marked healthy)."""
        return self.health.unhealthy

    def mark_healthy(self, node: str) -> None:
        """Readmit a quarantined node (e.g. after its daemon revives)."""
        self.health.restore(node)
        self._wake.fire()

    def _quarantine(self, node: str) -> None:
        """Pull ``node`` from the eligible set on hard failure evidence."""
        if node in self.unhealthy:
            return
        self.health.force_quarantine(node)
        self.sim.obs.count("sched.node_unhealthy")

    def _sample_depth(self) -> None:
        self.sim.obs.sample("sched.queue_depth", self.sim.now, len(self.queue))

    def health_report(self) -> HealthReport:
        """One instant's health snapshot — the admission/autoscaling signal.

        Evaluates every tenant's SLO at the current sim time, with the
        current queue depth and quarantine list; ``sched.latency.*``
        histogram summaries ride along when tracing recorded them.
        """
        return build_health_report(
            self.slo,
            now=self.sim.now,
            queue_depth=len(self.queue),
            unhealthy_nodes=self.unhealthy,
            obs=self.sim.obs,
        )

    def stats(self) -> dict:
        """Summary counters for benchmarks and reports."""
        per_tenant_work: dict[str, int] = {}
        per_tenant_done: dict[str, int] = {}
        for rec in self.completed:
            t = rec.tenant
            per_tenant_done[t] = per_tenant_done.get(t, 0) + 1
            if not rec.from_cache:
                per_tenant_work[t] = per_tenant_work.get(t, 0) + rec.job.input_size
        out = {
            "completed": len(self.completed),
            "rejected": self.rejected,
            "queued": len(self.queue),
            "unhealthy": sorted(self.unhealthy),
            "offloaded": self.engine.offloaded,
            "host_runs": self.engine.host_runs,
            "tenant_completed": per_tenant_done,
            "tenant_work": per_tenant_work,
            "node_states": dict(sorted(self.health.state.items())),
        }
        if self.cache is not None:
            out["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "invalidations": self.cache.invalidations,
                "evictions_capacity": self.cache.evictions_capacity,
                "evictions_invalidation": self.cache.evictions_invalidation,
                "entries": len(self.cache),
            }
        return out
