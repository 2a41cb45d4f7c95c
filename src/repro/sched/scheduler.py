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
* **Completion** — a retryable failure (daemon timeout, injected fault)
  re-queues the job with the failed node excluded; once retries are
  exhausted the job is pinned to the host, which runs in-process and
  cannot silently die.  Only a permanent error (unknown app, bad params)
  fails the submitter's ``done`` event.
* **Work conservation** — the dispatcher walks the ordering policy's
  preference order and skips entries whose feasible nodes are at their
  ``per_node_limit``, so a blocked head never idles a free node.
* **Load spreading** — jobs free to run on several SD nodes (replicated
  input, no explicit ``sd_node``) go to the least loaded via
  :func:`~repro.core.loadbalance.least_loaded`, and an
  :class:`~repro.core.loadbalance.AdaptivePolicy` sees the scheduler's
  per-node queue depths through :meth:`~...AdaptivePolicy.bind_depths`.
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
)
from repro.core.offload import OffloadEngine
from repro.errors import (
    AdmissionError,
    DistributedJobError,
    OffloadTimeoutError,
    is_retryable,
)
from repro.obs.slo import HealthReport, SLOPolicy, SLOTracker, build_health_report
from repro.sched.cache import ResultCache
from repro.sched.health import HeartbeatConfig, NodeHealthTracker
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
        Placement policy (default: :class:`AdaptivePolicy` with the
        scheduler's queue depths bound as its load signal).
    ordering:
        Queue ordering — ``"fifo"`` (default), ``"sjf"``, ``"fair"``, or
        an :class:`~repro.sched.policies.OrderingPolicy` instance.
    max_queue:
        Admission bound: queued-but-undispatched jobs beyond this are
        rejected with :class:`AdmissionError`.
    per_node_limit:
        Max jobs concurrently placed on any one node (SD or host).
    attempt_timeout:
        Deadline for one *offloaded* attempt; expiry marks the node
        unhealthy and re-queues the job.  ``None`` disables deadlines
        (a dead daemon then hangs its jobs — benchmarks always set one).
    max_retries:
        Dispatch attempts before the job is pinned to the host.
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
        ``True`` or a :class:`~repro.sched.health.HeartbeatConfig` starts
        the failure detector: every SD daemon pings the host over the
        fabric and a :class:`~repro.sched.health.NodeHealthTracker` turns
        inter-arrival gaps into phi-accrual suspicion.  Suspected nodes
        are avoided (not torn down), quarantined nodes leave the eligible
        set, and a quarantined node whose beats resume re-enters through
        probation — one canary job at a time until a success restores it.
        ``None`` (default) keeps the PR-8 behavior: quarantine only on
        attempt timeout, rejoin only via :meth:`mark_healthy`.
    """

    def __init__(
        self,
        cluster: "BuiltCluster",
        policy: PlacementPolicy | None = None,
        ordering: str | OrderingPolicy | None = None,
        max_queue: int = 64,
        per_node_limit: int = 2,
        attempt_timeout: float | None = None,
        max_retries: int = 2,
        cache: ResultCache | bool | None = True,
        slo: SLOTracker | SLOPolicy | _t.Mapping[str, SLOPolicy]
        | _t.Iterable[SLOPolicy] | None = None,
        heartbeat: HeartbeatConfig | bool | None = None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.engine = OffloadEngine(cluster)
        # shares the offload engine's inflight map so shard load is visible
        # to every placement decision
        self.dist_engine = DistributedEngine(cluster, inflight=self.engine.inflight)
        self.queue = JobQueue(make_ordering(ordering), limit=max_queue)
        self.policy = policy or AdaptivePolicy()
        if isinstance(self.policy, AdaptivePolicy) and self.policy.depth_source is None:
            self.policy.bind_depths(self.queue.depths)
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
        #: nodes whose daemon missed a deadline (skipped until marked healthy)
        self.unhealthy: set[str] = set()
        #: dispatched jobs whose runner process has not started yet — the
        #: engine's ``inflight`` only sees a job once the runner calls it,
        #: so capacity checks within one pump pass need this bridge count
        self._pending: dict[str, int] = {}
        #: finished jobs, completion order
        self.completed: list[CompletedJob] = []
        #: jobs refused at admission
        self.rejected = 0
        self._seq = itertools.count()
        self._wake = Signal(self.sim, name="sched.wake")
        self._dispatcher = self.sim.spawn(self._dispatch_loop(), name="sched.dispatcher")
        #: phi-accrual failure detector (None: timeout-only health model)
        self.health: NodeHealthTracker | None = None
        if heartbeat:
            cfg = (
                heartbeat if isinstance(heartbeat, HeartbeatConfig)
                else HeartbeatConfig()
            )
            self.health = NodeHealthTracker(
                self.sim,
                [n.name for n in cluster.sd_nodes],
                cfg,
                unhealthy=self.unhealthy,
            )
            endpoint = f"hb:{cluster.host.name}"
            inbox = cluster.fabric.attach(endpoint)
            for daemon in cluster.sd_daemons.values():
                daemon.start_heartbeat(cluster.fabric, endpoint, cfg.interval)
            self.sim.spawn(
                self._heartbeat_listener(inbox), name="sched.hb.listener"
            )
            self.sim.spawn(self._health_monitor(cfg), name="sched.hb.monitor")

    # -- submission --------------------------------------------------------

    def submit(self, job: DataJob) -> Event:
        """Submit one job; the returned event fires with its JobResult.

        Raises :class:`AdmissionError` when the queue is full (the job was
        *not* accepted; nothing will run).  A cache hit completes the
        returned event in the same instant without entering the queue.
        """
        obs = self.sim.obs
        done = Event(self.sim, name=f"sched.done:{job.app}")
        key = (
            self.cache.key_for(job, self.cluster)
            if self.cache is not None else None
        )
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                obs.count("sched.cache.hit")
                self._finish_cached(job, hit, done)
                return done
            obs.count("sched.cache.miss")
        seq = next(self._seq)
        entry = QueuedJob(
            job,
            seq,
            self.sim.now,
            done,
            candidates=self._candidates(job),
            cache_key=key,
        )
        try:
            self.queue.admit(entry)
        except AdmissionError:
            obs.count("sched.rejected")
            self.rejected += 1
            raise
        obs.count("sched.admitted")
        entry.queue_span = obs.span(
            "sched.queue", cat="sched", track=f"sched:j{seq}",
            app=job.app, tenant=job.tenant,
        )
        self._sample_depth()
        self._wake.fire()
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
        single-node partitioned run on the host, which cannot silently
        die.
        """
        obs = self.sim.obs
        done = Event(self.sim, name=f"sched.done:{job.app}")
        seq = next(self._seq)
        entry = QueuedJob(
            job,
            seq,
            self.sim.now,
            done,
            candidates=self._candidates(job),
            cache_key=None,
        )
        try:
            self.queue.admit(entry)
        except AdmissionError:
            obs.count("sched.rejected")
            self.rejected += 1
            raise
        obs.count("sched.admitted")
        obs.count("sched.dist.submitted")
        entry.queue_span = obs.span(
            "sched.queue", cat="sched", track=f"sched:j{seq}",
            app=job.app, tenant=job.tenant, distributed=True,
        )
        self._sample_depth()
        self._wake.fire()
        return done

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
            with obs.span(
                "sched.dispatch", cat="sched", track=f"sched:j{entry.seq}"
            ) as sp:
                sp.set(node=placement.node, offload=placement.offload,
                       reason=placement.reason, attempt=entry.attempts)
            self._pending[placement.node] = (
                self._pending.get(placement.node, 0) + 1
            )
            self.sim.spawn(
                self._run_entry(entry, job, placement),
                name=f"sched.run:j{entry.seq}",
            )
            self._sample_depth()

    def _placement_for(
        self, entry: QueuedJob
    ) -> tuple[DataJob, Placement] | None:
        """Where ``entry`` should run now, or ``None`` if it must wait."""
        if isinstance(entry.job, DistributedJob):
            return self._distributed_placement(entry)
        host = self.cluster.host.name
        if not entry.force_host:
            names = self._trusted(entry)
            if not names:
                # nowhere offloadable is trustworthy: fall through to host
                entry.force_host = True
        if entry.force_host:
            if self._occupancy(host) >= self.per_node_limit:
                return None
            reason = "sched: forced host"
            why = _failure_summary(entry.last_failures)
            if why:
                reason += f" after {why}"
            return entry.job, Placement(node=host, offload=False, reason=reason)
        eligible = [
            c for c in names if self._occupancy(c) < self._node_limit(c)
        ]
        if not eligible:
            return None
        depths = self.queue.depths()
        for node, n in self._pending.items():
            if n:
                depths[node] = depths.get(node, 0) + n
        best = least_loaded(self.cluster, self.engine, eligible, depths)
        job = entry.job
        if job.sd_node != best:
            job = dataclasses.replace(job, sd_node=best)
        placement = self.policy.place(job, self.cluster, self.engine)
        if not placement.offload:
            if self._occupancy(host) >= self.per_node_limit:
                return None
        return job, placement

    def _distributed_placement(
        self, entry: QueuedJob
    ) -> tuple[DistributedJob, Placement] | None:
        """Placement for a distributed entry: the whole healthy replica set.

        The lead node of the set is the Placement's nominal node (capacity
        and pending bookkeeping hang off it); the full set rides on
        ``entry.shard_nodes`` for the engine to shard over.
        """
        host = self.cluster.host.name
        names: list[str] = []
        if not entry.force_host:
            names = self._trusted(entry)
            if not names:
                entry.force_host = True
        if entry.force_host:
            if self._occupancy(host) >= self.per_node_limit:
                return None
            reason = "sched: distributed job forced host"
            why = _failure_summary(entry.last_failures)
            if why:
                reason += f" after {why}"
            return entry.job, Placement(node=host, offload=False, reason=reason)
        eligible = [
            c for c in names if self._occupancy(c) < self._node_limit(c)
        ]
        if not eligible:
            return None
        if self.health is not None:
            # a rejoining node earns trust through single canary jobs, not
            # by carrying shards of a fan-out job
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
        names = [
            c for c in entry.candidates
            if c not in entry.excluded and c not in self.unhealthy
        ]
        if names and self.health is not None:
            calm = [c for c in names if c not in self.health.suspected]
            if calm:
                names = calm
        return names

    def _node_limit(self, node: str) -> int:
        """Concurrent-placement cap for ``node`` (probation gets a canary)."""
        if self.health is not None and node in self.health.probation:
            return 1
        return self.per_node_limit

    # -- running -----------------------------------------------------------

    def _run_entry(
        self, entry: QueuedJob, job: DataJob, placement: Placement
    ) -> _t.Generator:
        obs = self.sim.obs
        span = obs.span(
            "sched.run", cat="sched", track=f"sched:j{entry.seq}",
            node=placement.node, attempt=entry.attempts,
        )
        try:
            try:
                # engine.run registers the job in ``inflight`` synchronously,
                # so the pending bridge count can drop in the same instant
                try:
                    running = self._launch(entry, job, placement)
                finally:
                    self._pending[placement.node] -= 1
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
            return self.engine.run(fallback, placement, timeout=None)
        timeout = self.attempt_timeout if placement.offload else None
        return self.engine.run(job, placement, timeout=timeout)

    def _on_failure(
        self, entry: QueuedJob, placement: Placement, exc: BaseException
    ) -> None:
        obs = self.sim.obs
        obs.count("sched.attempt_failures")
        if isinstance(exc, DistributedJobError):
            # the engine burned through these replicas already; keep them
            # out of the next placement and quarantine deadline-missers
            entry.last_failures = list(exc.failures)
            entry.excluded |= exc.excluded
            for node in exc.timed_out:
                self._quarantine(node)
            if self.health is not None:
                for node in exc.excluded:
                    self.health.job_failed(node)
        if isinstance(exc, OffloadTimeoutError):
            # A deadline miss is the only liveness signal a dead daemon
            # gives: quarantine the node so the queue drains elsewhere.
            self._quarantine(placement.node)
        if is_retryable(exc) and placement.offload:
            entry.excluded.add(placement.node)
            if not isinstance(exc, DistributedJobError):
                entry.last_failures.append({
                    "node": placement.node,
                    "phase": "job",
                    "cause": type(exc).__name__,
                    "attempt": entry.attempts,
                    "at": self.sim.now,
                })
                if self.health is not None:
                    self.health.job_failed(placement.node)
            if entry.attempts > self.max_retries:
                entry.force_host = True
            obs.count("sched.requeued")
            entry.queue_span = obs.span(
                "sched.queue", cat="sched", track=f"sched:j{entry.seq}",
                requeued_after=type(exc).__name__,
            )
            self.queue.requeue(entry)
            self._sample_depth()
            self._wake.fire()
            return
        # permanent: unknown app, bad params, host-side crash — retrying
        # cannot change the outcome, so the submitter gets the exception
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
        if self.health is not None and result.offloaded:
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

    def mark_healthy(self, node: str) -> None:
        """Readmit a quarantined node (e.g. after its daemon revives)."""
        if self.health is not None:
            self.health.restore(node)
        else:
            self.unhealthy.discard(node)
        self._wake.fire()

    def _quarantine(self, node: str) -> None:
        """Pull ``node`` from the eligible set on hard failure evidence."""
        if node in self.unhealthy:
            return
        if self.health is not None:
            self.health.force_quarantine(node)
        else:
            self.unhealthy.add(node)
        self.sim.obs.count("sched.node_unhealthy")

    def _heartbeat_listener(self, inbox) -> _t.Generator:
        """Feed daemon heartbeats into the failure detector."""
        assert self.health is not None
        while True:
            msg = yield inbox.get()
            self.health.beat(msg.src, self.sim.now)

    def _health_monitor(self, cfg: HeartbeatConfig) -> _t.Generator:
        """Periodically re-score every node; wake dispatch on transitions."""
        assert self.health is not None
        while True:
            yield self.sim.timeout(cfg.interval)
            if self.health.evaluate(self.sim.now):
                self._wake.fire()

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
        }
        if self.health is not None:
            out["node_states"] = dict(sorted(self.health.state.items()))
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
