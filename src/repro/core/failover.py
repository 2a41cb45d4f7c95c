"""Fault tolerance for offloaded jobs (Section VI future work).

"...and (3) a mechanism in McSD to support fault tolerance and improve
reliability."  The smartFAM channel gives no failure notifications — a
dead daemon simply never answers — so reliability is built host-side:

* every call carries a deadline (:class:`~repro.errors.OffloadTimeoutError`),
* failed/timed-out calls retry on the same SD node (transient faults) —
  the channel's own :meth:`~repro.smartfam.daemon.HostSmartFAM.invoke_reliable`
  loop, which also keeps a timed-out call's sequence number so a slow but
  alive daemon never runs the module twice,
* after ``max_retries`` the job *fails over*: to another SD node holding a
  replica if one is configured, else to the host itself over NFS — degraded
  but correct.

:class:`FaultTolerantInvoker` wraps a cluster's channels with this policy
and keeps the audit trail (one entry per target, failovers).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.job import DataJob, JobResult
from repro.core.loadbalance import Placement
from repro.core.offload import OffloadEngine
from repro.errors import OffloadError, OffloadTimeoutError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import BuiltCluster

__all__ = ["Attempt", "FaultTolerantInvoker"]


@dataclasses.dataclass
class Attempt:
    """One target's try at running a job (the audit trail entry).

    Same-target retries happen inside the channel and are counted there
    (``HostSmartFAM.retries``, ``retry.smartfam.<module>``).
    """

    target: str
    started_at: float
    finished_at: float
    outcome: str  # ok | error | timeout
    detail: str = ""


class FaultTolerantInvoker:
    """Deadline + retry + failover around the smartFAM channel.

    Each target gets ``max_retries`` same-target retries through the
    channel's :meth:`~repro.smartfam.daemon.HostSmartFAM.invoke_reliable`,
    which backs off from :data:`repro.errors.RETRY_BACKOFF`.
    """

    def __init__(
        self,
        cluster: "BuiltCluster",
        timeout: float | None = 120.0,
        max_retries: int = 1,
        fallback_to_host: bool = True,
    ):
        if max_retries < 0:
            raise OffloadError("max_retries must be >= 0")
        self.cluster = cluster
        self.sim = cluster.sim
        self.timeout = timeout
        self.max_retries = max_retries
        self.fallback_to_host = fallback_to_host
        self.engine = OffloadEngine(cluster)
        #: per-run audit trails (job app -> list of attempts), most recent last
        self.history: list[list[Attempt]] = []

    def run(self, job: DataJob, replicas: _t.Sequence[str] = ()) -> Event:
        """Run ``job`` reliably; Process value is a JobResult.

        ``replicas`` names additional SD nodes holding a copy of the input
        at the same export path (the failover targets tried, in order,
        after the primary exhausts its retries).
        """
        return self.sim.spawn(self._run(job, list(replicas)), name=f"ft:{job.app}")

    def _run(self, job: DataJob, replicas: list[str]) -> _t.Generator:
        primary = job.sd_node or self.cluster.sd_nodes[0].name
        obs = self.sim.obs
        trail: list[Attempt] = []
        self.history.append(trail)
        targets = [primary] + [r for r in replicas if r != primary]
        last_exc: BaseException | None = None

        for target in targets:
            channel = self.cluster.host_channels.get(target)
            if channel is None:
                continue
            if trail:
                obs.count("failover.count")  # moving past an exhausted target
            t0 = self.sim.now
            try:
                result = yield channel.invoke_reliable(
                    job.app, job.invoke_params(), timeout=self.timeout,
                    max_retries=self.max_retries,
                )
            except Exception as exc:
                last_exc = exc
                outcome = "timeout" if isinstance(exc, OffloadTimeoutError) else "error"
                trail.append(Attempt(target, t0, self.sim.now, outcome, str(exc)))
                continue
            trail.append(Attempt(target, t0, self.sim.now, "ok"))
            return JobResult(
                name=job.app,
                where=target,
                elapsed=self.sim.now - trail[0].started_at,
                output=getattr(result, "output", result),
                offloaded=True,
            )

        if self.fallback_to_host:
            t0 = self.sim.now
            obs.count("failover.count")
            obs.count("failover.host")
            # degraded mode: pull the data over NFS and run on the host
            host_job = dataclasses.replace(job, sd_node=primary)
            result = yield self.engine.run(
                host_job,
                Placement(node=self.cluster.host.name, offload=False, reason="failover"),
            )
            trail.append(Attempt(self.cluster.host.name, t0, self.sim.now, "ok", "failover"))
            return dataclasses.replace(
                result, elapsed=self.sim.now - trail[0].started_at
            )

        raise OffloadError(
            f"{job.app}: all targets failed ({len(trail)} tried)"
        ) from last_exc

    # -- stats ------------------------------------------------------------

    @property
    def total_attempts(self) -> int:
        """Targets tried across all runs, host fallback included."""
        return sum(len(t) for t in self.history)

    @property
    def failovers(self) -> int:
        """Runs that ended on the host fallback."""
        return sum(
            1
            for trail in self.history
            if trail and trail[-1].detail == "failover"
        )
