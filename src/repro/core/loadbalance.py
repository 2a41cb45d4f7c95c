"""Placement policies: host vs smart-storage load balancing.

"The programming framework aims at balancing load between computing nodes
and multicore-enabled smart storage nodes" (Abstract).  A policy maps a
:class:`~repro.core.job.DataJob` plus live cluster state to a
:class:`Placement`.

* :class:`AlwaysOffloadPolicy` — the McSD default: data-intensive work
  goes where the data is.
* :class:`HostOnlyPolicy` — the paper's "Host only" baseline: everything
  on the host, data pulled over NFS.
* :class:`AdaptivePolicy` — offload unless the SD node is already busier
  than the host by a configurable margin (queue-depth heuristic); the
  "load balancing" knob the framework exposes.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import PlacementError

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import BuiltCluster
    from repro.core.job import DataJob

__all__ = [
    "Placement",
    "PlacementPolicy",
    "AlwaysOffloadPolicy",
    "HostOnlyPolicy",
    "AdaptivePolicy",
    "node_load",
    "least_loaded",
]


def node_load(
    cluster: "BuiltCluster",
    engine,
    node,
    depths: _t.Mapping[str, int] | None = None,
) -> float:
    """The live load of a node, as every placement decision sees it.

    Three stacked signals:

    * runnable tasks per core (the PS-CPU's multiprogramming level),
    * jobs already *placed* on the node but not yet finished
      (``engine.inflight`` — a burst submitted at one instant still
      spreads out),
    * jobs the control plane has queued *for* the node but not yet
      dispatched (``depths``, the scheduler's per-node queue depth).

    ``node`` may be a :class:`~repro.node.node.Node` or a name.
    """
    n = cluster.node(node) if isinstance(node, str) else node
    load = n.cpu.n_active / n.cpu.cores
    if engine is not None:
        load += engine.inflight.get(n.name, 0)
    if depths:
        load += depths.get(n.name, 0)
    return load


def least_loaded(
    cluster: "BuiltCluster",
    engine,
    names: _t.Sequence[str],
    depths: _t.Mapping[str, int] | None = None,
) -> str:
    """The least-loaded of ``names`` under :func:`node_load`.

    Ties break toward the earliest candidate in ``names`` — deterministic,
    and callers list the job's preferred (primary) node first.
    """
    if not names:
        raise PlacementError("least_loaded needs at least one candidate")
    best = names[0]
    best_load = node_load(cluster, engine, best, depths)
    for name in names[1:]:
        load = node_load(cluster, engine, name, depths)
        if load < best_load:
            best, best_load = name, load
    return best


@dataclasses.dataclass(frozen=True)
class Placement:
    """Where a data job should run."""

    node: str
    offload: bool  # True => via smartFAM to an SD node
    reason: str = ""


class PlacementPolicy:
    """Base class: decide where a data job runs."""

    name = "base"

    def place(
        self, job: "DataJob", cluster: "BuiltCluster", engine=None
    ) -> Placement:
        """Return the placement for ``job`` given live cluster state.

        ``engine`` (an :class:`~repro.core.offload.OffloadEngine`, when the
        runtime provides one) exposes placement-time signals such as jobs
        already assigned but not yet running (``engine.inflight``).
        """
        raise NotImplementedError

    def _sd_name(self, job: "DataJob", cluster: "BuiltCluster") -> str:
        name = job.sd_node or cluster.sd_nodes[0].name
        if name not in {n.name for n in cluster.sd_nodes}:
            raise PlacementError(f"no SD node named {name!r}")
        return name


class AlwaysOffloadPolicy(PlacementPolicy):
    """Run data-intensive jobs on the storage node holding their data."""

    name = "always-offload"

    def place(self, job: "DataJob", cluster: "BuiltCluster", engine=None) -> Placement:
        """Always offload to the SD node named by the job (or the first)."""
        sd = self._sd_name(job, cluster)
        return Placement(node=sd, offload=True, reason="data locality")


class HostOnlyPolicy(PlacementPolicy):
    """Run everything on the host (the paper's Host-only baseline)."""

    name = "host-only"

    def place(self, job: "DataJob", cluster: "BuiltCluster", engine=None) -> Placement:
        """Always run on the host (the Fig 9 'Host only' baseline)."""
        return Placement(node=cluster.host.name, offload=False, reason="host-only policy")


class AdaptivePolicy(PlacementPolicy):
    """Offload unless the SD node is overloaded relative to the host.

    Load metric: runnable tasks per core (the PS-CPU's multiprogramming
    level) plus jobs already *placed* on the node but not yet running
    (so a burst submitted at one instant still spreads out).  The job
    offloads when

        sd_load <= host_load + tolerance

    so a saturated storage node sheds work back to the host — the simple,
    effective heuristic the paper's "load balancing" feature describes.
    """

    name = "adaptive"

    def __init__(
        self,
        tolerance: float = 1.0,
        depth_source: _t.Callable[[], _t.Mapping[str, int]] | None = None,
    ):
        if tolerance < 0:
            raise PlacementError("tolerance must be >= 0")
        self.tolerance = tolerance
        #: optional live per-node queue depths (the scheduler binds its own
        #: via :meth:`bind_depths`, folding queued-but-undispatched work
        #: into the load signal)
        self.depth_source = depth_source

    def bind_depths(
        self, source: _t.Callable[[], _t.Mapping[str, int]] | None
    ) -> None:
        """Point the policy at a live per-node queue-depth source."""
        self.depth_source = source

    def place(self, job: "DataJob", cluster: "BuiltCluster", engine=None) -> Placement:
        """Offload unless the SD is busier than the host by > tolerance."""
        sd_name = self._sd_name(job, cluster)
        sd = cluster.node(sd_name)
        host = cluster.host
        depths = self.depth_source() if self.depth_source is not None else None
        sd_load = node_load(cluster, engine, sd, depths)
        host_load = node_load(cluster, engine, host, depths)
        if sd_load <= host_load + self.tolerance:
            return Placement(
                node=sd_name,
                offload=True,
                reason=f"sd_load={sd_load:.2f} <= host_load={host_load:.2f}+{self.tolerance}",
            )
        return Placement(
            node=host.name,
            offload=False,
            reason=f"sd overloaded ({sd_load:.2f} > {host_load:.2f}+{self.tolerance})",
        )
