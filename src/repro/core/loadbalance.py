"""Placement policies: host vs smart-storage load balancing.

"The programming framework aims at balancing load between computing nodes
and multicore-enabled smart storage nodes" (Abstract).  A policy maps a
:class:`~repro.core.job.DataJob` plus live cluster state to a
:class:`Placement`.

* :class:`AlwaysOffloadPolicy` — the McSD default: data-intensive work
  goes where the data is.
* :class:`HostOnlyPolicy` — the paper's "Host only" baseline: everything
  on the host, data pulled over NFS.
* :class:`AdaptivePolicy` — placement by predicted cost: a job stays on
  the SD holding its data unless the host, paying the input's trip over
  the wire, would finish it before the SD clears the work already placed
  there.

The predictor reads models the simulator already has: each app's
:class:`~repro.phoenix.api.CostProfile` ops (:func:`predicted_ops`), each
node's CPU rate, the original Phoenix memory rule and the GbE link
bandwidth.  A node's backlog (:func:`backlog_s`) is the predicted work on
it, from the engines' per-node ledger of predicted ops.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps import spec_for_app
from repro.errors import McSDError, PlacementError
from repro.phoenix.memory import max_supported_input

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import BuiltCluster
    from repro.core.job import DataJob
    from repro.phoenix.api import CostProfile

__all__ = [
    "Placement",
    "PlacementPolicy",
    "AlwaysOffloadPolicy",
    "HostOnlyPolicy",
    "AdaptivePolicy",
    "node_load",
    "least_loaded",
    "predicted_ops",
    "backlog_s",
]


def node_load(
    cluster: "BuiltCluster",
    engine,
    node,
    depths: _t.Mapping[str, int] | None = None,
) -> float:
    """The live load of a node in jobs, as :func:`least_loaded` sees it.

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


def _profile(app: str, params: _t.Mapping | None) -> "CostProfile | None":
    """The app's cost profile, or None when no spec can be built: an app
    with no built-in spec (a custom SD module), or params its spec
    rejects (the run itself then reports the error, not the placement)."""
    try:
        return spec_for_app(app, dict(params or {})).profile
    except (McSDError, ValueError, TypeError):
        return None


def predicted_ops(app: str, params: _t.Mapping | None, input_size: int) -> int:
    """Predicted CPU ops of one run of ``app`` over ``input_size`` bytes.

    Its cost profile's ``total_ops``, as an integer so a ledger that adds
    and later subtracts it returns exactly to zero; 0 when no profile can
    be built (see :func:`_profile`).
    """
    profile = _profile(app, params)
    return 0 if profile is None else int(profile.total_ops(input_size))


def _rate(node) -> float:
    """A node's CPU rate in ops per second, every core busy."""
    return node.cpu.cores * node.cpu.spec.ops_per_sec_per_core


def _backlog_ops(
    node, engine, pending: _t.Mapping[str, int] | None
) -> float:
    ops = 0
    if engine is not None:
        ops += engine.inflight_ops.get(node.name, 0)
    if pending:
        ops += pending.get(node.name, 0)
    # work no placed job accounts for still holds the CPU
    return max(ops, node.cpu.remaining_ops())


def backlog_s(
    cluster: "BuiltCluster",
    engine,
    node,
    pending: _t.Mapping[str, int] | None = None,
) -> float:
    """Predicted CPU-seconds of the work already on ``node``.

    The engines' ledger of predicted ops (``engine.inflight_ops``: every
    job placed there and not finished, and every ``dist_map`` shard in
    flight there) plus ``pending`` (ops dispatched to the node but not yet
    in the ledger — the scheduler's pending bridge), never less than the
    remaining ops of the node's runnable CPU tasks, over the node's rate
    with every core busy.  ``node`` may be a Node or a name.
    """
    n = cluster.node(node) if isinstance(node, str) else node
    return _backlog_ops(n, engine, pending) / _rate(n)


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
        self,
        job: "DataJob",
        cluster: "BuiltCluster",
        engine=None,
        pending: _t.Mapping[str, int] | None = None,
    ) -> Placement:
        """Return the placement for ``job`` given live cluster state.

        ``engine`` (an :class:`~repro.core.offload.OffloadEngine`, when the
        runtime provides one) exposes the work already placed on each node
        (``engine.inflight`` jobs, ``engine.inflight_ops`` predicted ops).
        ``pending`` adds the predicted ops of jobs dispatched toward a node
        that the engine has not registered yet (the scheduler's pending
        bridge).
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

    def place(self, job, cluster, engine=None, pending=None) -> Placement:
        """Always offload to the SD node named by the job (or the first)."""
        sd = self._sd_name(job, cluster)
        return Placement(node=sd, offload=True, reason="data locality")


class HostOnlyPolicy(PlacementPolicy):
    """Run everything on the host (the paper's Host-only baseline)."""

    name = "host-only"

    def place(self, job, cluster, engine=None, pending=None) -> Placement:
        """Always run on the host (the Fig 9 'Host only' baseline)."""
        return Placement(node=cluster.host.name, offload=False, reason="host-only policy")


class AdaptivePolicy(PlacementPolicy):
    """Place by predicted cost: the input crosses NFS only when that pays.

    A job stays on the SD node holding its data.  It moves to the host
    only when both hold:

    * its input fits the host's original Phoenix
      (``input_size <= max_supported_input(host memory)``, 1.61 GB on
      Table I nodes) — a larger input needs the partition extension on
      either node, so it stays where it lives;
    * the host's predicted finish, ``(host backlog ops + job ops) / host
      rate + input_size / link bandwidth``, comes no later than the SD's
      :func:`backlog_s`.

    Each byte a host run reads crosses the wire twice (the SD's uplink and
    the host's downlink), so a large job stays on its SD and the fast host
    takes small jobs off a busy SD.  An app with no cost profile never
    leaves its SD.
    """

    name = "adaptive"

    def place(self, job, cluster, engine=None, pending=None) -> Placement:
        """Offload unless the host would finish the job first."""
        sd_name = self._sd_name(job, cluster)
        profile = _profile(job.app, job.params)
        if profile is None:
            return Placement(sd_name, True, f"no cost profile for {job.app!r}")
        host = cluster.host
        limit = max_supported_input(host.memory.capacity, cluster.config.phoenix)
        if job.input_size > limit:
            return Placement(
                sd_name, True,
                f"input {job.input_size / 1e9:.2f} GB > host Phoenix limit "
                f"{limit / 1e9:.2f} GB",
            )
        sd_s = backlog_s(cluster, engine, sd_name, pending)
        ops = int(profile.total_ops(job.input_size))
        host_s = (
            (_backlog_ops(host, engine, pending) + ops) / _rate(host)
            + job.input_size / cluster.config.network.link_bandwidth
        )
        if host_s <= sd_s:
            return Placement(
                host.name, False,
                f"host finish {host_s:.1f} s <= sd backlog {sd_s:.1f} s",
            )
        return Placement(
            sd_name, True, f"sd backlog {sd_s:.1f} s < host finish {host_s:.1f} s"
        )
