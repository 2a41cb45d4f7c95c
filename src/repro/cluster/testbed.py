"""The Table I testbed as a convenient object, with dataset staging.

:class:`Testbed` wraps :func:`~repro.cluster.builder.build_cluster` for
the paper's 5-node configuration and adds the helpers every experiment
needs: staging synthetic datasets onto a node's disk (instantaneous — the
measurement starts after the data exists, as in the paper) and running
simulation processes to completion.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.builder import BuiltCluster, build_cluster
from repro.config import ClusterConfig, table1_cluster
from repro.fs import path as _p
from repro.node.node import Node
from repro.phoenix.api import InputSpec
from repro.smartfam.registry import ModuleRegistry

__all__ = ["Testbed"]

# footprint-free profile used only to slice datasets into per-SD shards
from repro.phoenix.api import CostProfile as _CostProfile

_UNIT_PROFILE = _CostProfile("shard-slicer", map_ops_per_byte=0.0, footprint_factor=1.0)


class Testbed:
    """A live Table I cluster plus experiment helpers."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        config: ClusterConfig | None = None,
        n_sd: int = 1,
        with_smb: bool = False,
        smb_params: dict | None = None,
        registry: ModuleRegistry | None = None,
        seed: int = 0,
        trace: bool = False,
    ):
        self.config = config or table1_cluster(n_sd=n_sd, seed=seed)
        self.cluster: BuiltCluster = build_cluster(
            self.config, registry=registry, with_smb=with_smb,
            smb_params=smb_params, trace=trace,
        )

    # -- convenience accessors -----------------------------------------------

    @property
    def sim(self):
        """The simulator."""
        return self.cluster.sim

    @property
    def host(self) -> Node:
        """The host computing node."""
        return self.cluster.host

    @property
    def sd(self) -> Node:
        """The (first) smart-storage node."""
        return self.cluster.sd(0)

    # -- staging ----------------------------------------------------------------

    def stage(self, node: Node, path: str, inp: InputSpec) -> InputSpec:
        """Place a dataset file on a node's disk, instantaneously.

        Returns an :class:`InputSpec` whose ``path`` is the staged location
        and whose payload is attached, ready to hand to a runtime.
        """
        norm = _p.normalize(path)
        node.fs.vfs.mkdir(_p.parent(norm), parents=True)
        payload = inp.payload
        if isinstance(payload, (bytes, bytearray)):
            node.fs.vfs.write(norm, data=bytes(payload), size=inp.size)
        else:
            node.fs.vfs.write(norm, data=payload, size=inp.size)
        return InputSpec(
            path=norm, size=inp.size, payload=payload, params=inp.params,
            offset=inp.offset,
        )

    def stage_on_sd(
        self, rel_path: str, inp: InputSpec, sd_index: int = 0
    ) -> tuple[InputSpec, InputSpec, str]:
        """Stage under an SD export; returns (sd_view, host_view, module_path).

        * ``sd_view`` — the InputSpec as the SD node sees it (local disk),
        * ``host_view`` — the same data as the host sees it (via NFS mount),
        * ``module_path`` — the SD-local path to pass through smartFAM.
        """
        sd = self.cluster.sd(sd_index)
        sd_path = _p.join("/export/data", rel_path.lstrip("/"))
        sd_view = self.stage(sd, sd_path, inp)
        mount_rel = sd_path[len("/export"):]
        host_path = _p.join(f"/mnt/{sd.name}", mount_rel.lstrip("/"))
        host_view = InputSpec(
            path=host_path, size=inp.size, payload=inp.payload, params=inp.params
        )
        return sd_view, host_view, sd_path

    def stage_replicated(
        self, rel_path: str, inp: InputSpec, n_replicas: int | None = None
    ) -> tuple[InputSpec, str]:
        """Stage one dataset on *every* SD node at the same export path.

        Returns ``(sd_view, sd_path)`` for the first SD node; the replicas
        are byte-identical, so a scheduler may place the job on whichever
        storage node is least loaded (or fail it over when one dies), and
        the distributed engine may shard one job across any subset of
        them.  ``n_replicas`` limits the replica count (clamped to the SD
        fleet size; with one SD node the single staged copy *is* the
        replica set — the degenerate case is valid, not an error).

        Every replica is the FULL dataset — declared size, payload, and
        offset all identical to the first copy.  Replication is not
        sharding: a dataset whose size does not divide evenly by the fleet
        must not leave a truncated tail on the last replica (that is
        :meth:`stage_shards`' job, which cuts on safe boundaries instead).
        """
        sds = self.cluster.sd_nodes
        n = len(sds) if n_replicas is None else max(1, min(int(n_replicas), len(sds)))
        sd_view, _host_view, sd_path = self.stage_on_sd(rel_path, inp)
        for i in range(1, n):
            replica = self.stage(self.cluster.sd(i), sd_path, inp)
            assert replica.size == sd_view.size and replica.offset == sd_view.offset
        return sd_view, sd_path

    def stage_shards(self, rel_path: str, inp: InputSpec) -> list:
        """Shard a dataset across *all* SD nodes (integrity-checked cuts).

        Returns the :class:`~repro.core.scatter.Shard` list for a
        :class:`~repro.core.scatter.ScatterJob`.  Shards are near-equal
        declared slices; payload boundaries honour the Fig 7 check so no
        record straddles two storage nodes.
        """
        import math

        from repro.core.scatter import Shard
        from repro.partition.partitioner import plan_fragments

        n = len(self.cluster.sd_nodes)
        frag = max(1, math.ceil(inp.size / n))
        plan = plan_fragments(
            inp, frag, self.cluster.sd_nodes[0].memory.capacity,
            _UNIT_PROFILE, self.config.phoenix,
        )
        shards = []
        for i, piece in enumerate(plan.fragments):
            sd = self.cluster.sd(i % n)
            sd_path = _p.join("/export/data", f"shard{i}-{rel_path.lstrip('/')}")
            self.stage(sd, sd_path, piece)
            shards.append(Shard(sd_node=sd.name, path=sd_path, size=piece.size))
        return shards

    # -- running ------------------------------------------------------------------

    def run(self, gen_or_event, name: str = "experiment") -> object:
        """Drive a process generator (or an already-spawned event) to completion."""
        from repro.sim.events import Event

        if isinstance(gen_or_event, Event):
            return self.sim.run(until=gen_or_event)
        proc = self.sim.spawn(gen_or_event, name=name)
        return self.sim.run(until=proc)
