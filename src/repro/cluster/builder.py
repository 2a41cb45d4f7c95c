"""Build a running cluster out of a :class:`~repro.config.ClusterConfig`.

Wiring follows Fig 3 / Section V-A:

* every node hangs off one Gigabit switch;
* each SD node exports ``/export`` over NFS and runs the smartFAM daemon
  with the standard module registry preloaded;
* the host mounts every SD export at ``/mnt/<sd>`` and gets a
  :class:`~repro.smartfam.daemon.HostSmartFAM` endpoint per SD node;
* the compute nodes mount the host's export (the paper: "all the general
  purpose computing nodes share disk space on the host node through NFS");
* SMB background traffic runs among host + compute nodes ("all the nodes
  except the McSD smart-storage node") when enabled;
* the cluster's one failure detector starts with its first scheduler or
  distributed run (:meth:`BuiltCluster.start_detector`).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.smb import SMBTraffic
from repro.config import ClusterConfig, NodeRole
from repro.fs.nfs import NFSClient, NFSMount, NFSServer
from repro.net.fabric import Fabric
from repro.node.node import Node
from repro.sched.health import INTERVAL, NodeHealthTracker
from repro.sim.kernel import Simulator
from repro.smartfam.daemon import HostSmartFAM, SDSmartFAM
from repro.smartfam.registry import ModuleRegistry, standard_registry

__all__ = ["BuiltCluster", "build_cluster"]


@dataclasses.dataclass
class BuiltCluster:
    """A live cluster: simulator + nodes + channels."""

    sim: Simulator
    config: ClusterConfig
    fabric: Fabric
    nodes: dict[str, Node]
    host: Node
    sd_nodes: list[Node]
    compute_nodes: list[Node]
    sd_daemons: dict[str, SDSmartFAM]
    host_channels: dict[str, HostSmartFAM]
    host_mounts: dict[str, NFSMount]
    smb: SMBTraffic | None
    #: the failure detector (None until :meth:`start_detector`)
    health: NodeHealthTracker | None = None

    def node(self, name: str) -> Node:
        """Node by name."""
        return self.nodes[name]

    def sd(self, index: int = 0) -> Node:
        """The index-th SD node."""
        return self.sd_nodes[index]

    @property
    def sd_channels(self) -> list[HostSmartFAM]:
        """The host's smartFAM channels, one per SD node, in SD-node order.

        The uniform N-SD accessor: ``sd_channels[i]`` talks to
        ``sd_nodes[i]`` regardless of how many storage nodes the config
        declared (scenarios must not hardwire "the one SD node").
        """
        return [self.host_channels[n.name] for n in self.sd_nodes]

    @property
    def sd_names(self) -> list[str]:
        """SD node names in ``sd_nodes`` order."""
        return [n.name for n in self.sd_nodes]

    def channel(self, sd_name: str = "") -> HostSmartFAM:
        """The host's smartFAM channel to an SD node (default: first)."""
        if not sd_name:
            sd_name = self.sd_nodes[0].name
        return self.host_channels[sd_name]

    def mount(self, sd_name: str = "") -> NFSMount:
        """The host's NFS mount of an SD export (default: first)."""
        if not sd_name:
            sd_name = self.sd_nodes[0].name
        return self.host_mounts[sd_name]

    def start_detector(self) -> NodeHealthTracker:
        """Start the failure detector, once; returns it.

        Every SD daemon pings the host's heartbeat endpoint, which feeds
        each ping to the tracker as it arrives; a quarantine ends the
        node's smartFAM calls in flight (``HostSmartFAM.node_down``).
        """
        if self.health:
            return self.health
        health = self.health = NodeHealthTracker(
            self.sim,
            self.sd_names,
            on_quarantine=lambda node: self.host_channels[node].node_down(),
        )
        endpoint = f"hb:{self.host.name}"
        self.fabric.attach(endpoint, lambda m: health.beat(m.src, self.sim.now))
        for daemon in self.sd_daemons.values():
            daemon.start_heartbeat(self.fabric, endpoint, INTERVAL)
        self.sim.spawn(health.monitor(), name="cluster.hb.monitor")
        return health


def build_cluster(
    config: ClusterConfig,
    registry: ModuleRegistry | None = None,
    with_smb: bool = False,
    smb_params: dict | None = None,
    trace: bool = False,
) -> BuiltCluster:
    """Assemble and start the testbed described by ``config``.

    ``smb_params`` are keyword arguments for
    :class:`~repro.apps.smb.SMBTraffic` (message_bytes, interval, ...).
    """
    sim = Simulator(seed=config.seed, trace=trace)
    fabric = Fabric(sim, config.network)
    registry = registry or standard_registry()

    nodes: dict[str, Node] = {}
    for ncfg in config.nodes:
        latency = (
            config.smartfam.inotify_latency if ncfg.role == NodeRole.SD else 0.0
        )
        nodes[ncfg.name] = Node(sim, ncfg, fabric, inotify_latency=latency)

    hosts = [n for n in nodes.values() if n.config.role == NodeRole.HOST]
    if len(hosts) != 1:
        from repro.errors import ConfigError

        raise ConfigError(f"expected exactly one host node, got {len(hosts)}")
    host = hosts[0]
    sd_nodes = [n for n in nodes.values() if n.config.role == NodeRole.SD]
    compute_nodes = [n for n in nodes.values() if n.config.role == NodeRole.COMPUTE]

    # SD side: NFS export + smartFAM daemon with preloaded modules.
    sd_daemons: dict[str, SDSmartFAM] = {}
    host_channels: dict[str, HostSmartFAM] = {}
    host_mounts: dict[str, NFSMount] = {}
    host_nfs_client = NFSClient(host)
    for sd in sd_nodes:
        sd.fs.vfs.mkdir("/export", parents=True)
        NFSServer(sd, export_root="/export")
        sd_daemons[sd.name] = SDSmartFAM(
            sd, registry, cfg=config.smartfam, phoenix_cfg=config.phoenix
        )
        mount = NFSMount(host_nfs_client, sd.name)
        mount.remote_tier_spec = sd.config.tier
        host.add_mount(f"/mnt/{sd.name}", mount)
        host_mounts[sd.name] = mount
        host_channels[sd.name] = HostSmartFAM(host, mount, cfg=config.smartfam)

    # Compute side: the host exports /share, compute nodes mount it.
    host.fs.vfs.mkdir("/share", parents=True)
    NFSServer(host, export_root="/share")
    for comp in compute_nodes:
        client = NFSClient(comp)
        comp.add_mount("/mnt/host", NFSMount(client, host.name))

    smb: SMBTraffic | None = None
    participants = [host, *compute_nodes]
    if with_smb and len(participants) >= 2:
        smb = SMBTraffic(participants, **(smb_params or {}))
        smb.start()

    return BuiltCluster(
        sim=sim,
        config=config,
        fabric=fabric,
        nodes=nodes,
        host=host,
        sd_nodes=sd_nodes,
        compute_nodes=compute_nodes,
        sd_daemons=sd_daemons,
        host_channels=host_channels,
        host_mounts=host_mounts,
        smb=smb,
    )
