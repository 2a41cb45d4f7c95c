"""Configuration dataclasses and the Table I testbed presets.

Everything tunable in the reproduction lives here: hardware specs, the
memory/thrash policy that reproduces the paper's Phoenix out-of-core
behaviour, Phoenix runtime constants, network parameters and the full
cluster layout of the paper's 5-node testbed (Table I).

Calibration note
----------------
Simulated CPUs execute abstract *ops*; one op is one cycle on a reference
core.  Application cost profiles (:mod:`repro.apps`) are expressed in
ops/byte (or ops/flop) so that a node's speed is just
``clock_hz * ops_per_cycle``.  The constants were calibrated so the
single-application curves land in the paper's reported bands (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.units import GiB, Gbit, MiB, msec, usec

__all__ = [
    "CPUSpec",
    "DiskSpec",
    "TierSpec",
    "MemoryPolicy",
    "NetworkConfig",
    "PhoenixConfig",
    "SmartFAMConfig",
    "NodeConfig",
    "ClusterConfig",
    "NodeRole",
    "QUAD_Q9400",
    "DUO_E4400",
    "CELERON_450",
    "table1_cluster",
]


@dataclasses.dataclass(frozen=True)
class CPUSpec:
    """A processor model.

    ``ops_per_cycle`` folds micro-architecture differences into a single
    scalar relative to the reference core (Core2 at 1.0).
    """

    name: str
    cores: int
    clock_ghz: float
    ops_per_cycle: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError(f"{self.name}: cores must be >= 1")
        if self.clock_ghz <= 0:
            raise ConfigError(f"{self.name}: clock must be > 0")
        if self.ops_per_cycle <= 0:
            raise ConfigError(f"{self.name}: ops_per_cycle must be > 0")

    @property
    def ops_per_sec_per_core(self) -> float:
        """Reference ops per second on one core."""
        return self.clock_ghz * 1e9 * self.ops_per_cycle

    def scaled(self, cores: int | None = None, clock_ghz: float | None = None) -> "CPUSpec":
        """A copy with some fields replaced (for what-if experiments)."""
        return dataclasses.replace(
            self,
            cores=self.cores if cores is None else cores,
            clock_ghz=self.clock_ghz if clock_ghz is None else clock_ghz,
        )


#: Table I — host computing node CPU.
QUAD_Q9400 = CPUSpec("Intel Core2 Quad Q9400", cores=4, clock_ghz=2.66)
#: Table I — smart-storage (SD) node CPU.
DUO_E4400 = CPUSpec("Intel Core2 Duo E4400", cores=2, clock_ghz=2.00)
#: Table I — general-purpose computing node CPU.
CELERON_450 = CPUSpec("Intel Celeron 450", cores=1, clock_ghz=2.20)


@dataclasses.dataclass(frozen=True)
class DiskSpec:
    """A SATA disk model: FIFO queue, per-request seek, stream bandwidth."""

    name: str = "SATA 7200rpm"
    bandwidth: float = 120 * 1e6  # bytes/s sequential
    seek_time: float = msec(8)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError("disk bandwidth must be > 0")
        if self.seek_time < 0:
            raise ConfigError("seek time must be >= 0")


@dataclasses.dataclass(frozen=True)
class TierSpec:
    """A two-level burst buffer fronting a node's disk.

    Models the intermediate SSD/memory tier of the two-level storage
    papers (PAPERS.md): a small RAM sub-tier and a larger SSD sub-tier
    sit between the compute and the spinning disk.  Reads that hit a
    sub-tier pay its latency/bandwidth instead of a disk seek + stream;
    writes (when ``writeback`` is on) land in the RAM tier immediately
    and drain to disk in the background.

    The tier is tracked at ``block_bytes`` granularity — a read of an
    arbitrary ``(offset, nbytes)`` range touches the blocks it overlaps,
    so fragment-sized reads of one file hit exactly the blocks a prior
    read or prefetch of that range populated.
    """

    #: RAM sub-tier capacity (the burst absorber)
    mem_bytes: int = MiB(256)
    mem_bandwidth: float = 8_000 * 1e6  # bytes/s (DDR-ish stream)
    mem_latency: float = usec(2)
    #: SSD sub-tier capacity (the staging area RAM demotes into)
    ssd_bytes: int = GiB(8)
    ssd_bandwidth: float = 500 * 1e6  # bytes/s (SATA SSD stream)
    ssd_latency: float = usec(100)
    #: cache-line granularity of the tier index
    block_bytes: int = MiB(4)
    #: buffer writes in the RAM tier and drain to disk asynchronously
    writeback: bool = True
    #: fragments of readahead the partitioned runtimes issue (0 = off)
    readahead_fragments: int = 1

    def __post_init__(self) -> None:
        if self.mem_bytes < 1 or self.ssd_bytes < 0:
            raise ConfigError("tier capacities must be positive")
        if min(self.mem_bandwidth, self.ssd_bandwidth) <= 0:
            raise ConfigError("tier bandwidths must be > 0")
        if min(self.mem_latency, self.ssd_latency) < 0:
            raise ConfigError("tier latencies must be >= 0")
        if self.block_bytes < 1:
            raise ConfigError("tier block_bytes must be >= 1")
        if self.readahead_fragments < 0:
            raise ConfigError("readahead_fragments must be >= 0")


@dataclasses.dataclass(frozen=True)
class MemoryPolicy:
    """How a node's memory reacts to pressure.

    * ``thrash_fraction`` — pressure (used/capacity) beyond which paging
      begins to slow down every task on the node.
    * thrash factor = ``1 + thrash_coeff * (pressure - thrash_fraction) **
      thrash_exponent`` for pressure above the fraction.
    * ``swap_factor`` — swap space as a multiple of RAM; allocations beyond
      RAM + swap raise :class:`~repro.errors.OutOfMemoryError`.

    Calibrated so (a) traditional (non-partitioned) Word Count at 1.25 GB
    on a 2 GB node lands at ~6x the partitioned elapsed time (Section V-B),
    (b) 500 MB shows "almost the same performance", and (c) the paper's
    600 MB fragments (3x footprint = 1.8 GB working set on a 2 GiB node)
    run clean — which pins the onset just above that pressure.
    """

    thrash_fraction: float = 0.85
    thrash_coeff: float = 6.2
    thrash_exponent: float = 2.0
    swap_factor: float = 1.5

    def __post_init__(self) -> None:
        if not 0 < self.thrash_fraction <= 1:
            raise ConfigError("thrash_fraction must be in (0, 1]")
        if self.thrash_coeff < 0 or self.thrash_exponent <= 0:
            raise ConfigError("bad thrash parameters")
        if self.swap_factor < 0:
            raise ConfigError("swap_factor must be >= 0")

    def thrash_factor(self, pressure: float) -> float:
        """CPU slowdown multiplier at a given memory pressure."""
        if pressure <= self.thrash_fraction:
            return 1.0
        return 1.0 + self.thrash_coeff * (pressure - self.thrash_fraction) ** self.thrash_exponent


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """The cluster interconnect (Fig 3: one Gigabit switch)."""

    link_bandwidth: float = Gbit(1)
    link_latency: float = usec(100)
    #: flows are carved into segments so concurrent flows interleave fairly
    segment_bytes: int = MiB(16)

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0 or self.link_latency < 0:
            raise ConfigError("bad network parameters")
        if self.segment_bytes < 1:
            raise ConfigError("segment_bytes must be >= 1")


@dataclasses.dataclass(frozen=True)
class PhoenixConfig:
    """Runtime constants of the Phoenix-style MapReduce engine.

    ``max_input_fraction`` encodes the paper's empirical observation that
    the original Phoenix cannot support inputs beyond a fraction of node
    memory (Section IV-B says ~60 %; Section V-B observed WC/SM failing
    above 1.5 GB on 2 GB nodes, i.e. 75 % — we default to the observed 75 %
    so the Fig 8(b)/(c) curves extend exactly as far as the paper's).
    """

    max_input_fraction: float = 0.75
    #: map task granularity: tasks per core per job (dynamic scheduling pool)
    tasks_per_core: int = 4
    #: fraction of node memory the auto-partitioner targets per fragment
    auto_fragment_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.max_input_fraction <= 1:
            raise ConfigError("max_input_fraction must be in (0, 1]")
        if self.tasks_per_core < 1:
            raise ConfigError("tasks_per_core must be >= 1")
        if not 0 < self.auto_fragment_fraction <= 1:
            raise ConfigError("auto_fragment_fraction must be in (0, 1]")


@dataclasses.dataclass(frozen=True)
class SmartFAMConfig:
    """smartFAM invocation-channel parameters (Fig 5).

    The SD-side inotify is a kernel subsystem: near-instant.  The host-side
    monitor watches a file that lives on the NFS share, which in practice
    means attribute polling; ``host_poll_interval`` models that.  Retries
    of a transient failure (the SD's result write, the host's
    :meth:`~repro.smartfam.daemon.HostSmartFAM.invoke_reliable`) follow
    :data:`repro.errors.RETRIES` and :data:`repro.errors.RETRY_BACKOFF`.
    """

    inotify_latency: float = usec(200)
    host_poll_interval: float = msec(50)
    daemon_dispatch_overhead: float = msec(1)
    logfile_bytes: int = 4096

    def __post_init__(self) -> None:
        if min(self.inotify_latency, self.host_poll_interval) < 0:
            raise ConfigError("smartFAM latencies must be >= 0")
        if self.daemon_dispatch_overhead < 0:
            raise ConfigError("dispatch overhead must be >= 0")
        if self.logfile_bytes < 1:
            raise ConfigError("logfile_bytes must be >= 1")


class NodeRole:
    """Role labels for nodes in the testbed (string constants)."""

    HOST = "host"
    SD = "sd"
    COMPUTE = "compute"


@dataclasses.dataclass(frozen=True)
class NodeConfig:
    """One machine in the cluster."""

    name: str
    cpu: CPUSpec
    mem_bytes: int = GiB(2)
    disk: DiskSpec = dataclasses.field(default_factory=DiskSpec)
    role: str = NodeRole.COMPUTE
    memory_policy: MemoryPolicy = dataclasses.field(default_factory=MemoryPolicy)
    #: optional burst-buffer tier fronting the disk (None = reads/writes
    #: go straight to the disk model, the pre-tier behaviour)
    tier: TierSpec | None = None

    def __post_init__(self) -> None:
        if self.mem_bytes < 1:
            raise ConfigError(f"{self.name}: mem_bytes must be >= 1")
        if self.role not in (NodeRole.HOST, NodeRole.SD, NodeRole.COMPUTE):
            raise ConfigError(f"{self.name}: unknown role {self.role!r}")


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """A full cluster: nodes + interconnect + runtime constants."""

    nodes: tuple[NodeConfig, ...]
    network: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)
    phoenix: PhoenixConfig = dataclasses.field(default_factory=PhoenixConfig)
    smartfam: SmartFAMConfig = dataclasses.field(default_factory=SmartFAMConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate node names in {names}")
        if not self.nodes:
            raise ConfigError("cluster needs at least one node")

    def node(self, name: str) -> NodeConfig:
        """Config of the named node."""
        for n in self.nodes:
            if n.name == name:
                return n
        raise ConfigError(f"no node named {name!r}")

    def by_role(self, role: str) -> list[NodeConfig]:
        """All node configs with the given role."""
        return [n for n in self.nodes if n.role == role]


def table1_cluster(
    *,
    sd_cpu: CPUSpec = DUO_E4400,
    mem_bytes: int = GiB(2),
    n_sd: int = 1,
    n_compute: int = 3,
    network: NetworkConfig | None = None,
    phoenix: PhoenixConfig | None = None,
    smartfam: SmartFAMConfig | None = None,
    memory_policy: MemoryPolicy | None = None,
    tier: TierSpec | None = None,
    seed: int = 0,
) -> ClusterConfig:
    """The paper's 5-node testbed (Table I).

    One Core2 Quad host, ``n_sd`` smart-storage nodes (Core2 Duo by
    default; pass ``sd_cpu`` to swap in a single-core CPU for the
    "traditional SD" scenario or the quad for what-ifs), and three Celeron
    compute nodes.  All nodes have 2 GB RAM and hang off one Gigabit
    switch.  ``n_sd > 1`` builds the multi-McSD configuration of the
    paper's future work ("the parallelisms among multiple McSD smart
    disks", Section VI).  ``tier`` attaches a burst buffer to every SD
    node (the host and compute nodes keep bare disks — the tier models
    flash co-located with the smart disk).
    """
    if n_sd < 1:
        raise ConfigError("need at least one SD node")
    mp = memory_policy or MemoryPolicy()
    nodes = [
        NodeConfig("host", QUAD_Q9400, mem_bytes, role=NodeRole.HOST, memory_policy=mp),
    ]
    for i in range(n_sd):
        nodes.append(
            NodeConfig(
                f"sd{i}", sd_cpu, mem_bytes, role=NodeRole.SD, memory_policy=mp, tier=tier
            )
        )
    for i in range(n_compute):
        nodes.append(
            NodeConfig(
                f"compute{i}", CELERON_450, mem_bytes, role=NodeRole.COMPUTE, memory_policy=mp
            )
        )
    return ClusterConfig(
        nodes=tuple(nodes),
        network=network or NetworkConfig(),
        phoenix=phoenix or PhoenixConfig(),
        smartfam=smartfam or SmartFAMConfig(),
        seed=seed,
    )
