"""A cluster machine: CPU, memory, disk, local FS, inotify, and a netstack.

The netstack gives each node one fabric endpoint and hands each inbound
message to the handler bound to its named *service port* (the message's
``port``), so NFS and SMB can coexist on one wire exactly like UDP/TCP
services on one NIC.

Memory pressure is wired straight into the CPU: the memory model's thrash
factor becomes the CPU's node-wide slowdown, which is how a bloated
MapReduce working set degrades *every* task on the node (the mechanism
behind Fig 8(b)'s nonlinear curves).
"""

from __future__ import annotations

from repro.config import NodeConfig
from repro.errors import NetworkError
from repro.fs.inotify import InotifyManager
from repro.fs.localfs import LocalFS
from repro.hardware.cpu import ProcessorSharingCPU
from repro.hardware.disk import DiskModel
from repro.hardware.memory import MemoryModel
from repro.net.fabric import Fabric, Handler
from repro.net.message import Message
from repro.sim.events import Event
from repro.sim.kernel import Simulator

__all__ = ["Node"]


class Node:
    """One machine in the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        config: NodeConfig,
        fabric: Fabric,
        inotify_latency: float = 0.0,
    ):
        self.sim = sim
        self.config = config
        self.name = config.name
        self.fabric = fabric

        self.cpu = ProcessorSharingCPU(sim, config.cpu, name=f"{self.name}.cpu")
        self.memory = MemoryModel(
            sim, config.mem_bytes, policy=config.memory_policy, name=f"{self.name}.mem"
        )
        self.memory.on_thrash_change(self.cpu.set_slowdown)
        self.disk = DiskModel(sim, config.disk, name=f"{self.name}.disk")
        self.fs = LocalFS(sim, self.disk, name=f"{self.name}.fs")
        self.tier = None
        if config.tier is not None:
            from repro.tier.burst import BurstBuffer

            self.tier = self.fs.attach_tier(
                BurstBuffer(sim, self.disk, config.tier, name=f"{self.name}.tier")
            )
        self.inotify = InotifyManager(
            sim, self.fs.vfs, latency=inotify_latency, name=f"{self.name}.inotify"
        )

        self._ports: dict[str, Handler] = {}
        self._mounts: dict[str, object] = {}  # mount point -> NFSMount
        fabric.attach(self.name, self._deliver)

    # -- network services ---------------------------------------------------

    def bind(self, port: str, handler: Handler) -> None:
        """Run ``handler(msg)`` as each message for ``port`` arrives.

        Messages for a port nobody bound are discarded on arrival.
        """
        self._ports[port] = handler

    def _deliver(self, msg: Message) -> None:
        handler = self._ports.get(msg.port)
        if handler is not None:
            handler(msg)

    def send(self, dst: str, port: str, body: object, nbytes: int) -> Event:
        """Send a service message to another node; completes at delivery."""
        return self.fabric.send(self._message(dst, port, body, nbytes))

    def post(self, dst: str, port: str, body: object, nbytes: int) -> None:
        """Send a service message whose sender does not wait for delivery."""
        self.fabric.post(self._message(dst, port, body, nbytes))

    def _message(self, dst: str, port: str, body: object, nbytes: int) -> Message:
        if nbytes < 0:
            raise NetworkError(f"negative message size {nbytes}")
        return Message(self.name, dst, nbytes, body, port)

    # -- compute ------------------------------------------------------------

    def run_ops(self, ops: float, name: str = "task") -> Event:
        """Run a CPU task on this node; completes when the ops are done."""
        return self.cpu.submit(ops, name=name)

    # -- mounts --------------------------------------------------------------

    def add_mount(self, mount_point: str, mount: object) -> None:
        """Attach an NFS mount at ``mount_point`` (e.g. '/mnt/sd0')."""
        from repro.fs import path as _p

        self._mounts[_p.normalize(mount_point)] = mount

    def resolve_fs(self, path: str) -> tuple[object, str]:
        """(filesystem, translated path) for ``path``.

        Longest-prefix match over mount points; falls back to the local FS
        with the path unchanged.  The returned object implements the timed
        LocalFS operation set (NFSMount mirrors it).
        """
        from repro.fs import path as _p

        norm = _p.normalize(path)
        best: str | None = None
        for mp in self._mounts:
            if _p.is_under(norm, mp) and (best is None or len(mp) > len(best)):
                best = mp
        if best is None:
            return self.fs, norm
        rel = norm[len(best) :] or "/"
        if not rel.startswith("/"):
            rel = "/" + rel
        return self._mounts[best], rel

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.name} ({self.config.role}) {self.config.cpu.name}>"
