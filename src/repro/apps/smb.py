"""Sandia Micro Benchmark (SMB) emulation.

"It is developed by Sandia National Laboratory to evaluate and test
high-performance networks and protocols.  We use it in our experiment to
emulate the routine work." (Section V-A)  The paper runs SMB "among all
the nodes except the McSD smart-storage node".

The emulation is a seeded message-passing pattern: each participant
repeatedly sends fixed-size messages to the next node in the ring (an MPI
ping-pattern), keeping the compute nodes' links busy at a configurable
duty cycle.  This is background load — it perturbs, but does not
participate in, the McSD measurements.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.sim.kernel import Simulator
from repro.units import KB

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node

__all__ = ["SMBTraffic"]

SMB_PORT = "smb"


class SMBTraffic:
    """Background ring traffic among a set of nodes."""

    def __init__(
        self,
        nodes: _t.Sequence["Node"],
        message_bytes: int = KB(64),
        interval: float = 0.02,
        jitter: float = 0.5,
        rng_name: str = "smb",
    ):
        if len(nodes) < 2:
            raise ConfigError("SMB needs at least two participants")
        if message_bytes < 1 or interval <= 0:
            raise ConfigError("bad SMB parameters")
        self.nodes = list(nodes)
        self.sim: Simulator = nodes[0].sim
        self.message_bytes = message_bytes
        self.interval = interval
        self.jitter = min(max(jitter, 0.0), 1.0)
        self.rng = self.sim.rng.stream(rng_name)
        self.active = False
        #: messages sent and delivered, and messages received (stats)
        self.messages_sent = 0
        self.messages_received = 0
        for node in self.nodes:
            node.bind(SMB_PORT, self._received)

    def start(self) -> None:
        """Begin generating traffic (idempotent)."""
        if self.active:
            return
        self.active = True
        for i, node in enumerate(self.nodes):
            peer = self.nodes[(i + 1) % len(self.nodes)]
            self.sim.spawn(
                self._sender(node, peer), name=f"smb:{node.name}->{peer.name}"
            )

    def stop(self) -> None:
        """Stop after the in-flight round."""
        self.active = False

    def _received(self, _msg: object) -> None:
        self.messages_received += 1

    def _sender(self, src: "Node", dst: "Node") -> _t.Generator:
        while self.active:
            yield src.send(dst.name, SMB_PORT, {"kind": "smb"}, self.message_bytes)
            self.messages_sent += 1
            gap = self.interval
            if self.jitter > 0:
                gap *= 1.0 + self.jitter * (float(self.rng.uniform(-1, 1)))
            yield self.sim.timeout(max(1e-6, gap))
