"""A unidirectional link: latency + serialized bandwidth.

Transmitting ``n`` bytes holds the link for ``n / bandwidth`` and the data
arrives ``latency`` later (cut-through: latency does not occupy the link).
Concurrent senders queue FIFO, so a link is a standard M/G/1-style server
and contention falls out naturally.
"""

from __future__ import annotations

import typing as _t

from repro.errors import NetworkError
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource

__all__ = ["Link"]


class Link:
    """One direction of a network cable/port."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float,
        name: str = "link",
    ):
        if bandwidth <= 0:
            raise NetworkError(f"{name}: bandwidth must be > 0")
        if latency < 0:
            raise NetworkError(f"{name}: latency must be >= 0")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self._server = Resource(sim, capacity=1, name=f"{name}.tx")
        #: total bytes pushed through (stats)
        self.bytes_sent = 0

    def tx_time(self, nbytes: int) -> float:
        """Serialization time for ``nbytes``."""
        return nbytes / self.bandwidth

    @property
    def queue_len(self) -> int:
        """Transfers waiting for the transmitter."""
        return self._server.queue_len

    def transmit(self, nbytes: int, label: str = "tx") -> Event:
        """Send ``nbytes``; the returned Process completes at *arrival*."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise NetworkError(f"negative transmit size {nbytes}")

        def _proc() -> _t.Generator:
            with self._server.request() as req:
                yield req
                ser = self.tx_time(nbytes)
                yield self.sim.timeout(ser)
                self.bytes_sent += nbytes
            obs = self.sim.obs
            obs.count("net.bytes", nbytes)
            if obs.enabled:
                obs.observe("net.tx_bytes", nbytes)
            # propagation happens after the transmitter is released
            if self.latency > 0:
                yield self.sim.timeout(self.latency)
            return nbytes

        return self.sim.spawn(_proc(), name=f"{self.name}.{label}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Link {self.name} {self.bandwidth / 1e6:.0f}MB/s q={self.queue_len}>"
