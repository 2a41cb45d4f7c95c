"""A unidirectional link: latency + serialized bandwidth.

Transmitting ``n`` bytes holds the link for ``n / bandwidth`` and the data
arrives ``latency`` later (cut-through: latency does not occupy the link).
Concurrent senders queue FIFO behind one transmitter, so a link is a
standard M/G/1-style server and contention falls out naturally.

A FIFO server with one transmitter needs no process and no queue: transfer
*i* starts at ``max(now_i, end_{i-1})``, so the link only remembers when
its transmitter frees up and each transfer is one arrival event.
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.sim.events import Event
from repro.sim.kernel import Simulator

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
        #: when the transmitter finishes the last transfer handed to it
        self.free_at = 0.0
        #: total bytes pushed through (stats)
        self.bytes_sent = 0

    def tx_time(self, nbytes: int) -> float:
        """Serialization time for ``nbytes``."""
        return nbytes / self.bandwidth

    def transmit(self, nbytes: int) -> Event:
        """Send ``nbytes``; the returned event fires at *arrival* with ``nbytes``."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise NetworkError(f"negative transmit size {nbytes}")
        sim = self.sim
        end = max(sim.now, self.free_at) + nbytes / self.bandwidth
        self.free_at = end
        # propagation happens after the transmitter is released
        arrival = sim.at(end + self.latency, nbytes, self.name)
        arrival.add_callback(self._arrived)
        return arrival

    def _arrived(self, event: Event) -> None:
        nbytes = event._value
        self.bytes_sent += nbytes
        obs = self.sim.obs
        obs.count("net.bytes", nbytes)
        if obs.enabled:
            obs.observe("net.tx_bytes", nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Link {self.name} {self.bandwidth / 1e6:.0f}MB/s free@{self.free_at:.6f}>"
