"""The fabric: endpoint handlers + segmented message transfer over the switch.

``post`` moves a :class:`~repro.net.message.Message` from its source port
to the destination endpoint, charging uplink and downlink serialization
with segment-level pipelining: while segment *i* crosses the destination's
downlink, segment *i+1* is already on the source's uplink.  Each segment
asks for the next link when it arrives over the previous one (per-segment
store-and-forward at the switch), driven by callbacks on the links'
arrival events.  Loopback messages skip the wire entirely.  A message is
handed to its endpoint's handler when its last segment arrives.

``send`` is ``post`` for a sender that waits: its event fires at delivery.
A sender that does not wait (an NFS request or reply) posts, and no
completion event is created or scheduled for its message.
"""

from __future__ import annotations

import collections
import typing as _t

from repro.config import NetworkConfig
from repro.errors import NetworkError
from repro.net.message import Message
from repro.net.switch import Switch
from repro.sim.events import Event
from repro.sim.kernel import Simulator

__all__ = ["Fabric"]

Handler = _t.Callable[[Message], object]


class Fabric:
    """The cluster interconnect seen by nodes."""

    def __init__(self, sim: Simulator, config: NetworkConfig | None = None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.switch = Switch(sim, self.config)
        self._handlers: dict[str, Handler | None] = {}
        #: total bytes delivered endpoint-to-endpoint
        self.bytes_delivered = 0
        #: messages and bytes delivered per (src, dst) pair (stats)
        self.pair_messages: collections.Counter = collections.Counter()
        self.pair_bytes: collections.Counter = collections.Counter()
        #: messages lost to injected faults (stats)
        self.dropped = 0

    # -- topology ---------------------------------------------------------------

    def attach(self, endpoint: str, handler: Handler | None = None) -> None:
        """Attach ``endpoint``; ``handler(msg)`` runs as each message to it
        arrives (``None`` discards arrivals).  Re-attaching replaces the
        handler."""
        if endpoint not in self._handlers:
            self.switch.attach(endpoint)
        self._handlers[endpoint] = handler

    def _handler(self, endpoint: str) -> Handler | None:
        try:
            return self._handlers[endpoint]
        except KeyError:
            raise NetworkError(f"{endpoint!r} is not attached") from None

    @property
    def endpoints(self) -> list[str]:
        """All attached endpoints."""
        return list(self._handlers)

    # -- transfers ---------------------------------------------------------------

    def _segments(self, nbytes: int) -> list[int]:
        seg = self.config.segment_bytes
        if nbytes <= 0:
            return [0]
        full, rem = divmod(nbytes, seg)
        out = [seg] * full
        if rem:
            out.append(rem)
        return out

    def send(self, msg: Message) -> Event:
        """Deliver ``msg`` to the destination's handler; the event fires then.

        For a sender that waits.  A *drop* still fires it: the wire cost is
        paid and the send "completes", as a real NIC's does.
        """
        done = Event(self.sim, name="fabric.send")
        self.post(msg, done)
        return done

    def post(self, msg: Message, done: Event | None = None) -> None:
        """Deliver ``msg`` to the destination's handler, then succeed ``done``.

        The one delivery path.  A sender that does not wait passes no
        ``done``, so no completion event is created or scheduled.

        Injected faults at ``net.deliver``: *drop* pays the wire cost but
        never delivers (a lost frame), *delay* adds latency before delivery.
        """
        handler = self._handler(msg.dst)
        self._handler(msg.src)  # validates attachment
        sim = self.sim
        inj = sim.faults
        decision = None
        if inj is not None:
            decision = inj.check(
                "net.deliver", src=msg.src, dst=msg.dst, kind=msg.kind
            )

        def _deliver(_ev: Event | None = None) -> None:
            self.bytes_delivered += msg.nbytes
            pair = (msg.src, msg.dst)
            self.pair_messages[pair] += 1
            self.pair_bytes[pair] += msg.nbytes
            if handler is not None:
                handler(msg)
            if done is not None:
                done.succeed(msg)

        def _arrived(_ev: Event) -> None:
            action = decision.action if decision is not None else None
            if action == "drop":
                self.dropped += 1
                if done is not None:
                    done.succeed(msg)
            elif action == "delay":
                sim.timeout(decision.delay).add_callback(_deliver)
            else:
                _deliver()

        if msg.src == msg.dst:
            # Local delivery: no wire cost, but still an event boundary so
            # ordering with real messages stays consistent.
            sim.timeout(0.0).add_callback(_arrived)
            return

        uplink, downlink = self.switch.path(msg.src, msg.dst)
        segments = self._segments(msg.nbytes)
        last = len(segments) - 1
        hop = 0

        def _over_uplink(_ev: Event) -> None:
            # segment `hop` reached the switch: forward it, start the next
            nonlocal hop
            down = downlink.transmit(segments[hop])
            if hop == last:
                down.add_callback(_arrived)
                return
            hop += 1
            uplink.transmit(segments[hop]).add_callback(_over_uplink)

        uplink.transmit(segments[0]).add_callback(_over_uplink)

    def transfer(self, src: str, dst: str, nbytes: int, kind: str = "bulk") -> Event:
        """Convenience bulk transfer; completes at delivery."""
        return self.send(Message(src=src, dst=dst, nbytes=nbytes, kind=kind))
