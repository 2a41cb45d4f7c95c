"""The fabric: endpoint handlers + segmented message transfer over the switch.

``post`` moves a :class:`~repro.net.message.Message` from its source port
to the destination endpoint, charging uplink and downlink serialization
with segment-level pipelining: while segment *i* crosses the destination's
downlink, segment *i+1* is already on the source's uplink.  Each segment
asks for the next link when it arrives over the previous one (per-segment
store-and-forward at the switch), driven by callbacks on the links'
arrival events.  A message that fits one segment (every RPC and
heartbeat) is the short case of the same walk: one uplink and one
downlink hop.  Loopback messages skip the wire entirely.  A message is
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
from repro.net.link import Link
from repro.net.message import Message
from repro.net.switch import Switch
from repro.sim.events import Event
from repro.sim.kernel import Simulator

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import Injection

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

    def send(self, msg: Message) -> Event:
        """Deliver ``msg`` to the destination's handler; the event fires then.

        For a sender that waits.  A *drop* still fires it: the wire cost is
        paid and the send "completes", as a real NIC's does.
        """
        done = Event(self.sim, "fabric.send")
        self.post(msg, done)
        return done

    def post(self, msg: Message, done: Event | None = None) -> None:
        """Deliver ``msg`` to the destination's handler, then succeed ``done``.

        The one delivery path.  A sender that does not wait passes no
        ``done``, so no completion event is created or scheduled.

        Injected faults at ``net.deliver``: *drop* pays the wire cost but
        never delivers (a lost frame), *delay* adds latency before delivery.
        """
        src, dst = msg.src, msg.dst
        handler = self._handler(dst)
        self._handler(src)  # validates attachment
        inj = self.sim.faults
        decision = None
        if inj is not None:
            decision = inj.check("net.deliver", src=src, dst=dst, kind=msg.kind)
        if src == dst:
            # Local delivery: no wire cost, but still an event boundary so
            # ordering with real messages stays consistent.
            walk = _Transfer(self, msg, handler, done, decision)
            self.sim.timeout(0.0).add_callback(walk.arrived)
            return
        uplink, downlink = self.switch.path(src, dst)
        _Transfer(self, msg, handler, done, decision, uplink, downlink).send_segment()

    def transfer(self, src: str, dst: str, nbytes: int, kind: str = "bulk") -> Event:
        """Convenience bulk transfer; completes at delivery."""
        return self.send(Message(src=src, dst=dst, nbytes=nbytes, kind=kind))


class _Transfer:
    """One posted message: its segments' walk over the source's uplink and
    the destination's downlink, then its hand-over to the endpoint.

    The link callbacks are bound methods of this object, which refers to
    none of them, so a delivered message leaves no reference cycle for the
    garbage collector to find.
    """

    __slots__ = ("fabric", "msg", "handler", "done", "decision", "uplink",
                 "downlink", "left")

    def __init__(self, fabric: Fabric, msg: Message, handler: Handler | None,
                 done: Event | None, decision: Injection | None,
                 uplink: Link | None = None, downlink: Link | None = None):
        self.fabric = fabric
        self.msg = msg
        self.handler = handler
        self.done = done
        self.decision = decision
        self.uplink = uplink
        self.downlink = downlink
        #: bytes not yet handed to the uplink
        self.left = msg.nbytes

    def send_segment(self) -> None:
        """Hand the next segment to the uplink: ``segment_bytes``, or what
        is left (a message that fits one segment, as every RPC and
        heartbeat does, has only this one)."""
        size = min(self.left, self.fabric.config.segment_bytes)
        self.left -= size
        self.uplink.transmit(size).add_callback(self.over_uplink)

    def over_uplink(self, ev: Event) -> None:
        """A segment reached the switch: forward it, start the next."""
        down = self.downlink.transmit(ev._value)
        if self.left:
            self.send_segment()
        else:
            down.add_callback(self.arrived)

    def arrived(self, _ev: Event) -> None:
        """The last segment is in: hand the message over, unless an injected
        ``net.deliver`` fault drops it or delays it (a delayed message
        arrives again after the delay, with no fault left to apply)."""
        decision, self.decision = self.decision, None
        fabric, msg, done = self.fabric, self.msg, self.done
        if decision is not None:
            if decision.action == "drop":
                fabric.dropped += 1
                if done is not None:
                    done.succeed(msg)
                return
            if decision.action == "delay":
                fabric.sim.timeout(decision.delay).add_callback(self.arrived)
                return
        fabric.bytes_delivered += msg.nbytes
        pair = (msg.src, msg.dst)
        fabric.pair_messages[pair] += 1
        fabric.pair_bytes[pair] += msg.nbytes
        if self.handler is not None:
            self.handler(msg)
        if done is not None:
            done.succeed(msg)
