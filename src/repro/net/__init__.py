"""Simulated cluster interconnect: links, a store-and-forward switch, messages.

Topology (Fig 3): every node owns a full-duplex port on one Gigabit switch.
A :class:`~repro.net.message.Message` from A to B occupies A's uplink and
B's downlink; large messages are carved into segments so that concurrent
transfers interleave (fair sharing at segment granularity).  Each link is
an arithmetic FIFO server, so every segment costs one event per hop.
"""

from repro.net.fabric import Fabric
from repro.net.link import Link
from repro.net.message import Message
from repro.net.switch import Switch

__all__ = ["Fabric", "Link", "Switch", "Message"]
