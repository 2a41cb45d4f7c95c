"""Message descriptor for the simulated fabric."""

from __future__ import annotations

import dataclasses

__all__ = ["Message"]


@dataclasses.dataclass(slots=True)
class Message:
    """An application-level datagram delivered through the fabric.

    ``payload`` is an arbitrary Python object (RPC request, NFS reply, ...);
    ``nbytes`` is the *simulated* wire size, which need not match the real
    payload size (most payloads are descriptors for data that is never
    materialized).  ``port`` names the destination node's service (see
    :meth:`~repro.node.node.Node.bind`).
    """

    src: str
    dst: str
    nbytes: int
    payload: object = None
    port: str = "default"
    kind: str = "data"

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative message size {self.nbytes}")
