"""Shared resources for simulated processes.

* :class:`Resource` — ``capacity`` identical slots with a FIFO wait queue
  (models disk queues, NIC ports, daemon worker pools).
* :class:`Store` — an unbounded-or-bounded FIFO of Python objects
  (models message queues and mailboxes).

All wait queues are FIFO, making contention resolution deterministic.
"""

from __future__ import annotations

import collections
import typing as _t

from repro.errors import SimulationError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["Request", "Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req          # waits for a slot
            yield sim.timeout(work)
        # slot released here
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim, name=f"req:{resource.name}")
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: object) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` identical servers with a FIFO queue."""

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: list[Request] = []
        self._queue: collections.deque[Request] = collections.deque()

    # -- introspection ------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    # -- operations ---------------------------------------------------------

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed(self)
        else:
            self._queue.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a slot (or withdraw an ungranted request).  Idempotent."""
        if req in self._users:
            self._users.remove(req)
            self._grant_next()
        else:
            self._cancel(req)

    def _cancel(self, req: Request) -> None:
        try:
            self._queue.remove(req)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.append(nxt)
            nxt.succeed(self)


class Store:
    """FIFO of arbitrary items with blocking ``get`` and optional bound."""

    def __init__(
        self,
        sim: "Simulator",
        capacity: float = float("inf"),
        name: str = "store",
    ):
        if capacity < 1:
            raise SimulationError("store capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: collections.deque[object] = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()
        self._putters: collections.deque[tuple[Event, object]] = collections.deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: object) -> Event:
        """Deposit ``item``; blocks (pending event) while the store is full."""
        ev = Event(self.sim, name=f"put:{self.name}")
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Withdraw the oldest item; pending while the store is empty."""
        ev = Event(self.sim, name=f"get:{self.name}")
        if self.items:
            ev.succeed(self.items.popleft())
            # Someone may be waiting to put.
            if self._putters:
                put_ev, item = self._putters.popleft()
                self.items.append(item)
                put_ev.succeed()
        elif self._putters:
            put_ev, item = self._putters.popleft()
            put_ev.succeed()
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> object | None:
        """Non-blocking get; None when empty."""
        if not self.items:
            return None
        ev = self.get()
        return ev.value
