"""Synchronisation primitives built on events.

These are thin, deterministic analogues of the threading primitives the
real McSD daemons would use: condition-style signals and counting
semaphores.
"""

from __future__ import annotations

import collections
import typing as _t

from repro.errors import SimulationError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["Signal", "Semaphore"]


class Signal:
    """A broadcast condition: ``wait()`` events fire on the next ``fire()``.

    Each ``fire(value)`` wakes everyone currently waiting; later waiters wait
    for the next firing (pulse semantics, like ``Condition.notify_all``).
    """

    def __init__(self, sim: "Simulator", name: str = "signal"):
        self.sim = sim
        self.name = name
        self._waiters: list[Event] = []
        #: number of times fire() has been called
        self.fired_count = 0

    def wait(self) -> Event:
        """An event that fires at the next :meth:`fire`."""
        ev = Event(self.sim, name=f"wait:{self.name}")
        self._waiters.append(ev)
        return ev

    def fire(self, value: object = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        self.fired_count += 1
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)


class Semaphore:
    """Counting semaphore with FIFO acquire order."""

    def __init__(self, sim: "Simulator", value: int = 1, name: str = "sem"):
        if value < 0:
            raise SimulationError("semaphore initial value must be >= 0")
        self.sim = sim
        self.name = name
        self._value = value
        self._waiters: collections.deque[Event] = collections.deque()

    @property
    def value(self) -> int:
        """Currently available permits."""
        return self._value

    def acquire(self) -> Event:
        """Take one permit; pending while none are available."""
        ev = Event(self.sim, name=f"acq:{self.name}")
        if self._value > 0:
            self._value -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def cancel(self, ev: Event) -> bool:
        """Withdraw a still-pending :meth:`acquire`.

        An interrupted waiter (e.g. a timed-out smartFAM call) must remove
        its queued acquire, or the next ``release`` would hand the permit
        to a dead process and strand it forever.  Returns True when the
        event was queued and removed; a triggered event is not cancellable
        (its holder owns a permit and must ``release`` it).
        """
        try:
            self._waiters.remove(ev)
            return True
        except ValueError:
            return False

    def release(self) -> None:
        """Return one permit, waking the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1
