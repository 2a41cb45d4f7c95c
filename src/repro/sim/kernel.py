"""The simulator: clock, event heap, and run loop.

The heap orders triggered events by ``(time, priority, sequence)`` where
*sequence* is a monotonically increasing insertion counter, making the
execution order — and therefore the entire simulation — deterministic.
"""

from __future__ import annotations

import typing as _t
from heapq import heappop, heappush

from repro.errors import DeadlockError, SimulationError
from repro.obs.registry import Observability
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.rng import RngRegistry

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process

__all__ = ["Simulator", "NORMAL", "HIGH", "LOW"]

# Event priorities: lower sorts earlier at equal timestamps.
HIGH = 0
NORMAL = 1
LOW = 2


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the named RNG streams (see
        :class:`~repro.sim.rng.RngRegistry`).
    trace:
        When true, record spans and kernel-level events in :attr:`obs`
        (counters are always on).

    Examples
    --------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> p = sim.spawn(hello(sim))
    >>> sim.run()
    >>> p.value
    3.0
    """

    __slots__ = (
        "now", "_heap", "_seq", "_running", "rng", "obs", "faults",
        "processed_events",
    )

    def __init__(self, seed: int = 0, trace: bool = False):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self.rng = RngRegistry(seed)
        #: the observability registry (spans/metrics/records)
        self.obs = Observability(enabled=trace)
        self.obs.bind_clock(lambda: self.now)
        #: the installed fault injector, or None (the common case — hooks
        #: guard on `is not None`, so an uninstalled layer costs one branch)
        self.faults = None
        #: number of events processed so far (monitoring/tests)
        self.processed_events = 0

    # -- fault injection ------------------------------------------------------

    def install_faults(self, plan):
        """Install a :class:`~repro.faults.plan.FaultPlan` (or an already
        built injector) on this simulator; returns the active injector.

        The injector's clock is the simulated clock, so rule windows are
        sim-time intervals; passing ``None`` uninstalls.
        """
        if plan is None:
            self.faults = None
            return None
        from repro.faults.injector import FaultInjector

        if isinstance(plan, FaultInjector):
            self.faults = plan
        else:
            self.faults = FaultInjector(plan, clock=lambda: self.now, obs=self.obs)
        return self.faults

    # -- scheduling ---------------------------------------------------------

    def _push(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Enqueue a triggered event for processing after ``delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heappush(self._heap, (self.now + delay, priority, self._seq, event))

    # -- factories ------------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event firing after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def at(self, when: float, value: object = None, name: str = "") -> Event:
        """An event firing at the absolute instant ``when`` with ``value``.

        Unlike ``timeout(when - now)`` it fires at exactly ``when``:
        ``now + (when - now)`` can round to a neighbouring float.
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past (at={when})")
        event = Event(self, name)
        event._ok = True
        event._value = value
        self._seq += 1
        heappush(self._heap, (when, NORMAL, self._seq, event))
        return event

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """Barrier over ``events``."""
        return AllOf(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """Race over ``events``."""
        return AnyOf(self, events)

    def spawn(
        self, gen: _t.Generator, name: str = ""
    ) -> "Process":
        """Start a new process from a generator and return its Process."""
        from repro.sim.process import Process

        return Process(self, gen, name=name)

    # -- run loop -------------------------------------------------------------

    def peek(self) -> float:
        """Timestamp of the next event, or ``inf`` if none is queued."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it: run its
        callbacks and drop them, which marks it processed."""
        heap = self._heap
        if not heap:
            raise DeadlockError("no events left to process")
        t, _prio, _seq, event = heappop(heap)
        if t < self.now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        self.now = t
        self.processed_events += 1
        if self.obs.enabled:
            # repr(event) is not free; the untraced hot loop must not pay it
            self.obs.record("event", t, repr(event))
        callbacks, event.callbacks = event.callbacks, None
        for fn in callbacks:
            fn(event)

    def run(self, until: float | Event | None = None) -> object:
        """Run until the heap drains, a deadline passes, or an event fires.

        Parameters
        ----------
        until:
            ``None``  — run until no events remain.
            ``float`` — run until the clock would pass this time, then set
            the clock to exactly that time.
            ``Event`` — run until the event is processed; returns its value
            and raises its exception if it failed.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if until is None:
                while self._heap:
                    self.step()
                return None
            if isinstance(until, Event):
                stop = until
                if stop.processed:
                    pass
                else:
                    flag: list[bool] = []
                    stop.add_callback(lambda _ev: flag.append(True))
                    while not flag:
                        if not self._heap:
                            raise DeadlockError(
                                f"event {stop!r} will never fire: "
                                "simulation ran out of events"
                            )
                        self.step()
                if not stop.ok:
                    raise _t.cast(BaseException, stop.value)
                return stop.value
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(
                    f"until={deadline} is in the past (now={self.now})"
                )
            while self._heap and self._heap[0][0] <= deadline:
                self.step()
            self.now = deadline
            return None
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Simulator t={self.now:.6f} queued={len(self._heap)}>"
