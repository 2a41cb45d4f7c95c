"""Events: the unit of coordination in the simulation kernel.

An :class:`Event` starts *pending*; at some simulated instant it is
*triggered* (successfully with a value, or as a failure with an exception)
and all registered callbacks run.  Processes wait on events by ``yield``-ing
them.

Composite events :class:`AllOf` and :class:`AnyOf` build barriers and races
out of other events.
"""

from __future__ import annotations

import typing as _t

from repro.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["PENDING", "Event", "Timeout", "AllOf", "AnyOf", "Condition"]


class _PendingType:
    """Sentinel for an event value that has not been decided yet."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _PendingType()


class Event:
    """A one-shot occurrence at a simulated instant.

    Lifecycle::

        pending --succeed(value)--> triggered(ok=True)
        pending --fail(exc)-------> triggered(ok=False)

    Callbacks (``callable(event)``) registered before triggering run when the
    event is *processed* by the simulator loop; callbacks registered after
    processing run immediately.  The loop drops the callback list as it
    runs it, so ``callbacks is None`` marks a processed event.
    """

    __slots__ = ("sim", "_value", "_ok", "callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self._value: object = PENDING
        self._ok: bool | None = None
        self.callbacks: list[_t.Callable[["Event"], None]] | None = []
        self.name = name

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> object:
        """The success value or the failure exception."""
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully, scheduling its callbacks now."""
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._push(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as a failure carrying ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._push(self)
        return self

    # -- callbacks ----------------------------------------------------------

    def add_callback(self, fn: _t.Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs synchronously.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or self.__class__.__name__
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else f"failed({self._value!r})")
        )
        return f"<{label} {state}>"


class Timeout(Event):
    """An event that fires after ``delay`` simulated seconds.

    Its name is formatted only when read (a traced run's ``repr``), not
    for every timeout.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.sim = sim
        self._ok = True
        self._value = value
        self.callbacks = []
        self.delay = delay
        sim._push(self, delay)

    @property
    def name(self) -> str:
        return f"Timeout({self.delay})"


class Condition(Event):
    """Base for composite events; triggers per an ``evaluate`` predicate.

    ``evaluate(events, n_done)`` returns True when the condition is met.
    A failing sub-event fails the condition immediately (fail-fast).
    """

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: _t.Sequence[Event]):
        super().__init__(sim, name=self.__class__.__name__)
        self.events = tuple(events)
        self._done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes simulators")
            ev.add_callback(self._on_sub)

    def _evaluate(self, n_done: int) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict[Event, object]:
        """Outcome: mapping of each *triggered* sub-event to its value."""
        return {ev: ev._value for ev in self.events if ev.triggered and ev._ok}

    def _on_sub(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(_t.cast(BaseException, ev._value))
            return
        self._done += 1
        if self._evaluate(self._done):
            self.succeed(self._collect())


class AllOf(Condition):
    """Succeeds when every sub-event succeeds (a barrier)."""

    __slots__ = ()

    def _evaluate(self, n_done: int) -> bool:
        return n_done >= len(self.events)


class AnyOf(Condition):
    """Succeeds when the first sub-event succeeds (a race)."""

    __slots__ = ()

    def _evaluate(self, n_done: int) -> bool:
        return n_done >= 1
