"""Processes: generator coroutines driven by the simulator.

A process body is a generator that ``yield``\\ s :class:`Event` objects; the
process resumes when the yielded event is processed.  A successful event
sends its value into the generator; a failed event throws the exception at
the ``yield`` point.  A process is itself an :class:`Event` that triggers
when the generator finishes (value = the generator's ``return`` value) or
raises (failure).

Interrupts: ``proc.interrupt(cause)`` throws
:class:`~repro.errors.InterruptError` into the process at its current wait
point.  The event it was waiting on stays valid and can be re-yielded.
``proc.abort(cause, cancel)`` interrupts the process and everything it
waits on, as a deadline that ends a whole run does.
"""

from __future__ import annotations

import typing as _t

from repro.errors import InterruptError, SimulationError
from repro.sim.events import Condition, Event

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["Process"]


class Process(Event):
    """A running simulated activity.

    Do not instantiate directly; use :meth:`Simulator.spawn`.
    """

    __slots__ = ("gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: _t.Generator, name: str = ""):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__} "
                "(did you forget to call the process function?)"
            )
        super().__init__(sim, name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self._waiting_on: Event | None = None
        # Kick off the process at the current instant via an init event.
        _Start(self)

    # -- state ------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- driving ------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self._waiting_on = None
        try:
            if event._ok:
                target = self.gen.send(event._value)
            else:
                target = self.gen.throw(_t.cast(BaseException, event._value))
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            exc2 = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event objects"
            )
            # Close the generator and fail the process.
            self.gen.close()
            self.fail(exc2)
            return
        if target.sim is not self.sim:
            self.gen.close()
            self.fail(SimulationError("yielded event belongs to another simulator"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`InterruptError` into the process at its wait point.

        No-op semantics: interrupting a finished process raises; a process
        that has not started waiting yet cannot be interrupted (the kernel
        always starts processes via an init event, so by the time user code
        holds a Process it is either waiting or finished within the same
        instant).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        waiting = self._waiting_on
        # Schedule the interrupt as an immediate event so that it is
        # delivered in deterministic heap order.
        intr = Event(self.sim, name=f"interrupt:{self.name}")

        def _deliver(_ev: Event) -> None:
            if self.triggered:
                return  # finished in the meantime
            if self._waiting_on is not waiting:
                return  # moved on; interrupt is stale
            if self._waiting_on is not None:
                # Detach: the original event must not resume us any more.
                target = self._waiting_on
                self._waiting_on = None
                if target.callbacks is not None and self._resume in target.callbacks:
                    target.callbacks.remove(self._resume)
            try:
                nxt = self.gen.throw(InterruptError(cause))
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
                    raise
                self.fail(exc)
                return
            if not isinstance(nxt, Event):
                self.gen.close()
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded {nxt!r} after interrupt"
                    )
                )
                return
            self._waiting_on = nxt
            nxt.add_callback(self._resume)

        intr.add_callback(_deliver)
        intr.succeed(cause)

    def abort(self, cause: object, cancel: _t.Callable[[Event], object]) -> None:
        """Interrupt this process and every live process it waits on.

        Follows each wait point down through processes and composite
        events; ``cancel`` gets every other pending event at the bottom
        (a CPU task's completion event, to withdraw the task).  Only for
        process trees that hold no shared resource at their wait points.
        """
        stack: list[Event] = [self]
        while stack:
            ev = stack.pop()
            if ev.triggered:
                continue
            if isinstance(ev, Process):
                if ev._waiting_on is not None:
                    stack.append(ev._waiting_on)
                ev.interrupt(cause)
            elif isinstance(ev, Condition):
                stack.extend(ev.events)
            else:
                cancel(ev)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name} {state}>"


class _Start(Event):
    """A process's init event: it fires at the spawn instant and resumes
    the generator the first time.  Its name, ``init:<process name>``, is
    formatted only when read (a traced run's ``repr``)."""

    __slots__ = ("proc",)

    def __init__(self, proc: Process):
        self.sim = proc.sim
        self._ok = True
        self._value = None
        self.callbacks = [proc._resume]
        self.proc = proc
        proc.sim._push(self)

    @property
    def name(self) -> str:
        return f"init:{self.proc.name}"
