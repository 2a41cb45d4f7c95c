"""An exact event-driven multicore processor-sharing CPU model.

The model is *egalitarian processor sharing* across cores: with ``n``
runnable tasks on a ``c``-core CPU, every task progresses at

    ``per_core_rate * min(1, c / n) / slowdown``

ops per second, where ``slowdown`` is a node-wide multiplier (memory
thrashing, see :class:`~repro.hardware.memory.MemoryModel`).  This is the
standard fluid model of an OS time-slicing more runnable threads than
cores, and it is what makes CPU contention between concurrent MapReduce
jobs (Fig 9/10 host-only scenario) come out right without simulating a
scheduler tick by tick.

The implementation is exact, not time-stepped: whenever the task set or the
slowdown changes, all remaining work is advanced analytically and the next
completion is (re)scheduled.
"""

from __future__ import annotations

import math
import typing as _t

from repro.config import CPUSpec
from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Simulator

__all__ = ["CpuTask", "ProcessorSharingCPU"]

#: ops below this are treated as complete (guards float drift)
_EPS_OPS = 1e-6


class CpuTask:
    """A unit of CPU demand submitted to the PS model."""

    __slots__ = ("name", "remaining", "total", "done", "submitted_at")

    def __init__(self, name: str, ops: float, done: Event, submitted_at: float):
        self.name = name
        self.remaining = float(ops)
        self.total = float(ops)
        self.done = done
        self.submitted_at = submitted_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CpuTask {self.name} {self.remaining:.3g}/{self.total:.3g} ops>"


class ProcessorSharingCPU:
    """Multicore CPU under egalitarian processor sharing.

    Parameters
    ----------
    sim:
        The simulator.
    spec:
        CPU spec (cores, clock, ops/cycle).
    name:
        Label used in events and stats.

    Usage (inside a simulated process)::

        done = cpu.submit(ops=2.0e9, name="map-3")
        yield done      # resumes when the task has received 2e9 ops
    """

    def __init__(self, sim: Simulator, spec: CPUSpec, name: str = "cpu"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._tasks: list[CpuTask] = []
        self._slowdown = 1.0
        self._last_update = sim.now
        self._gen = 0  # invalidates stale completion timers
        #: accumulated core-seconds of useful work delivered
        self.busy_core_seconds = 0.0
        #: completed task count
        self.completed_tasks = 0

    # -- derived state ------------------------------------------------------

    @property
    def cores(self) -> int:
        """Number of cores."""
        return self.spec.cores

    @property
    def n_active(self) -> int:
        """Number of runnable tasks right now."""
        return len(self._tasks)

    @property
    def slowdown(self) -> float:
        """Current node-wide slowdown multiplier (1.0 = full speed)."""
        return self._slowdown

    def per_task_rate(self) -> float:
        """Ops/second each active task currently receives."""
        n = len(self._tasks)
        if n == 0:
            return 0.0
        share = min(1.0, self.spec.cores / n)
        return self.spec.ops_per_sec_per_core * share / self._slowdown

    def remaining_ops(self) -> float:
        """Ops the runnable tasks still need as of now.

        A pure read: progress since the last update is computed, not
        applied, so asking changes no task and schedules no event.
        """
        if not self._tasks:
            return 0.0
        delivered = self.per_task_rate() * (self.sim.now - self._last_update)
        return sum(max(0.0, t.remaining - delivered) for t in self._tasks)

    # -- public operations ----------------------------------------------------

    def submit(self, ops: float, name: str = "task") -> Event:
        """Add a task demanding ``ops``; returns its completion event."""
        if ops < 0 or math.isnan(ops):
            raise SimulationError(f"invalid CPU demand {ops!r}")
        done = Event(self.sim, name=f"cpu-done:{name}")
        if ops <= _EPS_OPS:
            self.completed_tasks += 1
            done.succeed(0.0)
            return done
        self._advance()
        self._tasks.append(CpuTask(name, ops, done, self.sim.now))
        self._replan()
        return done

    def run(self, ops: float, name: str = "task") -> Event:
        """Alias of :meth:`submit` (reads better at call sites)."""
        return self.submit(ops, name)

    def cancel(self, done: Event) -> bool:
        """Abort the task whose completion event is ``done``.

        Returns True if it was found and removed.  The event is failed with
        :class:`SimulationError` so waiters do not hang.
        """
        self._advance()
        for i, task in enumerate(self._tasks):
            if task.done is done:
                del self._tasks[i]
                if not done.triggered:
                    done.fail(SimulationError(f"task {task.name} cancelled"))
                self._replan()
                return True
        return False

    def set_slowdown(self, factor: float) -> None:
        """Change the node-wide slowdown (>= 1.0), e.g. on memory pressure."""
        if factor < 1.0 or math.isnan(factor):
            raise SimulationError(f"slowdown must be >= 1.0, got {factor}")
        if factor == self._slowdown:
            return
        self._advance()
        self._slowdown = factor
        self._replan()

    # -- internals ----------------------------------------------------------

    def _advance(self) -> None:
        """Apply progress accrued since the last update instant."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._tasks:
            return
        rate = self.per_task_rate()
        delivered = rate * dt
        # Book utilisation: n tasks each at `share` of a core.
        n = len(self._tasks)
        self.busy_core_seconds += min(n, self.spec.cores) / self._slowdown * dt
        finished: list[CpuTask] = []
        for task in self._tasks:
            task.remaining -= delivered
            if task.remaining <= self._completion_eps(task):
                finished.append(task)
        if finished:
            for task in finished:
                self._tasks.remove(task)
                self.completed_tasks += 1
                if not task.done.triggered:
                    task.done.succeed(now - task.submitted_at)

    @staticmethod
    def _completion_eps(task: CpuTask) -> float:
        """Remaining-ops threshold below which a task counts as done.

        Relative to the task's total demand so float cancellation on
        multi-gigaop tasks cannot strand sub-op residues."""
        return max(_EPS_OPS, 1e-9 * task.total)

    def _replan(self) -> None:
        """Schedule a wake-up at the next task completion."""
        self._gen += 1
        if not self._tasks:
            return
        gen = self._gen
        rate = self.per_task_rate()
        if rate <= 0:  # pragma: no cover - defensive (slowdown is finite)
            raise SimulationError("CPU rate fell to zero")
        shortest = min(t.remaining for t in self._tasks)
        delay = shortest / rate
        now = self.sim.now
        if now + delay == now:
            # Residual work too small for float time to advance: complete
            # the shortest task(s) at this instant instead of spinning on
            # zero-length timers.
            done = [t for t in self._tasks if t.remaining <= shortest + _EPS_OPS]
            for task in done:
                self._tasks.remove(task)
                self.completed_tasks += 1
                if not task.done.triggered:
                    task.done.succeed(now - task.submitted_at)
            self._replan()
            return
        timer = self.sim.timeout(delay)

        def _on_fire(_ev: Event) -> None:
            if gen != self._gen:
                return  # superseded by a later replan
            self._advance()
            self._replan()

        timer.add_callback(_on_fire)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PS-CPU {self.name} {self.spec.cores}c@{self.spec.clock_ghz}GHz "
            f"active={len(self._tasks)} slow={self._slowdown:.2f}>"
        )
