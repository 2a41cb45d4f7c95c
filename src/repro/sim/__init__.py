"""Discrete-event simulation kernel (built from scratch).

This is a small, deterministic, generator-coroutine-based kernel in the
spirit of SimPy, providing exactly what the McSD models need:

* :class:`~repro.sim.kernel.Simulator` — the event loop and clock,
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.Timeout` /
  :class:`~repro.sim.events.AllOf` / :class:`~repro.sim.events.AnyOf`,
* :class:`~repro.sim.process.Process` — a running coroutine that can be
  waited on and interrupted,
* resources (:class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.Container`),
* synchronisation (:class:`~repro.sim.sync.Signal`,
  :class:`~repro.sim.sync.Semaphore`, :class:`~repro.sim.sync.Barrier`,
  :class:`~repro.sim.sync.Latch`),
* deterministic named RNG streams (:class:`~repro.sim.rng.RngRegistry`),
* tracing, counters and records (``sim.obs``, an
  :class:`~repro.obs.registry.Observability`).

Determinism: given the same seed and the same program, event ordering and
therefore every simulated timestamp are bit-reproducible.  Ties in time are
broken by (priority, insertion sequence).
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.resources import Container, Request, Resource, Store
from repro.sim.rng import RngRegistry
from repro.sim.sync import Barrier, Latch, Semaphore, Signal

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Timeout",
    "Simulator",
    "Process",
    "Resource",
    "Request",
    "Store",
    "Container",
    "Signal",
    "Semaphore",
    "Barrier",
    "Latch",
    "RngRegistry",
]
