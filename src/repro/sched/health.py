"""Heartbeat failure detection and the node-health state machine (§15).

The scheduler's PR-8 health model was binary: an attempt timeout
quarantined a node forever.  This module replaces it with a *suspicion
score* fed by daemon heartbeats over the fabric — a simplified
phi-accrual detector (Hayashibara et al.): the longer a node stays
silent relative to its recent inter-arrival mean, the higher its phi.

States per node::

    healthy -> suspected -> quarantined -> probation -> healthy
                  \\______________________________________/

* **suspected** (``phi >= phi_suspect``): dispatch avoids the node but
  nothing is torn down — a transient stall recovers for free.
* **quarantined** (``phi >= phi_quarantine``, or a forced quarantine from
  an attempt timeout): the node leaves the eligible set, and the
  ``on_quarantine`` hook ends the work in flight there (the scheduler's
  hook fails every smartFAM call in flight to the node).
* **probation**: a quarantined node whose beats resume is trusted with a
  limited dispatch share (one canary job at a time); its first success
  restores it to healthy, a failure re-quarantines it.

The exponential variant of phi keeps the math dependency-free:
``phi = log10(e) * elapsed / mean_interval`` — phi of 1 means the
silence is ~10x less likely than expected, 2 means ~100x, and so on.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

__all__ = [
    "HeartbeatConfig",
    "PhiAccrualDetector",
    "NodeHealthTracker",
    "HEALTHY",
    "SUSPECTED",
    "QUARANTINED",
    "PROBATION",
]

#: log10(e): converts the exponential-model exceedance to a phi scale
_LOG10_E = 0.4342944819032518

HEALTHY = "healthy"
SUSPECTED = "suspected"
QUARANTINED = "quarantined"
PROBATION = "probation"


@dataclasses.dataclass(frozen=True)
class HeartbeatConfig:
    """Tuning for the heartbeat loop and the suspicion thresholds."""

    #: daemon ping period (sim seconds); also the monitor tick
    interval: float = 0.25
    #: sliding window of inter-arrival samples per node
    window: int = 16
    #: before this many samples, the configured interval is the mean
    min_samples: int = 3
    #: phi at which dispatch starts avoiding the node (~10^-2 likelihood)
    phi_suspect: float = 2.0
    #: phi at which the node is quarantined (~10^-5 likelihood)
    phi_quarantine: float = 5.0


class PhiAccrualDetector:
    """Suspicion scores from heartbeat inter-arrival times."""

    def __init__(self, cfg: HeartbeatConfig | None = None):
        self.cfg = cfg or HeartbeatConfig()
        self._last: dict[str, float] = {}
        self._intervals: dict[str, collections.deque] = {}

    def beat(self, node: str, t: float) -> None:
        """Record a heartbeat from ``node`` at sim time ``t``."""
        last = self._last.get(node)
        if last is not None:
            window = self._intervals.get(node)
            if window is None:
                window = self._intervals[node] = collections.deque(
                    maxlen=self.cfg.window
                )
            window.append(max(1e-9, t - last))
        self._last[node] = t

    def last_beat(self, node: str) -> float | None:
        """Sim time of the node's most recent beat (None: never beat)."""
        return self._last.get(node)

    def reset(self, node: str) -> None:
        """Forget a node's beat history entirely.

        Called when a quarantined node's beats resume: both the window
        and the last-beat time must go, or the huge dead-gap interval
        would enter the (fresh) window on the very next beat, inflating
        the mean and desensitizing the detector exactly when it must
        stay sharp.  The next beat re-arms ``last_beat`` without
        recording an interval.
        """
        self._intervals.pop(node, None)
        self._last.pop(node, None)

    def phi(self, node: str, now: float) -> float:
        """Current suspicion of ``node`` (0.0 during startup grace)."""
        last = self._last.get(node)
        if last is None:
            return 0.0  # grace until the first beat arrives
        window = self._intervals.get(node)
        if window is not None and len(window) >= self.cfg.min_samples:
            mean = sum(window) / len(window)
        else:
            mean = self.cfg.interval
        return _LOG10_E * (now - last) / max(mean, 1e-9)


class NodeHealthTracker:
    """The per-node recovery state machine over a phi-accrual detector.

    ``unhealthy`` is shared with the scheduler (the same set its
    placement filters consult), so quarantine/probation transitions are
    visible to dispatch without any extra plumbing.  ``on_quarantine`` is
    called with the node's name on every quarantine, phi or forced.
    """

    def __init__(
        self,
        sim,
        node_names: _t.Iterable[str],
        cfg: HeartbeatConfig | None = None,
        unhealthy: set | None = None,
        on_quarantine: _t.Callable[[str], object] | None = None,
    ):
        self.sim = sim
        self.cfg = cfg or HeartbeatConfig()
        self.detector = PhiAccrualDetector(self.cfg)
        self.state: dict[str, str] = {name: HEALTHY for name in node_names}
        self.unhealthy: set = unhealthy if unhealthy is not None else set()
        self.on_quarantine = on_quarantine
        #: transition stats
        self.quarantines = 0
        self.rejoins = 0

    # -- views -------------------------------------------------------------

    @property
    def suspected(self) -> set:
        """Nodes dispatch should avoid but not tear down."""
        return {n for n, s in self.state.items() if s == SUSPECTED}

    @property
    def probation(self) -> set:
        """Rejoining nodes limited to a canary dispatch share."""
        return {n for n, s in self.state.items() if s == PROBATION}

    # -- inputs ------------------------------------------------------------

    def beat(self, node: str, t: float) -> None:
        """Feed one heartbeat into the detector."""
        if node not in self.state:
            self.state[node] = HEALTHY
        if self.state[node] == QUARANTINED:
            # beats resuming after a dead gap: drop the gap from the window
            self.detector.reset(node)
        self.detector.beat(node, t)

    def force_quarantine(self, node: str) -> None:
        """Quarantine on hard evidence (attempt timeout), phi regardless."""
        if self.state.get(node) != QUARANTINED:
            self._quarantine(node)

    def job_succeeded(self, node: str) -> None:
        """A probation node served its canary: restore full trust."""
        if self.state.get(node) == PROBATION:
            self.state[node] = HEALTHY
            self.rejoins += 1
            self.sim.obs.count("node.rejoined")

    def job_failed(self, node: str) -> None:
        """A probation node failed its canary: straight back to quarantine."""
        if self.state.get(node) == PROBATION:
            self._quarantine(node)

    def restore(self, node: str) -> None:
        """Operator override (``mark_healthy``): full trust immediately."""
        if node in self.state:
            self.state[node] = HEALTHY
        self.unhealthy.discard(node)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: float) -> bool:
        """Advance every node's state; True when anything changed.

        Samples ``node.suspicion.<name>`` (gauge + time series) each call
        so trace_view can render the suspicion history.
        """
        obs = self.sim.obs
        changed = False
        for node in sorted(self.state):
            phi = self.detector.phi(node, now)
            obs.gauge(f"node.suspicion.{node}", phi)
            obs.sample(f"node.suspicion.{node}", now, phi)
            state = self.state[node]
            if state in (HEALTHY, SUSPECTED):
                if phi >= self.cfg.phi_quarantine:
                    self._quarantine(node)
                    changed = True
                elif phi >= self.cfg.phi_suspect:
                    if state != SUSPECTED:
                        self.state[node] = SUSPECTED
                        obs.count("node.suspected")
                        changed = True
                elif state == SUSPECTED:
                    self.state[node] = HEALTHY
                    changed = True
            elif state == QUARANTINED:
                if (
                    phi < self.cfg.phi_suspect
                    and self.detector.last_beat(node) is not None
                ):
                    # beats are flowing again: limited re-entry
                    self.state[node] = PROBATION
                    self.unhealthy.discard(node)
                    obs.count("node.probation")
                    changed = True
            elif state == PROBATION:
                if phi >= self.cfg.phi_quarantine:
                    self._quarantine(node)
                    changed = True
        return changed

    def _quarantine(self, node: str) -> None:
        self.state[node] = QUARANTINED
        self.unhealthy.add(node)
        self.quarantines += 1
        self.sim.obs.count("node.quarantined")
        if self.on_quarantine is not None:
            self.on_quarantine(node)
