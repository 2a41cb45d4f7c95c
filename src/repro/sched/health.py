"""Heartbeat failure detection and the node-health state machine (§15).

A cluster's one :class:`NodeHealthTracker`, started by its first
scheduler or distributed run, gives each SD node a *suspicion score*
fed by daemon heartbeats over the fabric — a simplified phi-accrual
detector (Hayashibara et al.): the longer a node stays silent relative
to its recent inter-arrival mean, the higher its phi.

States per node::

    healthy -> suspected -> quarantined -> probation -> healthy
                  \\______________________________________/

* **suspected** (``phi >= PHI_SUSPECT``): dispatch avoids the node but
  nothing is torn down — a transient stall recovers for free.
* **quarantined** (``phi >= PHI_QUARANTINE``, or a forced quarantine
  from an attempt timeout): the node leaves the eligible set, and the
  ``on_quarantine`` hook ends the work in flight there (the cluster's
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
import typing as _t

__all__ = [
    "PhiAccrualDetector",
    "NodeHealthTracker",
    "HEALTHY",
    "SUSPECTED",
    "QUARANTINED",
    "PROBATION",
    "INTERVAL",
    "PHI_SUSPECT",
    "PHI_QUARANTINE",
    "DETECTION_BOUND",
]

#: log10(e): converts the exponential-model exceedance to a phi scale
_LOG10_E = 0.4342944819032518

HEALTHY = "healthy"
SUSPECTED = "suspected"
QUARANTINED = "quarantined"
PROBATION = "probation"

#: daemon ping period (sim seconds); also the monitor tick
INTERVAL = 0.25
#: sliding window of inter-arrival samples per node
WINDOW = 16
#: before this many samples, INTERVAL is the mean
MIN_SAMPLES = 3
#: phi at which dispatch starts avoiding the node (~10^-2 likelihood)
PHI_SUSPECT = 2.0
#: phi at which the node is quarantined (~10^-5 likelihood)
PHI_QUARANTINE = 5.0
#: longest a dead daemon stays unquarantined when its beats came every
#: INTERVAL: the silence at which phi reaches PHI_QUARANTINE, plus one
#: monitor tick (about 3.13 sim-s)
DETECTION_BOUND = PHI_QUARANTINE * INTERVAL / _LOG10_E + INTERVAL


class PhiAccrualDetector:
    """Suspicion scores from heartbeat inter-arrival times."""

    def __init__(self):
        self._last: dict[str, float] = {}
        self._intervals: dict[str, collections.deque] = {}
        #: where each watched node's silence counts from before it beats
        self._since: dict[str, float] = {}

    def beat(self, node: str, t: float) -> None:
        """Record a heartbeat from ``node`` at sim time ``t``."""
        last = self._last.get(node)
        if last is not None:
            window = self._intervals.get(node)
            if window is None:
                window = self._intervals[node] = collections.deque(maxlen=WINDOW)
            window.append(max(1e-9, t - last))
        self._last[node] = t

    def last_beat(self, node: str) -> float | None:
        """Sim time of the node's most recent beat (None: never beat)."""
        return self._last.get(node)

    def watch(self, node: str, t: float) -> None:
        """Watch ``node`` afresh: until its next beat, its silence counts
        from sim time ``t``, so a daemon that dies before it ever beats is
        still suspected.

        Its beat history goes too.  When a quarantined node's beats
        resume, both the window and the last-beat time must go, or the
        huge dead-gap interval would enter the (fresh) window on the very
        next beat, inflating the mean and desensitizing the detector
        exactly when it must stay sharp.  The next beat re-arms
        ``last_beat`` without recording an interval.
        """
        self._intervals.pop(node, None)
        self._last.pop(node, None)
        self._since[node] = t

    def phi(self, node: str, now: float) -> float:
        """Current suspicion of ``node`` (0.0 for a node never watched
        nor heard from)."""
        last = self._last.get(node, self._since.get(node))
        if last is None:
            return 0.0
        window = self._intervals.get(node)
        if window is not None and len(window) >= MIN_SAMPLES:
            mean = sum(window) / len(window)
        else:
            mean = INTERVAL
        return _LOG10_E * (now - last) / max(mean, 1e-9)


class NodeHealthTracker:
    """The per-node recovery state machine over a phi-accrual detector.

    ``on_quarantine`` is called with the node's name on every quarantine,
    phi or forced.  :meth:`monitor` re-scores the nodes every
    ``INTERVAL`` and calls each of ``on_change`` after a tick that moved
    any node (a scheduler registers its wake-up there).
    """

    def __init__(
        self,
        sim,
        node_names: _t.Iterable[str],
        on_quarantine: _t.Callable[[str], object] | None = None,
    ):
        self.sim = sim
        self.detector = PhiAccrualDetector()
        self.state: dict[str, str] = {name: HEALTHY for name in node_names}
        for name in self.state:
            self.detector.watch(name, sim.now)
        self.on_quarantine = on_quarantine
        self.on_change: list[_t.Callable[[], object]] = []

    # -- views -------------------------------------------------------------

    @property
    def unhealthy(self) -> set:
        """Quarantined nodes: out of the eligible set."""
        return {n for n, s in self.state.items() if s == QUARANTINED}

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
        if self.state[node] == QUARANTINED:
            # beats resuming after a dead gap: drop the gap from the window
            self.detector.watch(node, t)
        self.detector.beat(node, t)

    def force_quarantine(self, node: str) -> None:
        """Quarantine on hard evidence (attempt timeout), phi regardless."""
        if self.state.get(node) != QUARANTINED:
            self._quarantine(node)

    def job_succeeded(self, node: str) -> None:
        """A probation node served its canary: restore full trust."""
        if self.state.get(node) == PROBATION:
            self.state[node] = HEALTHY
            self.sim.obs.count("node.rejoined")

    def job_failed(self, node: str) -> None:
        """A probation node failed its canary: straight back to quarantine."""
        if self.state.get(node) == PROBATION:
            self._quarantine(node)

    def restore(self, node: str) -> None:
        """Operator override (``mark_healthy``): full trust immediately,
        watched afresh from now (the gap before it is forgotten)."""
        if node in self.state:
            self.state[node] = HEALTHY
            self.detector.watch(node, self.sim.now)

    # -- evaluation --------------------------------------------------------

    def monitor(self) -> _t.Generator:
        """Re-score every node each ``INTERVAL``; wake ``on_change`` on a
        transition."""
        while True:
            yield self.sim.timeout(INTERVAL)
            if self.evaluate(self.sim.now):
                for wake in self.on_change:
                    wake()

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
                if phi >= PHI_QUARANTINE:
                    self._quarantine(node)
                    changed = True
                elif phi >= PHI_SUSPECT:
                    if state != SUSPECTED:
                        self.state[node] = SUSPECTED
                        obs.count("node.suspected")
                        changed = True
                elif state == SUSPECTED:
                    self.state[node] = HEALTHY
                    changed = True
            elif state == QUARANTINED:
                if (
                    phi < PHI_SUSPECT
                    and self.detector.last_beat(node) is not None
                ):
                    # beats are flowing again: limited re-entry
                    self.state[node] = PROBATION
                    obs.count("node.probation")
                    changed = True
            elif state == PROBATION:
                if phi >= PHI_QUARANTINE:
                    self._quarantine(node)
                    changed = True
        return changed

    def _quarantine(self, node: str) -> None:
        self.state[node] = QUARANTINED
        self.sim.obs.count("node.quarantined")
        if self.on_quarantine is not None:
            self.on_quarantine(node)
