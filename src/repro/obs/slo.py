"""SLO tracking: per-tenant latency objectives, error budgets, burn rates.

The serving layer's health signal.  A :class:`SLOPolicy` states the
objective — "p95 of total latency under ``target_s``, with at most
``error_budget`` of requests allowed to miss it" — and a
:class:`SLOTracker` evaluates it *incrementally*: the scheduler feeds
one ``observe`` per completed (or permanently failed) job, the tracker
keeps a bounded per-tenant sample window, and a :class:`HealthReport`
snapshot can be taken at any instant without rescanning history.

Burn rate is the standard SRE ratio::

    burn = (bad fraction over the trailing window) / error_budget

``burn == 1.0`` means the tenant is consuming its budget exactly at the
sustainable rate; ``burn > 1`` means the budget will be exhausted early
(a burn of 2 over a 30-day budget period exhausts it in 15 days).
Consumers key off ``burn_rate`` and ``queue_depth`` rather than raw
histograms: today the serving benchmark's SLO rows
(``benchmarks/bench_serving.py``); autoscaling, which would be another,
is deferred.

Everything here is pure bookkeeping over floats — no clock reads, no
I/O — so the tracker is cheap enough to run always-on next to the
scheduler's existing counters.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import Observability

__all__ = [
    "SLOPolicy",
    "SLOStatus",
    "SLOTracker",
    "HealthReport",
    "build_health_report",
]

#: per-tenant samples kept for windowed percentile/burn computation
_WINDOW_SAMPLES = 4096


@dataclasses.dataclass(frozen=True)
class SLOPolicy:
    """One tenant's service objective.

    ``target_s`` is the latency bound, ``percentile`` the reporting
    percentile (the ``met`` verdict checks it against the target),
    ``error_budget`` the fraction of requests allowed to miss the target
    (or fail outright), and ``window_s`` the trailing window over which
    the burn rate is computed.
    """

    tenant: str = "*"
    target_s: float = 1.0
    percentile: float = 95.0
    error_budget: float = 0.01
    window_s: float = 60.0

    def __post_init__(self) -> None:
        if self.target_s <= 0:
            raise ValueError(f"target_s must be > 0, got {self.target_s}")
        if not (0 < self.percentile <= 100):
            raise ValueError(f"percentile must be in (0, 100], got {self.percentile}")
        if not (0 < self.error_budget <= 1):
            raise ValueError(
                f"error_budget must be in (0, 1], got {self.error_budget}"
            )
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")


@dataclasses.dataclass
class SLOStatus:
    """One tenant's evaluated objective at a snapshot instant."""

    tenant: str
    policy: SLOPolicy
    #: lifetime totals
    total: int
    bad: int
    #: trailing-window figures (the burn inputs)
    window_total: int
    window_bad: int
    window_bad_fraction: float
    burn_rate: float
    #: nearest-rank percentile of window latencies at ``policy.percentile``
    percentile_latency: float
    #: lifetime budget remaining as a fraction (negative = overspent)
    budget_remaining: float
    #: the verdict: percentile under target and burn sustainable
    met: bool

    def to_dict(self) -> dict:
        """JSON-safe snapshot row."""
        return {
            "tenant": self.tenant,
            "target_s": self.policy.target_s,
            "percentile": self.policy.percentile,
            "error_budget": self.policy.error_budget,
            "window_s": self.policy.window_s,
            "total": self.total,
            "bad": self.bad,
            "window_total": self.window_total,
            "window_bad": self.window_bad,
            "window_bad_fraction": round(self.window_bad_fraction, 6),
            "burn_rate": round(self.burn_rate, 4),
            "percentile_latency_s": round(self.percentile_latency, 6),
            "budget_remaining": round(self.budget_remaining, 4),
            "met": self.met,
        }


class _TenantState:
    """Mutable per-tenant bookkeeping: lifetime counts + sample window."""

    __slots__ = ("total", "bad", "samples")

    def __init__(self) -> None:
        self.total = 0
        self.bad = 0
        #: (time, latency, good) — bounded, newest last
        self.samples: collections.deque[tuple[float, float, bool]] = (
            collections.deque(maxlen=_WINDOW_SAMPLES)
        )


class SLOTracker:
    """Incremental per-tenant SLO evaluation.

    ``policies`` maps tenant names to their objectives; ``default`` (when
    given) applies to tenants with no explicit policy.  Tenants with no
    applicable policy are still tracked (latency stats appear in the
    health report) but carry no verdict.
    """

    def __init__(
        self,
        policies: _t.Mapping[str, SLOPolicy]
        | _t.Iterable[SLOPolicy]
        | SLOPolicy
        | None = None,
        default: SLOPolicy | None = None,
    ):
        if isinstance(policies, SLOPolicy):
            policies = [policies]
        if policies is None:
            resolved: dict[str, SLOPolicy] = {}
        elif isinstance(policies, _t.Mapping):
            resolved = dict(policies)
        else:
            resolved = {p.tenant: p for p in policies}
        # a "*" policy is the default, however it was passed
        star = resolved.pop("*", None)
        self.policies = resolved
        self.default = default or star
        self._tenants: dict[str, _TenantState] = {}

    def policy_for(self, tenant: str) -> SLOPolicy | None:
        """The applicable policy (explicit, else default, else None)."""
        return self.policies.get(tenant, self.default)

    # -- feeding ---------------------------------------------------------------

    def observe(
        self, tenant: str, t: float, latency: float, failed: bool = False
    ) -> None:
        """Record one finished job: its completion time and total latency.

        ``failed`` marks a permanent failure — always budget-burning,
        whatever its latency.
        """
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState()
        policy = self.policy_for(tenant)
        good = not failed and (
            policy is None or latency <= policy.target_s
        )
        state.total += 1
        if not good:
            state.bad += 1
        state.samples.append((t, latency, good))

    # -- evaluation ------------------------------------------------------------

    def tenants(self) -> list[str]:
        """Every tenant seen so far, sorted."""
        return sorted(self._tenants)

    def status(self, tenant: str, now: float) -> SLOStatus | None:
        """The tenant's evaluated objective, or None without a policy."""
        policy = self.policy_for(tenant)
        state = self._tenants.get(tenant)
        if policy is None:
            return None
        if state is None:
            state = _TenantState()
        cutoff = now - policy.window_s
        window = [(lat, good) for (t, lat, good) in state.samples if t > cutoff]
        n_w = len(window)
        bad_w = sum(1 for _, good in window if not good)
        bad_frac = bad_w / n_w if n_w else 0.0
        burn = bad_frac / policy.error_budget
        latencies = sorted(lat for lat, _ in window)
        if latencies:
            rank = max(1, math.ceil(policy.percentile / 100.0 * len(latencies)))
            pctl = latencies[min(rank, len(latencies)) - 1]
        else:
            pctl = 0.0
        lifetime_frac = state.bad / state.total if state.total else 0.0
        return SLOStatus(
            tenant=tenant,
            policy=policy,
            total=state.total,
            bad=state.bad,
            window_total=n_w,
            window_bad=bad_w,
            window_bad_fraction=bad_frac,
            burn_rate=burn,
            percentile_latency=pctl,
            budget_remaining=1.0 - lifetime_frac / policy.error_budget,
            met=(n_w == 0) or (pctl <= policy.target_s and burn <= 1.0),
        )

    def latency_stats(self, tenant: str) -> dict:
        """Window latency summary for tenants with or without a policy."""
        state = self._tenants.get(tenant)
        if state is None or not state.samples:
            return {"n": 0}
        latencies = sorted(lat for _, lat, _ in state.samples)
        n = len(latencies)

        def pct(p: float) -> float:
            return latencies[min(n, max(1, math.ceil(p / 100.0 * n))) - 1]

        return {
            "n": n,
            "mean_s": sum(latencies) / n,
            "p50_s": pct(50),
            "p95_s": pct(95),
            "p99_s": pct(99),
            "max_s": latencies[-1],
        }


@dataclasses.dataclass
class HealthReport:
    """One instant's cluster health snapshot.

    Produced by :meth:`ClusterScheduler.health_report`; read by the
    serving benchmark (``BENCH_serving.json``'s ``critpath.health``).
    ``healthy`` is the conjunction: every evaluated tenant objective met
    and no node quarantined.
    """

    time: float
    healthy: bool
    queue_depth: int
    unhealthy_nodes: list[str]
    #: tenant -> SLOStatus (only tenants with an applicable policy)
    slo: dict[str, SLOStatus]
    #: tenant -> window latency summary (every tenant seen)
    latency: dict[str, dict]
    #: scheduler latency histogram summaries when tracing recorded them
    histograms: dict[str, dict] = dataclasses.field(default_factory=dict)

    @property
    def worst_burn_rate(self) -> float:
        """The highest tenant burn rate (0.0 with no evaluated tenants)."""
        return max((s.burn_rate for s in self.slo.values()), default=0.0)

    def to_dict(self) -> dict:
        """JSON-safe snapshot (the shape embedded in bench payloads)."""
        return {
            "time": self.time,
            "healthy": self.healthy,
            "queue_depth": self.queue_depth,
            "unhealthy_nodes": list(self.unhealthy_nodes),
            "worst_burn_rate": round(self.worst_burn_rate, 4),
            "slo": {t: s.to_dict() for t, s in sorted(self.slo.items())},
            "latency": {
                t: {
                    k: (round(v, 6) if isinstance(v, float) else v)
                    for k, v in stats.items()
                }
                for t, stats in sorted(self.latency.items())
            },
            "histograms": self.histograms,
        }


def build_health_report(
    tracker: SLOTracker,
    now: float,
    queue_depth: int,
    unhealthy_nodes: _t.Iterable[str],
    obs: "Observability | None" = None,
) -> HealthReport:
    """Assemble a :class:`HealthReport` from a tracker plus scheduler state.

    ``obs`` (when given) contributes the ``sched.latency.*`` histogram
    summaries recorded under tracing — absent in untraced runs, which is
    exactly why the tracker keeps its own windows.
    """
    slo: dict[str, SLOStatus] = {}
    latency: dict[str, dict] = {}
    for tenant in tracker.tenants():
        status = tracker.status(tenant, now)
        if status is not None:
            slo[tenant] = status
        latency[tenant] = tracker.latency_stats(tenant)
    unhealthy = sorted(unhealthy_nodes)
    histograms: dict[str, dict] = {}
    if obs is not None:
        for name, hist in obs.metrics.histograms.items():
            if name.startswith("sched.latency.") and hist.count:
                histograms[name] = hist.summary()
    return HealthReport(
        time=now,
        healthy=all(s.met for s in slo.values()) and not unhealthy,
        queue_depth=queue_depth,
        unhealthy_nodes=unhealthy,
        slo=slo,
        latency=latency,
        histograms=histograms,
    )
