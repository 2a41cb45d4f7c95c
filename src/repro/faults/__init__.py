"""repro.faults: deterministic, seedable fault injection (Section VI).

The paper defers fault tolerance to future work; this package supplies
the other half of that work — a way to *produce* faults on demand so the
retry/failover/recompute machinery in the rest of the tree can be
exercised deterministically:

* :class:`FaultPlan` / :class:`FaultRule` — declarative, site-scoped
  rules (probability, count, one-shot, sim-time window, context match),
* :class:`FaultInjector` — the runtime evaluator hooks consult; installed
  on a simulator via :meth:`repro.sim.kernel.Simulator.install_faults`
  or handed to the real engine via ``LocalMapReduce(faults=...)``,
* :func:`standard_plan` / :func:`standard_engine_plan` — the chaos-gate
  plans ``tools/chaos_soak.py`` runs the benchmark apps under.
"""

from repro.faults.injector import FaultInjector, Injection
from repro.faults.plan import (
    ACTIONS,
    FaultPlan,
    FaultRule,
    distributed_chaos_plan,
    recovery_chaos_plan,
    tier_chaos_plan,
    standard_engine_plan,
    standard_plan,
)

__all__ = [
    "ACTIONS",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "Injection",
    "standard_plan",
    "standard_engine_plan",
    "distributed_chaos_plan",
    "recovery_chaos_plan",
    "tier_chaos_plan",
]
