"""Fault plans: declarative, seedable descriptions of what breaks where.

A :class:`FaultPlan` is a list of :class:`FaultRule` site-scoped rules.
Each rule names an injection *site* (a dotted name such as ``disk.read``
or ``fam.result``; ``fnmatch`` globs like ``nfs.*`` match families), an
*action* (what the hook does when the rule fires), and scoping knobs:

* ``probability`` — chance a matching event fires (drawn from the rule's
  own deterministic stream, so two runs with the same plan seed and the
  same event sequence inject identically);
* ``count`` — total injections before the rule burns out (``None`` =
  unlimited; ``count=1`` is a one-shot);
* ``after`` — skip the first N matching events (lets a rule target "the
  third spill write" without touching the first two);
* ``window`` — ``(t0, t1)`` half-open interval on the injector's clock
  (simulated seconds on a simulator-bound injector); outside it the rule
  is dormant;
* ``where`` — equality constraints against the hook's context kwargs
  (``where={"module": "wordcount"}`` scopes a rule to one module,
  ``where={"index": 0}`` to one pool task).

Actions are interpreted by the hook that owns the site:

========  ==========================================================
action    meaning at the hook
========  ==========================================================
fail      raise the site's native transient exception
drop      swallow the effect (lose an inotify event, a network
          delivery, a smartFAM result record, an NFS reply)
delay     add ``delay`` seconds before the effect lands
corrupt   flip bytes in the payload (spill blocks)
kill      terminate the worker process holding the task (pool only)
========  ==========================================================

Every injection site in the tree:

========================  ============================================
site                      hook
========================  ============================================
``disk.read``/``.write``  :class:`repro.hardware.disk.DiskModel`
``nfs.call``              :class:`repro.fs.nfs.NFSClient` (ctx: op)
``inotify.deliver``       :class:`repro.fs.inotify.InotifyManager`
``net.deliver``           :class:`repro.net.fabric.Fabric` (src, dst)
``fam.dispatch``          SD daemon event loop (ctx: module)
``fam.module``            SD daemon module run (ctx: module)
``fam.result``            SD daemon result write (ctx: module)
``pool.worker``           :class:`repro.exec.pool.WorkerPool` (index,
                          attempt; decided parent-side at submission)
``spill.write``           :func:`repro.exec.outofcore.write_run` (run)
``spill.read``            :func:`repro.exec.outofcore.iter_run` (run)
``shuffle.exchange``      :class:`repro.core.distributed.DistributedEngine`
                          partition transfer (src, dst, partition,
                          nbytes); fail/drop cost one bounded in-place
                          retry, delay adds wire latency
``shuffle.artifact``      :mod:`repro.smartfam.distmod` durable shuffle
                          frames (node, op, shard, partition, path);
                          *corrupt* on ``op="write"`` flips framed bytes
                          on disk (caught later by the reader's crc),
                          fail/drop/corrupt on ``op="read"`` raise
                          :class:`~repro.errors.ShuffleArtifactError`
                          (partial rebuild of just that artifact),
                          delay stalls the read
``heartbeat.drop``        SD daemon heartbeat loop (node); drop/fail
                          swallow one ping (the detector's phi rises),
                          delay postpones it
``tier.read``             burst-buffer hit path — sim
                          :class:`repro.tier.burst.BurstBuffer` (path,
                          blocks) and real
                          :class:`repro.tier.store.TieredStore` (key,
                          level).  fail/drop degrade the hit to a disk
                          read / recompute (entry invalidated),
                          *corrupt* flips returned bytes (caught by the
                          spill crc upstream), delay stalls the hit
``tier.writeback``        background drain of dirty tier blocks (key,
                          bytes); fail/drop cost bounded retries, then
                          the entry is *lost* — a later read degrades
                          to re-read/recompute, never wrong bytes
``tier.evict``            capacity eviction (key); fail/drop wedge the
                          eviction (``tier.evict.stuck``) so the tier
                          runs over budget rather than losing data
========================  ============================================
"""

from __future__ import annotations

import dataclasses
import fnmatch
import typing as _t

from repro.errors import ConfigError

__all__ = [
    "ACTIONS",
    "FaultRule",
    "FaultPlan",
    "standard_plan",
    "standard_engine_plan",
    "distributed_chaos_plan",
    "recovery_chaos_plan",
    "tier_chaos_plan",
]

ACTIONS = ("fail", "drop", "delay", "corrupt", "kill")


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One site-scoped fault: where, what, how often, and when."""

    site: str
    action: str = "fail"
    probability: float = 1.0
    count: int | None = None
    after: int = 0
    window: tuple[float, float] | None = None
    delay: float = 0.0
    where: _t.Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        if not self.site:
            raise ConfigError("fault rule needs a site pattern")
        if self.action not in ACTIONS:
            raise ConfigError(
                f"unknown fault action {self.action!r} (have: {', '.join(ACTIONS)})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must be in [0, 1], got {self.probability}")
        if self.count is not None and self.count < 1:
            raise ConfigError(f"count must be >= 1 or None, got {self.count}")
        if self.after < 0:
            raise ConfigError(f"after must be >= 0, got {self.after}")
        if self.delay < 0:
            raise ConfigError(f"delay must be >= 0, got {self.delay}")
        if self.window is not None and self.window[1] < self.window[0]:
            raise ConfigError(f"empty fault window {self.window}")

    def matches_site(self, site: str) -> bool:
        """Whether this rule covers ``site`` (exact or glob)."""
        if self.site == site:
            return True
        return fnmatch.fnmatchcase(site, self.site)

    def matches_ctx(self, ctx: _t.Mapping[str, object]) -> bool:
        """Whether the hook context satisfies the ``where`` constraints."""
        if not self.where:
            return True
        return all(ctx.get(k) == v for k, v in self.where.items())


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seedable set of fault rules, ready to install on an injector."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def __iter__(self) -> _t.Iterator[FaultRule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def sites(self) -> list[str]:
        """The distinct site patterns this plan touches."""
        seen: dict[str, None] = {}
        for rule in self.rules:
            seen.setdefault(rule.site, None)
        return list(seen)


def standard_plan(seed: int = 0) -> FaultPlan:
    """The chaos-gate plan for the *simulated* cluster.

    One bounded fault at every fragile boundary the paper's deployment
    crosses: a dropped SD-side inotify event, a crashed module run, a
    daemon death after the module ran but before the result record was
    persisted, a failed NFS round trip, a lost network delivery, and a
    transient disk error.  Every count is finite, so a correctly hardened
    stack absorbs the whole plan with bounded retries and byte-identical
    output.
    """
    return FaultPlan(
        rules=(
            FaultRule("inotify.deliver", action="drop", count=1),
            FaultRule("fam.module", action="fail", count=1),
            FaultRule("fam.result", action="drop", count=1),
            FaultRule("nfs.call", action="fail", count=2, after=4),
            FaultRule("net.deliver", action="drop", count=1, after=8),
            FaultRule("disk.read", action="fail", count=1, after=2),
        ),
        seed=seed,
    )


def standard_engine_plan(seed: int = 0) -> FaultPlan:
    """The chaos-gate plan for the *real-machine* engine.

    Scoped by task/run index so the injection history is reproducible even
    though worker completion order is not: a killed worker process (the
    pool must respawn and re-dispatch), a worker-side task failure, and a
    corrupted spill run (the merge must detect the bad crc and recompute
    the fragment).
    """
    return FaultPlan(
        rules=(
            FaultRule("pool.worker", action="kill", count=1, where={"index": 0}),
            FaultRule("pool.worker", action="fail", count=1, where={"index": 1}),
            FaultRule("spill.write", action="corrupt", count=1, where={"run": 0}),
            FaultRule("spill.read", action="fail", count=1, where={"run": 1}),
        ),
        seed=seed,
    )


def distributed_chaos_plan(seed: int = 0) -> FaultPlan:
    """The chaos plan for the cross-node shuffle (``shuffle.exchange``).

    A failed exchange transfer (absorbed by the engine's bounded in-place
    retry), a dropped payload that paid the wire cost before vanishing
    (ditto, one attempt later), and a delayed leg (pure latency, no
    failure).  A hardened distributed engine absorbs the whole plan
    without a job restart and with byte-identical output.
    """
    return FaultPlan(
        rules=(
            FaultRule("shuffle.exchange", action="fail", count=1),
            FaultRule("shuffle.exchange", action="drop", count=1, after=1),
            FaultRule("shuffle.exchange", action="delay", count=1, after=2,
                      delay=0.05),
        ),
        seed=seed,
    )


def recovery_chaos_plan(seed: int = 0) -> FaultPlan:
    """The chaos plan for fine-grained recovery (``shuffle.artifact``).

    One shuffle artifact corrupted *as it is written* — the frame's crc
    no longer matches, so the damage is persistent on disk and escapes
    the channel-level retry.  A hardened engine detects it at read time
    (:class:`~repro.errors.ShuffleArtifactError`), invalidates exactly
    that artifact in the job's manifest, and re-derives it via a
    partial restart: byte-identical output, and the job never fails.
    """
    return FaultPlan(
        rules=(
            FaultRule(
                "shuffle.artifact", action="corrupt", count=1,
                where={"op": "write"},
            ),
        ),
        seed=seed,
    )


def tier_chaos_plan(seed: int = 0) -> FaultPlan:
    """The chaos plan for the burst-buffer tier (``tier.*`` sites).

    The write-back killer: dirty entries whose background drain is
    dropped until retries exhaust (the entry is *lost* — a warm read
    must degrade to recompute), a degraded read (fail → treat as miss),
    a corrupted read (crc upstream must catch it and invalidate), and a
    wedged eviction (the tier must run over budget, not lose data).  A
    hardened engine absorbs all of it with byte-identical output and
    zero leaked tier files — the tier trades time, never answers.
    """
    return FaultPlan(
        rules=(
            # probability 1 + retries exhausted = guaranteed lost entries
            FaultRule("tier.writeback", action="drop", count=9),
            FaultRule("tier.read", action="fail", count=1, after=1),
            FaultRule("tier.read", action="corrupt", count=1, after=3),
            FaultRule("tier.evict", action="drop", count=1),
        ),
        seed=seed,
    )
