"""Tests for worker-pool crash tolerance: kill, fail, retry exhaustion."""

from __future__ import annotations

import pytest

from repro.errors import WorkerCrashError, is_retryable
from repro.exec import WorkerPool
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.obs import Observability


def _square(x):
    # module-level: crosses the multiprocessing pickle boundary
    return x * x


def _bad_map(x):
    raise ValueError(f"deterministic bug on {x}")


def _pool(*rules, seed=0, obs=None):
    inj = FaultInjector(FaultPlan(rules=tuple(rules), seed=seed), obs=obs)
    return WorkerPool(2, start_method="fork", faults=inj, obs=obs)


def test_killed_worker_is_respawned_and_task_redispatched():
    with _pool(
        FaultRule("pool.worker", action="kill", count=1, where={"index": 0})
    ) as pool:
        results = sorted(pool.imap_unordered(_square, list(range(6))))
    assert results == [x * x for x in range(6)]
    assert pool.respawns >= 1
    assert pool.redispatches >= 1
    assert pool.faults.fired_by_site() == {"pool.worker": 1}


def test_injected_task_failure_is_retried_without_respawn():
    obs = Observability(enabled=False)
    with _pool(
        FaultRule("pool.worker", action="fail", count=1, where={"index": 2}),
        obs=obs,
    ) as pool:
        results = sorted(pool.imap_unordered(_square, list(range(6))))
    assert results == [x * x for x in range(6)]
    assert pool.respawns == 0  # the worker raised; it did not die
    assert pool.redispatches == 1
    counters = obs.metrics.snapshot()["counters"]
    assert counters["retry.pool"] == 1
    assert counters["retry.count"] == 1


def test_exhausted_retries_raise_permanent_worker_crash():
    # the rule never burns out (10 > RETRIES + 1 dispatches), so task 0
    # fails on every dispatch
    with _pool(
        FaultRule("pool.worker", action="fail", count=10, where={"index": 0}),
    ) as pool:
        with pytest.raises(WorkerCrashError) as err:
            list(pool.imap_unordered(_square, list(range(4))))
    assert err.value.task_index == 0
    assert not is_retryable(err.value)  # exhaustion is stamped permanent


def test_permanent_task_error_propagates_immediately():
    with WorkerPool(2, start_method="fork") as pool:
        with pytest.raises(ValueError, match="deterministic bug"):
            list(pool.imap_unordered(_bad_map, [1, 2, 3]))
    assert pool.redispatches == 0  # retrying a deterministic bug is futile


def test_attempt_number_is_visible_to_rules():
    # scope a rule to {index, attempt}: it fires on the retry, not the
    # first dispatch — proving attempts thread through injection ctx
    with _pool(
        FaultRule("pool.worker", action="fail", count=1, where={"index": 1}),
        FaultRule(
            "pool.worker", action="fail", count=1,
            where={"index": 1, "attempt": 1},
        ),
    ) as pool:
        results = sorted(pool.imap_unordered(_square, list(range(3))))
    assert results == [0, 1, 4]
    assert pool.redispatches == 2  # first dispatch + scoped retry both failed


def test_pool_survives_kill_across_jobs():
    with _pool(
        FaultRule("pool.worker", action="kill", count=1, where={"index": 0})
    ) as pool:
        first = sorted(pool.imap_unordered(_square, list(range(4))))
        second = sorted(pool.imap_unordered(_square, list(range(4))))
    assert first == second == [0, 1, 4, 9]
    assert pool.respawns == 1  # only the first job saw the kill
