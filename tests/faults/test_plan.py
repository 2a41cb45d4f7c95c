"""Tests for fault plans: rule validation, scoping, standard plans."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    FaultRule,
    distributed_chaos_plan,
    standard_engine_plan,
    standard_plan,
)


# -- rule validation ---------------------------------------------------------


def test_rule_defaults_are_valid():
    rule = FaultRule("disk.read")
    assert rule.action == "fail"
    assert rule.probability == 1.0
    assert rule.count is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"site": ""},
        {"site": "x", "action": "explode"},
        {"site": "x", "probability": -0.1},
        {"site": "x", "probability": 1.5},
        {"site": "x", "count": 0},
        {"site": "x", "after": -1},
        {"site": "x", "delay": -0.5},
        {"site": "x", "window": (5.0, 1.0)},
    ],
)
def test_rule_rejects_bad_fields(kwargs):
    with pytest.raises(ConfigError):
        FaultRule(**kwargs)


# -- scoping -----------------------------------------------------------------


def test_site_matching_exact_and_glob():
    assert FaultRule("disk.read").matches_site("disk.read")
    assert not FaultRule("disk.read").matches_site("disk.write")
    assert FaultRule("disk.*").matches_site("disk.write")
    assert FaultRule("*").matches_site("anything.at.all")
    assert not FaultRule("nfs.*").matches_site("net.deliver")


def test_ctx_matching_is_equality_on_where():
    rule = FaultRule("pool.worker", where={"index": 3})
    assert rule.matches_ctx({"index": 3, "attempt": 0})
    assert not rule.matches_ctx({"index": 4})
    assert not rule.matches_ctx({})  # missing key != constraint value
    assert FaultRule("pool.worker").matches_ctx({})  # no where: always


# -- plans -------------------------------------------------------------------


def test_plan_iterates_and_reports_sites():
    plan = FaultPlan(
        rules=(
            FaultRule("a.x"),
            FaultRule("a.x", action="drop"),
            FaultRule("b.y"),
        ),
        seed=9,
    )
    assert len(plan) == 3
    assert [r.site for r in plan] == ["a.x", "a.x", "b.y"]
    assert plan.sites() == ["a.x", "b.y"]


@pytest.mark.parametrize(
    "factory", [standard_plan, standard_engine_plan, distributed_chaos_plan]
)
def test_standard_plans_are_finite(factory):
    plan = factory(seed=3)
    assert len(plan) > 0
    assert plan.seed == 3
    # the chaos gate relies on every rule burning out: all counts finite
    assert all(rule.count is not None for rule in plan)


def test_distributed_plan_fits_in_the_transfer_retry_budget():
    # fail + drop + delay on consecutive exchange events: exactly what
    # one transfer's bounded in-place retry (2 retries = 3 attempts,
    # the engine's) absorbs without a recovery pass
    plan = distributed_chaos_plan()
    assert [r.site for r in plan] == ["shuffle.exchange"] * 3
    assert [r.action for r in plan] == ["fail", "drop", "delay"]
    assert [r.after for r in plan] == [0, 1, 2]
    assert sum(1 for r in plan if r.action in ("fail", "drop")) <= 2
