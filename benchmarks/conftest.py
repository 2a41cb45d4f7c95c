"""Shared machinery for the evaluation benchmarks.

``bench_figures.py`` regenerates every figure of
:mod:`repro.analysis.figures`, one bench each.  ``pytest benchmarks/
--benchmark-only`` runs them all; the pytest-benchmark wall-clock numbers
measure the *simulator's* real cost, while the printed simulated seconds
carry the reproduction.
"""

from __future__ import annotations

import typing as _t

import pytest


def once(benchmark, fn: _t.Callable[[], object]) -> object:
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic sweeps — repeating them only wastes
    wall-clock, so every bench uses a single round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(autouse=True)
def _print_spacer(capsys):
    """Keep bench output readable: flush a newline before each bench."""
    print()
    yield
