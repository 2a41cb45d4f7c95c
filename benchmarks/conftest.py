"""Shared machinery for the evaluation benchmarks.

Each ``bench_figX.py`` regenerates one table/figure of the paper: it runs
the figure's sweep from :mod:`repro.analysis.figures`, prints the rows
EXPERIMENTS.md records plus one row per paper-band check, and fails if a
check row failed.  ``pytest benchmarks/ --benchmark-only`` runs them all;
the pytest-benchmark wall-clock numbers measure the *simulator's* real
cost, while the printed simulated seconds carry the reproduction.
"""

from __future__ import annotations

import typing as _t

import pytest

from benchmarks.checks import failed, print_rows
from repro.analysis import figures


def once(benchmark, fn: _t.Callable[[], object]) -> object:
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic sweeps — repeating them only wastes
    wall-clock, so every bench uses a single round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_figure(benchmark, name: str) -> None:
    """Simulate one figure once, print its tables and check rows, and
    fail if any row failed."""
    results = once(benchmark, lambda: figures.sweep([name]))
    print(figures.render_text(name, results))
    rows = figures.checks(results)
    print_rows(rows)
    assert not failed(rows), failed(rows)


@pytest.fixture(autouse=True)
def _print_spacer(capsys):
    """Keep bench output readable: flush a newline before each bench."""
    print()
    yield
