"""Every figure in :mod:`repro.analysis.figures`, one bench each.

The paper's Fig 8(a)–Fig 10 and the ablations (multi-McSD, interconnect,
fragment size, paging calibration, smartFAM overhead, SMB interference):
each bench simulates one figure once, prints the rows EXPERIMENTS.md
records plus one row per band check, and fails if a check row failed.
"""

from __future__ import annotations

import pytest

from benchmarks.checks import failed, print_rows
from benchmarks.conftest import once
from repro.analysis import figures


@pytest.mark.parametrize("name", list(figures.FIGURES))
def bench_figure(benchmark, name):
    results = once(benchmark, lambda: figures.sweep([name]))
    print(figures.render_text(name, results))
    rows = figures.checks(results)
    print_rows(rows)
    assert not failed(rows), failed(rows)
