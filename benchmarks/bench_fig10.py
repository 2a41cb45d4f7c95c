"""Fig 10: speedups of the MM + String-Match multi-application pair.

"In contrary, the speedups of the MM/SM, which represents less
data-intensive applications, are both averagely 2X speedup."  The runs
and paper bands are ``fig10`` in :mod:`repro.analysis.figures`.
"""

from benchmarks.conftest import run_figure


def bench_fig10_mm_stringmatch(benchmark):
    run_figure(benchmark, "fig10")
