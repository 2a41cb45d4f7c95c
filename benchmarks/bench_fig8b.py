"""Fig 8(b): Word Count elapsed-time growth curves on Duo and Quad.

"Fig. 8(b) draws the growth curves of elapsed time on duo-core and
quad-core machines.  The data size is scaling from 500MB to 2GB."  The
traditional runtime's cells beyond 1.5G print as ``n/s`` (memory
overflow).  The runs and paper bands are ``fig8b`` in
:mod:`repro.analysis.figures`.
"""

from benchmarks.conftest import run_figure


def bench_fig8b_wordcount_growth(benchmark):
    run_figure(benchmark, "fig8b")
