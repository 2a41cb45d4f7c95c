"""Fig 9: speedups of the MM + Word-Count multi-application pair.

"We defined the performance speedup to be the ratio of the elapsed time
without the optimization technique to that with the McSD technique."
McSD against (a) Host Node Only, (b) Traditional SD, (c) McSD without
Partition, plus the caption's host-with-partition variant.  The runs and
paper bands are ``fig9`` in :mod:`repro.analysis.figures`.
"""

from benchmarks.conftest import run_figure


def bench_fig9_mm_wordcount(benchmark):
    run_figure(benchmark, "fig9")
