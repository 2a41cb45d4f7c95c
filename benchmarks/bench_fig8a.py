"""Fig 8(a): single-application speedups of partition-enabled Phoenix.

"Fig. 8(a) depicts speedups of partition-enabled Phoenix vs original
Phoenix and the sequential approach on both duo-core and quad-core
machines.  The data size is scaling from 500MB to 1.25GB."  The runs and
paper bands are ``fig8a`` in :mod:`repro.analysis.figures`.
"""

from benchmarks.conftest import run_figure


def bench_fig8a_speedups(benchmark):
    run_figure(benchmark, "fig8a")
