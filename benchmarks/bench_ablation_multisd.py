"""Ablation: parallelism across multiple McSD nodes (Section VI #2).

"Perhaps the most exciting future work lies in exploring ... the
parallelisms among multiple McSD smart disks."  A 2 GB Word Count is
sharded across 1, 2 and 4 smart-storage nodes and scatter-gathered;
expect near-linear scaling.  The runs and bands are ``multisd`` in
:mod:`repro.analysis.figures`.
"""

from benchmarks.conftest import run_figure


def bench_multi_mcsd_scaling(benchmark):
    run_figure(benchmark, "multisd")
