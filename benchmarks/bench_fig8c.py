"""Fig 8(c): String Match elapsed-time growth curves on Duo and Quad.

Same sweep as Fig 8(b) for the lighter, map-only String Match, whose
traditional curve bends later and less violently — the paper's point (2):
"for the applications that are not very data-intensive, the Partition
model can only enhance their supportability of data-size range."  The
runs and paper bands are ``fig8c`` in :mod:`repro.analysis.figures`.
"""

from benchmarks.conftest import run_figure


def bench_fig8c_stringmatch_growth(benchmark):
    run_figure(benchmark, "fig8c")
