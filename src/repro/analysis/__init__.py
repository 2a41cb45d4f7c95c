"""Result assembly and rendering for the evaluation harness."""

from repro.analysis.metrics import Series, speedup
from repro.analysis.csvout import write_series_csv
from repro.analysis.report import (
    banner,
    render_ascii_chart,
    render_table,
)

__all__ = [
    "speedup",
    "Series",
    "render_table",
    "render_ascii_chart",
    "banner",
    "write_series_csv",
]
