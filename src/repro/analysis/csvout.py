"""CSV export of experiment series (for external plotting).

``tools/run_experiments.py --csv=results`` drops one file per figure table
so the curves can be re-plotted with any tool; cells that the paper
reports as unsupported are empty.
"""

from __future__ import annotations

import csv
import os
import typing as _t

from repro.analysis.metrics import Series

__all__ = ["write_series_csv"]


def write_series_csv(
    path: str,
    series: _t.Sequence[Series],
    x_labels: _t.Sequence[str],
    x_header: str = "size",
) -> str:
    """Write figure series as columns; returns the path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([x_header] + [s.label for s in series])
        for i, xl in enumerate(x_labels):
            row: list[object] = [xl]
            for s in series:
                y = s.ys[i] if i < len(s.ys) else None
                row.append("" if y is None else f"{y:.6g}")
            writer.writerow(row)
    return path

