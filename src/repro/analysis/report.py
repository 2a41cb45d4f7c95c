"""Plain-text rendering of tables and figure series for the bench harness.

Every benchmark prints the same rows/series the paper's table or figure
reports, so ``pytest benchmarks/ --benchmark-only`` output can be read
side-by-side with the paper.
"""

from __future__ import annotations

import typing as _t

from repro.analysis.metrics import Series

__all__ = ["render_table", "render_ascii_chart", "banner", "fmt_cell"]


def fmt_cell(value: object) -> str:
    """Human cell formatting: floats to 2-3 significant places, None = 'n/s'."""
    if value is None:
        return "n/s"  # not supported (the paper's memory-overflow cells)
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def render_table(
    headers: _t.Sequence[str],
    rows: _t.Sequence[_t.Sequence[object]],
    title: str = "",
) -> str:
    """A fixed-width text table."""
    cells = [[fmt_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(parts: _t.Sequence[str]) -> str:
        return "  ".join(p.rjust(w) for p, w in zip(parts, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    for row in cells:
        out.append(line(row))
    return "\n".join(out)


def banner(text: str, width: int = 72) -> str:
    """A section banner for bench output."""
    bar = "=" * width
    return f"\n{bar}\n{text}\n{bar}"


def render_ascii_chart(
    series: _t.Sequence[Series],
    width: int = 56,
    height: int = 12,
    y_label: str = "",
) -> str:
    """Plot series as an ASCII scatter/line chart (one glyph per series).

    Gives bench output and the CLI a visual read of the growth curves
    without any plotting dependency.  Undefined points (``None`` — the
    paper's "not supported" cells) simply do not appear.
    """
    glyphs = "o*x+#@%&"
    pts = [(s, [(x, y) for x, y in s.defined()]) for s in series]
    all_pts = [p for _, ps in pts for p in ps]
    if not all_pts:
        return "(no data)"
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    grid = [[" "] * width for _ in range(height)]
    for si, (s, ps) in enumerate(pts):
        g = glyphs[si % len(glyphs)]
        for x, y in ps:
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = height - 1 - int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[row][col] = g
    lines = []
    for i, row in enumerate(grid):
        label = f"{y_hi:8.1f} |" if i == 0 else ("     0.0 |" if i == height - 1 else "         |")
        lines.append(label + "".join(row))
    lines.append("         +" + "-" * width)
    lines.append(f"          {x_lo:<10.0f}{'':^{max(0, width - 20)}}{x_hi:>10.0f}")
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={s.label}" for i, s in enumerate(series)
    )
    header = f"  [{y_label}]" if y_label else ""
    return header + "\n" + "\n".join(lines) + "\n  " + legend
