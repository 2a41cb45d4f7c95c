"""Speedup computation and series assembly.

The paper "defined the performance speedup to be the ratio of the elapsed
time without the optimization technique to that with the McSD technique"
(Section V-C) — i.e. ``speedup = t_baseline / t_optimized``; larger is
better and 1.0 means parity.
"""

from __future__ import annotations

import dataclasses

__all__ = ["speedup", "Series"]


def speedup(t_baseline: float | None, t_optimized: float | None) -> float | None:
    """t_baseline / t_optimized; None if either side is unsupported (OOM)."""
    if t_baseline is None or t_optimized is None:
        return None
    if t_optimized <= 0:
        raise ValueError(f"non-positive optimized time {t_optimized}")
    return t_baseline / t_optimized


@dataclasses.dataclass
class Series:
    """One plotted line: label + (x, y) points; y may be None (unsupported)."""

    label: str
    xs: list[float]
    ys: list[float | None]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must align")

    def defined(self) -> list[tuple[float, float]]:
        """Points where the system actually ran."""
        return [(x, y) for x, y in zip(self.xs, self.ys) if y is not None]

    def is_monotone_increasing(self, tol: float = 1e-9) -> bool:
        """True if defined values never decrease (growth-curve check)."""
        vals = [y for y in self.ys if y is not None]
        return all(b >= a - tol for a, b in zip(vals, vals[1:]))

    def linearity_ratio(self) -> float | None:
        """max over defined points of y / (slope-from-first-point * x).

        ~1.0 means linear growth through the first point; >> 1 means
        superlinear (the thrash signature on the Fig 8(b) curves).
        """
        pts = [(x, y) for x, y in self.defined() if x > 0 and y > 0]
        if len(pts) < 2:
            return None
        x0, y0 = pts[0]
        slope = y0 / x0
        return max(y / (slope * x) for x, y in pts)

