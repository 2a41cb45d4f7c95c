"""Tests for CSV export and the ASCII chart renderer."""

from __future__ import annotations

import csv

from repro.analysis import (
    Series,
    render_ascii_chart,
    write_series_csv,
)


def test_write_series_csv_roundtrip(tmp_path):
    s1 = Series("trad", [500, 1000], [15.0, 86.0])
    s2 = Series("part", [500, 1000], [15.5, None])
    path = write_series_csv(str(tmp_path / "fig.csv"), [s1, s2], ["500M", "1G"])
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["size", "trad", "part"]
    assert rows[1] == ["500M", "15", "15.5"]
    assert rows[2] == ["1G", "86", ""]  # unsupported cell -> empty


def test_write_creates_directories(tmp_path):
    s = Series("y", [1], [2.0])
    path = write_series_csv(str(tmp_path / "deep" / "dir" / "t.csv"), [s], ["1"])
    assert path.endswith("t.csv")
    with open(path) as f:
        assert f.readline().strip() == "size,y"


def test_ascii_chart_contains_all_series_glyphs():
    s1 = Series("up", [1, 2, 3], [1.0, 2.0, 3.0])
    s2 = Series("flat", [1, 2, 3], [1.0, 1.0, 1.0])
    chart = render_ascii_chart([s1, s2], width=30, height=8, y_label="y")
    assert "o=up" in chart and "*=flat" in chart
    assert "[y]" in chart
    assert chart.count("\n") >= 8


def test_ascii_chart_skips_undefined_points():
    s = Series("partial", [1, 2, 3], [1.0, None, 3.0])
    chart = render_ascii_chart([s], width=20, height=6)
    # two defined points => exactly two glyphs on the grid (legend excluded)
    grid_lines = [l for l in chart.splitlines() if "|" in l]
    assert sum(line.count("o") for line in grid_lines) == 2


def test_ascii_chart_empty_series():
    assert render_ascii_chart([Series("none", [1], [None])]) == "(no data)"


def test_ascii_chart_degenerate_single_point():
    chart = render_ascii_chart([Series("dot", [5], [7.0])], width=10, height=4)
    assert "o" in chart
