"""Unit tests for the analysis metrics and report rendering."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import Series, speedup
from repro.analysis.report import banner, fmt_cell, render_table


def test_speedup_basic():
    assert speedup(10.0, 5.0) == 2.0
    assert speedup(None, 5.0) is None
    assert speedup(10.0, None) is None
    with pytest.raises(ValueError):
        speedup(10.0, 0.0)


def test_series_validation_and_accessors():
    s = Series("x", [1, 2, 3], [1.0, None, 3.0])
    assert s.defined() == [(1, 1.0), (3, 3.0)]
    with pytest.raises(ValueError):
        Series("bad", [1], [1.0, 2.0])


def test_series_monotonicity():
    assert Series("m", [1, 2, 3], [1.0, 2.0, 2.0]).is_monotone_increasing()
    assert not Series("m", [1, 2, 3], [2.0, 1.0, 3.0]).is_monotone_increasing()
    assert Series("m", [1, 2, 3], [1.0, None, 2.0]).is_monotone_increasing()


def test_linearity_ratio_linear():
    s = Series("lin", [1, 2, 4], [10.0, 20.0, 40.0])
    assert s.linearity_ratio() == pytest.approx(1.0)


def test_linearity_ratio_superlinear():
    s = Series("sup", [1, 2, 4], [10.0, 30.0, 120.0])
    assert s.linearity_ratio() == pytest.approx(3.0)


def test_linearity_ratio_undefined_cases():
    assert Series("e", [1], [5.0]).linearity_ratio() is None
    assert Series("n", [1, 2], [None, None]).linearity_ratio() is None


def test_fmt_cell():
    assert fmt_cell(None) == "n/s"
    assert fmt_cell(2.345) == "2.35"
    assert fmt_cell(23.46) == "23.5"
    assert fmt_cell(234.7) == "235"
    assert fmt_cell("abc") == "abc"
    assert fmt_cell(7) == "7"


def test_render_table_alignment():
    out = render_table(["a", "bbbb"], [[1, 2.5], [10, None]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "n/s" in lines[-1]
    # columns align: header and rows have equal width
    assert len(lines[1]) == len(lines[3])


def test_banner():
    b = banner("hello", width=10)
    assert "hello" in b
    assert "=" * 10 in b
