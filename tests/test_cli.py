"""Tests for the `python -m repro` experiment CLI."""

from __future__ import annotations

import pytest

import repro.__main__ as cli
from repro.__main__ import main


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "TABLE I" in out
    assert "Intel Core2 Quad Q9400" in out
    assert out.count("Celeron") == 3


def test_single_command(capsys):
    assert main(["single", "wordcount", "300", "--platform", "duo"]) == 0
    out = capsys.readouterr().out
    assert "wordcount 300MB on duo" in out
    assert "fragments" in out


def test_single_oom_reported(capsys):
    assert main(["single", "wordcount", "1750", "--approach", "parallel"]) == 0
    out = capsys.readouterr().out
    assert "not supported" in out


def test_pair_command(capsys):
    assert main(["pair", "mcsd", "stringmatch", "500"]) == 0
    out = capsys.readouterr().out
    assert "makespan" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_bad_choice_rejected():
    with pytest.raises(SystemExit):
        main(["single", "sorting", "100"])


def test_figure_command_prints_the_experiments_rows(capsys):
    assert main(["fig10"]) == 0
    out = capsys.readouterr().out

    def cells(label):
        line = next(ln for ln in out.splitlines() if ln.strip().startswith(label))
        return line.split()[-4:]

    # the same cells as EXPERIMENTS.md's Fig 10 table, host-with-partition included
    assert cells("(+) Host with Partition") == ["1.24", "1.35", "1.22", "1.22"]
    assert cells("McSD makespan (s)") == ["10.9", "10.9", "14.0", "17.5"]
    assert "Measured vs paper" in out


def test_ablation_command_prints_its_rows(capsys):
    assert main(["network"]) == 0
    out = capsys.readouterr().out

    def cells(label):
        line = next(ln for ln in out.splitlines() if ln.strip().startswith(label))
        return line.split()[-3:]

    # EXPERIMENTS.md's interconnect rows: at 1Gb, Fig 9's 1G cell
    assert cells("speedup of McSD") == ["3.25", "2.84", "2.83"]
    assert cells("McSD (s)") == ["31.2", "31.2", "31.2"]
    assert "Measured vs paper" in out


def test_help_prints_each_example_on_its_own_line(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    lines = [ln.strip() for ln in capsys.readouterr().out.splitlines()]
    examples = [
        ln.strip() for ln in cli.__doc__.splitlines()
        if ln.strip().startswith("python -m repro ")
    ]
    assert len(examples) == 8
    for example in examples:
        assert example in lines
