"""The paper-figure checks, fed recorded results instead of simulations.

``RECORDED`` holds the values EXPERIMENTS.md records (the tables print
them at the same precision, which the first test pins), so every check
row can be exercised in milliseconds: all rows hold on the recorded
figures, and pushing the number(s) one row reads past its bound fails
exactly that row.
"""

from __future__ import annotations

import copy
import pathlib

import pytest

from repro.analysis.figures import FIGURES, GATE, OUTPUT, checks
from repro.units import MB

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

WC_DUO, WC_QUAD = ("wordcount", "duo"), ("wordcount", "quad")
SM_DUO, SM_QUAD = ("stringmatch", "duo"), ("stringmatch", "quad")
NS = None

RECORDED = {
    "fig8a": {
        "sequential": {
            WC_QUAD: [3.60, 3.59, 3.60, 3.60],
            WC_DUO: [1.91, 1.91, 1.92, 1.92],
            SM_QUAD: [2.47, 2.43, 2.43, 2.43],
            SM_DUO: [1.99, 1.97, 1.97, 1.97],
        },
        "parallel": {
            WC_QUAD: [0.94, 1.16, 2.64, 5.52],
            WC_DUO: [0.97, 1.20, 2.76, 5.78],
            SM_QUAD: [1.00, 0.98, 0.98, 0.98],
            SM_DUO: [1.00, 0.99, 1.03, 1.59],
        },
    },
    "fig8b": {
        ("duo", "parallel"): [15.1, 28.2, 86.0, 225.0, 479.1, NS, NS],
        ("duo", "partitioned"): [15.6, 23.4, 31.2, 38.9, 46.7, 54.5, 62.3],
        ("quad", "parallel"): [5.8, 10.8, 33.0, 86.2, 183.4, NS, NS],
        ("quad", "partitioned"): [6.2, 9.4, 12.5, 15.6, 18.7, 21.9, 25.0],
        ("duo", "sequential"): [29.8, 44.8, 59.7, 74.6, 89.5, 104.4, 131.4],
    },
    "fig8c": {
        ("duo", "parallel"): [6.9, 10.4, 14.4, 27.8, 59.0, NS, NS],
        ("duo", "partitioned"): [6.9, 10.5, 14.0, 17.5, 20.9, 24.5, 28.0],
        ("quad", "parallel"): [4.2, 6.3, 8.4, 10.5, 22.2, NS, NS],
        ("quad", "partitioned"): [4.2, 6.4, 8.5, 10.7, 12.8, 14.9, 17.0],
        ("duo", "sequential"): [13.8, 20.7, 27.6, 34.4, 41.3, 48.2, 58.5],
    },
    "fig9": {
        "host-only": [1.09, 1.44, 2.84, 4.81],
        "trad-sd": [1.97, 1.91, 1.91, 1.91],
        "mcsd-nopart": [1.00, 1.21, 2.76, 5.77],
        "host-part": [1.09, 0.92, 0.82, 0.79],
        "mcsd": [15.2, 23.4, 31.2, 39.0],
    },
    "fig10": {
        "host-only": [1.24, 1.36, 1.48, 2.07],
        "trad-sd": [1.26, 1.89, 1.98, 1.97],
        "mcsd-nopart": [1.00, 1.00, 1.03, 1.59],
        "host-part": [1.24, 1.35, 1.22, 1.22],
        "mcsd": [10.9, 10.9, 14.0, 17.5],
    },
    "multisd": {"elapsed": {1: 62.89, 2: 32.26, 4: 16.65}, "exact": True},
    "network": {
        "host-only": [101.5, 88.5, 88.2],
        "mcsd": [31.2, 31.2, 31.2],
        "speedup": [3.25, 2.84, 2.83],
    },
    "partition": {
        "fragments": [27, 14, 7, 5, 4, 3, 2, 6],
        "elapsed": [63.1, 62.6, 62.3, 62.3, 62.2, 117.9, 225.8, 62.3],
        "peak": [0.10, 0.21, 0.42, 0.63, 0.84, 1.26, 1.68, 0.50],
    },
    "sensitivity": {
        "ratio": {0.75: [2.89, 6.91, 12.47], 0.85: [2.52, 5.78, 10.28], 0.95: [2.20, 4.77, 8.32]},
        "partitioned": {0.75: [38.9] * 3, 0.85: [38.9] * 3, 0.95: [38.9] * 3},
    },
    "smartfam": {
        "direct": [0.3, 3.0, 15.1],
        "overhead": {
            MB(10): [0.05, 0.06, 0.11],
            MB(100): [0.05, 0.05, 0.19],
            MB(500): [0.05, 0.06, 0.11],
        },
    },
    "smb": {"mcsd": [23.42, 23.43, 23.47], "host-only": [33.66, 33.66, 33.66]},
}

#: (row, figure, key path into its results, value that breaks the row)
MUTATIONS = [
    ("fig8a.duo_wc_vs_seq", "fig8a", ("sequential", WC_DUO, 0), 2.5),
    ("fig8a.duo_sm_vs_seq", "fig8a", ("sequential", SM_DUO, 0), 1.5),
    ("fig8a.quad_wc_beats_duo", "fig8a", ("sequential", WC_QUAD, 0), 1.8),
    ("fig8a.quad_wc_under_axis", "fig8a", ("sequential", WC_QUAD, 3), 4.7),
    ("fig8a.duo_wc_vs_orig_1.25G", "fig8a", ("parallel", WC_DUO, 3), 4.0),
    ("fig8a.duo_wc_vs_orig_500M", "fig8a", ("parallel", WC_DUO, 0), 1.4),
    ("fig8b.duo_trad_over_part", "fig8b", (("duo", "parallel"), 3), 77.8),
    ("fig8c.duo_trad_over_part", "fig8c", (("duo", "parallel"), 3), 87.5),
    ("fig8c.duo_part_runs_at_2G", "fig8c", (("duo", "partitioned"), 6), None),
    ("fig9.trad_sd_band", "fig9", ("trad-sd", 1), 3.0),
    ("fig9.parity_500M", "fig9", ("host-only", 0), 1.6),
    ("fig9.host_only_jump", "fig9", ("host-only", 3), 3.0),
    ("fig9.nopart_jump", "fig9", ("mcsd-nopart", 3), 4.0),
    ("fig9.nopart_monotone", "fig9", ("mcsd-nopart", 1), 0.5),
    ("fig9.host_part_le_host_only", "fig9", ("host-part", 1), 2.0),
    ("fig9.host_part_rescued", "fig9", ("host-part", 3), 3.0),
    ("fig10.trad_sd_band", "fig10", ("trad-sd", 0), 0.5),
    ("fig10.host_only_band", "fig10", ("host-only", 0), 0.5),
    ("fig10.nopart_band", "fig10", ("mcsd-nopart", 0), 0.5),
    ("fig10.trad_sd_1.25G", "fig10", ("trad-sd", 3), 1.5),
    # exactly on the band's inclusive edge: only the strict max row fails
    ("fig10.no_blowup", "fig10", ("host-only", 0), 2.6),
    ("multisd.exact_output", "multisd", ("exact",), False),
    ("multisd.speedup_2sd", "multisd", ("elapsed", 2), 40.0),
    ("multisd.speedup_4sd", "multisd", ("elapsed", 4), 12.0),
    ("network.host_only_speeds_up", "network", ("host-only", 2), 90.0),
    ("network.mcsd_insensitive", "network", ("mcsd", 0), 40.0),
    ("network.advantage_survives", "network", ("speedup", 2), 1.4),
    ("partition.auto_in_valley", "partition", ("elapsed", 7), 70.0),
    ("partition.oversized_pays_paging", "partition", ("elapsed", 6), 150.0),
    ("partition.oversized_swaps", "partition", ("peak", 6), 0.9),
    ("partition.small_stays_clean", "partition", ("peak", 0), 0.35),
    # a 75M point that beats 300M is also the new best: the valley rows hold
    ("partition.small_pays_overhead", "partition", ("elapsed", 0), 62.0),
    ("sensitivity.partitioned_wins", "sensitivity", ("ratio", 0.95, 0), 1.4),
    ("sensitivity.partitioned_insensitive", "sensitivity", ("partitioned", 0.75, 0), 60.0),
    ("sensitivity.ratio_monotone", "sensitivity", ("ratio", 0.85, 1), 11.0),
    ("smartfam.overhead_sub_second", "smartfam", ("overhead", MB(10), 0), 0.0),
    ("smartfam.size_independent", "smartfam", ("overhead", MB(500), 2), 0.5),
    # lifts the 10ms mean past the 200ms one, yet keeps that column's spread
    ("smartfam.grows_with_poll", "smartfam", ("overhead", MB(100), 0), 0.35),
    ("smb.paper_level_is_noise", "smb", ("mcsd", 1), 23.7),
    ("smb.storm_under_10pct", "smb", ("host-only", 2), 40.0),
]
for _fig in ("fig8b", "fig8c"):
    for _p in ("duo", "quad"):
        MUTATIONS += [
            (f"{_fig}.{_p}_part_linear", _fig, ((_p, "partitioned"), 6), 1000.0),
            (f"{_fig}.{_p}_part_monotone", _fig, ((_p, "partitioned"), 1), 1.0),
            # a huge first point flattens the curve relative to its slope
            (f"{_fig}.{_p}_trad_superlinear", _fig, ((_p, "parallel"), 0), 1000.0),
            (f"{_fig}.{_p}_trad_ns_past_1.5G", _fig, ((_p, "parallel"), 6), 1.0),
            (f"{_fig}.{_p}_trad_runs_to_1.5G", _fig, ((_p, "parallel"), 0), None),
        ]


def test_recorded_tables_are_the_experiments_md_rows():
    text = EXPERIMENTS.read_text()
    for name, fig in FIGURES.items():
        for table in fig.tables(RECORDED[name]):
            assert "| " + " | ".join(table.header) + " |" in text
            for cells in table.cells():
                assert "| " + " | ".join(cells) + " |" in text, cells


def test_every_row_holds_on_the_recorded_figures():
    rows = checks(RECORDED)
    names = [name for name, *_ in rows]
    assert len(names) == len(set(names))
    assert {name.split(".")[0] for name in names} == set(FIGURES)
    assert [name for name, _kind, ok, _note in rows if not ok] == []
    assert {kind for _name, kind, *_ in rows} == {GATE, OUTPUT}


def test_every_row_has_a_mutation():
    assert sorted(name for name, *_ in checks(RECORDED)) == sorted(m[0] for m in MUTATIONS)


@pytest.mark.parametrize("row, fig, path, value", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_pushing_a_number_past_its_bound_fails_exactly_that_row(row, fig, path, value):
    results = copy.deepcopy(RECORDED)
    target = results[fig]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert [name for name, _kind, ok, _note in checks(results) if not ok] == [row]


def test_checks_cover_only_the_figures_given():
    rows = checks({"fig9": RECORDED["fig9"]})
    assert rows and all(name.startswith("fig9.") for name, *_ in rows)
