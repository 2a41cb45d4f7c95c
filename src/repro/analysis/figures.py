"""The paper's Section V figures and its ablations, each defined once.

A :class:`Figure` holds one figure's runs, tables, *Measured vs paper*
note and band checks.  :func:`sweep` runs the simulations; the rest are
pure functions of its results, so EXPERIMENTS.md
(``tools/run_experiments.py``), ``python -m repro <name>`` and
``benchmarks/bench_figures.py`` only render them, and :func:`checks`
returns one ``(name, kind, ok, note)`` row per band condition (the row
shape of ``benchmarks/checks.py``).  One sweep simulates each
single-application point once, however many figures read it.

Results per figure (a speedup is baseline time / optimized time):

* ``fig8a`` — ``{baseline: {(app, platform): [speedup of partitioned]}}``,
  baseline ``"sequential"`` or ``"parallel"`` (original Phoenix);
* ``fig8b``/``fig8c`` — ``{(platform, approach): [elapsed s, None = n/s]}``;
* ``fig9``/``fig10`` — ``{scenario: [speedup of McSD over it]}``, plus
  McSD's own makespans under ``"mcsd"``;
* ``multisd`` — ``{"elapsed": {n_sd: s}, "exact": bool}``;
* ``network`` — ``{"host-only" | "mcsd": [makespan s], "speedup": [McSD
  over host only]}``, one entry per :data:`NETWORKS` fabric;
* ``partition`` — ``{"fragments" | "elapsed" | "peak": [...]}``, one entry
  per :data:`FRAGMENTS` size (``None`` = auto, last);
* ``sensitivity`` — ``{"ratio" | "partitioned": {onset: [...]}}``, one entry
  per :data:`THRASH_COEFFS` penalty: traditional / partitioned elapsed,
  and partitioned elapsed s;
* ``smartfam`` — ``{"direct": [s per size], "overhead": {size: [s per
  poll interval]}}`` (offloaded minus direct elapsed);
* ``smb`` — ``{scenario: [makespan s per SMB level]}``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as _t

from repro.analysis.metrics import Series, speedup
from repro.analysis.report import banner, render_ascii_chart, render_table
from repro.cluster import Testbed
from repro.cluster.scenario import run_pair_scenario, run_single_app
from repro.config import MemoryPolicy, NetworkConfig, SmartFAMConfig, table1_cluster
from repro.core import ScatterGatherEngine, ScatterJob
from repro.units import KB, MB, Gbit, Mbit, msec
from repro.workloads import FIG8A_SIZES, FIG8BC_SIZES, FIG9_SIZES, size_label, text_input

__all__ = [
    "FIGURES", "Figure", "Table", "checks", "render_text", "sweep", "trad_over_part",
]

#: check-row kinds, as in ``benchmarks/checks.py``
OUTPUT = "output"
GATE = "gate"

APPS = {"wordcount": "WC", "stringmatch": "SM"}
#: Fig 8(b)/(c) rows: (platform, approach) -> label
GROWTH_ROWS = {
    ("duo", "parallel"): "duo traditional",
    ("duo", "partitioned"): "duo partitioned",
    ("quad", "parallel"): "quad traditional",
    ("quad", "partitioned"): "quad partitioned",
    ("duo", "sequential"): "duo sequential",
}
#: Fig 9/10 baselines of McSD: scenario -> label
PAIR_ROWS = {
    "host-only": "(a) Host node only",
    "trad-sd": "(b) Traditional SD",
    "mcsd-nopart": "(c) McSD w/o Partition",
    "host-part": "(+) Host with Partition",
}
MULTISD_SIZE = MB(2000)
SD_COUNTS = (1, 2, 4)
#: interconnect ablation: fabric label -> link bandwidth (bytes/s)
NETWORKS = {"100Mb": Mbit(100), "1Gb (paper)": Gbit(1), "10Gb": Gbit(10)}
NETWORK_SIZE = MB(1000)
PARTITION_SIZE = MB(2000)
FRAGMENTS = (MB(75), MB(150), MB(300), MB(450), MB(600), MB(900), MB(1200), None)
SENSITIVITY_SIZE = MB(1250)
THRASH_FRACTIONS = (0.75, 0.85, 0.95)
THRASH_COEFFS = (2.0, 6.2, 12.0)
SMARTFAM_SIZES = (MB(10), MB(100), MB(500))
POLL_INTERVALS = (msec(10), msec(50), msec(200))
SMB_SIZE = MB(750)
#: SMB intensity: label -> SMBTraffic parameters (None = no SMB)
SMB_LEVELS = {
    "off": None,
    "paper": {"message_bytes": KB(64), "interval": msec(20)},
    "storm": {"message_bytes": MB(2), "interval": msec(5)},
}
SMB_ROWS = {"mcsd": "McSD", "host-only": "Host node only"}


@dataclasses.dataclass(frozen=True)
class Table:
    """One printed table: a header row, then one row per series."""

    caption: str  # the line above the table ('' for none)
    header: list[str]  # the corner cell, then one label per column
    rows: list[tuple[Series, int]]  # (series, decimals)
    chart: str = ""  # if set, terminal output also plots the first two rows

    def cells(self) -> list[list[str]]:
        """Every row formatted: the label, then one cell per column."""
        return [[s.label] + [_fmt(y, digits) for y in s.ys] for s, digits in self.rows]


@dataclasses.dataclass(frozen=True)
class Figure:
    """A figure: its runs (given the sweep's single-app run cache), its
    tables, its measured note and its check rows."""

    title: str
    run: _t.Callable[[_t.Callable], dict]
    tables: _t.Callable[[dict], list[Table]]
    note: _t.Callable[[dict], str]
    checks: _t.Callable[[dict], list[tuple]]


def _fmt(v: float | None, digits: int) -> str:
    return "n/s" if v is None else f"{v:.{digits}f}"


def _span(values: _t.Iterable[float]) -> str:
    """``lo–hi`` at two decimals (one number when they print alike)."""
    vals = list(values)
    lo, hi = f"{min(vals):.2f}", f"{max(vals):.2f}"
    return lo if lo == hi else f"{lo}–{hi}"


def _row(name: str, ok: bool, note: str, kind: str = GATE) -> tuple:
    return (name, kind, bool(ok), note)


def _series(label: str, sizes: _t.Sequence[int], ys: _t.Sequence) -> Series:
    return Series(label, [s / MB(1) for s in sizes], list(ys))


def _labels(sizes: _t.Sequence[int]) -> list[str]:
    return [size_label(s) for s in sizes]


# -- Fig 8(a): partition-enabled speedups over sequential and original --------


def _fig8a_run(single: _t.Callable) -> dict:
    return {
        base: {
            (app, platform): [
                speedup(single(app, s, platform, base), single(app, s, platform, "partitioned"))
                for s in FIG8A_SIZES
            ]
            for app in APPS
            for platform in ("quad", "duo")
        }
        for base in ("sequential", "parallel")
    }


def _fig8a_tables(r: dict) -> list[Table]:
    def table(caption: str, base: str) -> Table:
        rows = [
            (_series(f"{p.capitalize()}, {tag}", FIG8A_SIZES, r[base][(app, p)]), 2)
            for app, tag in APPS.items()
            for p in ("quad", "duo")
        ]
        return Table(caption, ["series", *_labels(FIG8A_SIZES)], rows)

    return [
        table("**Partition-enabled vs sequential** (paper: ~2x on duo, quad tops out ≈4.5):",
              "sequential"),
        table("**Partition-enabled vs original Phoenix** (paper: partitioned ≈1/6 of "
              "traditional at huge sizes):", "parallel"),
    ]


def _fig8a_note(r: dict) -> str:
    seq, orig = r["sequential"], r["parallel"]
    wc_orig = [orig[("wordcount", p)] for p in ("quad", "duo")]
    return (
        f"duo speedups vs sequential hold at "
        f"{_span(seq[('wordcount', 'duo')] + seq[('stringmatch', 'duo')])}x (paper: \"a 2X "
        "speedup, which proves the fully utilization of duo-core\"); quad WordCount reaches "
        f"{max(seq[('wordcount', 'quad')]):.2f}x (paper's axis tops at 4.5). The WordCount "
        f"vs-original ratio grows from parity at 500M ({_span(v[0] for v in wc_orig)}x) to "
        f"{_span(v[-1] for v in wc_orig)}x at 1.25G (paper: \"only 1/6 of the traditional one\")."
    )


def _fig8a_checks(r: dict) -> list[tuple]:
    # Section V-B: "a 2X speedup [over sequential], which proves the fully
    # utilization of duo-core"; quad beats duo under the 4.5 axis; WC vs
    # original grows from parity ("almost the same") toward ~6x at 1.25G
    seq, orig = r["sequential"], r["parallel"]
    wc_duo, sm_duo = seq[("wordcount", "duo")], seq[("stringmatch", "duo")]
    wc_quad, wc_orig = seq[("wordcount", "quad")], orig[("wordcount", "duo")]
    return [
        _row("fig8a.duo_wc_vs_seq", all(1.7 <= v <= 2.2 for v in wc_duo),
             f"{_span(wc_duo)}x in [1.7, 2.2]"),
        _row("fig8a.duo_sm_vs_seq", all(1.7 <= v <= 2.2 for v in sm_duo),
             f"{_span(sm_duo)}x in [1.7, 2.2]"),
        _row("fig8a.quad_wc_beats_duo", all(q > d for q, d in zip(wc_quad, wc_duo)),
             f"quad {_span(wc_quad)}x > duo at every size"),
        _row("fig8a.quad_wc_under_axis", all(v <= 4.6 for v in wc_quad),
             f"max {max(wc_quad):.2f}x <= 4.6"),
        _row("fig8a.duo_wc_vs_orig_1.25G", wc_orig[-1] > 4.5, f"{wc_orig[-1]:.2f}x > 4.5"),
        _row("fig8a.duo_wc_vs_orig_500M", wc_orig[0] < 1.3, f"{wc_orig[0]:.2f}x < 1.3"),
    ]


# -- Fig 8(b)/(c): elapsed-time growth curves, 500M-2G ------------------------


def _growth_run(app: str) -> _t.Callable:
    return lambda single: {
        key: [single(app, s, *key) for s in FIG8BC_SIZES] for key in GROWTH_ROWS
    }


def _growth_tables(r: dict) -> list[Table]:
    rows = [(_series(label, FIG8BC_SIZES, r[key]), 1) for key, label in GROWTH_ROWS.items()]
    return [Table("", ["series", *_labels(FIG8BC_SIZES)], rows, chart="duo SD: seconds vs MB")]


def trad_over_part(r: dict) -> float:
    """The duo 1.25G traditional/partitioned elapsed-time ratio."""
    return r[("duo", "parallel")][3] / r[("duo", "partitioned")][3]


def _growth_checks(fig: str, r: dict, min_superlinearity: float) -> list[tuple]:
    # partitioned grows linearly ("linear-like growth"); traditional bends
    # once the footprint outgrows RAM — WC (3x footprint) more than 1.8x
    # off linear by 1.5G, SM (2x) more than 1.5x — and "cannot support
    # ... larger than 1.5G"
    rows = []
    for p in ("duo", "quad"):
        part = _series("partitioned", FIG8BC_SIZES, r[(p, "partitioned")])
        trad = _series("traditional", FIG8BC_SIZES, r[(p, "parallel")])
        p_lin, t_lin = part.linearity_ratio(), trad.linearity_ratio()
        rows += [
            _row(f"{fig}.{p}_part_linear", p_lin < 1.35, f"{p_lin:.2f} off linear < 1.35"),
            _row(f"{fig}.{p}_part_monotone", part.is_monotone_increasing(),
                 "never falls with size"),
            _row(f"{fig}.{p}_trad_superlinear", t_lin > min_superlinearity,
                 f"{t_lin:.2f} off linear > {min_superlinearity}"),
            _row(f"{fig}.{p}_trad_ns_past_1.5G", trad.ys[-2] is None and trad.ys[-1] is None,
                 "1.75G and 2G are n/s"),
            _row(f"{fig}.{p}_trad_runs_to_1.5G", all(y is not None for y in trad.ys[:5]),
                 "500M-1.5G supported"),
        ]
    return rows


def _fig8b_note(r: dict) -> str:
    last = max(i for i, y in enumerate(r[("duo", "parallel")]) if y is not None)
    return (
        "partitioned curves grow linearly; traditional bends hard past ~750M and dies (n/s) "
        f"beyond {size_label(FIG8BC_SIZES[last])} — both exactly the paper's story. The duo "
        f"1.25G traditional/partitioned ratio lands at {trad_over_part(r):.2f}x against the "
        "paper's ~6x."
    )


def _fig8b_checks(r: dict) -> list[tuple]:
    ratio = trad_over_part(r)  # "partitioned ~1/6 of traditional at huge sizes"
    return _growth_checks("fig8b", r, 1.8) + [
        _row("fig8b.duo_trad_over_part", ratio > 4.5, f"1.25G {ratio:.2f}x > 4.5"),
    ]


def _fig8c_note(r: dict) -> str:
    return (
        "SM (2x footprint) bends later and gentler than WC (3x) — its duo 1.25G "
        f"traditional/partitioned ratio is {trad_over_part(r):.2f}x — so partitioning mostly "
        "extends the supportable range, the paper's point (2) in Section V-B."
    )


def _fig8c_checks(r: dict) -> list[tuple]:
    # point (2): partitioning "can only enhance their supportability of
    # data-size range" — the ratio stays well below WC's ~6x, yet only the
    # partitioned runtime runs at 2G (traditional n/s: the growth rows)
    ratio = trad_over_part(r)
    return _growth_checks("fig8c", r, 1.5) + [
        _row("fig8c.duo_trad_over_part", ratio < 4.0, f"1.25G {ratio:.2f}x < 4.0"),
        _row("fig8c.duo_part_runs_at_2G", r[("duo", "partitioned")][-1] is not None,
             "partitioned supported at 2G"),
    ]


# -- Figs 9/10: MM + data-app pairs, McSD's speedup over each baseline -------


def _pair_run(app: str) -> _t.Callable:
    def run(_single: _t.Callable) -> dict:
        mcsd = [run_pair_scenario("mcsd", app, s).makespan for s in FIG9_SIZES]
        out = {
            sc: [
                speedup(run_pair_scenario(sc, app, s).makespan, m)
                for s, m in zip(FIG9_SIZES, mcsd)
            ]
            for sc in PAIR_ROWS
        }
        return {**out, "mcsd": mcsd}

    return run


def _pair_tables(r: dict) -> list[Table]:
    rows = [(_series(label, FIG9_SIZES, r[sc]), 2) for sc, label in PAIR_ROWS.items()]
    rows.append((_series("McSD makespan (s)", FIG9_SIZES, r["mcsd"]), 1))
    return [Table("", ["speedup of McSD over", *_labels(FIG9_SIZES)], rows)]


def _fig9_note(r: dict) -> str:
    ho, nop = r["host-only"], r["mcsd-nopart"]
    return (
        f"{_span(r['trad-sd'])}x over traditional SD at every size (paper: \"averagely improves "
        "the overall performance by 2X\"); near parity below the memory threshold (500M: host "
        f"only {ho[0]:.2f}x, McSD w/o partition {nop[0]:.2f}x) and an explosive jump at 1G/1.25G "
        f"for the non-partitioned baselines (host only {ho[2]:.2f}x/{ho[3]:.2f}x, McSD w/o "
        f"partition {nop[2]:.2f}x/{nop[3]:.2f}x; see Known deviations #1 for the multiplier)."
    )


def _fig9_checks(r: dict) -> list[tuple]:
    # Section V-C: ~2x over the traditional SD, roughly flat; slight gains
    # below the memory threshold, a nonlinear jump past it (the paper's
    # 6.8x/17.4x are Known deviation #1); the caption's host-with-partition
    # escapes the memory wall, so it stays far below host-only
    ho, trad, nop, hp = r["host-only"], r["trad-sd"], r["mcsd-nopart"], r["host-part"]
    return [
        _row("fig9.trad_sd_band", all(1.6 <= v <= 2.4 for v in trad),
             f"{_span(trad)}x in [1.6, 2.4]"),
        _row("fig9.parity_500M", ho[0] < 1.5 and nop[0] < 1.3,
             f"host only {ho[0]:.2f}x < 1.5, w/o partition {nop[0]:.2f}x < 1.3"),
        _row("fig9.host_only_jump", ho[3] > 3.5, f"1.25G {ho[3]:.2f}x > 3.5"),
        _row("fig9.nopart_jump", nop[3] > 4.5, f"1.25G {nop[3]:.2f}x > 4.5"),
        _row("fig9.nopart_monotone", nop == sorted(nop), "w/o partition never falls with size"),
        _row("fig9.host_part_le_host_only", all(a <= b + 1e-9 for a, b in zip(hp, ho)),
             "host with partition <= host only at every size"),
        _row("fig9.host_part_rescued", hp[3] < 0.55 * ho[3],
             f"1.25G {hp[3]:.2f}x < 0.55 x {ho[3]:.2f}x"),
    ]


def _fig10_note(r: dict) -> str:
    paper = [v for sc in ("host-only", "trad-sd", "mcsd-nopart") for v in r[sc]]
    return (
        f"every comparison stays in the {_span(paper)}x band and the traditional-SD column "
        f"reaches {max(r['trad-sd']):.2f}x — the paper's \"averagely 2X speedup\" for the less "
        "data-intensive pair, with no MM/WC-style blow-up."
    )


def _fig10_checks(r: dict) -> list[tuple]:
    # "the speedups of the MM/SM ... are both averagely 2X speedup": SM's
    # 2x footprint keeps every scenario out of deep thrash, under the 2.5
    # axis, and vs traditional SD nears 2x (duo vs one core) at 1.25G
    ho, trad, nop = r["host-only"], r["trad-sd"], r["mcsd-nopart"]
    return [
        _row(f"fig10.{label}_band", all(0.9 <= v <= 2.6 for v in vals),
             f"{_span(vals)}x in [0.9, 2.6]")
        for label, vals in (("trad_sd", trad), ("host_only", ho), ("nopart", nop))
    ] + [
        _row("fig10.trad_sd_1.25G", trad[-1] > 1.7, f"{trad[-1]:.2f}x > 1.7"),
        _row("fig10.no_blowup", max(ho) < 2.6 and max(nop) < 2.6,
             f"max host only {max(ho):.2f}x, w/o partition {max(nop):.2f}x < 2.6"),
    ]


# -- Section VI future work: parallelism across multiple McSD nodes ----------


def _multisd_run(_single: _t.Callable) -> dict:
    """Shard the Word Count across 1, 2 and 4 SD nodes; each runs the
    partition-enabled module over its shard and the host merges."""
    elapsed, exact = {}, True
    for n_sd in SD_COUNTS:
        bed = Testbed(config=table1_cluster(n_sd=n_sd, seed=3), seed=3)
        inp = text_input("/data/huge", MULTISD_SIZE, payload_bytes=16_000, seed=3)
        job = ScatterJob(app="wordcount", shards=bed.stage_shards("huge", inp))
        res = bed.run(ScatterGatherEngine(bed.cluster).run(job))
        # the merged word count must be exact regardless of sharding
        exact &= sum(v for _, v in res.output) == len(inp.payload_bytes.split())
        elapsed[n_sd] = res.elapsed
    return {"elapsed": elapsed, "exact": exact}


def _multisd_speedups(r: dict) -> list[float]:
    return [r["elapsed"][1] / r["elapsed"][n] for n in SD_COUNTS]


def _multisd_tables(r: dict) -> list[Table]:
    sp = _multisd_speedups(r)
    rows = [
        (Series("elapsed (s)", list(SD_COUNTS), [r["elapsed"][n] for n in SD_COUNTS]), 2),
        (Series("speedup", list(SD_COUNTS), sp), 2),
        (Series("efficiency %", list(SD_COUNTS), [s / n * 100 for s, n in zip(sp, SD_COUNTS)]), 0),
    ]
    return [Table("", ["SD nodes", *map(str, SD_COUNTS)], rows)]


def _multisd_note(r: dict) -> str:
    sp = _multisd_speedups(r)[1:]
    eff = [s / n * 100 for s, n in zip(sp, SD_COUNTS[1:])]
    return (
        f"{' / '.join(f'{s:.2f}x' for s in sp)} on {' / '.join(map(str, SD_COUNTS[1:]))} SD "
        f"nodes ({min(eff):.0f}–{max(eff):.0f} % efficiency)"
    )


def _multisd_checks(r: dict) -> list[tuple]:
    # near-linear scaling with mild efficiency loss: independent shards,
    # and the gather moves only aggregates
    _, sp2, sp4 = _multisd_speedups(r)
    return [
        _row("multisd.exact_output", r["exact"], "merged counts equal the input's", kind=OUTPUT),
        _row("multisd.speedup_2sd", 1.7 <= sp2 <= 2.05, f"{sp2:.2f}x in [1.7, 2.05]"),
        _row("multisd.speedup_4sd", 3.2 <= sp4 <= 4.1, f"{sp4:.2f}x in [3.2, 4.1]"),
    ]


# -- Section VI future work: a faster interconnect ----------------------------


def _network_run(_single: _t.Callable) -> dict:
    """The MM/WC pair under Fast Ethernet, the paper's GbE and a 10 Gb/s
    (Infiniband-class) fabric: host only drags the input over NFS, McSD's
    channel moves log files."""
    out: dict = {"host-only": [], "mcsd": []}
    for bw in NETWORKS.values():
        net = {"network": NetworkConfig(link_bandwidth=bw)}
        for sc in out:
            out[sc].append(run_pair_scenario(sc, "wordcount", NETWORK_SIZE, overrides=net).makespan)
    return {**out, "speedup": [h / m for h, m in zip(out["host-only"], out["mcsd"])]}


def _network_tables(r: dict) -> list[Table]:
    xs = [bw / Mbit(1) for bw in NETWORKS.values()]
    rows = [
        (Series("Host node only (s)", xs, r["host-only"]), 1),
        (Series("McSD (s)", xs, r["mcsd"]), 1),
        (Series("speedup of McSD", xs, r["speedup"]), 2),
    ]
    return [Table("", [f"MM/WC pair at {size_label(NETWORK_SIZE)}", *NETWORKS], rows)]


def _network_note(r: dict) -> str:
    (h0, h1, h2), sp = r["host-only"], r["speedup"]
    return (
        f"McSD's speedup over host only falls {' → '.join(f'{v:.2f}x' for v in sp)} from 100Mb "
        f"to 1Gb to 10Gb: host only gains {(h0 / h1 - 1) * 100:.0f} % from 100Mb to 1Gb but "
        f"only {(h1 / h2 - 1) * 100:.1f} % more at 10Gb, while McSD stays at {_span(r['mcsd'])} s "
        "(its channel moves log files), so the memory wall, not the wire, keeps McSD ahead"
    )


def _network_checks(r: dict) -> list[tuple]:
    # host only improves with bandwidth; McSD's channel moves kilobytes;
    # the offload advantage shrinks but survives a fast fabric
    (h0, h1, h2), (m0, m1, m2), (s0, s1, s2) = r["host-only"], r["mcsd"], r["speedup"]
    drift = abs(m0 - m2) / m1
    return [
        _row("network.host_only_speeds_up", h0 > h1 > h2,
             f"host only {h0:.1f} > {h1:.1f} > {h2:.1f} s"),
        _row("network.mcsd_insensitive", drift < 0.05, f"100Mb vs 10Gb {drift:.1%} < 5%"),
        _row("network.advantage_survives", s0 > s1 > s2 > 1.5,
             f"{s0:.2f}x > {s1:.2f}x > {s2:.2f}x > 1.5"),
    ]


# -- Section IV-C: the "empirical data" behind a fragment size ----------------


def _partition_run(_single: _t.Callable) -> dict:
    """A 2 GB WordCount on the duo SD at each fragment size, then auto."""
    runs = [
        run_single_app("wordcount", PARTITION_SIZE, "duo", "partitioned", fragment_bytes=f)
        for f in FRAGMENTS
    ]
    return {
        "fragments": [x.fragments for x in runs],
        "elapsed": [x.elapsed for x in runs],
        "peak": [x.peak_pressure for x in runs],
    }


def _partition_tables(r: dict) -> list[Table]:
    xs = [(f or 0) / MB(1) for f in FRAGMENTS]
    rows = [
        (Series("fragments", xs, r["fragments"]), 0),
        (Series("elapsed (s)", xs, r["elapsed"]), 1),
        (Series("peak memory pressure", xs, r["peak"]), 2),
    ]
    labels = [size_label(f) if f else "auto" for f in FRAGMENTS]
    return [Table("", [f"WordCount {size_label(PARTITION_SIZE)}, fragment", *labels], rows)]


def _partition_note(r: dict) -> str:
    e, peak, best = r["elapsed"], r["peak"], min(r["elapsed"])
    fixed = range(len(FRAGMENTS) - 1)  # every size but auto
    clean = [i for i in fixed if peak[i] <= 1.0]
    paging = [i for i in fixed if peak[i] > 1.0]
    return (
        f"fragments up to {size_label(FRAGMENTS[clean[-1]])} fit in RAM and run within "
        f"{max(e[i] for i in clean) / best:.3f}x of the best point; larger ones page (peak "
        f"pressure {_span(peak[i] for i in paging)}) and take "
        f"{_span(e[i] / best for i in paging)}x; the auto size ({r['fragments'][-1]} fragments) "
        f"lands within {e[-1] / best:.3f}x of the best — the empirical data Section IV-C says a "
        "good partition size needs"
    )


def _partition_checks(r: dict) -> list[tuple]:
    # the auto partitioner lands in the valley; oversized fragments page
    # hard; small ones stay clean but pay per-fragment overhead
    e, peak = r["elapsed"], r["peak"]
    best = min(e)
    i75, i300, i1200 = (FRAGMENTS.index(MB(n)) for n in (75, 300, 1200))
    return [
        _row("partition.auto_in_valley", e[-1] <= 1.05 * best,
             f"auto {e[-1]:.1f} s <= 1.05 x best {best:.1f} s"),
        _row("partition.oversized_pays_paging", e[i1200] > 2.5 * best,
             f"1200M {e[i1200]:.1f} s > 2.5 x best"),
        _row("partition.oversized_swaps", peak[i1200] > 1.0,
             f"1200M peak pressure {peak[i1200]:.2f} > 1.0"),
        _row("partition.small_stays_clean", peak[i75] < 0.3,
             f"75M peak pressure {peak[i75]:.2f} < 0.3"),
        _row("partition.small_pays_overhead", e[i75] >= e[i300],
             f"75M {e[i75]:.1f} s >= 300M {e[i300]:.1f} s"),
    ]


# -- calibration: do the conclusions survive a wrong paging model? ------------


def _sensitivity_run(_single: _t.Callable) -> dict:
    """Traditional vs partitioned WordCount on the duo SD at 1.25G under a
    grid of paging models (thrash onset x penalty coefficient)."""

    def elapsed(approach: str, fraction: float, coeff: float) -> float:
        policy = MemoryPolicy(thrash_fraction=fraction, thrash_coeff=coeff)
        return run_single_app(
            "wordcount", SENSITIVITY_SIZE, "duo", approach, overrides={"memory_policy": policy},
        ).elapsed

    part = {fr: [elapsed("partitioned", fr, co) for co in THRASH_COEFFS] for fr in THRASH_FRACTIONS}
    ratio = {
        fr: [elapsed("parallel", fr, co) / p for co, p in zip(THRASH_COEFFS, part[fr])]
        for fr in THRASH_FRACTIONS
    }
    return {"ratio": ratio, "partitioned": part}


def _sensitivity_tables(r: dict) -> list[Table]:
    def table(caption: str, key: str, digits: int) -> Table:
        rows = [
            (Series(f"onset {fr}", list(THRASH_COEFFS), r[key][fr]), digits)
            for fr in THRASH_FRACTIONS
        ]
        return Table(caption, ["thrash onset", *(f"coeff {c}" for c in THRASH_COEFFS)], rows)

    return [
        table("**Traditional / partitioned elapsed** (Fig 8(b)'s ratio; calibrated: onset "
              f"{MemoryPolicy.thrash_fraction}, coeff {MemoryPolicy.thrash_coeff}):", "ratio", 2),
        table("**Partitioned elapsed (s):**", "partitioned", 1),
    ]


def _sensitivity_note(r: dict) -> str:
    ratios = [v for vals in r["ratio"].values() for v in vals]
    parts = [v for vals in r["partitioned"].values() for v in vals]
    return (
        f"partitioned wins everywhere ({_span(ratios)}x) and its own elapsed time reads "
        f"{_span(parts)} s on the whole grid, since its fragments never page; the ratio rises "
        "with the penalty coefficient at every onset, so the qualitative claims hold under "
        "any of these paging models and only the multiplier is calibrated"
    )


def _sensitivity_checks(r: dict) -> list[tuple]:
    # partitioned wins past the threshold on the whole grid, is itself
    # (nearly) calibration-independent, and the coefficient moves the
    # ratio monotonically at each onset
    ratios = [v for vals in r["ratio"].values() for v in vals]
    parts = [v for vals in r["partitioned"].values() for v in vals]
    spread = (max(parts) - min(parts)) / min(parts)
    return [
        _row("sensitivity.partitioned_wins", all(v > 1.5 for v in ratios),
             f"trad/part {_span(ratios)}x > 1.5"),
        _row("sensitivity.partitioned_insensitive", spread < 0.25,
             f"partitioned spread {spread:.1%} < 25%"),
        _row("sensitivity.ratio_monotone", all(v == sorted(v) for v in r["ratio"].values()),
             "ratio rises with the coefficient at every onset"),
    ]


# -- the smartFAM log-file channel's own cost ---------------------------------


def _smartfam_run(single: _t.Callable) -> dict:
    """WordCount offloaded through smartFAM (McSD w/o partition, beside MM)
    minus the same job run directly on the SD, per host polling interval."""
    direct = [single("wordcount", s, "duo", "parallel") for s in SMARTFAM_SIZES]
    overhead = {
        s: [
            run_pair_scenario(
                "mcsd-nopart", "wordcount", s,
                overrides={"smartfam": SmartFAMConfig(host_poll_interval=poll)},
            ).data_elapsed - d
            for poll in POLL_INTERVALS
        ]
        for s, d in zip(SMARTFAM_SIZES, direct)
    }
    return {"direct": direct, "overhead": overhead}


def _smartfam_tables(r: dict) -> list[Table]:
    xs = [p * 1e3 for p in POLL_INTERVALS]
    rows = [(Series(f"{size_label(s)} job", xs, r["overhead"][s]), 2) for s in SMARTFAM_SIZES]
    return [Table("", ["overhead (s) at host poll", *(f"{x:.0f}ms" for x in xs)], rows)]


def _smartfam_mean(r: dict, i: int) -> float:
    """Mean overhead over the job sizes at poll interval ``i``."""
    return sum(v[i] for v in r["overhead"].values()) / len(r["overhead"])


def _smartfam_note(r: dict) -> str:
    means = [_smartfam_mean(r, i) for i in range(len(POLL_INTERVALS))]
    return (
        f"an invocation costs {' / '.join(f'{m:.2f}' for m in means)} s on average at "
        f"{' / '.join(f'{p * 1e3:.0f}' for p in POLL_INTERVALS)} ms host polling, whether the job "
        f"takes {' or '.join(f'{d:.1f}' for d in r['direct'])} s directly: sub-second, "
        "size-independent and set by the host's NFS polling interval, so the channel is "
        "effectively free for a data-intensive job, as the paper assumes"
    )


def _smartfam_checks(r: dict) -> list[tuple]:
    # a fixed, sub-second cost per invocation that grows with the polling
    # interval (the output write lands in the poll window too, so the
    # relation is only monotone on average)
    ovs = [v for vals in r["overhead"].values() for v in vals]
    widths = [
        max(v[i] for v in r["overhead"].values()) - min(v[i] for v in r["overhead"].values())
        for i in range(len(POLL_INTERVALS))
    ]
    lo, hi = _smartfam_mean(r, 0), _smartfam_mean(r, len(POLL_INTERVALS) - 1)
    return [
        _row("smartfam.overhead_sub_second", all(0 < v < 1.0 for v in ovs),
             f"{_span(ovs)} s in (0, 1)"),
        _row("smartfam.size_independent", all(w < 0.35 for w in widths),
             f"spread across sizes {max(widths):.2f} s < 0.35 at every poll interval"),
        _row("smartfam.grows_with_poll", lo < hi, f"mean {lo:.2f} s < {hi:.2f} s"),
    ]


# -- the paper's SMB "routine work" --------------------------------------------


def _smb_run(_single: _t.Callable) -> dict:
    """The MM/WC pair with SMB off, at the paper's level and as a storm."""
    return {
        sc: [
            run_pair_scenario(
                sc, "wordcount", SMB_SIZE, with_smb=params is not None, smb_params=params,
            ).makespan
            for params in SMB_LEVELS.values()
        ]
        for sc in SMB_ROWS
    }


def _smb_tables(r: dict) -> list[Table]:
    xs = list(range(len(SMB_LEVELS)))
    rows = [(Series(f"{label} (s)", xs, r[sc]), 2) for sc, label in SMB_ROWS.items()]
    return [Table("", [f"MM/WC pair at {size_label(SMB_SIZE)}, SMB", *SMB_LEVELS], rows)]


def _smb_note(r: dict) -> str:
    (m_paper, m_storm), (h_paper, h_storm) = (
        [(v - off) / off * 100 for v in rest] for off, *rest in (r["mcsd"], r["host-only"])
    )
    return (
        f"the paper's level moves McSD by {m_paper:.2f} % and host only by {h_paper:.2f} %, and "
        f"a link-saturating storm by {m_storm:.2f} % and {h_storm:.2f} %: both frameworks are "
        "CPU- and memory-bound, so the paper could run SMB through every measurement without "
        "caveats"
    )


def _smb_checks(r: dict) -> list[tuple]:
    # the paper's level is noise (< 1 %; deltas this small follow the
    # smartFAM poll grid, so the bound is on magnitude, not direction);
    # even a storm stays < 10 %: the NFS read overlaps the map phase
    moved = [[abs(v - off) / off for v in rest] for off, *rest in r.values()]
    paper, storm = max(m[0] for m in moved), max(m[1] for m in moved)
    return [
        _row("smb.paper_level_is_noise", paper < 0.01, f"max {paper:.2%} < 1%"),
        _row("smb.storm_under_10pct", storm < 0.10, f"max {storm:.2%} < 10%"),
    ]


FIGURES: dict[str, Figure] = {
    "fig8a": Figure("Fig 8(a) — single-application speedups (500M–1.25G)",
                    _fig8a_run, _fig8a_tables, _fig8a_note, _fig8a_checks),
    "fig8b": Figure("Fig 8(b) — wordcount elapsed-time growth curves, 500M–2G (seconds)",
                    _growth_run("wordcount"), _growth_tables, _fig8b_note, _fig8b_checks),
    "fig8c": Figure("Fig 8(c) — stringmatch elapsed-time growth curves, 500M–2G (seconds)",
                    _growth_run("stringmatch"), _growth_tables, _fig8c_note, _fig8c_checks),
    "fig9": Figure("Fig 9 — MM/wordcount multi-application speedups",
                   _pair_run("wordcount"), _pair_tables, _fig9_note, _fig9_checks),
    "fig10": Figure("Fig 10 — MM/stringmatch multi-application speedups",
                    _pair_run("stringmatch"), _pair_tables, _fig10_note, _fig10_checks),
    "multisd": Figure("Multi-McSD scatter-gather — WordCount 2G over 1/2/4 SD nodes",
                      _multisd_run, _multisd_tables, _multisd_note, _multisd_checks),
    "network": Figure("Ablation — interconnect bandwidth (Section VI: Ethernet → Infiniband)",
                      _network_run, _network_tables, _network_note, _network_checks),
    "partition": Figure("Ablation — fragment size (Section IV-C's empirical data)",
                        _partition_run, _partition_tables, _partition_note, _partition_checks),
    "sensitivity": Figure("Ablation — paging-model calibration, WordCount on the duo SD at 1.25G",
                          _sensitivity_run, _sensitivity_tables, _sensitivity_note,
                          _sensitivity_checks),
    "smartfam": Figure("Ablation — smartFAM invocation overhead (offloaded − direct WordCount)",
                       _smartfam_run, _smartfam_tables, _smartfam_note, _smartfam_checks),
    "smb": Figure("Ablation — SMB routine-work interference",
                  _smb_run, _smb_tables, _smb_note, _smb_checks),
}


def sweep(names: _t.Iterable[str] = tuple(FIGURES)) -> dict:
    """Simulate the named figures: ``{name: results}``."""

    @functools.cache
    def single(app: str, size: int, platform: str, approach: str) -> float | None:
        return run_single_app(app, size, platform, approach).elapsed

    return {name: FIGURES[name].run(single) for name in names}


def checks(results: dict) -> list[tuple]:
    """Paper-band rows for every figure in ``results`` (no simulation)."""
    return [row for name, r in results.items() for row in FIGURES[name].checks(r)]


def render_text(name: str, results: dict) -> str:
    """One figure's tables and measured note as fixed-width text."""
    fig, r = FIGURES[name], results[name]
    out = [banner(fig.title)]
    for table in fig.tables(r):
        out += [table.caption] if table.caption else []
        out.append(render_table(table.header, table.cells()))
        if table.chart:
            out.append(render_ascii_chart([s for s, _ in table.rows[:2]], y_label=table.chart))
    out.append(f"Measured vs paper: {fig.note(r)}")
    return "\n".join(out)
