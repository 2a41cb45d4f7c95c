#!/usr/bin/env python3
"""Run every paper experiment, (re)generate EXPERIMENTS.md and check the bands.

Usage:  python tools/run_experiments.py [output.md] [--csv[=DIR]]

This is the canonical paper-vs-measured record.  The figures and
ablations themselves (runs, tables, notes, band checks) are defined in
:mod:`repro.analysis.figures`; this script renders them as markdown,
prints one ``[ok  ]``/``[FAIL]`` row per check and exits 1 if any row
failed (the file is written either way).  ``--csv`` also writes each
figure table to ``DIR`` (default ``results``) at full precision.
"""

from __future__ import annotations

import os
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from benchmarks.checks import failed, print_rows  # noqa: E402
from repro.analysis import write_series_csv  # noqa: E402
from repro.analysis.figures import (  # noqa: E402
    FIGURES, THRASH_COEFFS, checks, sweep, trad_over_part,
)
from repro.config import MemoryPolicy  # noqa: E402


def md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def section(name, results):
    fig = FIGURES[name]
    lines = [f"## {fig.title}\n"]
    for i, table in enumerate(fig.tables(results[name])):
        if table.caption:
            lines.append(("\n" if i else "") + table.caption + "\n")
        lines.append(md_table(table.header, table.cells()))
    lines.append(f"\n*Measured vs paper*: {fig.note(results[name])}\n")
    return "\n".join(lines)


def write_csv(csv_dir, results):
    """One CSV per figure table: a row per size, a column per series."""
    for name, r in results.items():
        for i, table in enumerate(FIGURES[name].tables(r)):
            path = os.path.join(csv_dir, f"{name}.csv" if i == 0 else f"{name}-{i + 1}.csv")
            write_series_csv(path, [s for s, _ in table.rows], table.header[1:], table.header[0])
            print(f"wrote {path}")


HEADER = """# EXPERIMENTS — paper vs. measured

Generated by `python tools/run_experiments.py` (deterministic simulation;
identical on every run).  Every figure's runs and paper-band checks live
in `src/repro/analysis/figures.py`; the script prints one row per check
and exits non-zero if any fails.

**Reading guide.** The testbed is a calibrated simulation of the paper's
5-node cluster (see DESIGN.md §2/§5), so *shapes* — who wins, where the
crossovers sit, what fails — are the reproduction target; absolute seconds
are model outputs, not wall-clock measurements of 2008 hardware.  `n/s` =
not supported (memory overflow), matching the paper's truncated curves.

## Table I — testbed configuration

Reproduced exactly in `repro.config.table1_cluster()`: one Core2 Quad
Q9400 host, one Core2 Duo E4400 smart-storage node, three Celeron 450
compute nodes, 2 GB memory each, one 1000 Mbps switch.  Verified by
`benchmarks/bench_table1.py`.
"""

FOOTER = """## Known deviations from the paper

1. **Fig 9 past-threshold multipliers.** The paper reports the
   non-partitioned frameworks costing "16 to 18 times more" than McSD at
   the largest sizes (and quotes 6.8x / 17.4x averages).  Our memory model
   is calibrated so the *single-application* Fig 8(b) ratio hits the
   paper's ~6x at 1.25G (measured: {fig8b_ratio:.2f}x); the same paging curve
   then yields {fig9_host_only:.2f}x (host only) and {fig9_nopart:.2f}x (McSD w/o partition) at
   1.25G, not 16–18x, for the multi-application cells, because both
   figures share one mechanism.  The two numbers cannot both come out of
   a single consistent paging model: the `sensitivity` ablation above
   sweeps the paging knobs, and at the calibrated onset the Fig 8(b)
   ratio rises {sweep_ratios} as the penalty coefficient goes
   {sweep_coeffs}, so a coefficient steep enough for the paper's pair
   multipliers would push the single-application ratio past the paper's
   own "1/6" as well.  The
   crossover location, the explosive nonlinearity, and the
   ~2x-vs-traditional-SD band all reproduce under every setting of the
   knob (the sensitivity ablation's point), and we kept Fig 8(b)'s
   quantitative anchor since the paper states it most precisely.
2. **Sequential-baseline footprint.** The paper's Fig 9(b) shows the
   traditional (sequential) SD staying flat across sizes, implying the
   sequential scan does not page; we model it with a ~1.05x streaming
   footprint accordingly.
3. **Absolute times** are calibrated to Phoenix-era per-core throughputs
   (WC ≈ 17 MB/s/core at 2 GHz, SM ≈ 36 MB/s/core) and a 120 MB/s SATA
   disk; the paper does not publish absolute elapsed times for most
   points, so calibration targeted the stated ratios.
4. **The Host-with-Partition variant** (mentioned in the Fig 9 caption but
   not plotted by the paper) comes out *faster* than McSD at large sizes
   in our model: once partitioning removes the memory wall, the idle quad
   host out-muscles the duo SD even paying GbE NFS reads.  This is a real
   property of the architecture — offload pays when the host is busy or
   the wire is slow — and is why the framework ships an adaptive
   placement policy (`repro.core.AdaptivePolicy`); see also the network
   ablation.  That policy still keeps an input beyond the host's
   original-Phoenix limit (1.61 GB on Table I nodes) on its SD: it gives
   up the idle quad host's speed on such a job to keep its bytes off the
   wire, where each byte a host run reads crosses two GbE links.  A
   smaller job moves to the host only when the host, transfer included,
   would finish it before the SD clears the work already placed there.

## Future-work experiments (Section VI)

| Claim | Where | Result |
|---|---|---|
| Ethernet -> Infiniband upgrade | figure `network` | {network} |
| Parallelism across multiple McSDs | figure `multisd` | {multisd} |
| Fault tolerance mechanism | `tests/core/test_failover.py`, `tests/sched/test_scheduler.py` | per-attempt deadlines (SD and host) + scheduler requeue on a replica, then the host, within 2 × (`max_retries` + 1) attempts; exact results preserved |
| Module extensibility (database ops) | `examples/custom_module.py` | SELECT/GROUP-BY preloaded and offloaded like the built-ins |
"""


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    csv_dir = None
    for a in sys.argv[1:]:
        if a.startswith("--csv"):
            csv_dir = a.split("=", 1)[1] if "=" in a else "results"
    out_path = args[0] if args else "EXPERIMENTS.md"
    t0 = time.time()
    results = sweep()
    if csv_dir:
        write_csv(csv_dir, results)
    parts = [HEADER] + [section(name, results) for name in FIGURES]
    parts.append(FOOTER.format(
        fig8b_ratio=trad_over_part(results["fig8b"]),
        fig9_host_only=results["fig9"]["host-only"][3],
        fig9_nopart=results["fig9"]["mcsd-nopart"][3],
        sweep_ratios=" → ".join(
            f"{v:.2f}x"
            for v in results["sensitivity"]["ratio"][MemoryPolicy.thrash_fraction]
        ),
        sweep_coeffs=" → ".join(map(str, THRASH_COEFFS)),
        network=FIGURES["network"].note(results["network"]),
        multisd=FIGURES["multisd"].note(results["multisd"]),
    ))
    with open(out_path, "w") as f:
        f.write("\n".join(parts))
    rows = checks(results)
    print_rows(rows)
    print(f"wrote {out_path} in {time.time() - t0:.0f}s real")
    bad = failed(rows)
    if bad:
        print(f"paper bands missed: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
