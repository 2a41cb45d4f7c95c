#!/usr/bin/env python3
"""Perf gates: run one benchmark suite, judge it, write its BENCH file.

Usage:  python tools/perf_gate.py [--quick] [--out PATH] [--trace OUT.json]
        python tools/perf_gate.py [--quick] --real | --serving
                                  | --distributed | --tier

Each suite in :data:`SUITES` lives in ``benchmarks/`` and exports
``run_suite(quick)``, which returns a JSON payload of measured numbers,
and ``checks(payload)``, which turns those numbers into
``(name, kind, ok, note)`` rows (see ``benchmarks/checks.py``).  The gate
runs the suite, stamps ``elapsed_s`` and ``environment``, stores the rows
in the payload as ``checks`` (name -> ok), writes it to the suite's BENCH
file at the repo root and prints the rows.  The default suite is the
shuffle grid; ``--real``, ``--serving``, ``--distributed`` and ``--tier``
pick another (each suite's module docstring lists its cases and gates).

Every gate holds in ``--quick`` too (the shuffle speedups excepted:
quick times the smallest size once, where timings are noise-dominated).
The real and tier suites measure wall-clock, so a gate-only miss there
is retried once to absorb a transient load spike; a real regression
fails both runs.

Exit status:
    0  every check holds
    1  an output check failed (a wrong answer)
    2  outputs match but a gate check failed

``--trace OUT.json`` also writes the shuffle grid's span tree as a
Chrome trace (shuffle only).  ``--dump-dir DIR`` (default: the
``REPRO_BLACKBOX_DIR`` environment variable) arms the flight recorder on
every registry the benchmarks create; a failing gate dumps each live
recorder's ring into DIR as a JSONL black box and prints the paths.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from benchmarks.checks import failed, print_rows, verdict  # noqa: E402
from repro.obs import flight as _flight  # noqa: E402
from repro.obs.export import environment_provenance  # noqa: E402

#: suite -> (module in benchmarks/, BENCH file, retry once on a gate-only miss)
SUITES = {
    "shuffle": ("bench_shuffle", "BENCH_shuffle.json", False),
    "real": ("bench_real_engine", "BENCH_real_engine.json", True),
    "serving": ("bench_serving", "BENCH_serving.json", False),
    "distributed": ("bench_distributed", "BENCH_distributed.json", False),
    "tier": ("bench_tier", "BENCH_tier.json", True),
}


def run_gate(name: str, args: argparse.Namespace) -> int:
    """Run, judge and record one suite; the gate's exit status."""
    module, bench_file, retry = SUITES[name]
    suite = importlib.import_module(f"benchmarks.{module}")
    kwargs = {"trace": args.trace} if args.trace else {}
    t0 = time.perf_counter()
    payload = suite.run_suite(args.quick, **kwargs)
    rows = suite.checks(payload)
    if retry and verdict(rows) == 2:
        payload = suite.run_suite(args.quick, **kwargs)
        payload["retried"] = True
        rows = suite.checks(payload)
    elapsed = time.perf_counter() - t0
    payload["elapsed_s"] = round(elapsed, 3)
    payload["environment"] = environment_provenance()
    payload["checks"] = {row[0]: row[2] for row in rows}

    out = args.out or os.path.join(_REPO_ROOT, bench_file)
    with open(out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"== {name} ({payload['mode']})")
    print_rows(rows)
    print(f"wrote {out} ({elapsed:.1f}s)")

    rc = verdict(rows)
    if rc:
        print(f"{name} gate FAILED (exit {rc}): {', '.join(failed(rows))}",
              file=sys.stderr)
        if args.dump_dir:
            for path in _flight.dump_live(
                args.dump_dir, reason=f"perf gate failed (exit {rc})"
            ):
                print(f"black box: {path}", file=sys.stderr)
    else:
        print(f"{name}: all {len(rows)} checks hold")
    return rc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick", action="store_true",
        help="smallest size only, one repeat: fast correctness smoke",
    )
    only = ap.add_mutually_exclusive_group()
    for name, (module, _, _) in SUITES.items():
        if name != "shuffle":
            only.add_argument(
                f"--{name}", action="store_true",
                help=f"gate benchmarks/{module}.py instead of the shuffle grid",
            )
    ap.add_argument(
        "--out", default=None,
        help="where to write the JSON results (default: repo root)",
    )
    ap.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="also write a Chrome-trace (Perfetto-loadable) of the shuffle grid",
    )
    ap.add_argument(
        "--dump-dir", default=os.environ.get("REPRO_BLACKBOX_DIR"),
        metavar="DIR",
        help="dump flight-recorder black boxes here when a gate fails",
    )
    args = ap.parse_args(argv)

    name = next((n for n in SUITES if getattr(args, n, False)), "shuffle")
    if args.trace and name != "shuffle":
        ap.error("--trace records the shuffle grid only")
    if args.dump_dir:
        _flight.install_default()
    return run_gate(name, args)


if __name__ == "__main__":
    sys.exit(main())
