#!/usr/bin/env python3
"""Compare two benchmark payloads metric by metric.

Usage:
    python tools/bench_diff.py OLD.json NEW.json [--threshold PCT] [--gate]
    python tools/bench_diff.py --git BENCH_real_engine.json [...]

Flattens every numeric leaf of both JSON documents into dotted paths
(``workload.bytes``, ``gates.speedup.measured``, ``slo.t0.burn_rate``,
...) and prints one row per path: old value, new value, absolute delta,
percent change.  Paths present on only one side are listed separately —
a new metric is news, not noise.

``--git FILE`` diffs the committed version of FILE (``git show
HEAD:FILE``) against the working-tree copy — the one-liner for "did my
change move the benchmarks?".

By default the report is **non-gating**: every comparison exits 0, and
rows whose magnitude of change exceeds ``--threshold`` percent (default
10) are merely flagged ``!``.  CI runs it as a visibility step so
regressions show up in the log without double-gating what
``tools/perf_gate.py`` already enforces.  Pass ``--gate`` to exit 1 when
any flagged row's change is a *regression* (the metric moved against its
direction: throughput down, latency up).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

__all__ = ["flatten", "diff_payloads", "format_diff", "main"]

#: path substrings whose metrics are better when SMALLER (latency-like);
#: everything else is treated as better-bigger (throughput-like)
_SMALLER_IS_BETTER = (
    "latency", "elapsed", "seconds", "wall", "p50", "p95", "p99",
    "overhead", "dropped", "failed", "rejected", "spilled", "rss",
    "burn_rate", "queue_depth", "respawn",
)

#: volatile leaves that only ever differ (timestamps, host facts)
_IGNORE_SUBSTRINGS = ("environment.", "dumped_at", "run_id", "argv")


def flatten(doc: object, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of ``doc`` as ``{dotted.path: value}``.

    Booleans count as numeric (``True`` -> 1.0) so gate verdicts diff
    like everything else; strings and nulls are skipped.  List elements
    get their index as a path component.
    """
    out: dict[str, float] = {}
    if isinstance(doc, bool):
        out[prefix] = 1.0 if doc else 0.0
    elif isinstance(doc, (int, float)):
        out[prefix] = float(doc)
    elif isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value, path))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            path = f"{prefix}.{i}" if prefix else str(i)
            out.update(flatten(value, path))
    return out


def _is_regression(path: str, old: float, new: float) -> bool:
    lower = path.lower()
    smaller_better = any(s in lower for s in _SMALLER_IS_BETTER)
    return new > old if smaller_better else new < old


def diff_payloads(
    old: object, new: object, threshold_pct: float = 10.0
) -> dict:
    """Structured diff: changed/added/removed metric paths.

    Each changed row is ``(path, old, new, delta, pct, flagged,
    regression)`` — ``flagged`` when ``|pct|`` exceeds the threshold (or
    the value moved to/from zero), ``regression`` when the flagged move
    goes against the metric's good direction.
    """
    a = {
        k: v for k, v in flatten(old).items()
        if not any(s in k for s in _IGNORE_SUBSTRINGS)
    }
    b = {
        k: v for k, v in flatten(new).items()
        if not any(s in k for s in _IGNORE_SUBSTRINGS)
    }
    changed = []
    same = 0
    for path in sorted(a.keys() & b.keys()):
        va, vb = a[path], b[path]
        if va == vb:
            same += 1
            continue
        delta = vb - va
        pct = (delta / abs(va) * 100.0) if va else float("inf")
        flagged = abs(pct) > threshold_pct
        changed.append(
            (
                path, va, vb, delta, pct, flagged,
                flagged and _is_regression(path, va, vb),
            )
        )
    return {
        "changed": changed,
        "added": sorted(b.keys() - a.keys()),
        "removed": sorted(a.keys() - b.keys()),
        "unchanged": same,
        "threshold_pct": threshold_pct,
    }


def format_diff(diff: dict, all_rows: bool = False) -> str:
    """Render a :func:`diff_payloads` result as an aligned report."""
    lines = []
    rows = diff["changed"] if all_rows else [
        r for r in diff["changed"] if r[5]
    ]
    shown_note = "" if all_rows else (
        f" over {diff['threshold_pct']:g}% shown"
        f" ({len(diff['changed'])} changed total)"
    )
    lines.append(
        f"{len(diff['changed'])} changed, {diff['unchanged']} unchanged, "
        f"{len(diff['added'])} added, {len(diff['removed'])} removed"
        + shown_note
    )
    if rows:
        width = max(len(r[0]) for r in rows)
        lines.append("")
        lines.append(
            f"{'metric':<{width}} {'old':>14} {'new':>14} {'Δ%':>9}"
        )
        lines.append("-" * (width + 41))
        for path, va, vb, _delta, pct, flagged, regression in rows:
            mark = "!" if regression else ("*" if flagged else " ")
            pct_s = f"{pct:+.1f}%" if pct != float("inf") else "(new≠0)"
            lines.append(
                f"{path:<{width}} {va:>14.6g} {vb:>14.6g} {pct_s:>9} {mark}"
            )
        if any(r[6] for r in rows):
            lines.append("")
            lines.append("! = regression beyond threshold, * = large move")
    for label, paths in (("added", diff["added"]), ("removed", diff["removed"])):
        if paths:
            lines.append("")
            lines.append(f"{label}:")
            lines.extend(f"  {p}" for p in paths)
    return "\n".join(lines)


def _load(path: str) -> object:
    with open(path) as f:
        return json.load(f)


def _load_git_head(path: str) -> object:
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rel = os.path.relpath(os.path.abspath(path), repo_root)
    out = subprocess.run(
        ["git", "show", f"HEAD:{rel}"],
        cwd=repo_root, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise SystemExit(
            f"git show HEAD:{rel} failed: {out.stderr.strip()}"
        )
    return json.loads(out.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="baseline payload (or FILE with --git)")
    ap.add_argument("new", nargs="?", default=None, help="candidate payload")
    ap.add_argument(
        "--git", action="store_true",
        help="diff HEAD's copy of OLD against the working-tree copy",
    )
    ap.add_argument(
        "--threshold", type=float, default=10.0,
        help="flag rows whose |change| exceeds this percent (default 10)",
    )
    ap.add_argument(
        "--all", action="store_true", help="print every changed row",
    )
    ap.add_argument(
        "--gate", action="store_true",
        help="exit 1 when a flagged row is a regression (default: report only)",
    )
    args = ap.parse_args(argv)

    if args.git:
        if args.new is not None:
            ap.error("--git takes one FILE, not two")
        old_doc = _load_git_head(args.old)
        new_doc = _load(args.old)
        old_name, new_name = f"HEAD:{args.old}", args.old
    else:
        if args.new is None:
            ap.error("two payload files required (or --git FILE)")
        old_doc, new_doc = _load(args.old), _load(args.new)
        old_name, new_name = args.old, args.new

    diff = diff_payloads(old_doc, new_doc, threshold_pct=args.threshold)
    print(f"bench diff: {old_name} -> {new_name}")
    print(format_diff(diff, all_rows=args.all))
    if args.gate and any(r[6] for r in diff["changed"]):
        print("\nGATE: regression beyond threshold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
