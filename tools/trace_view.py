#!/usr/bin/env python3
"""Per-phase breakdown tables from an exported trace file.

Usage:
    python tools/trace_view.py TRACE.json [--root NAME] [--group name|cat]
                               [--tree] [--unit s|ms|us] [--max-depth N]
    python tools/trace_view.py critpath TRACE.json [--root NAME]
                               [--containment] [--unit s|ms|us]

Reads either export format (Chrome-trace/Perfetto JSON or JSONL, see
:mod:`repro.obs.export`) and prints:

* the default view — the longest top-level span (the job) and a table of
  its direct children grouped by name: count, total, mean, percent of the
  job, plus the fraction of the job the phases cover;
* ``--root NAME`` — same table for a named span instead;
* ``--group cat`` — one table over *all* spans grouped by category
  (phoenix / smartfam / nfs / ...), useful for cross-cutting cost like
  NFS transfers;
* ``--tree`` — the indented span hierarchy with durations;
* ``critpath`` (leading view selector) — the critical path through the
  root span with per-edge slack and a by-name rollup
  (:mod:`repro.obs.critpath`); ``--containment`` links spans by interval
  containment across tracks instead of parent ids — the right mode for
  scheduler traces whose ``sched:jN`` and node tracks carry no cross-track
  links;
* counter sections from :data:`COUNTER_SECTIONS`, each printed when the
  trace recorded any of its counters: reliability (``fault.*`` /
  ``retry.*`` / ``pool.*`` — chaos-soak traces always
  have them), distributed shuffle (``shuffle.*`` and the ``dist.*``
  invoke/job counters of a ``DistributedEngine`` run — the
  ``shuffle.exchange`` leg itself lands on the job's ``dist:*`` track, so
  ``critpath --containment --root dist.job`` shows the exchange on the
  critical path when it dominates) and recovery (partial restarts,
  deduped transfers, node quarantine/probation/rejoin transitions, and
  per-node suspicion sparklines from the ``node.suspicion.<name>``
  series);
* a scheduler section (queue depth over time from the
  ``sched.queue_depth`` series, admissions/rejections, host placements
  and the input bytes they pull over NFS, per-tenant completions, cache
  hit rate, and latency percentiles from the
  ``sched.*`` counters and histograms) whenever the trace came from a
  run served through ``ClusterScheduler``;
* a tier section (burst-buffer hit-rate table across the mem and SSD
  levels, promotion/demotion and eviction-by-cause counters,
  write-back volume/losses, and the prefetch-win breakdown — how many
  prefetched blocks a later read actually consumed) whenever the run
  touched a tier (``tier.*`` counters present).

Times are primary-clock seconds: simulated seconds for simulator traces,
wall seconds for real-engine and benchmark traces.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing as _t

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from repro.obs.critpath import (  # noqa: E402
    critical_path,
    format_critical_path,
    job_critical_path,
)
from repro.obs.export import (  # noqa: E402
    format_breakdown,
    load_metrics,
    load_run_id,
    load_series,
    load_spans,
    phase_breakdown,
)

#: counter sections in print order: (title, counter-name prefixes).  A
#: counter prints once, in the section holding its longest matching prefix.
COUNTER_SECTIONS = (
    ("reliability counters", ("fault.", "retry.", "pool.")),
    ("distributed shuffle", ("shuffle.", "dist.")),
    ("recovery", ("dist.restart", "dist.transfer.", "node.")),
)


def group_by_cat(spans: list[dict], unit: str) -> str:
    """One table over all spans grouped by category."""
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
    cats: dict[str, dict] = {}
    for s in spans:
        row = cats.setdefault(
            s.get("cat") or "(none)", {"count": 0, "total": 0.0}
        )
        row["count"] += 1
        row["total"] += s["dur"]
    header = f"{'category':<16} {'spans':>7} {'total':>14}"
    lines = [header, "-" * len(header)]
    for cat, row in sorted(cats.items(), key=lambda kv: -kv[1]["total"]):
        lines.append(
            f"{cat:<16} {row['count']:>7} {row['total'] * scale:>13.6g}{unit}"
        )
    return "\n".join(lines)


def tree_view(spans: list[dict], unit: str, max_depth: int) -> str:
    """The indented span hierarchy."""
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
    by_parent: dict[object, list[dict]] = {}
    for s in spans:
        by_parent.setdefault(s.get("parent_id"), []).append(s)
    for kids in by_parent.values():
        kids.sort(key=lambda s: s["t0"])
    lines: list[str] = []

    def walk(span: dict, depth: int) -> None:
        if depth > max_depth:
            return
        indent = "  " * depth
        extra = ""
        attrs = span.get("attrs") or {}
        if attrs:
            keys = [k for k in ("module", "app", "seq", "bytes") if k in attrs]
            if keys:
                extra = " (" + ", ".join(f"{k}={attrs[k]}" for k in keys) + ")"
        lines.append(
            f"{indent}{span['name']:<{max(1, 40 - 2 * depth)}} "
            f"{span['dur'] * scale:>12.6g}{unit}  [{span.get('track', '')}]"
            f"{extra}"
        )
        for child in by_parent.get(span["id"], []):
            walk(child, depth + 1)

    for root in by_parent.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


def counter_sections(counters: dict) -> dict[str, list[tuple[str, float]]]:
    """Counters bucketed into :data:`COUNTER_SECTIONS` (sorted by name)."""
    rows: dict[str, list[tuple[str, float]]] = {t: [] for t, _ in COUNTER_SECTIONS}
    for name, value in sorted(counters.items()):
        matches = [
            (len(prefix), title)
            for title, prefixes in COUNTER_SECTIONS
            for prefix in prefixes
            if name.startswith(prefix)
        ]
        if matches:
            rows[max(matches)[1]].append((name, value))
    return rows


def counter_view(title: str, rows: list, extra: _t.Sequence[str] = ()) -> str:
    """One counter section plus extra lines ("" when there is neither)."""
    if not rows and not extra:
        return ""
    lines = [title, "-" * 24]
    if rows:
        width = max(len(name) for name, _ in rows)
        lines += [f"{name:<{width}} {value:>9.12g}" for name, value in rows]
    return "\n".join([*lines, *extra])


def tier_view(metrics: dict) -> str:
    """The burst-buffer section ("" when no tier was in the path).

    Three blocks: the hit table (where reads were answered), the
    lifecycle counters (promotions, demotions, evictions by cause,
    write-back traffic and losses, warm-run reuse), and the prefetch-win
    breakdown (issued vs actually consumed by a later read).
    """
    counters = metrics.get("counters") or {}
    if not any(k.startswith("tier.") for k in counters):
        return ""

    def c(name: str) -> int:
        return int(counters.get(name, 0))

    lines = ["burst-buffer tier", "-" * 24]

    hit_mem, hit_ssd, miss = c("tier.hit.mem"), c("tier.hit.ssd"), c("tier.miss")
    lookups = hit_mem + hit_ssd + miss
    if lookups:
        lines.append(f"{'level':<12} {'hits':>8} {'share':>7}")
        for label, n in (("mem", hit_mem), ("ssd", hit_ssd), ("miss -> disk", miss)):
            lines.append(f"{label:<12} {n:>8} {n / lookups:>6.0%}")
        lines.append(
            f"hit rate: {(hit_mem + hit_ssd) / lookups:.0%} over {lookups} lookups"
        )
    hb, mb = c("tier.bytes.hit"), c("tier.bytes.miss")
    if hb or mb:
        lines.append(f"bytes: {hb} from tier, {mb} from disk")

    lifecycle = [
        ("tier.promote", "promotions (ssd -> mem)"),
        ("tier.demote", "demotions (mem -> ssd)"),
        ("tier.evict.capacity", "evictions: capacity"),
        ("tier.evict.invalidation", "evictions: invalidation"),
        ("tier.evict.stuck", "evictions: stuck (faulted)"),
        ("tier.writeback.bytes", "write-back bytes to ssd"),
        ("tier.writeback.retry", "write-back retries"),
        ("tier.writeback.lost", "write-back entries lost"),
        ("tier.read.degraded", "reads degraded to disk"),
        ("tier.read.corrupted", "reads corrupted (crc-caught)"),
        ("tier.spill.reuse", "warm runs reused (merged or fragment)"),
        ("tier.spill.lost", "spill runs recomputed (lost)"),
        ("tier.spill.unkept", "answers not kept (merged write failed)"),
    ]
    rows = [(label, c(name)) for name, label in lifecycle if c(name)]
    if rows:
        width = max(len(label) for label, _ in rows)
        lines += [f"{label:<{width}} {value:>9}" for label, value in rows]

    issued = c("tier.prefetch.issued")
    if issued:
        won = c("tier.prefetch.hit")
        lines.append(
            f"prefetch: {issued} issued ({c('tier.prefetch.bytes')} B), "
            f"{won} consumed by reads"
            + (f" ({won / issued:.0%} win rate)" if won else "")
        )
        if c("tier.prefetch.failed"):
            lines.append(f"prefetch failures: {c('tier.prefetch.failed')}")
    return "\n".join(lines)


def _sparkline(
    label: str,
    times: list[float],
    values: list[float],
    width: int = 48,
    peak_fmt=int,
) -> str:
    """A time series as a fixed-width text sparkline."""
    if not values:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    t0, t1 = times[0], times[-1]
    span = max(t1 - t0, 1e-12)
    # bucket by time, keeping each bucket's max (bursts matter)
    buckets = [0.0] * width
    for t, v in zip(times, values):
        i = min(width - 1, int((t - t0) / span * width))
        buckets[i] = max(buckets[i], v)
    peak = max(max(buckets), 1e-12)
    line = "".join(blocks[int(b / peak * (len(blocks) - 1))] for b in buckets)
    return (
        f"{label}  [{line}]  peak {peak_fmt(peak)} "
        f"({t0:.6g}s .. {t1:.6g}s)"
    )


def _depth_sparkline(times: list[float], values: list[float], width: int = 48) -> str:
    """Queue depth over time as a fixed-width text sparkline."""
    return _sparkline(
        "queue depth", times, values, width, peak_fmt=lambda p: int(max(p, 1.0))
    )


def scheduler_view(metrics: dict, series: dict) -> str:
    """The control-plane section ("" when the run was not scheduled)."""
    counters = metrics.get("counters") or {}
    sched = {k: v for k, v in counters.items() if k.startswith("sched.")}
    if not sched:
        return ""
    lines = ["scheduler", "-" * 24]

    depth = series.get("sched.queue_depth") or {}
    spark = _depth_sparkline(
        list(depth.get("times") or []), list(depth.get("values") or [])
    )
    if spark:
        lines.append(spark)

    def c(name: str) -> int:
        return int(counters.get(name, 0))

    lines.append(
        f"admitted {c('sched.admitted')}  rejected {c('sched.rejected')}  "
        f"dispatched {c('sched.dispatched')}  completed {c('sched.completed')}  "
        f"requeued {c('sched.requeued')}  failed {c('sched.failed')}"
    )
    host = c("sched.host_attempts")
    if host:
        lines.append(
            f"host placements {host}: {c('sched.host_bytes') / 1e9:.2f} GB "
            "of input read over NFS"
        )
    hits, misses = c("sched.cache.hit"), c("sched.cache.miss")
    if hits or misses:
        rate = hits / max(1, hits + misses)
        lines.append(f"cache: {hits} hits / {misses} misses ({rate:.0%} hit rate)")

    tenants = sorted(
        name.split(".")[2]
        for name in sched
        if name.startswith("sched.tenant.") and name.endswith(".completed")
    )
    for tenant in tenants:
        lines.append(
            f"tenant {tenant}: {c(f'sched.tenant.{tenant}.completed')} jobs, "
            f"{int(counters.get(f'sched.tenant.{tenant}.work', 0))} bytes"
        )

    hists = metrics.get("histograms") or {}
    for name in ("sched.latency.queue", "sched.latency.run", "sched.latency.total"):
        h = hists.get(name)
        if h and h.get("count"):
            lines.append(
                f"{name}: p50 {h['p50']:.6g}s  p95 {h['p95']:.6g}s  "
                f"p99 {h['p99']:.6g}s  (n={h['count']})"
            )
    return "\n".join(lines)


def recovery_lines(series: dict) -> list[str]:
    """Per-node phi suspicion sparklines."""
    lines = []
    for name, s in sorted((series or {}).items()):
        if not name.startswith("node.suspicion."):
            continue
        spark = _sparkline(
            f"phi {name.split('.', 2)[2]:<6}",
            list(s.get("times") or []),
            list(s.get("values") or []),
            peak_fmt=lambda p: f"{p:.2g}",
        )
        if spark:
            lines.append(spark)
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # leading view selector: "critpath TRACE" (extensible to other views)
    view = "breakdown"
    if argv and argv[0] == "critpath":
        view = argv.pop(0)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="trace file (Chrome JSON or JSONL)")
    ap.add_argument("--root", default=None, help="break down this named span")
    ap.add_argument(
        "--group", choices=("name", "cat"), default="name",
        help="group the root's children by name (default) or all spans by cat",
    )
    ap.add_argument("--tree", action="store_true", help="print the span tree")
    ap.add_argument(
        "--containment", action="store_true",
        help="critpath: link spans by interval containment across tracks",
    )
    ap.add_argument("--unit", choices=("s", "ms", "us"), default="s")
    ap.add_argument("--max-depth", type=int, default=6)
    args = ap.parse_args(argv)

    spans = load_spans(args.trace)
    if not spans:
        print("no spans in trace", file=sys.stderr)
        return 1
    run_id = load_run_id(args.trace)
    provenance = f" (run {run_id})" if run_id else ""
    print(f"{len(spans)} spans from {args.trace}{provenance}\n")

    metrics = load_metrics(args.trace)
    series = load_series(args.trace)
    counters = metrics.get("counters") or {}
    extra = {"recovery": recovery_lines(series)}
    sections = [
        counter_view(title, rows, extra.get(title, ()))
        for title, rows in counter_sections(counters).items()
    ]
    sections += [scheduler_view(metrics, series), tier_view(metrics)]
    if view == "critpath":
        if args.containment:
            cp = job_critical_path(
                spans, root_name=args.root or "job"
            )
        else:
            cp = critical_path(spans, root_name=args.root)
        print(format_critical_path(cp, time_unit=args.unit))
    elif args.tree:
        print(tree_view(spans, args.unit, args.max_depth))
    elif args.group == "cat":
        print(group_by_cat(spans, args.unit))
    else:
        breakdown = phase_breakdown(spans, root_name=args.root)
        print(format_breakdown(breakdown, time_unit=args.unit))
    for section in sections:
        if section:
            print("\n" + section)
    return 0


if __name__ == "__main__":
    sys.exit(main())
