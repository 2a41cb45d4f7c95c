"""Shared pieces: arguments, the metric catalog, statistics, provenance and
the result line every workload prints last."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import typing as _t

import numpy as np

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from perfbench.tracing import Tracer

WORKLOADS = ("engine-memory", "engine-spill", "sim-cluster")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: where traced runs leave their spans (inside the checkout)
OUT_DIR = os.path.join(ROOT, ".perfbench", "out")

#: job-time tail: p90, which keeps >= TAIL_MIN_BEYOND jobs beyond it once a
#: run has >= 100 jobs (every workload is sized so that it has at the
#: benchmark's run length; shorter runs fall back to a lower percentile)
TAIL_Q = 0.90
TAIL_MIN_BEYOND = 10


def parse_args(argv: _t.Sequence[str] | None = None) -> argparse.Namespace:
    """The benchmark's arguments, plus ``--dir`` for the prepared inputs."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", help="directory of the prepared inputs")
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        ap.error("--seconds must be within 1..600")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


# -- statistics ---------------------------------------------------------------


def quantile(values: _t.Sequence[float], q: float) -> float:
    """Nearest-rank quantile (0 for an empty sequence)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def tail_q(n: int) -> float:
    """The highest percentile with >= TAIL_MIN_BEYOND of ``n`` jobs beyond
    it, capped at TAIL_Q (p90 from 100 jobs on)."""
    if n <= TAIL_MIN_BEYOND:
        raise RuntimeError(f"{n} jobs are too few for a tail")
    return min(TAIL_Q, (n - TAIL_MIN_BEYOND) / n)


def tail(values: _t.Sequence[float]) -> float:
    return quantile(values, tail_q(len(values)))


def median(values: _t.Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mib() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    """CPU seconds of reaped child processes (user + system)."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


#: word lengths by Zipf rank (3-10 letters), the same for every seed: the
#: most frequent words decide how many tokens a megabyte holds, so seeded
#: lengths would make one seed's files cost more to map than another's
WORD_LENGTHS = np.random.default_rng(0x5EED).integers(3, 11, size=100_000)


def corpus(rng: np.random.Generator, nbytes: int, vocabulary: int) -> bytes:
    """~``nbytes`` of Zipf-distributed text, 12 words a line; ``rng``
    draws the letters and the word sequence."""
    lengths = WORD_LENGTHS[:vocabulary]
    letters = rng.integers(97, 123, size=int(lengths.sum()), dtype=np.uint8).tobytes()
    ends = np.cumsum(lengths).tolist()
    words = [letters[e - n:e] for e, n in zip(ends, lengths.tolist())]
    mean = float((lengths / np.arange(1, vocabulary + 1) ** 1.3).sum()
                 / (1.0 / np.arange(1, vocabulary + 1) ** 1.3).sum())
    n_words = max(12, int(nbytes / (mean + 1.0)))
    ranks = ((rng.zipf(1.3, size=n_words) - 1) % vocabulary).tolist()
    tokens = [words[r] for r in ranks]
    lines = [b" ".join(tokens[i:i + 12]) for i in range(0, n_words, 12)]
    return b"\n".join(lines) + b"\n"


#: host seconds are reported at a reference machine speed: the speed at
#: which :func:`calibration_s` takes CAL_REF_S (its usual time on a shared
#: 2-vCPU x86-64 VM).  That VM's single-thread speed drifts by 20-40% in
#: phases of tens of seconds to minutes, which moved raw host-time medians by up to
#: 30% between 10-run sets; scaling each timed stretch by the speed
#: measured just before it cut that drift by 2-3x in a 200 s test.
CAL_REF_S = 0.025


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def speed_scale() -> float:
    """Factor turning host seconds measured now into reference seconds."""
    return CAL_REF_S / calibration_s()


def output_digest(output: object) -> str:
    """Identity-free digest of a job's output (its ``repr``)."""
    return hashlib.sha256(repr(output).encode()).hexdigest()


# -- provenance, traces and the result line ----------------------------------


def provenance(args: argparse.Namespace, **extra: object) -> dict:
    """What a result was measured on; stamped beside every result."""
    cpus = os.cpu_count() or 1
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    out.update(extra)
    if cpus < 2:
        out["parallel_speedup"] = "not measured (cpu_count < 2)"
    return out


def write_trace(tracer: "Tracer", args: argparse.Namespace, meta: dict) -> str:
    """Write a traced run's spans; returns the file's path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace.jsonl")
    tracer.dump(path, meta)
    return os.path.relpath(path)


def catalog(kind: str) -> dict[str, str]:
    """The metrics ``BENCHMARK.json`` lists under ``kind`` (``end_to_end``:
    untraced runs; ``per_layer``: traced runs), name -> unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def emit(
    kind: str,
    metrics: dict[str, float],
    attempted: int,
    failed: int,
    correct: bool,
    info: dict,
) -> int:
    """Print every ``kind`` metric with its unit, the info fields, and the
    result line last; returns the exit code (non-zero when a check failed)."""
    units = catalog(kind)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    print(f"metric failed_frac = {failed / max(1, attempted)!r} ratio")
    for key, value in info.items():
        print(f"info {key} = {json.dumps(value, sort_keys=True)}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if correct and failed == 0 else 1
