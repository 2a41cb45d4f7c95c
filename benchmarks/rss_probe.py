"""Peak-RSS probe for the real engine: ``python -m benchmarks.rss_probe``.

Run as its own process so ``resource.getrusage(...).ru_maxrss`` — a
*process-lifetime high-water mark* — reflects exactly one engine run.
Kept import-light (no pytest, no bench harness): anything imported before
the baseline snapshot that transiently allocates would raise the mark and
hide the run's own footprint, which is how a probe reads "0 KiB extra"
for a run that plainly holds megabytes.

The measured mark is the **parent's**: the engine maps through a worker
pool, so chunk bytes and mmap pages are resident in the workers, and
what's left in the parent is precisely what the streaming pipeline makes
claims about — the merge accumulator plus in-flight results in memory
mode, one fragment's accumulator plus spill blocks and merge read-ahead
out of core.  The workload runs *without* a combiner so every emitted
value survives to the parent: the in-memory accumulator is O(input),
which is the case the memory budget exists to bound.

One subtlety forces a two-stage launch: on Linux ``ru_maxrss`` survives
``exec``, so a probe forked directly from a large benchmark process
starts life with the *parent's* high-water mark — its own usage never
raises the mark and every delta reads 0.  What propagates through a fork
is the parent's *current* RSS, though, so the probe first re-execs
itself: stage 1 (mark poisoned, but small) forks stage 2, which
therefore starts with a clean low mark and does the measuring.

Output: one JSON object on stdout — baseline/peak/extra KiB, run mode,
fragment and spill stats, and a digest of the full output for
cross-mode equality checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys

_STAGE_VAR = "_RSS_PROBE_STAGE2"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: rss_probe <path> <chunk_bytes> <budget|0>", file=sys.stderr)
        return 2
    if os.environ.get(_STAGE_VAR) != "1":
        env = dict(os.environ)
        env[_STAGE_VAR] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.rss_probe", *argv], env=env
        )
        return proc.returncode
    path, chunk_bytes, budget = argv[0], int(argv[1]), int(argv[2]) or None

    from repro.apps.wordcount import wc_map, wc_reduce
    from repro.exec import LocalMapReduce

    baseline_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with LocalMapReduce(
        map_fn=wc_map, reduce_fn=wc_reduce, combine_fn=None,
        sort_output=True, n_workers=2, start_method="fork",
        memory_budget=budget,
    ) as eng:
        res = eng.run(path, chunk_bytes=chunk_bytes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(
        {
            "baseline_kib": baseline_kib,
            "peak_kib": peak_kib,
            "extra_kib": peak_kib - baseline_kib,
            "mode": res.mode,
            "n_fragments": res.n_fragments,
            "spilled_bytes": res.spilled_bytes,
            "n_keys": len(res.output),
            "digest": hashlib.sha256(repr(res.output).encode()).hexdigest(),
        },
        sys.stdout,
    )
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
