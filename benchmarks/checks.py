"""Check rows: the one form every gate verdict takes.

A perf-gate suite (``bench_shuffle``, ``bench_real_engine``,
``bench_serving``, ``bench_distributed``, ``bench_tier``) exports
``checks(payload)``, which reads the measured numbers of its payload and
returns one ``(name, kind, ok, note)`` row per gate condition.  ``kind``
is :data:`OUTPUT` (a wrong answer: exit 1) or :data:`GATE` (a missed
bound: exit 2).  ``tools/perf_gate.py`` and the pytest ``bench_*``
entries both judge a suite from these rows alone, so every condition is
written once.  ``tools/chaos_soak.py`` cases return ``(name, ok, note)``
rows through the same printer.

The helpers here are the steps those callers shared: printing rows,
turning them into an exit status, putting a job's answer in
byte-comparable form, and scanning for leaked spill and tier directories.
"""

from __future__ import annotations

import glob
import os
import pickle
import tempfile
import typing as _t

from repro.apps.matmul import assemble_product
from repro.exec.outofcore import live_spill_dirs
from repro.tier import live_tier_dirs

#: row kinds: a wrong answer (exit 1) or a missed bound (exit 2)
OUTPUT = "output"
GATE = "gate"

#: traced-job suites: the critical path's exclusive segments must cover
#: this share of the job's wall time (spans escaping the tree break it)
CRITPATH_COVERAGE_GATE = 0.90


def print_rows(rows: _t.Iterable[tuple]) -> None:
    """One ``[ok  ]``/``[FAIL]`` line per row (name first, ok and note last)."""
    for name, *_, ok, note in rows:
        print(f"  [{'ok  ' if ok else 'FAIL'}] {name:<28} {note}")


def failed(rows: _t.Iterable[tuple]) -> list[str]:
    """Names of the rows that did not hold."""
    return [name for name, *_, ok, _note in rows if not ok]


def verdict(rows: _t.Iterable[tuple]) -> int:
    """Exit status for suite rows: 0 all hold, 1 an output differs, else 2."""
    kinds = {kind for _name, kind, ok, _note in rows if not ok}
    if OUTPUT in kinds:
        return 1
    return 2 if kinds else 0


def canonical_output(app: str, output: object) -> bytes:
    """The byte-comparable form of a job's answer.

    matmul's raw output is one ``(row_start, block)`` entry per map task.
    The task count follows the executing node's core count, and a
    distributed merge nests per-shard identity merges one list level
    deeper, so blocking legitimately differs between runs.  The *answer*
    is the assembled product matrix, so byte identity is asserted on
    that.  The text apps' outputs are already canonical.
    """
    if app != "matmul":
        return pickle.dumps(output)
    pairs: list = []

    def walk(x: object) -> None:
        if isinstance(x, tuple) and len(x) == 2:
            pairs.append(x)
        elif isinstance(x, list):
            for y in x:
                walk(y)

    walk(output)
    return pickle.dumps(assemble_product(pairs))


def leak_scan(*tier_dirs: str) -> dict[str, list[str]]:
    """Spill and tier directories still on disk after their owners closed.

    ``spill``: registered spill dirs plus any ``localmr-spill-*`` left in
    the temp dir; ``tier``: registered tier dirs plus any of
    ``tier_dirs`` (the stores' SSD dirs) that still exists.
    """
    spill = live_spill_dirs() + glob.glob(
        os.path.join(tempfile.gettempdir(), "localmr-spill-*")
    )
    tier = live_tier_dirs() + [d for d in tier_dirs if os.path.isdir(d)]
    return {"spill": sorted(set(spill)), "tier": sorted(set(tier))}
