"""Tests for spill integrity: crc framing, corruption recovery, leak guard."""

from __future__ import annotations

import functools
import glob
import os
import signal
import subprocess
import sys
from collections import Counter

import pytest

from repro.errors import (
    FaultInjectedError,
    SpillCorruptionError,
    WorkloadError,
    is_retryable,
)
from repro.exec.chunks import chunk_file
from repro.exec.outofcore import (
    _BLOCK_HEADER,
    iter_run,
    live_spill_dirs,
    run_out_of_core,
    write_run,
)
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.obs import Observability
from repro.phoenix.sort import decorate_sorted

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _inj(*rules, seed=0, obs=None):
    return FaultInjector(FaultPlan(rules=tuple(rules), seed=seed), obs=obs)


def _entries(n=300):
    return decorate_sorted({b"key%04d" % i: [i] for i in range(n)})


# -- crc framing -------------------------------------------------------------


def test_truncated_run_raises_spill_corruption(tmp_path):
    path = str(tmp_path / "run")
    write_run(path, _entries(), block_values=32)
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size - 3)
    with pytest.raises(SpillCorruptionError):
        list(iter_run(path))


def test_on_disk_bitflip_raises_after_reread(tmp_path):
    path = str(tmp_path / "run")
    write_run(path, _entries(), block_values=32)
    with open(path, "r+b") as f:
        f.seek(_BLOCK_HEADER.size + 5)  # inside the first block's payload
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(SpillCorruptionError) as err:
        list(iter_run(path, run_index=4))
    assert err.value.block_index == 0
    assert err.value.run_index == 4
    assert is_retryable(err.value)


# -- injected faults ---------------------------------------------------------


def test_injected_write_corruption_is_durable(tmp_path):
    # the byte flips *after* the crc is computed: on-disk damage that the
    # reader's single re-read cannot mask
    path = str(tmp_path / "run")
    entries = _entries()
    inj = _inj(FaultRule("spill.write", action="corrupt", count=1, where={"run": 0}))
    write_run(path, entries, block_values=32, faults=inj, run_index=0)
    assert inj.injections == 1
    with pytest.raises(SpillCorruptionError):
        list(iter_run(path, run_index=0))


def test_injected_read_corruption_recovers_via_reread(tmp_path):
    # the byte flips in memory before the crc check; the on-disk copy is
    # intact, so the one re-read recovers silently
    path = str(tmp_path / "run")
    entries = _entries()
    write_run(path, entries, block_values=32)
    inj = _inj(FaultRule("spill.read", action="corrupt", count=1, where={"run": 0}))
    assert list(iter_run(path, faults=inj, run_index=0)) == entries
    assert inj.injections == 1


def test_injected_write_failure_is_retryable(tmp_path):
    path = str(tmp_path / "run")
    inj = _inj(FaultRule("spill.write", action="fail", count=1))
    with pytest.raises(FaultInjectedError) as err:
        write_run(path, _entries(), faults=inj, run_index=0)
    assert is_retryable(err.value)
    # nothing was written before the failure surfaced
    assert not os.path.exists(path)


def test_injected_read_failure_is_retryable(tmp_path):
    path = str(tmp_path / "run")
    write_run(path, _entries())
    inj = _inj(FaultRule("spill.read", action="fail", count=1))
    with pytest.raises(FaultInjectedError) as err:
        list(iter_run(path, faults=inj, run_index=1))
    assert is_retryable(err.value)


# -- the out-of-core driver's recovery ---------------------------------------


def _make_input(tmp_path, n_words=4_000):
    words = b" ".join(b"w%03d" % (i % 97) for i in range(n_words))
    path = str(tmp_path / "input.txt")
    with open(path, "wb") as f:
        f.write(words)
    return path


def _count_fragment(fragment):
    counts: Counter = Counter()
    for chunk in fragment:
        with open(chunk.path, "rb") as f:
            f.seek(chunk.offset)
            counts.update(f.read(chunk.length).split())
    return {k: [v] for k, v in counts.items()}


def _run_ooc(path, tmp_path, faults=None, obs=None, calls=None):
    chunks = chunk_file(path, 1_024, b" \t\n\r")

    def map_fragment(fragment):
        if calls is not None:
            calls.append(fragment[0].offset)
        return _count_fragment(fragment)

    return run_out_of_core(
        chunks, functools.partial(map, map_fragment), None, None, False, {}, 4_096,
        obs or Observability(enabled=False), str(tmp_path), faults=faults,
    )


def test_durable_corruption_triggers_fragment_recompute(tmp_path):
    path = _make_input(tmp_path)
    baseline, n_fragments, _ = _run_ooc(path, tmp_path)
    assert n_fragments > 1

    obs = Observability(enabled=False)
    calls: list = []
    inj = _inj(
        FaultRule("spill.write", action="corrupt", count=1, where={"run": 0}),
        obs=obs,
    )
    output, n2, _ = _run_ooc(path, tmp_path, faults=inj, obs=obs, calls=calls)
    assert output == baseline  # corruption cost time, not answers
    assert n2 == n_fragments
    assert len(calls) == n_fragments + 1  # fragment 0 was mapped twice
    counters = obs.metrics.snapshot()["counters"]
    assert counters["localmr.recompute"] == 1
    assert counters["retry.spill_merge"] == 1


def test_transient_read_failure_restarts_the_merge(tmp_path):
    path = _make_input(tmp_path)
    baseline, _, _ = _run_ooc(path, tmp_path)
    calls: list = []
    inj = _inj(FaultRule("spill.read", action="fail", count=1, where={"run": 1}))
    output, _, _ = _run_ooc(path, tmp_path, faults=inj, calls=calls)
    assert output == baseline
    # merge restarted but no fragment was recomputed: spills were intact
    assert len(calls) == len(set(calls))


def test_retry_budget_exhaustion_propagates(tmp_path):
    path = _make_input(tmp_path)
    inj = _inj(FaultRule("spill.write", action="fail", count=50))
    with pytest.raises(FaultInjectedError):
        _run_ooc(path, tmp_path, faults=inj)
    assert not glob.glob(str(tmp_path / "localmr-spill-*"))  # no leak on failure


# -- leak guard --------------------------------------------------------------


def test_failed_run_leaves_no_spill_dirs(tmp_path):
    path = _make_input(tmp_path)
    chunks = chunk_file(path, 1_024, b" \t\n\r")

    def exploding(fragment):
        if fragment[0].offset > 0:
            raise WorkloadError("boom after the first spill")
        return _count_fragment(fragment)

    with pytest.raises(WorkloadError):
        run_out_of_core(
            chunks, functools.partial(map, exploding), None, None, False, {}, 4_096,
            Observability(enabled=False), str(tmp_path),
        )
    assert not glob.glob(str(tmp_path / "localmr-spill-*"))
    assert live_spill_dirs() == []


def test_sigterm_cleanup_removes_spill_dirs(tmp_path):
    # atexit never runs on a fatal signal: install_signal_cleanup must
    # remove live spill dirs, then let the process die with SIGTERM status
    input_path = _make_input(tmp_path)
    spill_root = tmp_path / "spills"
    spill_root.mkdir()
    script = """
import os, signal, sys
from collections import Counter
sys.path.insert(0, sys.argv[3])
from repro.exec.chunks import chunk_file
from repro.exec.outofcore import install_signal_cleanup, run_out_of_core
from repro.obs import Observability

assert install_signal_cleanup() == [signal.SIGTERM]

def map_fragment(fragment):
    if fragment[0].offset > 0:
        # the first fragment's spill is on disk; now die mid-job
        os.kill(os.getpid(), signal.SIGTERM)
    counts = Counter()
    for chunk in fragment:
        with open(chunk.path, "rb") as f:
            f.seek(chunk.offset)
            counts.update(f.read(chunk.length).split())
    return {k: [v] for k, v in counts.items()}

chunks = chunk_file(sys.argv[1], 1024, b" ")
run_out_of_core(chunks, lambda fragments: map(map_fragment, fragments),
                None, None, False, {}, 4096,
                Observability(enabled=False), sys.argv[2])
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, input_path, str(spill_root), SRC],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == -signal.SIGTERM, proc.stderr.decode()
    assert list(spill_root.iterdir()) == []
