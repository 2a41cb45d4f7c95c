"""Tests for the persistent worker pool and start-method resolution."""

from __future__ import annotations

import multiprocessing as mp
import operator
import os
import pickle
import time

import pytest

from repro.errors import WorkloadError
from repro.exec import WorkerPool, resolve_start_method
from repro.exec.chunks import FileChunk
from repro.exec.pool import TASKS_PER_WORKER, read_chunk_cached, run_batch
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.obs import Observability


# -- start-method resolution -------------------------------------------------


def test_resolve_default_is_valid_here():
    method = resolve_start_method()
    assert method in mp.get_all_start_methods()


def test_resolve_honors_explicit_preference():
    assert resolve_start_method("fork") == "fork"


def test_resolve_rejects_unavailable_method():
    with pytest.raises(WorkloadError, match="not available"):
        resolve_start_method("no-such-method")


def test_default_prefers_forkserver_under_pytest():
    # pytest's __main__ is re-importable, so the threaded-parent-safe
    # default applies on platforms that have it
    if "forkserver" in mp.get_all_start_methods() and os.name != "nt":
        assert resolve_start_method() == "forkserver"


# -- pool lifecycle ----------------------------------------------------------


def test_pool_is_lazy_and_persistent():
    pool = WorkerPool(2, start_method="fork")
    assert not pool.alive
    first = pool.ensure()
    assert pool.alive
    assert pool.ensure() is first  # same pool object across submissions
    pool.close()
    assert not pool.alive
    pool.close()  # idempotent
    # resurrects after close
    assert pool.ensure() is not first
    pool.close()


def test_pool_context_manager():
    with WorkerPool(1, start_method="fork") as pool:
        pool.ensure()
        assert pool.alive
    assert not pool.alive


def test_pool_rejects_bad_worker_count():
    with pytest.raises(WorkloadError):
        WorkerPool(0)


def _count_map(data, emit, params):
    # module-level: map callbacks cross the IPC pickle boundary
    for tok in data.split():
        emit(tok, 1)


def test_pool_runs_batches(tmp_path):
    p = tmp_path / "data"
    p.write_bytes(b"a b c d e f g h")
    chunks = [FileChunk(str(p), 0, 8), FileChunk(str(p), 8, 7)]
    tasks = [(i, [c], _count_map, None, {}, False) for i, c in enumerate(chunks)]
    with WorkerPool(2, start_method="fork") as pool:
        got = sorted(pool.imap_unordered(run_batch, tasks))
    assert [i for i, _, _ in got] == [0, 1]
    assert got[0][1] == {b"a": [1], b"b": [1], b"c": [1], b"d": [1]}


def test_transport_bytes_counts_pickled_results(tmp_path):
    p = tmp_path / "data"
    p.write_bytes(b"a b c d e f g h " * 50)
    chunks = [FileChunk(str(p), 0, 400), FileChunk(str(p), 400, 400)]
    tasks = [(i, [c], _count_map, operator.add, {}, False)
             for i, c in enumerate(chunks)]
    obs = Observability(enabled=False)
    with WorkerPool(2, start_method="fork", obs=obs) as pool:
        got = list(pool.imap_unordered(run_batch, tasks))
    expected = sum(len(pickle.dumps(r, pickle.HIGHEST_PROTOCOL)) for r in got)
    assert obs.metrics.snapshot()["counters"]["transport.bytes"] == expected


# -- cached mmap reads -------------------------------------------------------


def test_read_chunk_cached_roundtrip(tmp_path):
    p = tmp_path / "f"
    data = b"0123456789" * 100
    p.write_bytes(data)
    assert read_chunk_cached(FileChunk(str(p), 0, 10)) == data[:10]
    assert read_chunk_cached(FileChunk(str(p), 990, 10)) == data[990:]
    assert read_chunk_cached(FileChunk(str(p), 0, len(data))) == data


def test_read_chunk_cached_empty_file(tmp_path):
    p = tmp_path / "empty"
    p.write_bytes(b"")
    assert read_chunk_cached(FileChunk(str(p), 0, 0)) == b""


def test_read_chunk_cached_revalidates_replaced_file(tmp_path):
    p = tmp_path / "swap"
    p.write_bytes(b"old contents here")
    assert read_chunk_cached(FileChunk(str(p), 0, 3)) == b"old"
    # replace the file (new inode) — a stale mapping must not serve it
    q = tmp_path / "swap.new"
    q.write_bytes(b"new contents here")
    os.replace(str(q), str(p))
    assert read_chunk_cached(FileChunk(str(p), 0, 3)) == b"new"


# -- vectorized emission -----------------------------------------------------


def _run_one_batch(tmp_path, data: bytes, map_fn, combine_fn):
    p = tmp_path / "vec"
    p.write_bytes(data)
    task = (0, [FileChunk(str(p), 0, len(data))], map_fn, combine_fn, {}, False)
    _, acc, _ = run_batch(task)
    return acc


def _loop_map(data, emit, params):
    for tok in data.split():
        emit(tok, 2)


def _many_map(data, emit, params):
    emit.many(data.split(), 2)


def _loop_count(data, emit, params):
    for tok in data.split():
        emit(tok, 1)


def _many_count(data, emit, params):
    emit.many(data.split(), 1)


def _mul(a, b):
    return a * b


@pytest.mark.parametrize("combine", [None, operator.add, _mul])
def test_emit_many_matches_per_key_loop(tmp_path, combine):
    data = b"b a b c a b"
    loop = _run_one_batch(tmp_path, data, _loop_map, combine)
    many = _run_one_batch(tmp_path, data, _many_map, combine)
    assert many == loop
    # first-seen insertion order is part of the contract
    assert list(many) == list(loop) == [b"b", b"a", b"c"]


def test_emit_many_counting_fast_path(tmp_path):
    # operator.add with value 1 folds through Counter's C helper — the
    # result must still be indistinguishable from the scalar loop
    data = b"x y x z x y"
    loop = _run_one_batch(tmp_path, data, _loop_count, operator.add)
    many = _run_one_batch(tmp_path, data, _many_count, operator.add)
    assert many == loop == {b"x": 3, b"y": 2, b"z": 1}
    assert list(many) == list(loop)


# -- windowed submission -----------------------------------------------------


def _square(x):
    return x * x


class _CountingSubmits:
    """Wraps a pool's live executor: tracks tasks submitted but not yet
    handed to the consumer."""

    def __init__(self, pool: WorkerPool):
        executor = pool.ensure()
        real_submit = executor.submit
        self.submitted = 0
        self.yielded = 0
        self.peak = 0

        def submit(fn, *args, **kwargs):
            self.submitted += 1
            self.peak = max(self.peak, self.submitted - self.yielded)
            return real_submit(fn, *args, **kwargs)

        executor.submit = submit


def test_stream_keeps_at_most_two_tasks_per_worker_outstanding():
    with WorkerPool(2, start_method="fork") as pool:
        counts = _CountingSubmits(pool)
        got = []
        for result in pool.imap_unordered(_square, list(range(12))):
            counts.yielded += 1
            got.append(result)
    assert sorted(got) == [x * x for x in range(12)]
    assert counts.submitted == 12
    # the window fills (both workers kept busy) and never overflows
    assert counts.peak == TASKS_PER_WORKER * pool.n_workers == 4


def _straggle_first(x):
    if x == 0:
        time.sleep(0.3)
    return x


def test_window_starts_at_the_oldest_task_not_yet_yielded():
    # a straggler holds the window: tasks past it wait, so a caller that
    # reorders on the task index never buffers more than the window
    with WorkerPool(2, start_method="fork") as pool:
        got = list(pool.imap_unordered(_straggle_first, list(range(12))))
    assert sorted(got) == list(range(12))
    assert got.index(0) <= TASKS_PER_WORKER * pool.n_workers - 1


class _RecordingInjector(FaultInjector):
    """Records every (task, attempt) the pool asks a decision for."""

    def __init__(self, plan: FaultPlan):
        super().__init__(plan)
        self.checked: list[tuple[int, int]] = []

    def check(self, site, **ctx):
        self.checked.append((ctx["index"], ctx["attempt"]))
        return super().check(site, **ctx)


def _slow_count_map(data, emit, params):
    # slow enough that the kill is seen while later tasks are unsubmitted
    time.sleep(0.02)
    _count_map(data, emit, params)


def _merged_counts(results) -> list:
    """The engine's parent side: fold share maps in task order."""
    merged: dict = {}
    for _, acc, _ in sorted(results, key=operator.itemgetter(0)):
        for key, value in acc.items():
            merged[key] = merged.get(key, 0) + value
    return list(merged.items())


def test_kill_mid_stream_is_redispatched_with_unchanged_output(tmp_path):
    p = tmp_path / "data"
    words = [b"w%02d" % (i % 17) for i in range(1200)]
    p.write_bytes(b" ".join(words) + b" ")
    size = p.stat().st_size
    chunks = [FileChunk(str(p), off, min(100, size - off)) for off in range(0, size, 100)]
    tasks = [
        (i, chunks[i::12], _slow_count_map, operator.add, {}, False)
        for i in range(12)
    ]
    with WorkerPool(2, start_method="fork") as pool:
        clean = _merged_counts(pool.imap_unordered(run_batch, tasks))

    inj = _RecordingInjector(FaultPlan(
        rules=(FaultRule("pool.worker", action="kill", count=1, where={"index": 6}),),
    ))
    with WorkerPool(2, start_method="fork", faults=inj) as pool:
        got = list(pool.imap_unordered(run_batch, tasks))
    assert _merged_counts(got) == clean
    assert sorted(i for i, _, _ in got) == list(range(12))
    assert inj.fired_by_site() == {"pool.worker": 1}
    assert pool.respawns == 1 and pool.redispatches >= 1
    # tasks past the window were never dispatched when the worker died
    assert pool.redispatches <= TASKS_PER_WORKER * pool.n_workers
    # every (task, attempt) was decided exactly once, also for the tasks
    # the broken round never submitted
    assert len(inj.checked) == len(set(inj.checked))
    assert {i for i, attempt in inj.checked if attempt == 0} == set(range(12))
