"""Persistent worker pool with per-worker cached, mmap-backed chunk reads.

The streaming engine's process management lives here, split from the
dataflow in :mod:`repro.exec.localmr`:

* :class:`WorkerPool` keeps one ``multiprocessing`` pool alive across
  fragments *and jobs* — the seed engine forked a fresh pool per ``run()``
  and paid create/teardown plus cold worker caches every time.
* Workers read chunks through a small per-process cache of ``mmap``-backed
  file handles (:func:`repro.exec.chunks.read_chunk_cached`): one
  ``open``+``mmap`` per file per worker lifetime instead of the seed's
  open/seek/read syscall triple per chunk, with slices served straight
  from the page cache.
* Map tasks are *batches* of consecutive chunks (:func:`run_batch`).  A
  worker folds every chunk of its batch into one combiner map and ships
  that single map back, so result traffic scales with batches (a few per
  worker) rather than chunks.
* Results take one path, the executor's result pipe: the worker pickles
  its result itself (:func:`_pickled`) and the parent counts the payload
  into ``transport.bytes`` and unpickles it as it consumes the future,
  so an in-flight result waits as one compact ``bytes`` object.

Start methods: ``forkserver`` is the default where available — bare
``fork`` of a threaded parent is deadlock-prone (any lock held by another
thread at fork time stays locked forever in the child), and the paper's
daemon-shaped deployments are exactly the threaded-parent case.  ``fork``
remains selectable for fork-safe parents; Windows gets ``spawn``.

Fault tolerance: the pool is built on ``concurrent.futures``'s process
pool rather than ``multiprocessing.Pool`` because the former *detects*
worker death (``BrokenProcessPool``) where the latter hangs an
``imap_unordered`` forever.  :meth:`WorkerPool.imap_unordered` runs
dispatch rounds: pending tasks are submitted, results stream back as
they complete, and failures are classified through
:func:`repro.errors.is_retryable` — transient ones (a dead worker, an
injected fault) are re-dispatched on the next round with a bounded
per-task retry budget, permanent ones (a bug in the map function)
surface immediately.  A broken executor is torn down and respawned
between rounds.  Injected faults at the ``pool.worker`` site are
decided parent-side at submission time (deterministic given the plan
seed): *kill* replaces the task body with an ``os._exit`` so the worker
genuinely dies mid-task, *fail* replaces it with a raise.
"""

from __future__ import annotations

import collections
import concurrent.futures as _cf
import multiprocessing as mp
import operator
import os
import pickle
import sys
import time
import typing as _t

try:
    import resource as _resource
except ImportError:  # pragma: no cover - Windows
    _resource = None  # type: ignore[assignment]

from concurrent.futures.process import BrokenProcessPool

from repro.errors import (
    FaultInjectedError,
    WorkerCrashError,
    WorkloadError,
    is_retryable,
    mark_retryable,
)
from repro.exec.chunks import read_chunk_cached

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.obs import Observability

__all__ = ["WorkerPool", "read_chunk_cached", "resolve_start_method", "run_batch"]

# C helper behind collections.Counter: folds an iterable of hashables into
# a dict at C speed (``d[k] = d.get(k, 0) + 1`` per element, no Python
# frame per key).  ``collections`` re-exports the C version when built.
_count_elements = collections._count_elements

# per-worker heartbeat baseline: (cpu_s, perf_counter) at the previous
# heartbeat, for utilization over the interval since then
_hb_prev: dict[str, float] = {}


def _heartbeat(index: int) -> tuple | None:
    """One per-worker resource sample as a pseudo-segment.

    Shape-compatible with the span segments ``run_batch`` ships —
    ``(name, t0, t1, wall_dur, attrs)`` with a zero-length interval — so
    it rides the existing result payload; the parent's stitcher
    diverts it into the ``worker-{pid}`` time series instead of the span
    tree.  ``util`` is CPU seconds burned since this worker's previous
    heartbeat divided by the wall seconds between them (1.0 = a fully
    busy worker).  Returns ``None`` where ``resource`` is unavailable.
    """
    if _resource is None:  # pragma: no cover - Windows
        return None
    ru = _resource.getrusage(_resource.RUSAGE_SELF)
    cpu_s = ru.ru_utime + ru.ru_stime
    now = time.time()
    wall = time.perf_counter()
    prev_cpu = _hb_prev.get("cpu")
    prev_wall = _hb_prev.get("wall")
    if prev_cpu is None or prev_wall is None or wall <= prev_wall:
        util = 0.0
    else:
        util = min(1.0, (cpu_s - prev_cpu) / (wall - prev_wall))
    _hb_prev["cpu"] = cpu_s
    _hb_prev["wall"] = wall
    return (
        "worker.heartbeat",
        now,
        now,
        0.0,
        {
            "batch": index,
            "pid": os.getpid(),
            "rss_kib": ru.ru_maxrss,  # KiB on Linux, bytes on macOS
            "cpu_s": round(cpu_s, 6),
            "util": round(util, 4),
        },
    )


def run_batch(args: tuple) -> tuple[int, dict, list | None]:
    """Worker body: map a batch of consecutive chunks into one combiner map.

    Returns ``(batch_index, combiner_map, segments)``.  All of the batch's
    chunks fold into a single accumulator — with a ``combine_fn`` this is
    worker-side combining across chunks (licensed by the combiner contract:
    an associative/commutative fold), without one it is value-list
    extension in chunk order — so the result pipe carries one map per batch.
    The fold is specialized per combiner shape: the hot (existing-key)
    path is a bare ``try``/``except`` dict probe — zero-cost when the key
    is present under CPython 3.11 — and ``operator.add`` combiners fold
    with the inline ``+`` operator instead of a call per emission.

    The emit callable also carries a vectorized form, ``emit.many(keys,
    value)``, equivalent to ``for k in keys: emit(k, value)``.  Map
    functions that already hold a sequence of keys (tokenizers, parsers)
    can hand it over whole and skip one Python call per emission; for
    ``operator.add`` combiners with ``value == 1`` — the counting shape —
    the fold runs entirely in C via ``Counter``'s ``_count_elements``
    helper.  Emission order, and therefore first-seen key order in the
    accumulator, is identical on both forms.

    ``segments`` are wall-clock span tuples ``(name, t0, t1, wall_dur,
    attrs)`` per chunk when tracing is on, else ``None`` (tracing-off runs
    ship nothing extra).  The final segment of a traced
    batch is a ``worker.heartbeat`` pseudo-segment carrying the worker's
    RSS, cumulative CPU seconds, and utilization since its previous
    heartbeat — the parent stitches it into per-worker time series rather
    than the span tree.
    """
    index, chunks, map_fn, combine_fn, params, want_spans = args
    segments: list | None = [] if want_spans else None

    acc: dict[object, object] = {}
    if combine_fn is None:
        def emit(key: object, value: object) -> None:
            acc.setdefault(key, []).append(value)  # type: ignore[union-attr]

        def emit_many(keys: _t.Iterable, value: object) -> None:
            grow = acc.setdefault
            for key in keys:
                grow(key, []).append(value)  # type: ignore[union-attr]
    elif combine_fn is operator.add:
        def emit(key: object, value: object) -> None:
            try:
                old = acc[key]
            except KeyError:
                acc[key] = value
            else:
                acc[key] = old + value

        def emit_many(keys: _t.Iterable, value: object) -> None:
            if type(value) is int and value == 1:
                _count_elements(acc, keys)
            else:
                for key in keys:
                    emit(key, value)
    else:
        def emit(key: object, value: object) -> None:
            try:
                old = acc[key]
            except KeyError:
                acc[key] = value
            else:
                acc[key] = combine_fn(old, value)

        def emit_many(keys: _t.Iterable, value: object) -> None:
            for key in keys:
                emit(key, value)
    emit.many = emit_many  # type: ignore[attr-defined]

    for chunk in chunks:
        t0 = time.time() if want_spans else 0.0
        w0 = time.perf_counter() if want_spans else 0.0
        data = read_chunk_cached(chunk)
        if want_spans:
            segments.append(
                (
                    "localmr.read_chunk",
                    t0,
                    time.time(),
                    time.perf_counter() - w0,
                    {"batch": index, "bytes": len(data), "pid": os.getpid()},
                )
            )
        t0 = time.time() if want_spans else 0.0
        w0 = time.perf_counter() if want_spans else 0.0
        keys_before = len(acc)
        if data:
            map_fn(data, emit, params)
        if want_spans:
            segments.append(
                (
                    "localmr.map_chunk",
                    t0,
                    time.time(),
                    time.perf_counter() - w0,
                    {
                        "batch": index,
                        "keys": len(acc) - keys_before,
                        "pid": os.getpid(),
                    },
                )
            )
    if want_spans:
        hb = _heartbeat(index)
        if hb is not None:
            segments.append(hb)
    return index, acc, segments


def resolve_start_method(preferred: str | None = None) -> str:
    """Pick the multiprocessing start method for a :class:`WorkerPool`.

    ``preferred`` wins when given (validated against this platform);
    otherwise ``forkserver`` where available, ``spawn`` on Windows,
    ``fork`` as the last resort.
    """
    available = mp.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise WorkloadError(
                f"start method {preferred!r} not available here "
                f"(have: {', '.join(available)})"
            )
        return preferred
    if os.name == "nt":
        return "spawn"
    if "forkserver" in available and _main_is_reimportable():
        return "forkserver"
    return "fork"


def _main_is_reimportable() -> bool:
    """Whether forkserver/spawn workers can reconstruct ``__main__``.

    Those start methods re-import the parent's ``__main__`` in each
    worker; when the parent is interactive or fed from stdin there is no
    file to re-import and every worker dies at startup — which the pool
    answers by forking a replacement, forever.  Detect that case up front
    and fall back to ``fork``.
    """
    main = sys.modules.get("__main__")
    if main is None:  # pragma: no cover - embedded interpreters
        return False
    if getattr(getattr(main, "__spec__", None), "name", None) is not None:
        return True  # importable by module name (python -m, pytest, ...)
    main_file = getattr(main, "__file__", None)
    return main_file is not None and os.path.exists(main_file)


def _injected_kill(args: tuple) -> _t.NoReturn:
    """Fault-action body: die exactly the way a crashed worker dies.

    ``os._exit`` skips every atexit/finally in the worker, so the parent
    sees the same ``BrokenProcessPool`` a segfault or OOM-kill produces.
    """
    os._exit(3)


def _injected_failure(args: tuple) -> _t.NoReturn:
    """Fault-action body: the task raises instead of computing."""
    index = args[0] if isinstance(args, tuple) and args else None
    raise FaultInjectedError("pool.worker", f"injected task failure (task {index})")


def _pickled(packed: tuple) -> bytes:
    """Worker body: run ``fn(args)`` and return its result as one pickle.

    Pickling in the worker lets the parent measure each result's size
    (``transport.bytes``) and keep it as compact ``bytes`` until it is
    consumed; the parent unpickles it in :meth:`WorkerPool._run_rounds`.
    """
    fn, args = packed
    return pickle.dumps(fn(args), pickle.HIGHEST_PROTOCOL)


class WorkerPool:
    """A lazily created, persistent, crash-tolerant process pool.

    The pool is built on first use and reused for every subsequent batch
    submission until :meth:`close` — across fragments of one out-of-core
    job and across jobs on the same engine — so worker processes keep
    their warm module imports and mmap handle caches.  Usable as a
    context manager; closing is idempotent and the pool resurrects on the
    next submission after a close.

    ``max_task_retries`` bounds how many times one task may be
    re-dispatched after a transient failure (a dead worker, an injected
    fault) before :class:`~repro.errors.WorkerCrashError` is raised with
    the permanent stamp.  ``faults``/``obs`` are optional: a
    :class:`~repro.faults.injector.FaultInjector` evaluated at the
    ``pool.worker`` site on every submission, and the observability
    registry that receives the ``retry.*``, ``pool.respawn`` and
    ``transport.bytes`` counters.

    ``blackbox_dir`` (default: the ``REPRO_BLACKBOX_DIR`` environment
    variable) names a directory for post-mortem dumps: when a task
    exhausts its retries, the registry's flight recorder — if one is
    attached — is written there as a JSONL black box and the dump path is
    included in the raised error's message.
    """

    def __init__(
        self,
        n_workers: int,
        start_method: str | None = None,
        max_task_retries: int = 2,
        faults: "FaultInjector | None" = None,
        obs: "Observability | None" = None,
        blackbox_dir: str | None = None,
    ):
        if n_workers < 1:
            raise WorkloadError(f"n_workers must be >= 1, got {n_workers}")
        if max_task_retries < 0:
            raise WorkloadError("max_task_retries must be >= 0")
        self.n_workers = n_workers
        self.start_method = resolve_start_method(start_method)
        self.max_task_retries = max_task_retries
        self.faults = faults
        self.obs = obs
        self.blackbox_dir = (
            blackbox_dir
            if blackbox_dir is not None
            else os.environ.get("REPRO_BLACKBOX_DIR") or None
        )
        #: executor recreations after a detected worker death
        self.respawns = 0
        #: task re-dispatches after transient failures
        self.redispatches = 0
        self._executor: _cf.ProcessPoolExecutor | None = None

    # -- lifecycle -------------------------------------------------------------

    def ensure(self) -> _cf.ProcessPoolExecutor:
        """The live executor, creating it on first use."""
        if self._executor is None:
            ctx = mp.get_context(self.start_method)
            if self.start_method == "forkserver":
                try:
                    # warm the server with the library so each forked
                    # worker starts with repro importable (no-op if the
                    # server is already up)
                    ctx.set_forkserver_preload(["repro"])
                except Exception:  # pragma: no cover - best-effort
                    pass
            self._executor = _cf.ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=ctx
            )
        return self._executor

    @property
    def alive(self) -> bool:
        """Whether worker processes currently exist."""
        return self._executor is not None

    def close(self) -> None:
        """Tear down the workers; the next submission recreates them."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _dump_blackbox(self, task_index: int, exc: BaseException) -> str | None:
        """Write the flight ring on a permanent task failure; returns path.

        Needs both a dump directory and a registry with a flight recorder
        attached; silently a no-op otherwise (the crash still raises).
        """
        if self.blackbox_dir is None or self.obs is None:
            return None
        path = os.path.join(
            self.blackbox_dir,
            f"blackbox-pool-{self.obs.run_id or os.getpid()}.jsonl",
        )
        try:
            return self.obs.dump_blackbox(
                path,
                reason=f"task {task_index} exhausted retries: {exc}",
                extra={"task_index": task_index},
            )
        except OSError:  # pragma: no cover - dump dir unwritable
            return None

    # -- submission ------------------------------------------------------------

    def imap_unordered(
        self, fn: _t.Callable, tasks: _t.Sequence
    ) -> _t.Iterator:
        """Submit ``tasks`` and yield results as they complete.

        Completion order is arbitrary; callers that need determinism
        reorder on the task index (see the engine's reorder-buffer merge).
        Tasks whose worker dies (or whose injected fault fires) are
        re-dispatched in later rounds, up to ``max_task_retries`` per
        task; a permanent (non-retryable) task exception propagates
        immediately.
        """
        return self._run_rounds(fn, list(tasks))

    def _plan_round(
        self, fn: _t.Callable, pending: _t.Iterable[int], attempts: list[int]
    ) -> dict[int, _t.Callable]:
        """Fault decisions for one dispatch round, taken before anything
        is submitted.

        Deciding up front — rather than interleaved with submission —
        keeps the injection sequence a function of (pending set, attempt
        counts) alone: a pool break detected *during* submission cannot
        shift which tasks get faulted.
        """
        calls = {i: fn for i in pending}
        inj = self.faults
        if inj is not None:
            for i in sorted(calls):
                decision = inj.check("pool.worker", index=i, attempt=attempts[i])
                if decision is not None:
                    if decision.action == "kill":
                        calls[i] = _injected_kill
                    else:  # fail / drop / corrupt all degrade to a raised task
                        calls[i] = _injected_failure
        return calls

    def _run_rounds(self, fn: _t.Callable, tasks: list) -> _t.Iterator:
        attempts = [0] * len(tasks)
        pending = set(range(len(tasks)))
        while pending:
            executor = self.ensure()
            calls = self._plan_round(fn, pending, attempts)
            futures: dict[_cf.Future, int] = {}
            broken = False
            failed: list[tuple[int, BaseException]] = []
            for i in sorted(pending):
                try:
                    futures[executor.submit(_pickled, (calls[i], tasks[i]))] = i
                except (BrokenProcessPool, RuntimeError):
                    # the break surfaced at submit time; unsubmitted
                    # tasks simply stay pending for the next round
                    broken = True
                    break
            while futures:
                done, _ = _cf.wait(futures, return_when=_cf.FIRST_COMPLETED)
                for fut in done:
                    # pop our reference immediately: a finished Future
                    # pins its result object, and holding the whole
                    # round's futures would make parent memory O(all
                    # results) — the barrier the streaming merge exists
                    # to avoid
                    i = futures.pop(fut)
                    try:
                        raw = fut.result()
                    except (BrokenProcessPool, _cf.CancelledError) as exc:
                        broken = True
                        failed.append(
                            (i, WorkerCrashError(
                                f"worker died while running task {i}: {exc}",
                                task_index=i,
                            ))
                        )
                        continue
                    except BaseException as exc:
                        if is_retryable(exc):
                            failed.append((i, exc))
                            continue
                        raise  # permanent: retrying a deterministic bug is futile
                    if self.obs is not None:
                        self.obs.count("transport.bytes", len(raw))
                    pending.discard(i)
                    yield pickle.loads(raw)
            if broken:
                self.respawns += 1
                if self.obs is not None:
                    self.obs.count("pool.respawn")
                # discard the dead executor; the next round respawns it
                self.close()
            for i, exc in failed:
                attempts[i] += 1
                if attempts[i] > self.max_task_retries:
                    msg = (
                        f"task {i} failed after {attempts[i]} attempts "
                        f"(last: {exc})"
                    )
                    box = self._dump_blackbox(i, exc)
                    if box is not None:
                        msg += f" [black box: {box}]"
                    raise mark_retryable(
                        WorkerCrashError(msg, task_index=i),
                        False,
                    ) from exc
                self.redispatches += 1
                if self.obs is not None:
                    self.obs.count("retry.count")
                    self.obs.count("retry.pool")
