"""LocalMapReduce: the McSD programming model on the real machine.

The hot path is a **streaming, bounded-memory pipeline**:

* Workers come from a persistent :class:`~repro.exec.pool.WorkerPool`
  (lazily created, reused across fragments and jobs, closable via
  ``close()``/context manager) and read chunks through per-worker cached
  ``mmap`` handles — no fresh pool fork per job, no open/seek/read per
  chunk.
* Each map call gives every worker one contiguous *share* of the
  chunks; a worker folds its share into one combiner map, so the pool's
  result pipe carries one pickled map per worker instead of one per
  chunk.
* There is no ``pool.map`` barrier: results stream back via
  ``imap_unordered`` and are dict-merged into a single accumulator *as
  they arrive* (a reorder buffer keeps the merge in share order, so
  results stay deterministic).  Merge CPU overlaps worker map time and
  peak parent memory is O(accumulator + in-flight results), not
  O(all chunks).
* With a ``memory_budget`` set and an input larger than it, the job runs
  **out of core** (:mod:`repro.exec.outofcore`): every cold fragment's
  shares stream through one windowed pool call, and the parent spills
  fragment i's map while the workers map fragment i+1; then it folds the
  runs (combiner jobs) or ``heapq.merge``-s sorted runs (combinerless
  jobs) before reduce.  Output is identical to the in-memory mode; only
  peak memory changes.

API notes: ``map``/``reduce``/``merge`` callbacks mirror
:class:`~repro.phoenix.api.MapReduceSpec` and must be module-level
picklable functions (a multiprocessing constraint).  With a
``combine_fn`` the engine may pre-combine across any grouping of chunks
(per share, per fragment), so the combiner must be an
associative/commutative fold — the standard combiner contract.

Tracing: pass an enabled :class:`~repro.obs.registry.Observability` as
``obs`` and the engine records a ``localmr.job`` span with
chunk-plan/map/fragment/spill/merge phases; workers ship wall-clock span
segments back in their result pickles (``time.time`` timestamps, which
are machine-wide, so parent and worker segments share one timeline) and
the parent stitches them onto per-worker tracks.  With tracing off (the
default) workers ship ``segments=None`` and span sites cost one guarded
call each.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import os
import pickle
import time
import typing as _t

from repro.errors import RETRIES, WorkloadError
from repro.exec.chunks import FileChunk, chunk_file
from repro.exec.outofcore import run_out_of_core
from repro.exec.pool import WorkerPool, run_batch, run_share
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observability
from repro.phoenix.sort import (
    finalize_folded_map,
    finalize_merged_map,
    fold_map_into,
    merge_map_into,
)

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tier.store import TieredStore

__all__ = ["LocalJobResult", "LocalMapReduce"]


def _fn_identity(fn: _t.Callable | None) -> str:
    """A stable name for a callable, for content-keyed tier identities."""
    if fn is None:
        return "-"
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"

#: shared no-op registry for untraced runs (span sites stay guarded)
_DISABLED_OBS = Observability(enabled=False)

#: sentinel: "use the engine-level memory budget"
_UNSET = object()

#: cached chunk plans per engine (repeat jobs over an unchanged file)
_MAX_CACHED_PLANS = 4


@dataclasses.dataclass
class LocalJobResult:
    """Outcome of a real-machine run."""

    output: list
    elapsed: float
    n_chunks: int
    n_workers: int
    #: the root localmr.job span when tracing was enabled, else None
    span: object | None = dataclasses.field(default=None, repr=False, compare=False)
    #: "memory" (everything resident) or "outofcore" (spilled fragments)
    mode: str = "memory"
    #: fragments processed (1 for in-memory runs)
    n_fragments: int = 1
    #: bytes spilled to disk (0 for in-memory runs)
    spilled_bytes: int = 0
    #: how worker results traveled: "pickle" through the pool's result
    #: pipe, or "inline" for in-process (serial) runs that never crossed
    #: a process boundary
    transport: str = "inline"


class LocalMapReduce:
    """Run the programming model over a real file with real processes."""

    def __init__(
        self,
        map_fn: _t.Callable,
        reduce_fn: _t.Callable | None = None,
        combine_fn: _t.Callable | None = None,
        sort_output: bool = False,
        delimiters: bytes = b" \t\n\r",
        n_workers: int | None = None,
        obs: Observability | None = None,
        start_method: str | None = None,
        memory_budget: int | None = None,
        spill_dir: str | None = None,
        faults: FaultPlan | FaultInjector | None = None,
        blackbox_dir: str | None = None,
        tier: "TieredStore | None" = None,
        readahead: int = 0,
        spill_retries: int = RETRIES,
    ):
        self.map_fn = map_fn
        self.reduce_fn = reduce_fn
        self.combine_fn = combine_fn
        self.sort_output = sort_output
        self.delimiters = delimiters
        self.n_workers = n_workers or max(1, os.cpu_count() or 1)
        self.obs = obs or _DISABLED_OBS
        #: input bytes above which runs go out of core (None: never)
        self.memory_budget = memory_budget
        #: where spill run directories are created (None: system temp)
        self.spill_dir = spill_dir
        #: burst buffer for spill runs (None: plain spill files).  Runs
        #: are keyed by job content identity, so a warm tier lets a
        #: repeat job over an unchanged input skip map+spill: a combiner
        #: job reads its one merged run, a combinerless one each
        #: fragment run still held.
        self.tier = tier
        #: fragments ahead that out-of-core runs hint to the kernel's
        #: page-cache readahead (0: no hints)
        if readahead < 0:
            raise WorkloadError("readahead must be >= 0")
        self.readahead = readahead
        #: out-of-core spill/merge retry budget per stage.  Each distinct
        #: disruption class (lost run, degraded read, corrupt read) can
        #: cost one merge attempt, so chaos runs that stack all three
        #: need a deeper budget than the default
        if spill_retries < 0:
            raise WorkloadError("spill_retries must be >= 0")
        self.spill_retries = spill_retries
        #: fault injector for chaos runs (None: no instrumented overhead
        #: beyond one guard branch per hook); a FaultPlan is bound to a
        #: fresh injector sharing this engine's obs registry
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, obs=self.obs)
        self.faults = faults
        #: persistent worker pool, created on first parallel run
        self.pool = WorkerPool(
            self.n_workers, start_method, faults=self.faults, obs=self.obs,
            blackbox_dir=blackbox_dir,
        )
        #: chunk-plan cache: (path identity, chunk size, delimiters) ->
        #: plan.  Replanning an unchanged file costs a full boundary scan
        #: per job; the stat triple in the key invalidates on any rewrite.
        self._chunk_plans: "collections.OrderedDict[tuple, list[FileChunk]]" = (
            collections.OrderedDict()
        )

    @property
    def start_method(self) -> str:
        """The resolved multiprocessing start method."""
        return self.pool.start_method

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Tear down the persistent worker pool (idempotent; the next
        parallel run recreates it)."""
        self.pool.close()

    def __enter__(self) -> "LocalMapReduce":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- execution -------------------------------------------------------------

    def run(
        self,
        path: str,
        chunk_bytes: int | None = None,
        params: dict | None = None,
        parallel: bool = True,
        memory_budget: int | None | object = _UNSET,
    ) -> LocalJobResult:
        """Execute over ``path``; ``parallel=False`` runs in-process.

        ``chunk_bytes=None`` picks ~4 chunks per worker (dynamic-balancing
        granularity, like Phoenix's task pool).  ``memory_budget``
        overrides the engine-level budget for this run; an input larger
        than the effective budget is processed out of core.
        """
        params = params or {}
        obs = self.obs
        budget = self.memory_budget if memory_budget is _UNSET else memory_budget
        st = os.stat(path)
        size = st.st_size
        if chunk_bytes is None:
            chunk_bytes = max(1, size // (4 * self.n_workers) or 1)
        if chunk_bytes < 1:
            raise WorkloadError("chunk_bytes must be >= 1")
        out_of_core = budget is not None and size > budget
        use_pool = parallel and self.n_workers > 1
        t0 = time.perf_counter()
        with obs.span(
            "localmr.job", cat="localmr", track="localmr",
            path=path, bytes=size,
            mode="outofcore" if out_of_core else "memory",
        ) as job_sp:
            with obs.span("localmr.chunk_plan", cat="localmr", track="localmr"):
                chunks = self._plan_chunks(path, st, chunk_bytes)

            if out_of_core:
                def map_fragments(
                    fragments: _t.Sequence[_t.Sequence[FileChunk]],
                ) -> _t.Iterator[dict]:
                    return self._map_fragments(fragments, params, parallel, job_sp)

                tier_key = None
                if self.tier is not None:
                    tier_key = self._job_key(path, st, chunk_bytes, params, budget)
                out, n_fragments, spilled = run_out_of_core(
                    chunks, map_fragments, self.combine_fn, self.reduce_fn,
                    self.sort_output, params, budget, obs, self.spill_dir,
                    faults=self.faults,
                    max_retries=self.spill_retries,
                    tier=self.tier, tier_key=tier_key,
                    readahead=self.readahead,
                )
            else:
                (merged,) = self._map_fragments([chunks], params, parallel, job_sp)
                with obs.span("localmr.merge", cat="localmr", track="localmr"):
                    if self.combine_fn is not None:
                        # the accumulator is scalar-folded (fold_map_into)
                        out = finalize_folded_map(
                            merged, self.reduce_fn, self.sort_output, params,
                        )
                    else:
                        out = finalize_merged_map(
                            merged, self.combine_fn, self.reduce_fn,
                            self.sort_output, params,
                        )
                n_fragments, spilled = 1, 0
        return LocalJobResult(
            output=out,
            elapsed=time.perf_counter() - t0,
            n_chunks=len(chunks),
            n_workers=self.n_workers if parallel else 1,
            span=job_sp if obs.enabled else None,
            mode="outofcore" if out_of_core else "memory",
            n_fragments=n_fragments,
            spilled_bytes=spilled,
            transport="pickle" if use_pool and len(chunks) > 1 else "inline",
        )

    # -- internals -------------------------------------------------------------

    def _job_key(
        self,
        path: str,
        st: os.stat_result,
        chunk_bytes: int,
        params: dict,
        budget: int,
    ) -> str:
        """Content identity of an out-of-core job, for tier run keys.

        Everything that shapes a spilled run's bytes is in here: the file
        (inode/size/mtime, like the chunk-plan cache key), the chunk and
        fragment geometry, the callables and their params, and the output
        ordering.  Any change misses the tier and recomputes — the same
        invalidation discipline the chunk-plan cache uses.
        """
        ident = (
            os.path.abspath(path), st.st_ino, st.st_size, st.st_mtime_ns,
            chunk_bytes, self.delimiters, budget,
            _fn_identity(self.map_fn), _fn_identity(self.combine_fn),
            _fn_identity(self.reduce_fn), self.sort_output,
            repr(sorted(params.items(), key=repr)),
        )
        digest = hashlib.sha1(repr(ident).encode()).hexdigest()[:16]
        return f"localmr/{digest}"

    def _plan_chunks(
        self, path: str, st: os.stat_result, chunk_bytes: int
    ) -> list[FileChunk]:
        """The chunk plan, cached per (file identity, granularity).

        Repeat jobs over an unchanged file — the serving pattern the
        persistent pool exists for — skip the boundary scan entirely;
        any rewrite (inode/size/mtime change) misses the cache and
        replans.  Plans are immutable (``FileChunk`` is frozen) so
        sharing one list across jobs is safe.
        """
        key = (
            path, st.st_ino, st.st_size, st.st_mtime_ns,
            chunk_bytes, self.delimiters,
        )
        plans = self._chunk_plans
        chunks = plans.get(key)
        if chunks is None:
            chunks = chunk_file(path, chunk_bytes, self.delimiters)
            plans[key] = chunks
            while len(plans) > _MAX_CACHED_PLANS:
                plans.popitem(last=False)
        else:
            plans.move_to_end(key)
        return chunks

    def _map_fragments(
        self,
        fragments: _t.Sequence[_t.Sequence[FileChunk]],
        params: dict,
        parallel: bool,
        job_sp: object,
    ) -> _t.Iterator[dict]:
        """Map each fragment into one merged combiner map, yielding the
        maps in fragment order.

        Parallel path: every fragment is cut into one contiguous share
        per worker, and all shares stream through *one* windowed
        ``imap_unordered`` call, so the workers map fragment i+1 while the
        caller spills fragment i.  Each arriving map is folded into its
        fragment's accumulator at once (a reorder buffer keeps task order,
        so the result is deterministic).  Serial path: one task per chunk,
        in-process — the seed dataflow, byte for byte.

        With a ``combine_fn`` the accumulator is *scalar-folded*
        (``key -> folded value`` via :func:`fold_map_into` — no per-key
        partial lists); without one it holds value lists in chunk order
        (:func:`merge_map_into`).  Downstream consumers pick the matching
        finalizer.
        """
        obs = self.obs
        want_spans = obs.enabled
        combine_fn = self.combine_fn
        n_chunks = sum(map(len, fragments))
        use_pool = parallel and self.n_workers > 1 and n_chunks > 1
        tasks: list[tuple] = []
        #: one past each fragment's last task index
        ends: list[int] = []
        for fragment in fragments:
            size = len(fragment)
            # contiguous shares, in chunk order; an empty input is one
            # empty share, which maps to an empty map
            n = max(1, min(size, self.n_workers) if use_pool else size)
            for k in range(n):
                share = fragment[size * k // n : size * (k + 1) // n]
                tasks.append(
                    (len(tasks), share, self.map_fn, combine_fn, params, want_spans)
                )
            ends.append(len(tasks))

        with obs.span(
            "localmr.map_pool", cat="localmr", track="localmr",
            chunks=n_chunks, tasks=len(tasks), fragments=len(fragments),
            transport="pickle" if use_pool else "inline",
        ):
            if use_pool:
                results: _t.Iterable = self.pool.imap_unordered(run_share, tasks)
            else:
                results = map(run_batch, tasks)
            pending: dict[int, object] = {}
            next_index = 0
            fragment_index = 0
            merged: dict = {}
            for index, acc, segments in results:
                if want_spans and segments:
                    self._stitch(segments, job_sp)
                # merge in task order as soon as the order is available:
                # merge CPU overlaps the still-running map tasks.  A pool
                # result waits here as its pickle (compact, see
                # run_share), and the buffer holds the only reference, so
                # a fragment being spilled pins no share already merged
                pending[index] = acc
                del acc
                while next_index in pending:
                    arrived = pending.pop(next_index)
                    if use_pool:
                        arrived = pickle.loads(arrived)
                    if not merged:
                        # adopt the fragment's first map outright: it is
                        # freshly unpickled (or run_batch's own
                        # accumulator), exclusively ours — no fold needed
                        merged = arrived
                    elif combine_fn is not None:
                        fold_map_into(merged, arrived, combine_fn)
                    else:
                        merge_map_into(merged, arrived)
                    del arrived
                    next_index += 1
                    if next_index == ends[fragment_index]:
                        yield merged
                        merged = {}
                        fragment_index += 1

    def _stitch(self, segments: list, job_sp: object) -> None:
        """Attach worker-recorded wall-clock segments to the trace, one
        track per worker process.

        ``worker.heartbeat`` pseudo-segments are resource samples, not
        intervals: they divert into per-worker time series
        (``worker-{pid}.rss_kib`` / ``.cpu_s`` / ``.util``) instead of
        the span tree.
        """
        obs = self.obs
        for name, seg_t0, seg_t1, wall_dur, attrs in segments:
            pid = attrs.get("pid", "?")
            if name == "worker.heartbeat":
                obs.sample(f"worker-{pid}.rss_kib", seg_t0, attrs["rss_kib"])
                obs.sample(f"worker-{pid}.cpu_s", seg_t0, attrs["cpu_s"])
                obs.sample(f"worker-{pid}.util", seg_t0, attrs["util"])
                continue
            obs.add_span(
                name,
                seg_t0,
                seg_t1,
                cat="localmr",
                track=f"worker-{pid}",
                parent=job_sp,
                wall_dur=wall_dur,
                attrs=attrs,
            )
