"""Out-of-core fragment mode: the Fig 6 loop on the real machine.

When a job's input exceeds the engine's memory budget, the streaming
engine runs the paper's partitioning extension for real: the chunk plan is
grouped into consecutive *fragments* no larger than the budget, each
fragment is mapped on its own, and its result is spilled as a *run* of
pickled blocks.  At any instant the parent holds one fragment's
accumulator — not the whole input's — which is what bounds peak RSS.
A combiner job spills its folded map as it stands, then folds the runs,
one block at a time in fragment order, into one accumulator with the
in-memory path's ``fold_map_into`` and ``finalize_folded_map``.  A
combinerless job's value lists must stream: its runs are decorate-sorted
and merged *lazily* (:func:`repro.phoenix.sort.merge_decorated_runs`),
reducing per key as the stream drains, so that merge holds one block per
run.

Spill format: each run file is a sequence of *independent* pickled
blocks (dict slices of a folded map, or lists of decorated entries,
bounded by :data:`SPILL_BLOCK_ENTRIES` and a per-job value cap).
Independence matters: a pickler/unpickler pair shared across blocks
memoizes every object it has ever seen, so a shared reader would keep the
*entire* run resident while the merge drains it — silently un-bounding
the memory the spill exists to bound.  With per-block pickles the reader
holds one block's objects per open run at a time.

Integrity: every block is framed ``<length:u32><crc32:u32><payload>``
(little-endian) and verified on read.  A crc mismatch is first answered
by re-reading the block once — transient in-memory or transport
corruption disappears on the second read — and only then escalated as
:class:`~repro.errors.SpillCorruptionError`, at which point
:func:`run_out_of_core` *recomputes the damaged fragment* from its
source chunks and re-spills it before restarting the merge: the input
file is the durable copy, so spill corruption costs time, never answers.

Burst-buffer spill: with a :class:`~repro.tier.store.TieredStore` the
runs live in the tier (memory level first, background write-back to the
tier's SSD directory) instead of plain files — same crc framing
(:func:`dump_run` builds the bytes :func:`write_run` writes).  Runs are
keyed by job content identity, so a repeat job over an unchanged input
reuses every still-resident run and skips its map and spill entirely —
the warm-tier speedup the burst buffer exists for.  The tier
may *lose* entries (dropped write-back, eviction, fault injection);
every loss is detected (presence sweep before each merge attempt, crc on
read) and answered by recomputing the fragment from the input file.

Leak safety: run files live in a fresh temporary directory removed on
success *and* on failure (``finally``), and every live spill directory
is additionally registered with an ``atexit`` finalizer so an exception
path that never reaches the ``finally`` (interpreter teardown,
``KeyboardInterrupt`` in a signal-unsafe spot) still cleans up.  Callers
that expect ``SIGTERM`` (the chaos harness, batch schedulers) can opt in
to :func:`install_signal_cleanup`, which chains spill cleanup in front
of the existing handler — ``atexit`` alone does not run on a fatal
signal.

Fault sites: ``spill.write`` (actions *corrupt* — flip one payload byte
after the crc is computed, i.e. durable on-disk corruption — and *fail*)
and ``spill.read`` (actions *fail* and *corrupt* — in-memory flip before
the crc check, caught by the single re-read).  Context key ``run`` is
the fragment/run index, so plans can target a specific run
deterministically.

Observability: each fragment gets a ``localmr.fragment`` span with a
nested ``localmr.spill``; spilled volume feeds the always-on
``localmr.spill_bytes`` / ``localmr.spill_runs`` counters; the final
merge runs under ``localmr.merge``; recovery feeds ``retry.count`` and
``localmr.recompute``.
"""

from __future__ import annotations

import atexit
import io
import itertools
import operator
import os
import pickle
import shutil
import signal
import struct
import tempfile
import typing as _t
import zlib

from repro.errors import (
    FaultInjectedError,
    SpillCorruptionError,
    WorkloadError,
    is_retryable,
)
from repro.exec.chunks import FileChunk
from repro.obs import Observability
from repro.phoenix.sort import (
    decorate_sorted,
    finalize_folded_map,
    fold_map_into,
    merge_decorated_runs,
    sort_decorated_by_value_desc,
    undecorate,
)

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.tier.prefetch import ReadaheadPrefetcher
    from repro.tier.store import TieredStore

__all__ = [
    "plan_fragments",
    "run_out_of_core",
    "write_run",
    "dump_run",
    "iter_run",
    "iter_run_bytes",
    "install_signal_cleanup",
    "live_spill_dirs",
]

#: max entries (decorated entries or folded keys) per pickled spill block
SPILL_BLOCK_ENTRIES = 2048

#: default max values per pickled sorted-run block — value-list entries
#: (no combiner) can each carry many values, so their blocks must be
#: value-weighted for any memory bound to hold on list-heavy workloads
SPILL_BLOCK_VALUES = 8192

#: total heap-merge read-ahead budget, in values, across ALL sorted runs.
#: The heap merge holds one block per run; with a fixed per-block cap that
#: read-ahead is ``n_runs x cap`` — and ``n_runs`` grows linearly with
#: input size (input/budget), which would silently make merge memory
#: O(input).  The run count is known before anything spills, so the
#: per-block cap is derived as ``MERGE_READAHEAD_VALUES / n_runs``: total
#: read-ahead stays constant however large the input gets.
MERGE_READAHEAD_VALUES = 8_192

#: floor on the derived per-block value cap (keeps pickle-call overhead
#: sane for jobs with hundreds of runs)
MIN_BLOCK_VALUES = 128

#: ``<length:u32><crc32:u32>`` frame in front of every spill block
_BLOCK_HEADER = struct.Struct("<II")

_SORT_KEY = operator.itemgetter(0)


# --------------------------------------------------------------------------
# Spill-directory leak guard
# --------------------------------------------------------------------------

#: spill directories currently on disk (insertion-ordered for determinism)
_SPILL_DIRS: dict[str, None] = {}
_CLEANUP_REGISTERED = False


def _cleanup_spill_dirs() -> None:
    """Remove every still-live spill directory (atexit / signal path)."""
    while _SPILL_DIRS:
        path, _ = _SPILL_DIRS.popitem()
        shutil.rmtree(path, ignore_errors=True)


def _track_spill_dir(path: str) -> None:
    global _CLEANUP_REGISTERED
    if not _CLEANUP_REGISTERED:
        atexit.register(_cleanup_spill_dirs)
        _CLEANUP_REGISTERED = True
    _SPILL_DIRS[path] = None


def _untrack_spill_dir(path: str) -> None:
    _SPILL_DIRS.pop(path, None)
    shutil.rmtree(path, ignore_errors=True)


def live_spill_dirs() -> list[str]:
    """Spill directories currently registered (empty when nothing leaks)."""
    return list(_SPILL_DIRS)


def install_signal_cleanup(
    signums: _t.Sequence[int] = (signal.SIGTERM,),
) -> list[int]:
    """Chain spill-dir cleanup in front of the current signal handlers.

    ``atexit`` never runs on a fatal signal, so long-running hosts that
    expect ``SIGTERM`` (batch schedulers, the chaos harness) opt in here.
    The previous handler is preserved: a callable handler is invoked
    after cleanup; the default disposition is re-delivered so the process
    still dies with the right signal status.  Returns the signals
    actually hooked (main-thread only — installing from elsewhere is a
    no-op).
    """
    installed: list[int] = []
    for signum in signums:
        try:
            previous = signal.getsignal(signum)

            def _handler(sig: int, frame: object, _prev: object = previous) -> None:
                _cleanup_spill_dirs()
                if callable(_prev) and _prev not in (signal.SIG_IGN, signal.SIG_DFL):
                    _prev(sig, frame)
                else:
                    signal.signal(sig, signal.SIG_DFL)
                    os.kill(os.getpid(), sig)

            signal.signal(signum, _handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            continue
        installed.append(signum)
    return installed


# --------------------------------------------------------------------------
# Fragment planning
# --------------------------------------------------------------------------


def plan_fragments(
    chunks: _t.Sequence[FileChunk], budget: int
) -> list[list[FileChunk]]:
    """Group consecutive chunks into fragments of at most ``budget`` bytes.

    Fragment order preserves chunk order (the merge relies on it for
    stable value-list ordering).  A single chunk larger than the budget
    becomes its own fragment — chunk granularity is the floor below which
    the input cannot be split without breaking records.
    """
    if budget < 1:
        raise WorkloadError(f"memory budget must be >= 1, got {budget}")
    fragments: list[list[FileChunk]] = []
    current: list[FileChunk] = []
    current_bytes = 0
    for chunk in chunks:
        if current and current_bytes + chunk.length > budget:
            fragments.append(current)
            current, current_bytes = [], 0
        current.append(chunk)
        current_bytes += chunk.length
    if current:
        fragments.append(current)
    return fragments


# --------------------------------------------------------------------------
# Run files
# --------------------------------------------------------------------------


def _blocks(entries: _t.Iterable, block_values: int) -> _t.Iterator:
    """Cut a run into blocks: a folded map (``dict``) into dict slices,
    decorated entries into lists bounded by count and carried values."""
    if isinstance(entries, dict):
        items = iter(entries.items())
        while block := dict(itertools.islice(items, SPILL_BLOCK_ENTRIES)):
            yield block
        return
    block: list = []
    weight = 0
    for entry in entries:
        block.append(entry)
        values = entry[2]
        weight += len(values) if isinstance(values, list) else 1
        if len(block) >= SPILL_BLOCK_ENTRIES or weight >= block_values:
            yield block
            block, weight = [], 0
    if block:
        yield block


def _framed_blocks(
    entries: _t.Iterable,
    block_values: int,
    faults: "FaultInjector | None",
    run_index: int | None,
) -> _t.Iterator[bytes]:
    """Frame ``entries`` into crc-headed pickled blocks (see :func:`_blocks`).

    The ``spill.write`` fault decision is made *eagerly* (a fail raises
    before the caller has written anything); a corrupt decision flips one
    byte of the first block's payload after its crc is computed.  Shared
    by :func:`write_run` (file spill) and :func:`dump_run` (tier spill).
    """
    decision = None
    if faults is not None:
        decision = faults.check("spill.write", run=run_index)
        if decision is not None and decision.action in ("fail", "drop", "kill"):
            raise FaultInjectedError(
                "spill.write", f"injected spill-write failure (run {run_index})"
            )

    def frames() -> _t.Iterator[bytes]:
        nonlocal decision
        for block in _blocks(entries, block_values):
            payload = pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL)
            header = _BLOCK_HEADER.pack(len(payload), zlib.crc32(payload))
            if decision is not None and decision.action == "corrupt":
                payload = faults.corrupt_bytes(payload, decision)
                decision = None
            yield header + payload

    return frames()


def write_run(
    path: str,
    entries: _t.Iterable,
    block_values: int = SPILL_BLOCK_VALUES,
    faults: "FaultInjector | None" = None,
    run_index: int | None = None,
) -> int:
    """Spill one run as crc-framed pickled blocks; returns bytes written.

    ``entries`` is a folded map (spilled as dict slices) or sorted
    decorated entries, whose blocks are bounded both by entry count and
    by carried values (``block_values``), so a reader never holds more
    than ~one block's worth of data per run however lopsided the value
    lists are.  Each block is an independent pickle (fresh memo) behind a
    ``<length, crc32>`` header, so readers can free a block's objects as
    soon as the merge moves past them and verify each block independently.

    Injected faults at ``spill.write``: *fail* raises before anything is
    written (retryable — the caller re-spills), *corrupt* flips one byte
    of the first block's payload after its crc is computed, i.e. durable
    on-disk corruption the reader's re-read cannot mask.
    """
    frames = _framed_blocks(entries, block_values, faults, run_index)
    with open(path, "wb") as f:
        for data in frames:
            f.write(data)
        return f.tell()


def dump_run(
    entries: _t.Iterable,
    block_values: int = SPILL_BLOCK_VALUES,
    faults: "FaultInjector | None" = None,
    run_index: int | None = None,
) -> bytes:
    """The run's spill bytes in memory — same framing as :func:`write_run`.

    Used by the tier path: the framed run goes into a
    :class:`~repro.tier.store.TieredStore` instead of a file, keeping the
    crc framing (and its corruption detection) identical in both homes.
    """
    return b"".join(_framed_blocks(entries, block_values, faults, run_index))


def _read_block(f: _t.BinaryIO, path: str, block_index: int, run_index: int | None):
    """One framed block off ``f``; ``None`` at clean EOF.

    Returns ``(payload, crc, offset)`` — verification is the caller's so
    injected in-memory corruption can land between read and check.
    """
    offset = f.tell()
    header = f.read(_BLOCK_HEADER.size)
    if not header:
        return None
    if len(header) < _BLOCK_HEADER.size:
        raise SpillCorruptionError(path, block_index, run_index)
    length, crc = _BLOCK_HEADER.unpack(header)
    payload = f.read(length)
    if len(payload) < length:
        raise SpillCorruptionError(path, block_index, run_index)
    return payload, crc, offset


def iter_run(
    path: str,
    faults: "FaultInjector | None" = None,
    run_index: int | None = None,
) -> _t.Iterator:
    """Stream a spilled run's entries back, one verified block resident
    at a time: decorated entries for a sorted run, ``(key, value)`` pairs
    for a folded one.

    Every block's crc32 is checked.  A mismatch gets exactly one re-read
    from disk (transient corruption between the page cache and this
    process vanishes on the second read); a block that fails twice is
    durably corrupt and raises :class:`~repro.errors.SpillCorruptionError`
    carrying the run index, which the engine answers by recomputing the
    fragment.

    Injected faults at ``spill.read``: *fail* raises at open (retryable —
    the merge restarts and the next attempt reads normally), *corrupt*
    flips a byte of the first block's payload in memory before the crc
    check — exercising the re-read path without touching the file.
    """
    with open(path, "rb") as f:
        yield from _entries(_iter_blocks(f, path, faults, run_index))


def iter_run_bytes(
    data: bytes,
    faults: "FaultInjector | None" = None,
    run_index: int | None = None,
    name: str = "<tier-run>",
) -> _t.Iterator:
    """Stream a run held in memory (a tier ``get()`` payload).

    The verification pipeline is identical to :func:`iter_run` — crc per
    block, one re-read (which for an in-memory buffer re-reads the same
    bytes, so *durable* corruption such as a tier-corrupted payload fails
    twice and raises), then :class:`~repro.errors.SpillCorruptionError`
    carrying the run index for the engine's recompute path.
    """
    return _entries(_iter_blocks(io.BytesIO(data), name, faults, run_index))


def _entries(blocks: _t.Iterable) -> _t.Iterator:
    for block in blocks:
        yield from block.items() if isinstance(block, dict) else block


def _iter_blocks(
    f: _t.BinaryIO,
    path: str,
    faults: "FaultInjector | None",
    run_index: int | None,
) -> _t.Iterator:
    corrupt = None
    if faults is not None:
        decision = faults.check("spill.read", run=run_index)
        if decision is not None:
            if decision.action == "corrupt":
                corrupt = decision
            else:
                raise FaultInjectedError(
                    "spill.read", f"injected spill-read failure (run {run_index})"
                )
    block_index = 0
    while True:
        got = _read_block(f, path, block_index, run_index)
        if got is None:
            return
        payload, crc, offset = got
        if corrupt is not None:
            # in-memory flip: the on-disk copy is fine, so the
            # re-read below recovers it
            payload = faults.corrupt_bytes(payload, corrupt)
            corrupt = None
        if zlib.crc32(payload) != crc:
            f.seek(offset)
            got = _read_block(f, path, block_index, run_index)
            if got is None:
                raise SpillCorruptionError(path, block_index, run_index)
            payload, crc, _ = got
            if zlib.crc32(payload) != crc:
                raise SpillCorruptionError(path, block_index, run_index)
        yield pickle.loads(payload)
        block_index += 1


# --------------------------------------------------------------------------
# Merge-side folding / finalization
# --------------------------------------------------------------------------


def _fold_equal_keys(stream: _t.Iterator) -> _t.Iterator:
    """Fold adjacent equal-key entries of a sort-key-ordered stream.

    Value lists from later runs extend earlier ones, so each key's values
    keep global chunk order.  Distinct keys that share a ``repr`` (hence a
    sort key) stay distinct: within one sort-key group, grouping is by
    actual key equality, emitted in first-seen order — the same order the
    in-memory path's stable sort over dict-insertion order produces.
    """
    for sort_key, group in itertools.groupby(stream, key=_SORT_KEY):
        acc: dict[object, list] = {}
        for _skey, key, values in group:
            bucket = acc.get(key)
            if bucket is None:
                # entries come fresh off the unpickler; owning is safe
                acc[key] = values
            else:
                bucket.extend(values)
        for key, values in acc.items():
            yield sort_key, key, values


def _finalize_stream(
    stream: _t.Iterator,
    reduce_fn: _t.Callable | None,
    sort_output: bool,
    params: dict,
) -> list[tuple[object, object]]:
    """Reduce the merged value-list stream per key; mirror of
    :func:`repro.phoenix.sort.finalize_merged_map` over a lazy stream.

    Value lists exist one key at a time; only the final (key, value)
    output is materialized.
    """
    folded = _fold_equal_keys(stream)
    if reduce_fn is not None:
        entries = [
            (skey, key, reduce_fn(key, values, params))
            for skey, key, values in folded
        ]
    else:
        entries = list(folded)
    if sort_output:
        entries = sort_decorated_by_value_desc(entries)
    return undecorate(entries)


# --------------------------------------------------------------------------
# The out-of-core driver
# --------------------------------------------------------------------------


def run_out_of_core(
    chunks: _t.Sequence[FileChunk],
    map_fragment: _t.Callable[[_t.Sequence[FileChunk]], dict],
    combine_fn: _t.Callable | None,
    reduce_fn: _t.Callable | None,
    sort_output: bool,
    params: dict,
    budget: int,
    obs: Observability,
    spill_dir: str | None = None,
    faults: "FaultInjector | None" = None,
    max_retries: int = 2,
    tier: "TieredStore | None" = None,
    tier_key: str | None = None,
    prefetcher: "ReadaheadPrefetcher | None" = None,
) -> tuple[list[tuple[object, object]], int, int]:
    """Fragment-at-a-time map and spill, then merge and finalize.

    ``map_fragment`` is the engine's chunk-mapping closure (pool or
    in-process) returning one map per fragment: with a ``combine_fn`` a
    folded ``key -> value`` map (so ``reduce_fn`` gets one folded partial
    per key, as in memory), else a ``key -> values`` map.
    Returns ``(output, n_fragments, spilled_bytes)``.  Spill files live
    under a fresh directory inside ``spill_dir`` (default: the system
    temp dir) and are removed whether the run succeeds or raises — with
    an ``atexit`` finalizer backstopping interpreter teardown.

    With a ``tier`` (:class:`~repro.tier.store.TieredStore`), runs go
    into the burst buffer instead of plain spill files: each fragment's
    framed run is ``put()`` under ``{tier_key}/bv{block_values}/run-i``
    and the merge reads it back block by block.  Because ``tier_key``
    encodes the *content identity* of the job (file stat, chunk plan,
    callables, params — the caller's responsibility), a warm tier lets a
    repeat job skip map and spill for every run it still holds
    (``tier.spill.reuse``).  The tier is allowed to lie about
    durability: an entry lost to a dropped write-back is detected before
    each merge attempt (``contains``) and recomputed from the input file;
    a corrupted payload fails the crc check, is invalidated and
    recomputed.  Loss costs time, never answers.  ``prefetcher`` is
    advised as each fragment starts mapping (never for a warm run) so the
    next fragment's chunks warm the page cache while this one maps.

    Recovery: a transient spill-write failure re-spills the fragment; a
    durably corrupt block found during the merge recomputes *that*
    fragment from its source chunks and restarts the merge; a transient
    merge-side failure just restarts the merge.  All three are bounded by
    ``max_retries`` per stage and classified via
    :func:`repro.errors.is_retryable` — permanent errors propagate at
    once.
    """
    fragments = plan_fragments(chunks, budget)
    # per-block value cap derived from the run count so the heap merge's
    # total read-ahead (one block per run) stays ~MERGE_READAHEAD_VALUES
    # however many runs the input needs
    block_values = max(
        MIN_BLOCK_VALUES,
        min(SPILL_BLOCK_VALUES, MERGE_READAHEAD_VALUES // len(fragments)),
    )
    tmpdir = None
    if tier is None:
        tmpdir = tempfile.mkdtemp(prefix="localmr-spill-", dir=spill_dir)
        _track_spill_dir(tmpdir)
    spilled = 0
    #: fragment indices whose current run lives in a plain spill file
    #: rather than the tier (the durable fallback for merge recovery)
    on_disk: set[int] = set()

    def ensure_tmpdir() -> str:
        nonlocal tmpdir
        if tmpdir is None:
            tmpdir = tempfile.mkdtemp(prefix="localmr-spill-", dir=spill_dir)
            _track_spill_dir(tmpdir)
        return tmpdir

    def run_source(i: int) -> str:
        if tier is not None and i not in on_disk:
            # block_values is part of the identity: a different merge
            # read-ahead derivation produces differently-framed runs
            return f"{tier_key or 'localmr'}/bv{block_values}/run-{i:05d}"
        return os.path.join(ensure_tmpdir(), f"run-{i:05d}.spill")

    def spill_fragment(i: int, to_disk: bool = False) -> str:
        """Map fragment ``i`` and spill its run (with bounded retry on
        transient write faults).  With a warm tier the whole pipeline is
        skipped when the run is already resident.

        ``to_disk`` forces the run into a plain spill file even when a
        tier is attached: the durable fallback for merge recovery, so a
        tier too small to hold the whole run set (each recompute's
        ``put`` can evict another run it is merging with) converges
        instead of burning every retry on capacity churn.
        """
        nonlocal spilled
        if to_disk:
            on_disk.add(i)
        source = run_source(i)
        use_tier = tier is not None and i not in on_disk
        if use_tier and tier.contains(source):
            # warm run: the tier still holds this fragment's spill from a
            # previous identical job — nothing to map, nothing to write
            obs.count("tier.spill.reuse")
            return source
        if prefetcher is not None:
            prefetcher.advise(i)
        fragment = fragments[i]
        with obs.span(
            "localmr.fragment", cat="localmr", track="localmr",
            index=i, chunks=len(fragment),
            bytes=sum(c.length for c in fragment),
        ):
            run = map_fragment(fragment)
            if combine_fn is None:
                # value lists stream through the heap merge: sort the run
                run = decorate_sorted(run)
            with obs.span(
                "localmr.spill", cat="localmr", track="localmr", index=i,
            ) as spill_sp:
                for attempt in range(max_retries + 1):
                    try:
                        if use_tier:
                            data = dump_run(
                                run, block_values,
                                faults=faults, run_index=i,
                            )
                            tier.put(source, data)
                            nbytes = len(data)
                        else:
                            nbytes = write_run(
                                source, run, block_values,
                                faults=faults, run_index=i,
                            )
                        break
                    except Exception as exc:
                        if not is_retryable(exc) or attempt == max_retries:
                            raise
                        obs.count("retry.count")
                        obs.count("retry.spill_write")
                spill_sp.set(bytes=nbytes, entries=len(run))
            del run
            obs.count("localmr.spill_bytes", nbytes)
            obs.count("localmr.spill_runs")
            spilled += nbytes
        return source

    def open_blocks(j: int) -> _t.Iterator:
        """Run ``j``'s verified blocks, from its file or the tier."""
        source = run_sources[j]
        if tier is None or j in on_disk:
            with open(source, "rb") as f:
                yield from _iter_blocks(f, source, faults, j)
            return
        data = tier.get(source)
        if data is None:
            # the tier lost the run between the pre-merge sweep and this
            # pull (fault-degraded read); recompute it
            raise SpillCorruptionError(source, 0, j)
        yield from _iter_blocks(io.BytesIO(data), source, faults, j)

    def fold_runs() -> list[tuple[object, object]]:
        acc: dict = {}
        for j in range(len(run_sources)):
            for block in open_blocks(j):
                if j == 0:
                    # run 0's blocks are disjoint slices of one map
                    acc.update(block)
                else:
                    fold_map_into(acc, block, combine_fn)
        return finalize_folded_map(acc, reduce_fn, sort_output, params)

    try:
        run_sources = [spill_fragment(i) for i in range(len(fragments))]
        for attempt in range(max_retries + 1):
            try:
                if tier is not None:
                    # sweep for write-back losses before paying for the
                    # merge: every lost run recomputes here, so a burst of
                    # losses costs one merge attempt, not one retry each
                    for j, src in enumerate(run_sources):
                        if j not in on_disk and not tier.contains(src):
                            obs.count("localmr.recompute")
                            obs.count("tier.spill.lost")
                            # retry attempts recompute onto durable disk:
                            # re-putting into a thrashing tier could evict
                            # a sibling run and spin the merge forever
                            run_sources[j] = spill_fragment(
                                j, to_disk=attempt > 0
                            )
                with obs.span(
                    "localmr.merge", cat="localmr", track="localmr",
                    runs=len(run_sources),
                ):
                    if combine_fn is not None:
                        output = fold_runs()
                    else:
                        stream = merge_decorated_runs([
                            itertools.chain.from_iterable(open_blocks(j))
                            for j in range(len(run_sources))
                        ])
                        output = _finalize_stream(
                            stream, reduce_fn, sort_output, params
                        )
                break
            except SpillCorruptionError as exc:
                if attempt == max_retries:
                    raise
                obs.count("retry.count")
                obs.count("retry.spill_merge")
                if exc.run_index is not None:
                    # the input file is the durable copy: rebuild the
                    # damaged run from its source chunks, then re-merge
                    obs.count("localmr.recompute")
                    if tier is not None and exc.run_index not in on_disk:
                        tier.invalidate(run_sources[exc.run_index])
                    run_sources[exc.run_index] = spill_fragment(
                        exc.run_index, to_disk=attempt > 0
                    )
            except Exception as exc:
                if not is_retryable(exc) or attempt == max_retries:
                    raise
                obs.count("retry.count")
                obs.count("retry.spill_merge")
        return output, len(fragments), spilled
    finally:
        if tmpdir is not None:
            _untrack_spill_dir(tmpdir)
