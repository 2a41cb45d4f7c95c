"""Real-file chunking with the Fig 7 integrity check.

Chunk boundaries are planned from the file size, then each draft boundary
is integrity-checked by probing a window around it — the same algorithm
as :mod:`repro.partition.integrity`, applied to an on-disk file instead
of an in-memory payload, so huge files never need to be resident.

Reads go through a small per-process cache of ``mmap``-backed file
handles: one ``open``+``mmap`` per file per process lifetime instead of
an open/seek/read syscall triple per chunk.  The cache is LRU (hits move
the entry to MRU position) and revalidated against a live ``stat`` on
every lookup, so a file replaced or rewritten between jobs is remapped
rather than served stale.  :func:`read_chunk_cached` slices chunk bytes
off the cached mapping, and :func:`read_chunk_view` exposes chunk
payloads as zero-copy ``memoryview`` slices over it for consumers that
can scan a buffer without materializing ``bytes``.  The cache lives as
long as the process; an ``atexit`` hook closes whatever is left in it.

:func:`chunk_file` — the *parent's* path — deliberately probes
boundaries with ``os.pread`` windows on its own short-lived descriptor
rather than through the cache's mapping: faulting an mmap page charges
the process's RSS and triggers kernel readahead/fault-around that drags
neighboring pages in with it, so probing every draft boundary through
the mapping makes roughly the whole file resident in the planner.
``pread`` serves the same bytes from the page cache without growing the
parent at all, which keeps the engine's bounded-parent-memory claim
honest (the mmap cost lands only in workers, whose job is to scan the
chunk anyway).  Planning therefore leaves no handle in the parent's
cache.

Shrink safety: an mmap slice past the mapped size silently clamps, so a
chunk planned against a larger incarnation of the file would quietly
return short data.  Both read paths check ``chunk.end`` against the
*live* mapped size and raise :class:`~repro.errors.IntegrityError`
instead of truncating.
"""

from __future__ import annotations

import atexit
import collections
import dataclasses
import mmap
import os
import re
import typing as _t

from repro.errors import IntegrityError
from repro.partition.integrity import DEFAULT_DELIMITERS

__all__ = [
    "FileChunk",
    "chunk_file",
    "read_chunk",
    "read_chunk_cached",
    "read_chunk_view",
    "handle_cache_stats",
    "drop_cached_handle",
]

#: per-process cap on cached (file, mmap) pairs
_MAX_CACHED_FILES = 8

#: how many bytes each boundary probe reads looking for a delimiter
_WINDOW = 64 * 1024

#: per-process mmap cache: path -> (ino, size, mtime_ns, ctime_ns, file, mmap)
_HANDLES: "collections.OrderedDict[str, tuple[int, int, int, int, _t.BinaryIO, mmap.mmap | None]]" = (
    collections.OrderedDict()
)


@dataclasses.dataclass(frozen=True)
class FileChunk:
    """A byte range of a file, ending on a record boundary."""

    path: str
    offset: int
    length: int

    @property
    def end(self) -> int:
        """Exclusive end offset."""
        return self.offset + self.length


def _drop_handle(path: str) -> None:
    ino, size, mtime, ctime, f, mm = _HANDLES.pop(path)
    if mm is not None:
        try:
            mm.close()
        except BufferError:
            # a live memoryview from read_chunk_view still pins the
            # mapping; dropping our reference lets GC finalize it once
            # the last view dies
            pass
    f.close()


@atexit.register
def _close_handles() -> None:
    """Close every cached handle; runs at interpreter exit so in-process
    (serial) reads leave no file open behind them."""
    while _HANDLES:
        _drop_handle(next(iter(_HANDLES)))


def _cached_entry(
    path: str,
) -> tuple[int, int, int, int, _t.BinaryIO, mmap.mmap | None]:
    """The validated cache entry for ``path``, opening/mapping on miss.

    One ``stat`` revalidates a hit — the file may have been replaced or
    rewritten between jobs; hits move to MRU position so eviction is true
    LRU.  The check covers inode *and* change-time: a rename-over that
    recycles the old inode number with the source's preserved mtime and
    an equal size would slip past an (ino, size, mtime) triple, but the
    rename updates ``st_ctime_ns`` on the new inode, so the generation
    change is still caught.  On miss the entry records the ``fstat`` of
    the descriptor actually opened, not the path's earlier stat, closing
    the stat→open replacement race.
    """
    st = os.stat(path)
    entry = _HANDLES.get(path)
    if entry is not None and (
        st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns
    ) != entry[:4]:
        _drop_handle(path)
        entry = None
    if entry is None:
        f = open(path, "rb")
        fst = os.fstat(f.fileno())
        mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) if fst.st_size else None
        entry = (fst.st_ino, fst.st_size, fst.st_mtime_ns, fst.st_ctime_ns, f, mm)
        _HANDLES[path] = entry
        while len(_HANDLES) > _MAX_CACHED_FILES:
            _drop_handle(next(iter(_HANDLES)))
    else:
        _HANDLES.move_to_end(path)
    return entry


def handle_cache_stats() -> dict:
    """Occupancy of this process's mmap handle cache: entries, capacity
    and mapped bytes."""
    return {
        "entries": len(_HANDLES),
        "capacity": _MAX_CACHED_FILES,
        "mapped_bytes": sum(entry[1] for entry in _HANDLES.values()),
    }


def drop_cached_handle(path: str) -> int:
    """Close and forget the cached handle for ``path``.

    Returns 1 if an entry was dropped, 0 otherwise.  Revalidation would
    catch a replaced file on the next use anyway; this releases the
    descriptor and mapping *now*, e.g. before the file's directory is
    removed.
    """
    if path in _HANDLES:
        _drop_handle(path)
        return 1
    return 0


def chunk_file(
    path: str,
    chunk_bytes: int,
    delimiters: bytes = DEFAULT_DELIMITERS,
) -> list[FileChunk]:
    """Split a real file into integrity-checked chunks.

    Boundaries advance to the next delimiter at or after each draft
    point (the delimiter stays with the left chunk); a tail with no
    delimiter extends the last chunk to end-of-file.  Probing uses
    ``pread`` windows on a descriptor opened for this call, *not* a
    mapping — see the module docstring for why planning must stay off
    the mmap.
    """
    if chunk_bytes < 1:
        raise IntegrityError(f"chunk size must be >= 1, got {chunk_bytes}")
    # one compiled character class: a single C-speed window search finds
    # the first delimiter at or after (draft - 1); a match *at* draft - 1
    # means the draft already sits right after a delimiter
    pattern = re.compile(b"[" + re.escape(delimiters) + b"]")
    chunks: list[FileChunk] = []
    with open(path, "rb") as f:
        fd = f.fileno()
        size = os.fstat(fd).st_size
        start = 0
        while start < size:
            draft = start + chunk_bytes
            if draft >= size:
                chunks.append(FileChunk(path, start, size - start))
                break
            boundary = size
            pos = draft - 1
            while pos < size:
                window = os.pread(fd, _WINDOW, pos)
                if not window:  # pragma: no cover - file shrank mid-plan
                    break
                m = pattern.search(window)
                if m is not None:
                    boundary = pos + m.start() + 1
                    break
                pos += len(window)
            if boundary <= start:  # pragma: no cover - defensive
                raise IntegrityError("chunking failed to advance")
            chunks.append(FileChunk(path, start, boundary - start))
            start = boundary
    if not chunks:
        chunks.append(FileChunk(path, 0, 0))
    return chunks


def _check_in_bounds(chunk: FileChunk, mapped_size: int) -> None:
    if chunk.end > mapped_size:
        raise IntegrityError(
            f"chunk [{chunk.offset}, {chunk.end}) of {chunk.path!r} exceeds "
            f"the file's current size {mapped_size} — the file shrank since "
            "the chunk plan was made"
        )


def read_chunk_cached(chunk: FileChunk) -> bytes:
    """The chunk's bytes via this process's cached ``mmap`` of the file.

    A hit costs one ``stat`` plus a single slice off the mapping — no
    open/seek/read.  Falls back to an empty result for zero-length
    chunks/files (which cannot be mmapped); raises
    :class:`~repro.errors.IntegrityError` for a chunk that extends past
    the file's current size rather than serving silently-short data.
    """
    if chunk.length == 0:
        return b""
    entry = _cached_entry(chunk.path)
    _check_in_bounds(chunk, entry[1])
    mm = entry[5]
    assert mm is not None  # size > 0 given the bounds check passed
    return mm[chunk.offset : chunk.end]


def read_chunk_view(chunk: FileChunk) -> memoryview:
    """The chunk's bytes as a zero-copy ``memoryview`` over the mmap.

    Nothing is materialized: scanning the view touches the page cache
    directly.  The view pins the underlying mapping — cache eviction of
    a pinned mapping defers its teardown to GC (see ``_drop_handle``),
    so holding views indefinitely holds their files' mappings too.
    """
    if chunk.length == 0:
        return memoryview(b"")
    entry = _cached_entry(chunk.path)
    _check_in_bounds(chunk, entry[1])
    mm = entry[5]
    assert mm is not None
    return memoryview(mm)[chunk.offset : chunk.end]


def read_chunk(chunk: FileChunk) -> bytes:
    """The chunk's bytes (uncached open/seek/read — the seed path)."""
    with open(chunk.path, "rb") as f:
        f.seek(chunk.offset)
        return f.read(chunk.length)
