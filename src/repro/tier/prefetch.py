"""Readahead hints for the real out-of-core engine.

When fragment N starts mapping, :class:`ReadaheadPrefetcher` asks the
kernel to start reading fragment N+1's chunks (and deeper, per ``depth``)
with ``posix_fadvise(POSIX_FADV_WILLNEED)``, so their pages are warm in
the OS page cache by the time the engine maps them.  The kernel does the
reading in the background; the hint itself costs one ``open`` per file
and one syscall per chunk, and reads no bytes into this process.

``advise(i)`` is the engine's only integration point: call it when
fragment ``i`` *starts* (``run_out_of_core`` calls it before it awaits
fragment ``i``'s map); the prefetcher hints the fragments after it and
skips anything already hinted.  It never raises into the engine — a hint
that fails (file gone, descriptor error) is counted and dropped — and it
is a no-op where the platform has no ``posix_fadvise``.
"""

from __future__ import annotations

import itertools
import operator
import os
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.chunks import FileChunk
    from repro.obs import Observability

__all__ = ["ReadaheadPrefetcher"]

_FADVISE = getattr(os, "posix_fadvise", None)


class ReadaheadPrefetcher:
    """Hints fragment N+1's chunks to the kernel while fragment N runs."""

    def __init__(
        self,
        fragments: _t.Sequence[_t.Sequence["FileChunk"]],
        depth: int = 1,
        obs: "Observability | None" = None,
    ):
        if depth < 0:
            raise ValueError("prefetch depth must be >= 0")
        self.fragments = fragments
        self.depth = depth
        self.obs = obs
        self._scheduled: set[int] = set()

    def advise(self, index: int) -> None:
        """Fragment ``index`` is starting: hint the ones after it."""
        if _FADVISE is None:
            return
        for nxt in range(index + 1, min(index + 1 + self.depth, len(self.fragments))):
            if nxt in self._scheduled:
                continue
            self._scheduled.add(nxt)
            try:
                nbytes = _willneed(self.fragments[nxt])
            except OSError:
                self._count("tier.prefetch.failed")
                continue
            self._count("tier.prefetch.issued")
            self._count("tier.prefetch.bytes", nbytes)

    def _count(self, name: str, n: int = 1) -> None:
        if self.obs is not None:
            self.obs.count(name, n)


def _willneed(chunks: _t.Sequence["FileChunk"]) -> int:
    """One WILLNEED hint per chunk range; returns the bytes hinted."""
    total = 0
    for path, group in itertools.groupby(chunks, key=operator.attrgetter("path")):
        fd = os.open(path, os.O_RDONLY)
        try:
            for chunk in group:
                _FADVISE(fd, chunk.offset, chunk.length, os.POSIX_FADV_WILLNEED)
                total += chunk.length
        finally:
            os.close(fd)
    return total
