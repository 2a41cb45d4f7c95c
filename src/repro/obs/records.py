"""The flat trace-record stream: a kind-indexed ring buffer.

This is the storage behind ``Observability.records`` (``sim.obs.records``
on the simulator): a bounded deque of ``(kind, time, detail)`` tuples.
Two things the seed deque did not provide:

* ``of_kind`` is O(matching records) instead of a full linear scan — a
  per-kind index is maintained on append (the smartFAM protocol tests
  call ``of_kind`` repeatedly per job);
* overflow is no longer silent — evicting the oldest record bumps
  :attr:`RecordLog.dropped`, so benchmarks and tests can detect that the
  window was too small for the run they are asserting on.
"""

from __future__ import annotations

import collections
import typing as _t

__all__ = ["TraceRecord", "RecordLog"]


class TraceRecord(_t.NamedTuple):
    """A single trace entry."""

    kind: str
    time: float
    detail: str


class RecordLog:
    """Bounded record stream with a per-kind index and a drop counter."""

    __slots__ = ("keep", "entries", "dropped", "_by_kind")

    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.entries: collections.deque[TraceRecord] = collections.deque(maxlen=keep)
        #: records evicted by the ring buffer since the last clear
        self.dropped = 0
        self._by_kind: dict[str, collections.deque[TraceRecord]] = {}

    def append(self, record: TraceRecord) -> None:
        """Store one record, evicting (and counting) the oldest if full."""
        entries = self.entries
        if len(entries) == self.keep:
            # The evicted record is the globally oldest, hence also the
            # oldest of its kind: the index stays consistent with a popleft.
            evicted = entries[0]
            self._by_kind[evicted.kind].popleft()
            self.dropped += 1
        entries.append(record)
        by_kind = self._by_kind.get(record.kind)
        if by_kind is None:
            by_kind = self._by_kind[record.kind] = collections.deque()
        by_kind.append(record)

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All stored records with the given kind (oldest first)."""
        return list(self._by_kind.get(kind, ()))

    def clear(self) -> None:
        """Drop all records, the index, and the drop counter."""
        self.entries.clear()
        self._by_kind.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> _t.Iterator[TraceRecord]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.entries[index]
