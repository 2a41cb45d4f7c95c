"""Timed local-file I/O: VFS operations that charge the node's disk.

Every byte-moving operation is a simulated process whose duration comes
from the :class:`~repro.hardware.disk.DiskModel`; mkdir, create and unlink
cost one seek.  Reading metadata costs no disk time, so it has no timed
form: callers read :meth:`LocalFS.exists`, :meth:`LocalFS.size_of` or the
VFS itself (the NFS server answers getattr and readdir that way).  The
timestamp written into inodes is the simulation clock.
"""

from __future__ import annotations

import typing as _t

from repro.fs.vfs import VFS
from repro.hardware.disk import DiskModel
from repro.sim.events import Event
from repro.sim.kernel import Simulator

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tier.burst import BurstBuffer

__all__ = ["LocalFS"]


class LocalFS:
    """A node's local file system: one VFS backed by one disk.

    An optional :class:`~repro.tier.burst.BurstBuffer` (see
    :meth:`attach_tier`) interposes between reads/writes and the disk:
    reads hit the tier's block cache first, writes are buffered in the
    tier's memory level and drained in the background.  mkdir, create
    and unlink always go straight to the disk.
    """

    def __init__(self, sim: Simulator, disk: DiskModel, name: str = "localfs"):
        self.sim = sim
        self.disk = disk
        self.name = name
        self.vfs = VFS(name=name)
        self.tier: "BurstBuffer | None" = None

    def attach_tier(self, tier: "BurstBuffer") -> "BurstBuffer":
        """Front the disk with a burst buffer; wires VFS invalidation."""
        self.tier = tier
        tier.watch(self.vfs)
        return tier

    # -- instantaneous metadata helpers (no disk charge) -------------------

    def exists(self, path: str) -> bool:
        """True if ``path`` resolves (metadata cache hit, free)."""
        return self.vfs.exists(path)

    def size_of(self, path: str) -> int:
        """Declared size of a file (metadata cache hit, free)."""
        return self.vfs.size_of(path)

    # -- timed operations ------------------------------------------------------

    def mkdir(self, path: str, parents: bool = False) -> Event:
        """Create a directory; costs one metadata seek."""

        def _proc() -> _t.Generator:
            yield self.disk.write(0, label="mkdir")
            return self.vfs.mkdir(path, parents=parents, mtime=self.sim.now)

        return self.sim.spawn(_proc(), name=f"{self.name}.mkdir")

    def create(self, path: str, exist_ok: bool = False) -> Event:
        """Create an empty file; costs one metadata seek."""

        def _proc() -> _t.Generator:
            yield self.disk.write(0, label="create")
            return self.vfs.create(path, exist_ok=exist_ok, mtime=self.sim.now)

        return self.sim.spawn(_proc(), name=f"{self.name}.create")

    def write(
        self,
        path: str,
        data: bytes | None = None,
        size: int | None = None,
        append: bool = False,
    ) -> Event:
        """Write (or append) to a file; charges the disk for the bytes.

        With a tier attached (and write-back enabled), the foreground
        cost is one memory-tier transfer; the disk is charged later by
        the tier's background drain.
        """
        nbytes = len(data) if size is None and data is not None else int(size or 0)

        def _proc() -> _t.Generator:
            tier = self.tier
            if tier is not None and tier.spec.writeback:
                yield from tier.write_charge(nbytes)
                # the VFS mutation emits the modify event (invalidating the
                # stale blocks) before the fresh range is re-admitted dirty
                node = self.vfs.write(
                    path, data=data, size=size, append=append, mtime=self.sim.now
                )
                tier.admit_write(path, node.size, nbytes, append=append)
                return node
            yield self.disk.write(nbytes, label="write")
            return self.vfs.write(
                path, data=data, size=size, append=append, mtime=self.sim.now
            )

        return self.sim.spawn(_proc(), name=f"{self.name}.write")

    def read(self, path: str, nbytes: int | None = None, offset: int = 0) -> Event:
        """Read a file; charges the disk; returns the materialized payload.

        ``nbytes`` overrides the charged byte count (partial/streaming
        reads); the payload returned is always the whole materialized data
        (the scale model keeps payloads tiny).  ``offset`` locates the
        charged range within the file so a tier, when attached, can hit
        the exact blocks a prior read or prefetch populated.
        """

        def _proc() -> _t.Generator:
            node = self.vfs.resolve(path)
            charge = node.size if nbytes is None else int(nbytes)
            if self.tier is not None:
                yield from self.tier.read_through(path, int(offset), charge, node.size)
            else:
                yield self.disk.read(charge, label="read")
            return self.vfs.read(path)

        return self.sim.spawn(_proc(), name=f"{self.name}.read")

    def prefetch(self, path: str, offset: int = 0, nbytes: int | None = None) -> Event | None:
        """Fire-and-forget readahead of a range into the tier (if any).

        Without a tier this is a no-op — prefetching straight into a disk
        model would only add queue contention.  Returns the background
        fill Process, or None when nothing needed fetching.
        """
        if self.tier is None or not self.vfs.exists(path):
            return None
        size = self.vfs.size_of(path)
        span = size - int(offset) if nbytes is None else int(nbytes)
        if span <= 0:
            return None
        return self.tier.prefetch(path, int(offset), span, size)

    def unlink(self, path: str) -> Event:
        """Timed unlink (one seek)."""

        def _proc() -> _t.Generator:
            yield self.disk.write(0, label="unlink")
            self.vfs.unlink(path)

        return self.sim.spawn(_proc(), name=f"{self.name}.unlink")
