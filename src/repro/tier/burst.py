"""The simulated burst buffer: a block cache between a LocalFS and its disk.

A :class:`BurstBuffer` sits in front of one :class:`~repro.hardware.disk.DiskModel`
and turns file reads into sub-tier transfers.  It tracks file content at
``TierSpec.block_bytes`` granularity in two LRU levels:

* **mem** — small, fast (latency + bandwidth from the spec), the admission
  level for fills, prefetch and buffered writes;
* **ssd** — larger, slower, fed by demotion when mem overflows.

Reads split into mem-hit / ssd-hit / miss portions: hits pay the sub-tier
transfer, misses pay the disk and are admitted into mem.  Writes (when the
spec enables write-back) pay only the mem transfer up front; a background
process drains the dirty blocks to the disk.  The VFS remains the source
of truth for *bytes* — the tier only decides *where the time goes* — so a
lying or dying tier can cost extra disk reads but can never corrupt data.
Fault sites: ``tier.read`` (degrade a hit to a disk re-read),
``tier.writeback`` (drop/delay the background drain; bounded retries, then
synchronous write-through) and ``tier.evict`` (a stuck eviction leaves the
SSD level temporarily over capacity).

Invalidation: the buffer registers on the owning VFS's event stream, so
any modify/delete — including ones that never went through the tier —
drops the path's blocks before they can serve stale timing.
"""

from __future__ import annotations

import collections
import typing as _t

from repro.config import TierSpec
from repro.errors import RETRIES
from repro.fs.vfs import EV_DELETE, EV_MODIFY, Inode, VFS
from repro.hardware.disk import DiskModel
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource

__all__ = ["BurstBuffer"]

_LEVEL_MEM = "mem"
_LEVEL_SSD = "ssd"

#: how often an idle-waiting prefetch re-checks the disk queue (seconds)
_PREFETCH_POLL = 0.002
#: contiguous blocks coalesced into one prefetch disk request — large
#: enough to amortize the seek, small enough that a demand read arriving
#: mid-fill waits at most one chunk
_PREFETCH_RUN_BLOCKS = 4


class _Block:
    """One cached block of one file."""

    __slots__ = ("key", "level", "nbytes", "dirty", "prefetched")

    def __init__(self, key: tuple[str, int], level: str, nbytes: int):
        self.key = key
        self.level = level
        self.nbytes = nbytes
        self.dirty = False
        self.prefetched = False


class BurstBuffer:
    """A two-level (memory + SSD) block cache fronting one disk."""

    def __init__(
        self,
        sim: Simulator,
        disk: DiskModel,
        spec: TierSpec | None = None,
        name: str = "tier",
    ):
        self.sim = sim
        self.disk = disk
        self.spec = spec or TierSpec()
        self.name = name
        #: LRU order per level: oldest first (demotion/eviction victims)
        self._mem: collections.OrderedDict[tuple[str, int], _Block] = collections.OrderedDict()
        self._ssd: collections.OrderedDict[tuple[str, int], _Block] = collections.OrderedDict()
        self._by_path: dict[str, set[tuple[str, int]]] = {}
        self._mem_used = 0
        self._ssd_used = 0
        #: one queued server per sub-tier so concurrent accesses contend
        self._mem_chan = Resource(sim, capacity=1, name=f"{name}.mem")
        self._ssd_chan = Resource(sim, capacity=1, name=f"{name}.ssd")
        #: in-flight background work (write-backs + prefetch fills)
        self._pending: list[Event] = []
        self._counters: collections.Counter[str] = collections.Counter()

    # -- wiring -----------------------------------------------------------

    def watch(self, vfs: VFS) -> None:
        """Invalidate blocks off the VFS event stream (modify/delete).

        The admit path re-populates blocks *after* the VFS mutation has
        emitted its event, so a tier-routed write first invalidates the
        stale blocks here and then admits the fresh ones.
        """
        vfs.on_event(self._on_vfs_event)

    def _on_vfs_event(self, event: str, path: str, inode: Inode) -> None:
        if event in (EV_MODIFY, EV_DELETE):
            self.invalidate_path(path)

    # -- counters ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self._counters[name] += amount
        obs = self.sim.obs
        if obs is not None:
            obs.count(name, amount)

    def stats(self) -> dict:
        """Counter snapshot plus current occupancy."""
        out: dict[str, _t.Any] = dict(self._counters)
        out["mem_used"] = self._mem_used
        out["ssd_used"] = self._ssd_used
        out["mem_blocks"] = len(self._mem)
        out["ssd_blocks"] = len(self._ssd)
        return out

    # -- block geometry ----------------------------------------------------

    def _block_range(self, offset: int, nbytes: int) -> range:
        bb = self.spec.block_bytes
        offset = max(0, int(offset))
        nbytes = max(0, int(nbytes))
        if nbytes == 0:
            return range(0, 0)
        return range(offset // bb, (offset + nbytes + bb - 1) // bb)

    def _block_len(self, index: int, file_end: int) -> int:
        bb = self.spec.block_bytes
        return max(1, min(bb, file_end - index * bb))

    def _overlap(self, index: int, offset: int, nbytes: int) -> int:
        bb = self.spec.block_bytes
        lo = max(offset, index * bb)
        hi = min(offset + nbytes, (index + 1) * bb)
        return max(0, hi - lo)

    # -- lookup / LRU maintenance ----------------------------------------------

    def _find(self, key: tuple[str, int]) -> _Block | None:
        blk = self._mem.get(key)
        if blk is not None:
            self._mem.move_to_end(key)
            return blk
        blk = self._ssd.get(key)
        if blk is not None:
            self._ssd.move_to_end(key)
            return blk
        return None

    def _drop(self, blk: _Block, cause: str) -> None:
        table = self._mem if blk.level == _LEVEL_MEM else self._ssd
        if blk.key not in table:
            return
        del table[blk.key]
        if blk.level == _LEVEL_MEM:
            self._mem_used -= blk.nbytes
        else:
            self._ssd_used -= blk.nbytes
        keys = self._by_path.get(blk.key[0])
        if keys is not None:
            keys.discard(blk.key)
            if not keys:
                del self._by_path[blk.key[0]]
        self._count(f"tier.evict.{cause}")

    def invalidate_path(self, path: str) -> int:
        """Drop every cached block of ``path``; returns blocks dropped."""
        keys = self._by_path.get(path)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            blk = self._mem.get(key) or self._ssd.get(key)
            if blk is not None:
                self._drop(blk, "invalidation")
                dropped += 1
        return dropped

    def _admit(self, path: str, index: int, file_end: int, dirty: bool = False,
               prefetched: bool = False) -> _Block | None:
        """Place a block in mem, demoting/evicting as needed."""
        key = (path, index)
        existing = self._find(key)
        if existing is not None:
            existing.dirty = existing.dirty or dirty
            existing.prefetched = existing.prefetched or prefetched
            if existing.level == _LEVEL_SSD:
                self._promote(existing)
            return existing
        nbytes = self._block_len(index, file_end)
        if nbytes > self.spec.mem_bytes:
            return None  # a block the mem level cannot hold is not cached
        blk = _Block(key, _LEVEL_MEM, nbytes)
        blk.dirty = dirty
        blk.prefetched = prefetched
        self._mem[key] = blk
        self._mem_used += nbytes
        self._by_path.setdefault(path, set()).add(key)
        self._make_room_mem()
        return blk

    def _promote(self, blk: _Block) -> None:
        """Move an SSD block up to mem (touch-promotes on hit)."""
        del self._ssd[blk.key]
        self._ssd_used -= blk.nbytes
        blk.level = _LEVEL_MEM
        self._mem[blk.key] = blk
        self._mem_used += blk.nbytes
        self._count("tier.promote")
        self._make_room_mem()

    def _make_room_mem(self) -> None:
        while self._mem_used > self.spec.mem_bytes and len(self._mem) > 1:
            victim_key = next(iter(self._mem))
            victim = self._mem[victim_key]
            del self._mem[victim_key]
            self._mem_used -= victim.nbytes
            if victim.nbytes <= self.spec.ssd_bytes:
                victim.level = _LEVEL_SSD
                self._ssd[victim_key] = victim
                self._ssd_used += victim.nbytes
                self._count("tier.demote")
                self._make_room_ssd()
            else:
                self._forget(victim)
                self._count("tier.evict.capacity")

    def _make_room_ssd(self) -> None:
        inj = self.sim.faults
        while self._ssd_used > self.spec.ssd_bytes:
            victim = None
            for blk in self._ssd.values():
                if not blk.dirty:
                    victim = blk
                    break
            if victim is None:
                break  # only dirty blocks left: stay over capacity until drained
            if inj is not None:
                decision = inj.check(
                    "tier.evict", tier=self.name, path=victim.key[0], bytes=victim.nbytes
                )
                if decision is not None and decision.action in ("fail", "drop"):
                    # the eviction itself is stuck: leave the level over
                    # capacity this round rather than looping forever
                    self._count("tier.evict.stuck")
                    break
            del self._ssd[victim.key]
            self._ssd_used -= victim.nbytes
            self._forget(victim)
            self._count("tier.evict.capacity")

    def _forget(self, blk: _Block) -> None:
        keys = self._by_path.get(blk.key[0])
        if keys is not None:
            keys.discard(blk.key)
            if not keys:
                del self._by_path[blk.key[0]]

    # -- sub-tier transfer timing -------------------------------------------

    def _xfer(self, chan: Resource, latency: float, bandwidth: float,
              nbytes: int, label: str) -> Event:
        def _proc() -> _t.Generator:
            with chan.request() as req:
                yield req
                yield self.sim.timeout(latency + nbytes / bandwidth)
            return nbytes

        return self.sim.spawn(_proc(), name=f"{self.name}.{label}")

    def _mem_xfer(self, nbytes: int, label: str = "mem") -> Event:
        return self._xfer(
            self._mem_chan, self.spec.mem_latency, self.spec.mem_bandwidth, nbytes, label
        )

    def _ssd_xfer(self, nbytes: int, label: str = "ssd") -> Event:
        return self._xfer(
            self._ssd_chan, self.spec.ssd_latency, self.spec.ssd_bandwidth, nbytes, label
        )

    # -- the read path ----------------------------------------------------------

    def read_through(self, path: str, offset: int, nbytes: int,
                     size: int) -> _t.Generator:
        """Timed read of ``[offset, offset+nbytes)`` through the tier.

        A generator meant to be ``yield from``-ed inside the owning
        LocalFS process.  Classifies the overlapped blocks into mem hits,
        SSD hits and misses, charges each portion to its level, fills the
        misses from the disk and admits them.
        """
        file_end = max(int(size), int(offset) + int(nbytes))
        blocks = self._block_range(offset, nbytes)
        mem_hit = ssd_hit = miss = 0
        hit_keys: list[tuple[str, int]] = []
        miss_idx: list[int] = []
        for i in blocks:
            blk = self._find((path, i))
            part = self._overlap(i, offset, nbytes)
            if blk is None:
                miss += part
                miss_idx.append(i)
            elif blk.level == _LEVEL_MEM:
                mem_hit += part
                hit_keys.append(blk.key)
            else:
                ssd_hit += part
                hit_keys.append(blk.key)

        inj = self.sim.faults
        if inj is not None and (mem_hit or ssd_hit):
            decision = inj.check("tier.read", tier=self.name, path=path, bytes=nbytes)
            if decision is not None:
                if decision.action == "delay":
                    yield self.sim.timeout(decision.delay)
                else:
                    # fail/drop: the tier lost the data; corrupt: the block
                    # checksum failed on the way out.  Either way the tier
                    # degrades to a full disk re-read — bytes stay correct
                    # because the VFS is the source of truth.
                    for key in hit_keys:
                        blk = self._mem.get(key) or self._ssd.get(key)
                        if blk is not None:
                            self._drop(blk, "invalidation")
                    miss += mem_hit + ssd_hit
                    miss_idx = list(blocks)
                    mem_hit = ssd_hit = 0
                    self._count("tier.read.degraded")

        for key in hit_keys:
            blk = self._mem.get(key) or self._ssd.get(key)
            if blk is not None and blk.prefetched:
                blk.prefetched = False
                self._count("tier.prefetch.hit")
                self._count("tier.prefetch.hit.bytes", blk.nbytes)

        if mem_hit:
            self._count("tier.hit.mem")
            self._count("tier.bytes.hit", mem_hit)
            yield self._mem_xfer(mem_hit, label="read.mem")
        if ssd_hit:
            self._count("tier.hit.ssd")
            self._count("tier.bytes.hit", ssd_hit)
            yield self._ssd_xfer(ssd_hit, label="read.ssd")
            # touch-promote the SSD hits into mem
            for key in hit_keys:
                blk = self._ssd.get(key)
                if blk is not None:
                    self._promote(blk)
        if miss or not (mem_hit or ssd_hit):
            self._count("tier.miss")
            self._count("tier.bytes.miss", miss)
            yield self.disk.read(miss, label="tier.fill")
            for i in miss_idx:
                self._admit(path, i, file_end)
        return nbytes

    # -- the write path ---------------------------------------------------------

    def write_charge(self, nbytes: int) -> _t.Generator:
        """The foreground cost of a buffered write: one mem transfer."""
        yield self._mem_xfer(nbytes, label="write.mem")
        return nbytes

    def admit_write(self, path: str, size: int, nbytes: int,
                    append: bool = False) -> None:
        """Mark the written range dirty in mem and schedule the drain.

        Called *after* the VFS mutation (whose modify event invalidated
        the stale blocks), so the admitted blocks describe the new
        content.  ``size`` is the file's declared size after the write.
        """
        nbytes = int(nbytes)
        start = max(0, int(size) - nbytes) if append else 0
        span = nbytes if append else int(size)
        keys: list[tuple[str, int]] = []
        for i in self._block_range(start, max(span, 1) if size or nbytes else 0):
            blk = self._admit(path, i, int(size), dirty=True)
            if blk is not None:
                keys.append(blk.key)
        self._count("tier.write.buffered")
        self._count("tier.bytes.written", nbytes)
        if keys:
            self._spawn_writeback(path, keys, nbytes)

    def _spawn_writeback(self, path: str, keys: list[tuple[str, int]],
                         nbytes: int, attempt: int = 0) -> None:
        def _proc() -> _t.Generator:
            inj = self.sim.faults
            decision = None
            if inj is not None:
                decision = inj.check(
                    "tier.writeback", tier=self.name, path=path, bytes=nbytes
                )
            if decision is not None:
                if decision.action == "delay":
                    yield self.sim.timeout(decision.delay)
                else:
                    # the drain was dropped; data is still safe in the VFS
                    # (and dirty in mem), so retry, then fall back to a
                    # synchronous write-through
                    if attempt < RETRIES:
                        self._count("tier.writeback.retry")
                        self._spawn_writeback(path, keys, nbytes, attempt + 1)
                        return
                    self._count("tier.writeback.lost")
            try:
                yield self.disk.write(nbytes, label="tier.writeback")
            except Exception:
                # an injected disk fault under the drain: same retry ladder
                if attempt < RETRIES:
                    self._count("tier.writeback.retry")
                    self._spawn_writeback(path, keys, nbytes, attempt + 1)
                    return
                self._count("tier.writeback.lost")
                return
            self._count("tier.writeback.bytes", nbytes)
            for key in keys:
                blk = self._mem.get(key) or self._ssd.get(key)
                if blk is not None:
                    blk.dirty = False

        ev = self.sim.spawn(_proc(), name=f"{self.name}.writeback")
        self._pending.append(ev)

    # -- prefetch ------------------------------------------------------------

    def prefetch(self, path: str, offset: int, nbytes: int, size: int) -> Event | None:
        """Fire-and-forget fill of ``[offset, offset+nbytes)`` into the tier.

        Readahead *yields to demand traffic*: the fill is issued in
        bounded chunks (:data:`_PREFETCH_RUN_BLOCKS` contiguous blocks per
        disk request) and only while the disk queue is empty, so a demand
        read arriving mid-prefetch waits at most one chunk instead of the
        whole fragment.  Issuing the fill as one coalesced request would
        put the *next* fragment's bytes ahead of the *current* fragment's
        demand read in the disk FIFO — readahead that slows the reader
        down.

        Returns the background Process (or None when everything is already
        cached) so callers that want the overlap barrier can wait on it.
        """
        file_end = max(int(size), int(offset) + int(nbytes))
        missing = [
            i for i in self._block_range(offset, nbytes)
            if self._find((path, i)) is None
        ]
        if not missing:
            return None

        def _proc() -> _t.Generator:
            filled = 0
            pending = list(missing)
            while pending:
                while self.disk.queue_len > 0:
                    yield self.sim.timeout(_PREFETCH_POLL)
                run = [pending.pop(0)]
                while (
                    pending
                    and len(run) < _PREFETCH_RUN_BLOCKS
                    and pending[0] == run[-1] + 1
                ):
                    run.append(pending.pop(0))
                # a demand miss may have admitted some blocks meanwhile
                chunk = [i for i in run if self._find((path, i)) is None]
                if not chunk:
                    continue
                n = sum(self._block_len(i, file_end) for i in chunk)
                try:
                    yield self.disk.read(n, label="tier.prefetch")
                except Exception:
                    self._count("tier.prefetch.failed")
                    return
                for i in chunk:
                    self._admit(path, i, file_end, prefetched=True)
                filled += n
            if filled:
                self._count("tier.prefetch.bytes", filled)

        self._count("tier.prefetch.issued")
        ev = self.sim.spawn(_proc(), name=f"{self.name}.prefetch")
        self._pending.append(ev)
        return ev

    # -- maintenance -----------------------------------------------------------

    def flush(self) -> _t.Generator:
        """Wait for every scheduled write-back and prefetch to finish."""
        while self._pending:
            ev = self._pending.pop()
            if not ev.processed:
                yield ev
        return None

    @property
    def dirty_bytes(self) -> int:
        """Bytes currently buffered but not yet drained to the disk."""
        total = 0
        for table in (self._mem, self._ssd):
            for blk in table.values():
                if blk.dirty:
                    total += blk.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BurstBuffer {self.name} mem={self._mem_used}/{self.spec.mem_bytes}"
            f" ssd={self._ssd_used}/{self.spec.ssd_bytes}>"
        )
