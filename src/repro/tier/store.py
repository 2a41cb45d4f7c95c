"""The real-engine tier: a byte-budgeted memory+SSD store for spill blocks.

Where the simulated :class:`~repro.tier.burst.BurstBuffer` models *time*,
:class:`TieredStore` moves real bytes for the out-of-core engine
(:mod:`repro.exec.outofcore`): spill runs are ``put()`` into the memory
level, a background write-back thread persists them to files under an
SSD directory, and LRU eviction keeps both levels inside their budgets.

The contract that makes the tier safe to lie about durability:

* ``get()`` may return **None** (the entry was lost — write-back dropped
  by the ``tier.writeback`` fault site, or evicted after a lost
  write-back).  The engine must treat that as "recompute the fragment".
* ``get()`` may return **corrupted bytes** (``tier.read`` corrupt): the
  spill framing's crc32 catches it, the engine invalidates the entry and
  recomputes.  The tier never silently converts a loss into wrong data.

Every store registers its SSD directory in a module-level registry with
an ``atexit`` sweep (mirroring the spill-dir leak guard in
:mod:`repro.exec.outofcore`), so a crashed run cannot leak tier files —
and chaos soak asserts ``live_tier_dirs()`` drains to empty.
"""

from __future__ import annotations

import atexit
import os
import queue
import shutil
import tempfile
import threading
import typing as _t

from collections import OrderedDict

from repro.errors import RETRIES

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.obs import Observability

__all__ = ["TieredStore", "live_tier_dirs"]

#: every TieredStore's SSD directory, removed on close (leak guard)
_TIER_DIRS: set[str] = set()
_TIER_DIRS_LOCK = threading.Lock()


def live_tier_dirs() -> list[str]:
    """Tier directories created but not yet cleaned up (leak check)."""
    with _TIER_DIRS_LOCK:
        return sorted(d for d in _TIER_DIRS if os.path.isdir(d))


def _cleanup_tier_dirs() -> None:  # pragma: no cover - exercised via subprocess
    with _TIER_DIRS_LOCK:
        dirs = list(_TIER_DIRS)
        _TIER_DIRS.clear()
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


atexit.register(_cleanup_tier_dirs)


class _Entry:
    __slots__ = ("key", "nbytes", "data", "path", "dirty", "lost")

    def __init__(self, key: str, nbytes: int):
        self.key = key
        self.nbytes = nbytes
        #: resident payload (None once demoted out of the mem level)
        self.data: bytes | None = None
        #: SSD file path once persisted (None while mem-only)
        self.path: str | None = None
        #: write-back still outstanding
        self.dirty = False
        #: the write-back was dropped and retries ran out
        self.lost = False


class TieredStore:
    """LRU memory+SSD store with background write-back.

    Thread model: ``put``/``get``/``invalidate`` may be called from the
    engine thread; one daemon writer thread drains the write-back queue.
    All shared state is guarded by one lock; file I/O happens outside it.
    """

    def __init__(
        self,
        mem_bytes: int,
        ssd_bytes: int,
        ssd_dir: str | None = None,
        obs: "Observability | None" = None,
        faults: "FaultInjector | None" = None,
        writeback: bool = True,
        name: str = "tier",
    ):
        if mem_bytes < 1 or ssd_bytes < 0:
            raise ValueError("tier budgets must be positive")
        self.mem_bytes = int(mem_bytes)
        self.ssd_bytes = int(ssd_bytes)
        self.obs = obs
        self.faults = faults
        self.writeback = writeback
        self.name = name
        self._owns_dir = ssd_dir is None
        self.ssd_dir = ssd_dir or tempfile.mkdtemp(prefix="repro-tier-")
        os.makedirs(self.ssd_dir, exist_ok=True)
        with _TIER_DIRS_LOCK:
            _TIER_DIRS.add(self.ssd_dir)
        self._lock = threading.Lock()
        #: LRU order, oldest first; an entry may be mem-resident (data),
        #: ssd-resident (path), or both (persisted but still cached)
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._mem_used = 0
        self._ssd_used = 0
        self._seq = 0
        self._counters: dict[str, int] = {}
        self._wb_queue: "queue.Queue[object]" = queue.Queue()
        self._wb_idle = threading.Event()
        self._wb_idle.set()
        self._closed = False
        self._writer: threading.Thread | None = None
        if self.writeback:
            self._writer = threading.Thread(
                target=self._writer_loop, name=f"{name}-writeback", daemon=True
            )
            self._writer.start()

    # -- counters ----------------------------------------------------------

    def _count(self, cname: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[cname] = self._counters.get(cname, 0) + amount
        if self.obs is not None:
            self.obs.count(cname, amount)

    def stats(self) -> dict:
        """Counter snapshot plus current occupancy."""
        with self._lock:
            out: dict[str, _t.Any] = dict(self._counters)
            out["mem_used"] = self._mem_used
            out["ssd_used"] = self._ssd_used
            out["entries"] = len(self._entries)
        return out

    # -- write path ---------------------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        """Admit ``data`` under ``key`` (mem level, write-back scheduled).

        An oversized payload (> mem budget) skips the mem level and is
        persisted synchronously — the tier never refuses a spill.
        """
        if self._closed:
            raise RuntimeError(f"{self.name}: store is closed")
        nbytes = len(data)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._forget_locked(old)
            entry = _Entry(key, nbytes)
            entry.data = data
            entry.dirty = self.writeback
            self._entries[key] = entry
            self._mem_used += nbytes
            self._seq += 1
            victims = self._make_room_locked()
        self._count("tier.put")
        self._count("tier.bytes.written", nbytes)
        if self.writeback:
            self._wb_idle.clear()
            self._wb_queue.put((key, 0))
        else:
            self._persist(key)
        for vkey in victims:
            self._demote(vkey)

    # -- read path ----------------------------------------------------------

    def get(self, key: str) -> bytes | None:
        """The payload for ``key``, or None if the tier lost it.

        One ``tier.read`` fault decision guards every hit: fail/drop makes
        the tier *lose* the entry (returns None — the engine recomputes);
        corrupt flips a byte in the returned payload, which the spill
        framing's crc32 catches upstream (call :meth:`invalidate` then).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.lost or (entry.data is None and entry.path is None):
                entry = None
            else:
                self._entries.move_to_end(key)
                level = "mem" if entry.data is not None else "ssd"
                data = entry.data
                path = entry.path
        if entry is None:
            self._count("tier.miss")
            return None
        inj = self.faults
        decision = None
        if inj is not None:
            decision = inj.check("tier.read", tier=self.name, key=key, level=level)
            if decision is not None and decision.action in ("fail", "drop"):
                self._count("tier.read.degraded")
                self.invalidate(key)
                return None
        if data is None:
            try:
                with open(_t.cast(str, path), "rb") as fh:
                    data = fh.read()
            except OSError:
                self._count("tier.read.degraded")
                self.invalidate(key)
                return None
            self._count("tier.hit.ssd")
            promoted = False
            with self._lock:
                e2 = self._entries.get(key)
                # promote back into mem if it fits without evicting peers
                if (
                    e2 is not None
                    and e2.data is None
                    and self._mem_used + e2.nbytes <= self.mem_bytes
                ):
                    e2.data = data
                    self._mem_used += e2.nbytes
                    promoted = True
            if promoted:
                self._count("tier.promote")
        else:
            self._count("tier.hit.mem")
        if decision is not None and decision.action == "corrupt":
            self._count("tier.read.corrupted")
            return inj.corrupt_bytes(data, decision)
        return data

    def contains(self, key: str) -> bool:
        """True if ``key`` is currently recoverable.

        A pure presence probe: no fault decision, no LRU touch, no byte
        movement — the engine uses it to decide between reusing a warm
        run and recomputing a lost one before paying for a ``get``.
        """
        with self._lock:
            entry = self._entries.get(key)
            return (
                entry is not None
                and not entry.lost
                and (entry.data is not None or entry.path is not None)
            )

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` everywhere (e.g. after a crc mismatch upstream)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            path = self._forget_locked(entry)
        if path is not None:
            _unlink_quiet(path)
        self._count("tier.evict.invalidation")
        return True

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every key starting with ``prefix``; returns entries dropped."""
        with self._lock:
            keys = [k for k in self._entries if k.startswith(prefix)]
        dropped = 0
        for k in keys:
            if self.invalidate(k):
                dropped += 1
        return dropped

    # -- eviction / demotion (internal) ------------------------------------------

    def _forget_locked(self, entry: _Entry) -> str | None:
        """Drop an entry's accounting; returns its file path to unlink."""
        if entry.data is not None:
            self._mem_used -= entry.nbytes
            entry.data = None
        path = None
        if entry.path is not None:
            self._ssd_used -= entry.nbytes
            path = entry.path
            entry.path = None
        entry.lost = True
        return path

    def _make_room_locked(self) -> list[str]:
        """Pick mem-eviction victims; caller demotes them outside the lock."""
        victims: list[str] = []
        if self._mem_used <= self.mem_bytes:
            return victims
        for key, entry in self._entries.items():
            if self._mem_used - sum(
                self._entries[v].nbytes for v in victims
            ) <= self.mem_bytes:
                break
            if entry.data is None:
                continue
            if victims and key == next(reversed(self._entries)):
                break  # never demote the entry just admitted
            victims.append(key)
        return victims

    def _demote(self, key: str) -> None:
        """Persist a mem victim to the SSD level and drop its mem copy."""
        self._persist(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.data is None:
                return
            if entry.path is None and not entry.lost:
                # persistence failed (write-back still pending/dropped);
                # keep it resident rather than losing the only copy
                return
            entry.data = None
            self._mem_used -= entry.nbytes
        self._count("tier.demote")
        self._evict_ssd()

    def _evict_ssd(self) -> None:
        while True:
            with self._lock:
                if self._ssd_used <= self.ssd_bytes:
                    return
                victim = None
                for key, entry in self._entries.items():
                    if entry.path is not None and entry.data is None and not entry.dirty:
                        victim = key
                        break
                if victim is None:
                    return
            inj = self.faults
            if inj is not None:
                decision = inj.check("tier.evict", tier=self.name, key=victim)
                if decision is not None and decision.action in ("fail", "drop"):
                    self._count("tier.evict.stuck")
                    return
            with self._lock:
                entry = self._entries.pop(victim, None)
                path = self._forget_locked(entry) if entry is not None else None
            if path is not None:
                _unlink_quiet(path)
            self._count("tier.evict.capacity")

    # -- persistence -----------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in key)
        return os.path.join(self.ssd_dir, f"{safe}.{abs(hash(key)) & 0xFFFFFFFF:08x}.blk")

    def _persist(self, key: str, attempt: int = 0) -> bool:
        """Write an entry's payload to its SSD file (write-back body)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.data is None:
                return False
            if entry.path is not None and not entry.dirty:
                return True
            data = entry.data
            nbytes = entry.nbytes
        inj = self.faults
        if inj is not None:
            decision = inj.check(
                "tier.writeback", tier=self.name, key=key, bytes=nbytes
            )
            if decision is not None and decision.action in ("fail", "drop", "corrupt"):
                if attempt < RETRIES:
                    self._count("tier.writeback.retry")
                    return self._persist(key, attempt + 1)
                # retries exhausted: the mem copy survives until evicted,
                # but once it is, the entry is gone (get() -> None)
                with self._lock:
                    e2 = self._entries.get(key)
                    if e2 is not None:
                        e2.dirty = False
                        e2.lost = True
                self._count("tier.writeback.lost")
                return False
        path = self._entry_path(key)
        # unique tmp per thread: the writer thread and a synchronous demote
        # may race on the same key, and both must stay atomic
        tmp = f"{path}.tmp{threading.get_ident()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            _unlink_quiet(tmp)
            if attempt < RETRIES:
                self._count("tier.writeback.retry")
                return self._persist(key, attempt + 1)
            self._count("tier.writeback.lost")
            return False
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                _unlink_quiet(path)
                return False
            if entry.path is None:
                entry.path = path
                self._ssd_used += entry.nbytes
            entry.dirty = False
            entry.lost = False
        self._count("tier.writeback.bytes", nbytes)
        return True

    # -- the writer thread --------------------------------------------------------

    def _writer_loop(self) -> None:
        while True:
            item = self._wb_queue.get()
            if item is None:
                self._wb_queue.task_done()
                return
            key, _attempt = _t.cast(tuple, item)
            try:
                self._persist(key)
            except Exception:  # pragma: no cover - the drain must never die
                self._count("tier.writeback.lost")
            finally:
                self._wb_queue.task_done()
                if self._wb_queue.unfinished_tasks == 0:
                    self._wb_idle.set()
            self._evict_ssd()

    def flush(self, timeout: float | None = 10.0) -> bool:
        """Block until the write-back queue has drained."""
        if self._writer is None:
            return True
        return self._wb_idle.wait(timeout)

    @property
    def dirty_entries(self) -> int:
        """Entries whose write-back has not completed."""
        with self._lock:
            return sum(1 for e in self._entries.values() if e.dirty)

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Stop the writer, drop all entries and remove the SSD directory."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._wb_queue.put(None)
            self._writer.join(timeout=10.0)
            self._writer = None
        with self._lock:
            self._entries.clear()
            self._mem_used = self._ssd_used = 0
        shutil.rmtree(self.ssd_dir, ignore_errors=True)
        with _TIER_DIRS_LOCK:
            _TIER_DIRS.discard(self.ssd_dir)

    def __enter__(self) -> "TieredStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"<TieredStore {self.name} mem={self._mem_used}/{self.mem_bytes}"
                f" ssd={self._ssd_used}/{self.ssd_bytes} entries={len(self._entries)}>"
            )


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
