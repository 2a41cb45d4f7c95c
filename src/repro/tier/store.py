"""The real-engine tier: a byte-budgeted memory+SSD store for spill blocks.

Where the simulated :class:`~repro.tier.burst.BurstBuffer` models *time*,
:class:`TieredStore` moves real bytes for the out-of-core engine
(:mod:`repro.exec.outofcore`): spill runs are ``put()`` into the memory
level and written through to files under an SSD directory before
``put()`` returns, and LRU eviction keeps both levels inside their
budgets.  What it keeps across jobs is one run per combiner job (the
job's *merged run*: its answer in output order, which replaces the
job's fragment runs once stored) and every fragment run of a
combinerless job, each keyed by the job's content identity.

The contract that makes the tier safe to lie about durability:

* ``get()`` may return **None** (the entry was lost — its write dropped
  by the ``tier.writeback`` fault site past its retries, which drops the
  entry at once, or a degraded read).  The engine must treat that as
  "recompute the fragment".
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
import shutil
import tempfile
import typing as _t

from collections import OrderedDict

from repro.errors import RETRIES

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.obs import Observability

__all__ = ["TieredStore", "live_tier_dirs"]

#: every TieredStore's SSD directory, removed on close (leak guard)
_TIER_DIRS: set[str] = set()


def live_tier_dirs() -> list[str]:
    """Tier directories created but not yet cleaned up (leak check)."""
    return sorted(d for d in _TIER_DIRS if os.path.isdir(d))


def _cleanup_tier_dirs() -> None:  # pragma: no cover - exercised via subprocess
    for d in list(_TIER_DIRS):
        shutil.rmtree(d, ignore_errors=True)
    _TIER_DIRS.clear()


atexit.register(_cleanup_tier_dirs)


class _Entry:
    __slots__ = ("key", "nbytes", "data", "path")

    def __init__(self, key: str, data: bytes):
        self.key = key
        self.nbytes = len(data)
        #: resident payload (None once demoted out of the mem level)
        self.data: bytes | None = data
        #: SSD file path once persisted (None while mem-only)
        self.path: str | None = None


class TieredStore:
    """LRU memory+SSD store that writes each entry through to its SSD file.

    Every call does its work in the caller: ``put`` returns with the
    entry written (or lost), and nothing runs in the background.
    """

    def __init__(
        self,
        mem_bytes: int,
        ssd_bytes: int,
        ssd_dir: str | None = None,
        obs: "Observability | None" = None,
        faults: "FaultInjector | None" = None,
        name: str = "tier",
    ):
        if mem_bytes < 1 or ssd_bytes < 0:
            raise ValueError("tier budgets must be positive")
        self.mem_bytes = int(mem_bytes)
        self.ssd_bytes = int(ssd_bytes)
        self.obs = obs
        self.faults = faults
        self.name = name
        self.ssd_dir = ssd_dir or tempfile.mkdtemp(prefix="repro-tier-")
        os.makedirs(self.ssd_dir, exist_ok=True)
        _TIER_DIRS.add(self.ssd_dir)
        #: LRU order, oldest first; an entry may be mem-resident (data),
        #: ssd-resident (path), or both (persisted but still cached)
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._mem_used = 0
        self._ssd_used = 0
        self._counters: dict[str, int] = {}
        self._closed = False

    # -- counters ----------------------------------------------------------

    def _count(self, cname: str, amount: int = 1) -> None:
        self._counters[cname] = self._counters.get(cname, 0) + amount
        if self.obs is not None:
            self.obs.count(cname, amount)

    def stats(self) -> dict:
        """Counter snapshot plus current occupancy."""
        out: dict[str, _t.Any] = dict(self._counters)
        out["mem_used"] = self._mem_used
        out["ssd_used"] = self._ssd_used
        out["entries"] = len(self._entries)
        return out

    # -- write path ---------------------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        """Admit ``data`` under ``key`` and write it to its SSD file.

        An oversized payload (> mem budget) is demoted straight to the
        SSD level — the tier never refuses a spill.  A write lost past
        its retries leaves nothing behind.
        """
        if self._closed:
            raise RuntimeError(f"{self.name}: store is closed")
        self._drop(key)
        entry = _Entry(key, data)
        self._entries[key] = entry
        self._mem_used += entry.nbytes
        self._count("tier.put")
        self._count("tier.bytes.written", entry.nbytes)
        if self._persist(entry):
            for victim in self._make_room():
                self._demote(victim)

    # -- read path ----------------------------------------------------------

    def get(self, key: str) -> bytes | None:
        """The payload for ``key``, or None if the tier lost it.

        One ``tier.read`` fault decision guards every hit: fail/drop makes
        the tier *lose* the entry (returns None — the engine recomputes);
        corrupt flips a byte in the returned payload, which the spill
        framing's crc32 catches upstream (call :meth:`invalidate` then).
        """
        entry = self._entries.get(key)
        if entry is None:
            self._count("tier.miss")
            return None
        self._entries.move_to_end(key)
        data = entry.data
        inj = self.faults
        decision = None
        if inj is not None:
            level = "mem" if data is not None else "ssd"
            decision = inj.check("tier.read", tier=self.name, key=key, level=level)
            if decision is not None and decision.action in ("fail", "drop"):
                self._count("tier.read.degraded")
                self.invalidate(key)
                return None
        if data is None:
            try:
                with open(_t.cast(str, entry.path), "rb") as fh:
                    data = fh.read()
            except OSError:
                self._count("tier.read.degraded")
                self.invalidate(key)
                return None
            self._count("tier.hit.ssd")
            # promote back into mem if it fits without evicting peers
            if self._mem_used + entry.nbytes <= self.mem_bytes:
                entry.data = data
                self._mem_used += entry.nbytes
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
        return key in self._entries

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` everywhere (e.g. after a crc mismatch upstream)."""
        if not self._drop(key):
            return False
        self._count("tier.evict.invalidation")
        return True

    # -- eviction / demotion (internal) ------------------------------------------

    def _drop(self, key: str) -> bool:
        """Remove ``key``'s entry, its accounting and its SSD file."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        if entry.data is not None:
            self._mem_used -= entry.nbytes
        if entry.path is not None:
            self._ssd_used -= entry.nbytes
            _unlink_quiet(entry.path)
        return True

    def _make_room(self) -> list[_Entry]:
        """Mem-eviction victims, oldest first; the entry just admitted only
        when no older one is left in memory to demote."""
        victims: list[_Entry] = []
        over = self._mem_used - self.mem_bytes
        newest = next(reversed(self._entries))
        for key, entry in self._entries.items():
            if over <= 0:
                break
            if entry.data is None:
                continue
            if victims and key == newest:
                break
            victims.append(entry)
            over -= entry.nbytes
        return victims

    def _demote(self, entry: _Entry) -> None:
        """Persist a mem victim to the SSD level and drop its mem copy."""
        if not self._persist(entry):
            return  # the write was lost: the entry is gone
        if entry.path is None:
            # the write failed without a fault verdict (an OSError);
            # keep it resident rather than losing the only copy
            return
        entry.data = None
        self._mem_used -= entry.nbytes
        self._count("tier.demote")
        self._evict_ssd()

    def _evict_ssd(self) -> None:
        while self._ssd_used > self.ssd_bytes:
            victim = next(
                (e for e in self._entries.values()
                 if e.path is not None and e.data is None),
                None,
            )
            if victim is None:
                return
            inj = self.faults
            if inj is not None:
                decision = inj.check("tier.evict", tier=self.name, key=victim.key)
                if decision is not None and decision.action in ("fail", "drop"):
                    self._count("tier.evict.stuck")
                    return
            self._drop(victim.key)
            self._count("tier.evict.capacity")

    # -- persistence -----------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in key)
        return os.path.join(self.ssd_dir, f"{safe}.{abs(hash(key)) & 0xFFFFFFFF:08x}.blk")

    def _persist(self, entry: _Entry) -> bool:
        """Write a resident, unpersisted entry to its SSD file.

        One ``tier.writeback`` decision per attempt, ``RETRIES`` retries.
        A fault on the last attempt loses the write: the entry is dropped
        and False returned.  An OSError on the last attempt leaves it
        resident and unpersisted.
        """
        if entry.data is None or entry.path is not None:
            return True
        inj = self.faults
        path = self._entry_path(entry.key)
        tmp = f"{path}.tmp"
        for attempt in range(RETRIES + 1):
            if attempt:
                self._count("tier.writeback.retry")
            faulted = False
            if inj is not None:
                decision = inj.check(
                    "tier.writeback", tier=self.name, key=entry.key, bytes=entry.nbytes
                )
                faulted = decision is not None and decision.action in (
                    "fail", "drop", "corrupt"
                )
                if faulted:
                    continue
            try:
                with open(tmp, "wb") as fh:
                    fh.write(entry.data)
                os.replace(tmp, path)
            except OSError:
                _unlink_quiet(tmp)
                continue
            entry.path = path
            self._ssd_used += entry.nbytes
            self._count("tier.writeback.bytes", entry.nbytes)
            return True
        self._count("tier.writeback.lost")
        if faulted:
            self._drop(entry.key)
        return not faulted

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Drop all entries and remove the SSD directory."""
        if self._closed:
            return
        self._closed = True
        self._entries.clear()
        self._mem_used = self._ssd_used = 0
        shutil.rmtree(self.ssd_dir, ignore_errors=True)
        _TIER_DIRS.discard(self.ssd_dir)

    def __enter__(self) -> "TieredStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TieredStore {self.name} mem={self._mem_used}/{self.mem_bytes}"
            f" ssd={self._ssd_used}/{self.ssd_bytes} entries={len(self._entries)}>"
        )


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
