"""The result cache: memoize repeated jobs before they reach the queue.

A serving workload repeats itself — the same app over the same input with
the same parameters.  The cache keys on
``(app, input_path, mode, params, inode, mtime)`` so any rewrite of the
input (new mtime or new inode) makes old entries unreachable, and it
*also* subscribes to every watched VFS's mutation events to drop entries
for overwritten paths eagerly (staging writes carry mtime 0.0, so the key
alone cannot distinguish a rewrite at the same timestamp).

Hits are answered at admission — a cached job consumes no queue slot, no
placement, and no SD work; ``sched.cache.hit`` / ``sched.cache.miss``
counters make the hit rate observable.

Eviction is **LRU**: a hit refreshes the entry's recency, so the
capacity victim is the least-recently-*used* result, not merely the
oldest-stored one — under a skewed serving mix the popular results stay
resident however old they are.  Evictions are counted by cause
(``evictions_capacity`` vs ``evictions_invalidation``; mirrored to the
``sched.cache.evict.capacity`` / ``.invalidation`` counters when an
:class:`~repro.obs.registry.Observability` is bound), so a shrinking hit
rate is attributable: churn from a too-small cache looks completely
different from churn caused by input rewrites.
"""

from __future__ import annotations

import typing as _t

from collections import OrderedDict

from repro.errors import FileSystemError

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import BuiltCluster
    from repro.core.job import DataJob, JobResult

__all__ = ["ResultCache"]


class ResultCache:
    """Keyed memoization of completed :class:`~repro.core.job.JobResult`s."""

    def __init__(self, capacity: int = 256, obs=None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        #: LRU order, least-recently-used first (get() refreshes)
        self._entries: "OrderedDict[tuple, JobResult]" = OrderedDict()
        #: input_path -> keys that depend on it (eager invalidation index)
        self._by_path: dict[str, set] = {}
        #: optional Observability for eviction-cause counters
        self.obs = obs
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions_capacity = 0
        self.evictions_invalidation = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- keys -------------------------------------------------------------

    @staticmethod
    def key_for(job: "DataJob", cluster: "BuiltCluster") -> tuple | None:
        """The cache key of a job, or ``None`` when it must not be cached.

        Uncacheable cases: the input file does not exist on the job's SD
        node (the run would fail anyway) or the params are unhashable.
        """
        sd = job.sd_node or cluster.sd_nodes[0].name
        try:
            node = cluster.node(sd)
            ino = node.fs.vfs.stat(job.input_path)
        except (KeyError, FileSystemError):
            return None
        try:
            params = tuple(sorted(job.params.items()))
            hash(params)
        except TypeError:
            return None
        return (
            job.app, job.input_path, job.mode, job.fragment_bytes,
            params, ino.ino, ino.mtime,
        )

    # -- lookup / store ----------------------------------------------------

    def get(self, key: tuple | None) -> "JobResult | None":
        """The cached result for ``key`` (counts the hit/miss).

        A hit moves the entry to the recent end: LRU, not FIFO — the
        capacity victim is the least-recently-used result.
        """
        if key is None:
            self.misses += 1
            return None
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return result

    def put(self, key: tuple | None, result: "JobResult") -> None:
        """Store a completed job's result under its admission-time key."""
        if key is None:
            return
        if key not in self._entries and len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            self._drop(oldest)
            self.evictions_capacity += 1
            if self.obs is not None:
                self.obs.count("sched.cache.evict.capacity")
        self._entries[key] = result
        self._entries.move_to_end(key)
        self._by_path.setdefault(key[1], set()).add(key)

    def _drop(self, key: tuple) -> None:
        self._entries.pop(key, None)
        deps = self._by_path.get(key[1])
        if deps is not None:
            deps.discard(key)
            if not deps:
                del self._by_path[key[1]]

    # -- invalidation -----------------------------------------------------

    def invalidate_path(self, path: str) -> int:
        """Drop every entry depending on ``path``; returns how many."""
        keys = self._by_path.pop(path, None)
        if not keys:
            return 0
        for key in keys:
            self._entries.pop(key, None)
        self.invalidations += len(keys)
        self.evictions_invalidation += len(keys)
        if self.obs is not None:
            self.obs.count("sched.cache.evict.invalidation", len(keys))
        return len(keys)

    def watch(self, vfs) -> None:
        """Invalidate on this VFS's modify/delete events."""

        def _on_event(event: str, path: str, _inode) -> None:
            if event in ("modify", "delete"):
                self.invalidate_path(path)

        vfs.on_event(_on_event)

    def watch_cluster(self, cluster: "BuiltCluster") -> None:
        """Subscribe to every SD node's VFS (where job inputs live)."""
        for sd in cluster.sd_nodes:
            self.watch(sd.fs.vfs)

    def stats(self) -> dict:
        """Counter snapshot: occupancy, hits/misses, invalidations and
        evictions by cause."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions_capacity": self.evictions_capacity,
            "evictions_invalidation": self.evictions_invalidation,
        }

    def clear(self) -> None:
        """Drop all entries (counters survive)."""
        self._entries.clear()
        self._by_path.clear()
