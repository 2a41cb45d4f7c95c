"""Real intermediate-data machinery: combine, partition, group, sort.

This is the functional half of the runtime — it operates on the actual
key/value pairs the user's map emitted (over the materialized payload), so
tests can assert that word counts really count and matches really match.

The hot path is a **sort-once, merge-after** pipeline (the "Sort" box of
Fig 1).  Per-worker combiner maps are dict-merged (no per-worker sort, no
flatten/regroup), leaving one map of *distinct* keys; a single
decorate-sort pass then computes each key's sort key — ``repr(key)`` —
exactly once per distinct key per job and carries it, as the first element
of a ``(sort_key, key, value)`` *decorated entry*, through partitioning,
reduction, and the final merge, none of which ever re-sort or re-``repr``.
Partition hashes are ``zlib.crc32`` over the decorated sort-key bytes:
C-speed and salt-free, hence deterministic across processes (Python's
``hash`` is salted per process).  Reduce buckets inherit the sorted order,
so per-bucket outputs are sorted runs; the final merge exploits that via
Timsort's natural-run galloping (:func:`merge_entry_runs`) or, for
streaming consumers, a lazy ``heapq.merge`` (:func:`merge_decorated_runs`).
"""

from __future__ import annotations

import functools
import heapq
import operator
import typing as _t
import zlib

__all__ = [
    "Combiner",
    "KeyCache",
    "merge_combiner_maps",
    "merge_map_into",
    "fold_map_into",
    "finalize_merged_map",
    "finalize_folded_map",
    "decorate_sorted",
    "partition_decorated",
    "merge_entry_runs",
    "merge_decorated_runs",
    "sort_decorated_by_value_desc",
    "undecorate",
    "shuffle_parallel",
    "local_merge_maps",
    "hash_partition",
    "group_by_key",
    "merge_grouped",
    "sort_by_value_desc",
]

#: A decorated entry: (cached sort key, key, value).
Entry = _t.Tuple[str, object, object]

_SORT_KEY = operator.itemgetter(0)
_VALUE_KEY = operator.itemgetter(2)
_PAIR_VALUE = operator.itemgetter(1)


def _REPR_KEY(kv: tuple) -> str:
    return repr(kv[0])


class Combiner:
    """Collects map emissions, optionally pre-combining values per key.

    With a ``combine_fn(old, new)`` the structure holds one value per key
    (e.g. running counts); without, it holds the full value list.
    """

    __slots__ = ("combine_fn", "data", "emitted")

    def __init__(self, combine_fn: _t.Callable[[object, object], object] | None):
        self.combine_fn = combine_fn
        self.data: dict[object, object] = {}
        #: raw emissions seen (stats; drives intermediate-size accounting)
        self.emitted = 0

    def emit(self, key: object, value: object) -> None:
        """The callback handed to user map functions."""
        self.emitted += 1
        if self.combine_fn is None:
            bucket = self.data.setdefault(key, [])
            bucket.append(value)  # type: ignore[union-attr]
        else:
            if key in self.data:
                self.data[key] = self.combine_fn(self.data[key], value)
            else:
                self.data[key] = value

    def pairs(self) -> list[tuple[object, object]]:
        """(key, value-or-valuelist) pairs in deterministic key order."""
        return sorted(self.data.items(), key=lambda kv: repr(kv[0]))


class KeyCache:
    """Cross-run ``repr`` memo for paths that decorate the *same* key twice.

    The merged pipeline decorates distinct keys, so it needs no cache; this
    exists for the unsorted flatten path (no sort, no reduce), where one
    key may recur across per-worker runs and must still be repr'd once.
    """

    __slots__ = ("sort_keys",)

    def __init__(self) -> None:
        self.sort_keys: dict[object, str] = {}

    def sort_key(self, key: object) -> str:
        """``repr(key)``, computed once per distinct key."""
        r = self.sort_keys.get(key)
        if r is None:
            r = self.sort_keys[key] = repr(key)
        return r


def merge_combiner_maps(
    maps: _t.Iterable[dict], combine_fn: _t.Callable[[object, object], object] | None
) -> dict[object, list]:
    """Dict-merge per-worker combiner maps into one ``key -> values`` map.

    Replaces the seed's flatten-then-regroup dance: without ``combine_fn``
    workers hold value lists, which are extended; with it, each worker's
    folded partial is appended — so reducers see exactly the per-worker
    value lists the seed pipeline produced, with zero sorting.
    """
    merged: dict[object, list] = {}
    merged_get = merged.get
    if combine_fn is None:
        for m in maps:
            for key, values in m.items():
                bucket = merged_get(key)
                if bucket is None:
                    merged[key] = list(values)
                else:
                    bucket.extend(values)
    else:
        for m in maps:
            for key, value in m.items():
                bucket = merged_get(key)
                if bucket is None:
                    merged[key] = [value]
                else:
                    bucket.append(value)
    return merged


def merge_map_into(merged: dict[object, list], m: dict) -> None:
    """Extend ``merged``'s value lists with one combinerless map's
    (incremental counterpart of :func:`merge_combiner_maps`).

    The streaming engine merges each worker result the moment it arrives —
    merge CPU overlaps the remaining map work and the parent never holds
    more than the accumulator plus in-flight results — so the merge has to
    be expressible one map at a time.  Jobs with a combiner fold instead
    (:func:`fold_map_into`).
    """
    merged_get = merged.get
    for key, values in m.items():
        bucket = merged_get(key)
        if bucket is None:
            merged[key] = list(values)
        else:
            bucket.extend(values)


def fold_map_into(
    merged: dict[object, object],
    m: dict,
    combine_fn: _t.Callable[[object, object], object],
) -> None:
    """Scalar-fold one combiner map into ``merged``: ``key -> folded value``.

    The allocation-lean counterpart of :func:`merge_map_into` for jobs
    *with* a combiner: instead of appending each batch's partial to a
    per-key list (one list plus one append per key per batch) and folding
    the lists at finalize time, the partial folds into the accumulator
    immediately — the merge loop allocates nothing per key.  Licensed by
    the combiner contract (the engine may pre-combine across any grouping
    of chunks); the hot (existing-key) path is a bare ``try``/``except``
    dict probe, and ``operator.add`` combiners fold with the inline ``+``
    operator instead of a call per key.
    """
    if combine_fn is operator.add:
        for key, value in m.items():
            try:
                old = merged[key]
            except KeyError:
                merged[key] = value
            else:
                merged[key] = old + value
    else:
        for key, value in m.items():
            try:
                old = merged[key]
            except KeyError:
                merged[key] = value
            else:
                merged[key] = combine_fn(old, value)


def decorate_sorted(
    items: dict | _t.Iterable[tuple[object, object]],
    cache: KeyCache | None = None,
) -> list[Entry]:
    """The single sort: decorated ``(sort_key, key, value)`` entries.

    This is the only place the shuffle calls ``repr``; on the merged map
    every key is distinct, so each is repr'd exactly once.  The sort
    compares only the precomputed strings, and downstream stages reuse
    them — nothing after this point sorts or reprs again.
    """
    pairs = items.items() if isinstance(items, dict) else items
    if cache is None:
        entries = [(repr(k), k, v) for k, v in pairs]
    else:
        sort_key = cache.sort_key
        entries = [(sort_key(k), k, v) for k, v in pairs]
    entries.sort(key=_SORT_KEY)
    return entries


def partition_decorated(
    entries: _t.Iterable[Entry], n_buckets: int
) -> list[list[Entry]]:
    """Spread decorated entries over reduce buckets.

    The bucket hash is ``zlib.crc32`` of the already-computed sort-key
    bytes — O(1)-ish per key, no second ``repr``.  Each bucket preserves
    the input's sorted order, so per-bucket reduce outputs are sorted runs
    ready for :func:`merge_entry_runs`.
    """
    buckets: list[list[Entry]] = [[] for _ in range(max(1, n_buckets))]
    n = len(buckets)
    crc32 = zlib.crc32
    for entry in entries:
        h = crc32(entry[0].encode("utf-8", "backslashreplace"))
        buckets[h % n].append(entry)
    return buckets


def merge_entry_runs(runs: _t.Iterable[list[Entry]]) -> list[Entry]:
    """Eager k-way merge of sorted entry runs — no global re-sort cost.

    Timsort detects the concatenated natural runs and gallops through
    them, so this is a C-speed merge; comparisons touch only the
    precomputed sort keys.
    """
    out = [e for run in runs for e in run]
    out.sort(key=_SORT_KEY)
    return out


def merge_decorated_runs(runs: _t.Iterable[_t.Iterable[Entry]]) -> _t.Iterator[Entry]:
    """Lazy k-way heap merge of sorted entry runs.

    Constant memory in the number of runs: the streaming counterpart of
    :func:`merge_entry_runs` for consumers that cannot materialize all
    runs at once (the out-of-core engine streams spilled fragment runs
    through this).  Hand-rolled rather than ``heapq.merge(key=...)``: the
    stdlib version layers a generator and a key-wrapper per element,
    which measures ~2x slower on the spill-merge path.  Heap items carry
    the run index, so equal sort keys pop in run order (stability the
    cross-run value-list fold relies on) and comparisons never reach the
    (possibly uncomparable) raw entries.
    """
    heap: list[tuple] = []
    for i, run in enumerate(runs):
        it = iter(run)
        for entry in it:
            heap.append((entry[0], i, entry, it))
            break
    heapq.heapify(heap)
    heapreplace, heappop = heapq.heapreplace, heapq.heappop
    while heap:
        _skey, i, entry, it = heap[0]
        yield entry
        for nxt in it:
            heapreplace(heap, (nxt[0], i, nxt, it))
            break
        else:
            heappop(heap)


def sort_decorated_by_value_desc(entries: _t.Iterable[Entry]) -> list[Entry]:
    """Frequency-descending output order, tie-broken on the cached sort key.

    When every value is a plain number, two stable passes with C-speed
    itemgetter keys — sort-key ascending, then value descending
    (``reverse=True`` preserves the order of equal elements) — equal one
    sort by ``(-value, sort_key)`` without a Python-level key lambda
    allocating a tuple per entry.  Any other value type falls back to the
    seed's permissive ordering, whose :func:`_as_num` coercion treats
    non-numbers as equal (and parses numeric strings!), which direct
    comparison would not reproduce — among entries whose fallback keys
    tie, the sort-key pass already restored the order a direct stable
    sort would keep.
    """
    entries = list(entries)
    entries.sort(key=_SORT_KEY)
    if all(type(e[2]) is int or type(e[2]) is float for e in entries):
        return sorted(entries, key=_VALUE_KEY, reverse=True)
    entries.sort(key=lambda e: (-_as_num(e[2]), e[0]))
    return entries


def undecorate(entries: _t.Iterable[Entry]) -> list[tuple[object, object]]:
    """Strip the cached sort keys back off: plain (key, value) pairs."""
    return [(key, value) for _, key, value in entries]


def shuffle_parallel(
    combiner_maps: _t.Sequence[dict],
    combine_fn: _t.Callable[[object, object], object] | None,
    reduce_fn: _t.Callable[[object, list, dict], object] | None,
    needs_sort: bool,
    sort_output: bool,
    n_buckets: int,
    params: dict,
) -> list[tuple[object, object]]:
    """The whole Phoenix-shaped shuffle as one pure function.

    :class:`~repro.phoenix.runtime.PhoenixRuntime` runs these exact stages
    interleaved with simulated cost charging; this composition exists so
    benchmarks and equivalence tests exercise the identical dataflow
    without a simulator.
    """
    entries: list[Entry] | None = None
    if needs_sort or reduce_fn is not None:
        entries = decorate_sorted(merge_combiner_maps(combiner_maps, combine_fn))
    if reduce_fn is not None:
        assert entries is not None
        buckets = partition_decorated(entries, n_buckets)
        parts = [
            [(skey, key, reduce_fn(key, values, params)) for skey, key, values in b]
            for b in buckets
        ]
        if sort_output:
            # the value sort is a total order (distinct sort keys break
            # ties), so the key-order merge would be wasted work
            return undecorate(
                sort_decorated_by_value_desc(e for part in parts for e in part)
            )
        return undecorate(merge_entry_runs(parts))
    if entries is None:
        # no sort, no reduce: the per-worker sorted runs, flattened in
        # worker order (what the seed pipeline emitted for this case);
        # the cache keeps keys recurring across workers at one repr each
        cache = KeyCache()
        out_entries: _t.Iterable[Entry] = [
            e for m in combiner_maps for e in decorate_sorted(m, cache)
        ]
    else:
        out_entries = entries
    if sort_output:
        out_entries = sort_decorated_by_value_desc(out_entries)
    return undecorate(out_entries)


def local_merge_maps(
    maps: _t.Sequence[dict],
    combine_fn: _t.Callable[[object, object], object] | None,
    reduce_fn: _t.Callable[[object, list, dict], object] | None,
    sort_output: bool,
    params: dict,
) -> list[tuple[object, object]]:
    """Parent-side shuffle of LocalMapReduce: dict-merge the worker maps.

    Workers ship their raw combiner maps (smaller IPC than decorated
    runs); the parent dict-merges them and pays exactly one ``repr`` per
    distinct key per job in the single decorate-sort — repr'ing in the
    workers would cost one per key per *chunk*, which measures slower even
    before pickling the extra strings.
    """
    return finalize_merged_map(
        merge_combiner_maps(maps, combine_fn), combine_fn, reduce_fn,
        sort_output, params,
    )


def finalize_merged_map(
    merged: dict[object, list],
    combine_fn: _t.Callable[[object, object], object] | None,
    reduce_fn: _t.Callable[[object, list, dict], object] | None,
    sort_output: bool,
    params: dict,
) -> list[tuple[object, object]]:
    """Reduce/fold + decorate-sort one already-merged ``key -> values`` map.

    The tail of :func:`local_merge_maps`, split out so the streaming
    engine can feed it an accumulator built incrementally (via
    :func:`merge_map_into`) instead of a materialized list of maps.
    """
    if reduce_fn is not None:
        entries = [
            (repr(k), k, reduce_fn(k, values, params))
            for k, values in merged.items()
        ]
    elif combine_fn is not None:
        # per-worker combined partials need one cross-worker fold
        entries = [
            (repr(k), k, functools.reduce(combine_fn, values))
            for k, values in merged.items()
        ]
    else:
        entries = [(repr(k), k, v) for k, v in merged.items()]
    entries.sort(key=_SORT_KEY)
    if sort_output:
        # fast path only for plain numbers: _as_num orders anything else
        # differently than direct comparison (see sort_decorated_by_value_desc)
        if all(type(e[2]) is int or type(e[2]) is float for e in entries):
            entries = sorted(entries, key=_VALUE_KEY, reverse=True)
        else:
            entries.sort(key=lambda e: (-_as_num(e[2]), e[0]))
    return undecorate(entries)


def finalize_folded_map(
    merged: dict[object, object],
    reduce_fn: _t.Callable[[object, list, dict], object] | None,
    sort_output: bool,
    params: dict,
) -> list[tuple[object, object]]:
    """Reduce + decorate-sort a *scalar-folded* ``key -> value`` map.

    The counterpart of :func:`finalize_merged_map` for accumulators built
    with :func:`fold_map_into`: each key's combine is already complete,
    so there is no per-key list to fold — ``reduce_fn`` (whose contract
    must tolerate any pre-combining once a combiner is declared) receives
    the single folded partial.

    Unlike the multi-stage shuffle, nothing downstream reuses the sort
    key here, so this skips the decorate/undecorate round trip and sorts
    plain ``(key, value)`` pairs: one stable ``repr``-order pass (the
    same key order every decorated path produces), then for sorted output
    one stable value-descending pass with a C-speed itemgetter key.
    """
    if reduce_fn is not None:
        out = [(k, reduce_fn(k, [v], params)) for k, v in merged.items()]
    else:
        out = list(merged.items())
    out.sort(key=_REPR_KEY)
    if sort_output:
        # fast path only for plain numbers: _as_num orders anything else
        # differently than direct comparison (see sort_decorated_by_value_desc)
        if all(type(kv[1]) is int or type(kv[1]) is float for kv in out):
            out = sorted(out, key=_PAIR_VALUE, reverse=True)
        else:
            out.sort(key=lambda kv: (-_as_num(kv[1]), repr(kv[0])))
    return out


# -- seed-compatible helpers (kept for callers outside the hot path) --------


def hash_partition(
    pairs: _t.Iterable[tuple[object, object]], n_buckets: int
) -> list[list[tuple[object, object]]]:
    """Deterministically spread pairs over ``n_buckets`` reduce buckets.

    Python's str hash is salted per process, so bucket choice uses
    ``zlib.crc32`` over ``repr(key)`` — salt-free and C-speed; the hash is
    memoized per distinct key so repeated keys cost one dict probe.
    """
    buckets: list[list[tuple[object, object]]] = [[] for _ in range(max(1, n_buckets))]
    n = len(buckets)
    cache: dict[object, int] = {}
    for key, value in pairs:
        try:
            h = cache.get(key)
            if h is None:
                h = cache[key] = zlib.crc32(
                    repr(key).encode("utf-8", "backslashreplace")
                )
        except TypeError:  # unhashable key: no memo, hash directly
            h = zlib.crc32(repr(key).encode("utf-8", "backslashreplace"))
        buckets[h % n].append((key, value))
    return buckets


def group_by_key(
    pairs: _t.Iterable[tuple[object, object]], values_are_lists: bool = False
) -> list[tuple[object, list]]:
    """Sort by key and group values (the 'Sort' box of Fig 1)."""
    grouped: dict[object, list] = {}
    for key, value in pairs:
        bucket = grouped.setdefault(key, [])
        if values_are_lists and isinstance(value, list):
            bucket.extend(value)
        else:
            bucket.append(value)
    return sorted(grouped.items(), key=lambda kv: repr(kv[0]))


def merge_grouped(results: _t.Iterable[list[tuple[object, object]]]) -> list[tuple[object, object]]:
    """Merge sorted per-worker (key, value) lists into one sorted list."""
    out: list[tuple[object, object]] = []
    for part in results:
        out.extend(part)
    return sorted(out, key=lambda kv: repr(kv[0]))


def sort_by_value_desc(pairs: _t.Iterable[tuple[object, object]]) -> list[tuple[object, object]]:
    """Final output ordering of Word Count: by frequency, descending."""
    return sorted(pairs, key=lambda kv: (-_as_num(kv[1]), repr(kv[0])))


def _as_num(v: object) -> float:
    try:
        return float(v)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0.0
