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
    "reduce_in_order",
    "decorate_sorted",
    "partition_decorated",
    "merge_entry_runs",
    "merge_decorated_runs",
    "sort_decorated_by_value_desc",
    "undecorate",
    "shuffle_parallel",
    "sort_by_value_desc",
]

#: A decorated entry: (cached sort key, key, value).
Entry = _t.Tuple[str, object, object]

_SORT_KEY = operator.itemgetter(0)
_VALUE_KEY = operator.itemgetter(2)
_PAIR_VALUE = operator.itemgetter(1)


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
    m: dict | _t.Iterable[tuple[object, object]],
    combine_fn: _t.Callable[[object, object], object],
) -> None:
    """Scalar-fold one combiner map (a ``dict``, or its ``(key, value)``
    pairs) into ``merged``: ``key -> folded value``.

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
    items = m.items() if isinstance(m, dict) else m
    if combine_fn is operator.add:
        for key, value in items:
            try:
                old = merged[key]
            except KeyError:
                merged[key] = value
            else:
                merged[key] = old + value
    else:
        for key, value in items:
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


#: the value types whose plain comparison is the ``sort_output`` order
_NUMBERS = {int, float}


def _take(seq: _t.Any, indices: _t.Sequence) -> _t.Sequence:
    """``seq``'s items at ``indices`` (a list's positions or a dict's
    keys), fetched by one ``operator.itemgetter`` call — which answers a
    bare item rather than a tuple for a single index, hence the list."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)(seq)
    return [seq[i] for i in indices]


def _value_order(values: _t.Sequence) -> list[int]:
    """The ``sort_output`` order, as positions into ``values``, of items
    already in sort-key order: value descending, ties left in sort-key
    order.  Every engine orders its output with this one step.

    One stable pass on the value alone equals one sort by ``(-value,
    sort_key)``: CPython's sort only asks whether an item is less than
    one that came before it, whose sort key is never greater, so a value
    tie answers "no" under either key (NaN included).  When every
    value is a plain ``int`` or ``float`` (one C-level type pass; bools
    are not) the pass compares the values directly (``reverse=True``
    preserves the order of equal elements).  Any other value type falls
    back to the seed's permissive ordering, whose :func:`_as_num`
    coercion treats non-numbers as equal (and parses numeric strings!),
    which direct comparison would not reproduce.
    """
    positions = range(len(values))
    if {*map(type, values)} <= _NUMBERS:
        return sorted(positions, key=values.__getitem__, reverse=True)
    return sorted(positions, key=lambda i: -_as_num(values[i]))


def _by_value_desc(items: list, value: _t.Callable) -> list:
    """``items`` (in sort-key order) in the ``sort_output`` order, where
    ``value(item)`` is an item's value (see :func:`_value_order`)."""
    return list(_take(items, _value_order(list(map(value, items)))))


def sort_decorated_by_value_desc(entries: _t.Iterable[Entry]) -> list[Entry]:
    """Frequency-descending output order, tie-broken on the cached sort key
    (a sort-key pass, then :func:`_by_value_desc`)."""
    entries = sorted(entries, key=_SORT_KEY)
    return _by_value_desc(entries, _VALUE_KEY)


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


def finalize_merged_map(
    merged: dict[object, list],
    combine_fn: _t.Callable[[object, object], object] | None,
    reduce_fn: _t.Callable[[object, list, dict], object] | None,
    sort_output: bool,
    params: dict,
) -> list[tuple[object, object]]:
    """Reduce/fold + decorate-sort one already-merged ``key -> values`` map.

    The streaming engine feeds it the accumulator it built incrementally
    with :func:`merge_map_into`; a materialized list of maps goes through
    :func:`merge_combiner_maps` first.  Workers ship raw maps, so the
    parent pays exactly one ``repr`` per distinct key per job here.
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
        entries = _by_value_desc(entries, _VALUE_KEY)
    return undecorate(entries)


def finalize_folded_map(
    merged: dict[object, object],
    reduce_fn: _t.Callable[[object, list, dict], object] | None,
    sort_output: bool,
    params: dict,
) -> list[tuple[object, object]]:
    """Reduce + order a *scalar-folded* ``key -> value`` map: the output
    pairs of :func:`reduce_in_order`.

    The counterpart of :func:`finalize_merged_map` for accumulators built
    with :func:`fold_map_into`.
    """
    return list(zip(*reduce_in_order(merged, reduce_fn, sort_output, params)))


def reduce_in_order(
    merged: dict[object, object],
    reduce_fn: _t.Callable[[object, list, dict], object] | None,
    sort_output: bool,
    params: dict,
) -> tuple[_t.Sequence, _t.Sequence]:
    """Reduce a *scalar-folded* ``key -> value`` map in key order; the
    output's keys and values, in output order, as two parallel sequences.

    Nothing downstream reuses a sort key, so the keys are ordered by the
    builtin ``repr`` alone (one stable pass, the same key order every
    decorated path produces; dict order breaks ties between distinct keys
    that share a ``repr``) and their values fetched in one call.  Each
    key's combine is complete, so ``reduce_fn`` (whose contract must
    tolerate any pre-combining once a combiner is declared) receives the
    single folded partial.  Sorted output takes the one value order
    (:func:`_value_order`), applied to the keys and the values alike, so
    the answer comes out as the two lists a tiered job keeps as its
    merged run with no pass over the pairs.  The in-memory finalize and
    the out-of-core merge both end here.
    """
    keys = sorted(merged, key=repr)
    values = _take(merged, keys)
    if reduce_fn is not None:
        values = [reduce_fn(k, [v], params) for k, v in zip(keys, values)]
    if sort_output:
        order = _value_order(values)
        keys, values = _take(keys, order), _take(values, order)
    return keys, values


def sort_by_value_desc(pairs: _t.Iterable[tuple[object, object]]) -> list[tuple[object, object]]:
    """Final output ordering of Word Count: by frequency, descending, ties
    in ``repr`` key order — a ``repr`` key sort, then the engines' one
    value order (:func:`_by_value_desc`)."""
    return _by_value_desc(sorted(pairs, key=lambda kv: repr(kv[0])), _PAIR_VALUE)


def _as_num(v: object) -> float:
    try:
        return float(v)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0.0
