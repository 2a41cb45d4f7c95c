"""Unit tests for the intermediate-data machinery."""

from __future__ import annotations

import operator
import zlib

from repro.phoenix.sort import (
    Combiner,
    decorate_sorted,
    finalize_folded_map,
    fold_map_into,
    merge_combiner_maps,
    merge_decorated_runs,
    merge_entry_runs,
    partition_decorated,
    shuffle_parallel,
    sort_by_value_desc,
    undecorate,
)


class CountingKey:
    """Value-equal, hashable key that counts global ``__repr__`` calls.

    The shuffle's acceptance contract is "``repr`` at most once per
    distinct key per job"; tests reset :attr:`reprs` and assert the exact
    count after a run.
    """

    reprs = 0

    def __init__(self, ident: int):
        self.ident = ident

    def __hash__(self) -> int:
        return hash(self.ident)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CountingKey) and self.ident == other.ident

    def __repr__(self) -> str:
        CountingKey.reprs += 1
        return f"CountingKey({self.ident:04d})"


def _sum_reduce(key, values, params):
    return sum(values)


def test_combiner_without_combine_collects_lists():
    c = Combiner(None)
    c.emit("a", 1)
    c.emit("a", 2)
    c.emit("b", 3)
    assert dict(c.pairs()) == {"a": [1, 2], "b": [3]}
    assert c.emitted == 3


def test_combiner_with_combine_folds_values():
    c = Combiner(lambda old, new: old + new)
    for _ in range(5):
        c.emit("x", 1)
    c.emit("y", 10)
    assert dict(c.pairs()) == {"x": 5, "y": 10}
    assert c.emitted == 6


def test_combiner_pairs_deterministic_order():
    c = Combiner(lambda a, b: a + b)
    for k in ("z", "a", "m"):
        c.emit(k, 1)
    assert [k for k, _ in c.pairs()] == sorted(["z", "a", "m"], key=repr)


def test_sort_by_value_desc_ties_broken_by_key():
    pairs = [("b", 2), ("a", 5), ("c", 2)]
    assert sort_by_value_desc(pairs) == [("a", 5), ("b", 2), ("c", 2)]


def test_sort_by_value_desc_non_numeric_values():
    pairs = [("a", "x"), ("b", 3)]
    out = sort_by_value_desc(pairs)
    assert out[0] == ("b", 3)


# -- sort-once/merge-after pipeline ------------------------------------------


def test_merge_combiner_maps_without_combine_extends_value_lists():
    maps = [{"a": [1, 2], "b": [3]}, {"a": [4]}]
    merged = merge_combiner_maps(maps, None)
    assert merged == {"a": [1, 2, 4], "b": [3]}


def test_merge_combiner_maps_with_combine_keeps_per_worker_partials():
    # reducers must see one partial per worker, not a cross-worker fold
    maps = [{"a": 5}, {"a": 7, "b": 1}]
    merged = merge_combiner_maps(maps, operator.add)
    assert merged == {"a": [5, 7], "b": [1]}


def test_decorate_sorted_orders_by_repr_and_carries_key_value():
    entries = decorate_sorted({"b": 2, "a": 1, 10: 3})
    assert entries == [("'a'", "a", 1), ("'b'", "b", 2), ("10", 10, 3)]
    assert undecorate(entries) == [("a", 1), ("b", 2), (10, 3)]


def test_decorate_sorted_reprs_each_key_exactly_once():
    CountingKey.reprs = 0
    decorate_sorted({CountingKey(i): i for i in range(20)})
    assert CountingKey.reprs == 20


def test_partition_decorated_covers_and_preserves_sorted_order():
    entries = decorate_sorted({f"k{i}": i for i in range(100)})
    buckets = partition_decorated(entries, 4)
    assert len(buckets) == 4
    assert sorted(e for b in buckets for e in b) == entries
    for b in buckets:
        assert b == sorted(b, key=lambda e: e[0])


def test_partition_decorated_routes_by_crc32_of_repr():
    # the bucket is crc32(repr(key)) taken from the cached sort key, so
    # routing is salt-free and the same in every process
    pairs = [(f"k{i}", i) for i in range(64)]
    by_entry = partition_decorated(decorate_sorted(pairs), 8)
    expected = [[] for _ in range(8)]
    for key, value in pairs:
        expected[zlib.crc32(repr(key).encode()) % 8].append((key, value))
    assert [sorted(undecorate(b)) for b in by_entry] == [sorted(b) for b in expected]


def test_merge_entry_runs_merges_sorted_runs():
    runs = [decorate_sorted({"a": 1, "z": 2}), decorate_sorted({"m": 3})]
    merged = merge_entry_runs(runs)
    assert undecorate(merged) == [("a", 1), ("m", 3), ("z", 2)]


def test_merge_decorated_runs_lazy_equals_eager():
    runs = [
        decorate_sorted({f"k{i}": i for i in range(0, 30, 3)}),
        decorate_sorted({f"k{i}": i for i in range(1, 30, 3)}),
        decorate_sorted({f"k{i}": i for i in range(2, 30, 3)}),
    ]
    assert list(merge_decorated_runs(runs)) == merge_entry_runs(runs)


def test_shuffle_parallel_wordcount_shape():
    maps = [{"a": 2, "b": 1}, {"a": 3, "c": 1}]
    out = shuffle_parallel(maps, operator.add, _sum_reduce, True, True, 4, {})
    assert out == [("a", 5), ("b", 1), ("c", 1)]


def test_shuffle_parallel_reprs_once_per_distinct_key():
    CountingKey.reprs = 0
    maps = [{CountingKey(i): 1 for i in range(w, w + 8)} for w in range(4)]
    n_distinct = len({k for m in maps for k in m})
    shuffle_parallel(maps, operator.add, _sum_reduce, True, True, 4, {})
    assert CountingKey.reprs == n_distinct


def _fold_path(maps, reduce_fn, sort_output):
    """LocalMapReduce's combiner-job merge: fold every chunk map into the
    first (copied here), then finalize."""
    merged = dict(maps[0])
    for m in maps[1:]:
        fold_map_into(merged, m, operator.add)
    return finalize_folded_map(merged, reduce_fn, sort_output, {})


def test_fold_path_folds_chunk_partials():
    maps = [{"a": 2, "b": 1}, {"a": 3}]
    assert _fold_path(maps, None, False) == [
        ("a", 5),
        ("b", 1),
    ]
    assert _fold_path(maps, _sum_reduce, True) == [
        ("a", 5),
        ("b", 1),
    ]


def test_fold_path_reprs_once_per_distinct_key():
    CountingKey.reprs = 0
    maps = [{CountingKey(i): 1 for i in range(w, w + 8)} for w in range(4)]
    n_distinct = len({k for m in maps for k in m})
    _fold_path(maps, None, True)
    assert CountingKey.reprs == n_distinct
