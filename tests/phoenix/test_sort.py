"""Unit tests for the intermediate-data machinery."""

from __future__ import annotations

import operator
import pickle
import zlib

import pytest
from hypothesis import given, settings, strategies as st

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
    sort_decorated_by_value_desc,
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


def test_sort_by_value_desc_compares_big_ints_exactly():
    """The partition merge and dbselect order as every engine does:
    integers that round to one float still compare exactly."""
    pairs = [("a", 2**60), ("b", 2**60 + 1)]
    assert sort_by_value_desc(pairs) == [("b", 2**60 + 1), ("a", 2**60)]
    assert finalize_folded_map(dict(pairs), None, True, {}) == sort_by_value_desc(pairs)


@pytest.mark.parametrize("odd", [True, "x", None, "nan"])
def test_non_numbers_take_the_permissive_order(odd):
    """A bool, str or None value is no plain number: every value is then
    coerced to float, so big ints that round to one float tie and keep
    their key order."""
    pairs = [("a", 2**60), ("b", 2**60 + 1), ("c", odd)]
    for out in (sort_by_value_desc(pairs), finalize_folded_map(dict(pairs), None, True, {})):
        assert [k for k, _ in out] == ["a", "b", "c"]


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


# -- the output order against its earlier definition -------------------------


class Twin:
    """Distinct keys of one group share a ``repr``."""

    def __init__(self, ident: int):
        self.ident = ident

    def __hash__(self) -> int:
        return hash(self.ident)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Twin) and self.ident == other.ident

    def __repr__(self) -> str:
        return f"Twin{self.ident // 2}"


def _num(v):
    try:
        return float(v)
    except (TypeError, ValueError):
        return 0.0


def _earlier_finalize_folded_map(merged, reduce_fn, sort_output, params):
    """``finalize_folded_map`` as it was before the in-order reduce: reduce
    in dict order, a ``repr`` sort of the pairs, then a value sort whose
    fallback breaks ties on ``repr`` again."""
    if reduce_fn is not None:
        out = [(k, reduce_fn(k, [v], params)) for k, v in merged.items()]
    else:
        out = list(merged.items())
    out.sort(key=lambda kv: repr(kv[0]))
    if sort_output:
        if all(type(kv[1]) is int or type(kv[1]) is float for kv in out):
            out = sorted(out, key=operator.itemgetter(1), reverse=True)
        else:
            out.sort(key=lambda kv: (-_num(kv[1]), repr(kv[0])))
    return out


def _earlier_sort_decorated_by_value_desc(entries):
    entries = sorted(entries, key=operator.itemgetter(0))
    if all(type(e[2]) is int or type(e[2]) is float for e in entries):
        return sorted(entries, key=operator.itemgetter(2), reverse=True)
    entries.sort(key=lambda e: (-_num(e[2]), e[0]))
    return entries


def _first(key, values, params):
    return values[0]


def _repr_len(key, values, params):
    return len(repr(values[0]))


_order_key = st.one_of(
    st.integers(-30, 30),
    st.text(alphabet="abc", max_size=3),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(Twin, st.integers(0, 7)),
)
_order_value = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.floats(),
    st.text(alphabet="1e.-nai", max_size=3),
    st.sampled_from(["nan", "inf", "1e3", "-2", None, True, b"7"]),
)


@given(
    pairs=st.lists(st.tuples(_order_key, _order_value), max_size=40),
    reduce_fn=st.sampled_from([None, _first, _repr_len]),
    sort_output=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_property_output_order_matches_its_earlier_definition(
    pairs, reduce_fn, sort_output
):
    """Numeric and non-numeric values (NaN and numeric strings too) leave
    the finalize and the decorated value order where they were."""
    merged = dict(pairs)
    got = finalize_folded_map(dict(merged), reduce_fn, sort_output, {})
    want = _earlier_finalize_folded_map(dict(merged), reduce_fn, sort_output, {})
    assert pickle.dumps(got) == pickle.dumps(want)
    entries = [(repr(k), k, v) for k, v in reversed(merged.items())]
    assert pickle.dumps(sort_decorated_by_value_desc(entries)) == pickle.dumps(
        _earlier_sort_decorated_by_value_desc(entries)
    )
    # the partition merge's order is the engines' order
    assert pickle.dumps(sort_by_value_desc(list(merged.items()))) == pickle.dumps(
        finalize_folded_map(dict(merged), None, True, {})
    )
