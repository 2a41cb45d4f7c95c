"""Property: every execution strategy computes the same answer.

The reproduction's central correctness claim — partitioning, offloading
and sharding are *performance* techniques, not semantic ones — stated as
hypothesis properties over random corpora and fragment sizes:

    sequential == parallel == partitioned(any fragment size)

for Word Count on the simulated stack, and simulated == real-engine on
the multiprocessing side.

The second half pins the PR-1 shuffle rewrite: the sort-once/merge-after
pipeline (`repro.phoenix.sort`) must be byte-identical to the frozen seed
dataflow (`repro.phoenix.seed_shuffle`) on random key/value workloads,
across every flag combination (with/without combine, reduce, sort, value-
ordered output) and across the parallel, sequential, and LocalMapReduce
paths.
"""

from __future__ import annotations

import operator
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import make_wordcount_spec
from repro.config import table1_cluster
from repro.net import Fabric
from repro.node import Node
from repro.phoenix import InputSpec, PhoenixRuntime
from repro.partition import ExtendedPhoenixRuntime
from repro.sim import Simulator
from repro.units import MB


words_st = st.lists(
    st.sampled_from([b"alpha", b"beta", b"gamma", b"delta", b"epsilon", b"z"]),
    min_size=1,
    max_size=300,
)


def fresh_sd():
    cfg = table1_cluster()
    sim = Simulator(seed=1)
    fab = Fabric(sim, cfg.network)
    sd = Node(sim, cfg.node("sd0"), fab)
    sd.fs.vfs.mkdir("/data")
    return sim, sd, cfg


@given(words=words_st, size_mb=st.integers(min_value=1, max_value=1500),
       frag_mb=st.integers(min_value=1, max_value=800))
@settings(max_examples=40, deadline=None)
def test_property_all_strategies_agree(words, size_mb, frag_mb):
    payload = b" ".join(words)
    sim, sd, cfg = fresh_sd()
    inp = InputSpec(path="/data/f", size=MB(size_mb), payload=payload)
    sd.fs.vfs.write("/data/f", data=payload, size=inp.size)
    rt = PhoenixRuntime(sd, cfg.phoenix)
    ext = ExtendedPhoenixRuntime(sd, cfg.phoenix)
    spec = make_wordcount_spec()

    def go():
        seq = yield rt.run(spec, inp, mode="sequential", write_output=False)
        par = yield rt.run(
            spec, inp, mode="parallel", enforce_memory_rule=False, write_output=False
        )
        part = yield ext.run(spec, inp, fragment_bytes=MB(frag_mb), write_output=False)
        return seq.output, par.output, part.output

    p = sim.spawn(go())
    seq_out, par_out, part_out = sim.run(until=p)
    truth = dict(Counter(payload.split()))
    assert dict(seq_out) == truth
    assert dict(par_out) == truth
    assert dict(part_out) == truth
    # identical frequency-sorted ordering too
    assert [k for k, _ in seq_out] == [k for k, _ in par_out] == [
        k for k, _ in part_out
    ]


@given(words=words_st, chunk=st.integers(min_value=1, max_value=500))
@settings(max_examples=30, deadline=None)
def test_property_real_engine_matches_simulated_semantics(tmp_path_factory, words, chunk):
    import operator

    from repro.apps.wordcount import wc_map, wc_reduce
    from repro.exec import LocalMapReduce

    payload = b" ".join(words)
    p = tmp_path_factory.mktemp("eq") / "f.txt"
    p.write_bytes(payload)
    engine = LocalMapReduce(
        map_fn=wc_map, reduce_fn=wc_reduce, combine_fn=operator.add,
        sort_output=True, n_workers=2,
    )
    res = engine.run(str(p), chunk_bytes=chunk, parallel=False)
    assert dict(res.output) == dict(Counter(payload.split()))


# -- shuffle rewrite vs frozen seed pipeline ---------------------------------

from repro.phoenix.api import CostProfile, MapReduceSpec  # noqa: E402
from repro.phoenix.runtime import _sequential_compute  # noqa: E402
from repro.phoenix.seed_shuffle import (  # noqa: E402
    seed_local_merge_runs,
    seed_local_worker_run,
    seed_shuffle_parallel,
)
from repro.phoenix.sort import (  # noqa: E402
    finalize_folded_map,
    finalize_merged_map,
    fold_map_into,
    merge_map_into,
    shuffle_parallel,
)


def _sum_reduce(key, values, params):
    return sum(values)


# mixed key types whose reprs never collide across distinct keys
shuffle_key_st = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abcdef ", max_size=5),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
)
# per-worker emission streams: repeated keys within and across workers
worker_emissions_st = st.lists(
    st.lists(st.tuples(shuffle_key_st, st.integers(0, 99)), max_size=40),
    min_size=1,
    max_size=6,
)


def _combiner_maps(emissions, combine_fn):
    """Fold raw per-worker emissions the way ``Combiner.emit`` does."""
    maps = []
    for worker in emissions:
        acc = {}
        for k, v in worker:
            if combine_fn is None:
                acc.setdefault(k, []).append(v)
            else:
                acc[k] = combine_fn(acc[k], v) if k in acc else v
        maps.append(acc)
    return maps


@given(
    emissions=worker_emissions_st,
    use_combine=st.booleans(),
    use_reduce=st.booleans(),
    needs_sort=st.booleans(),
    sort_output=st.booleans(),
    n_buckets=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=120, deadline=None)
def test_property_parallel_shuffle_identical_to_seed(
    emissions, use_combine, use_reduce, needs_sort, sort_output, n_buckets
):
    combine_fn = operator.add if use_combine else None
    reduce_fn = _sum_reduce if use_reduce else None
    maps = _combiner_maps(emissions, combine_fn)
    expected = seed_shuffle_parallel(
        maps, combine_fn, reduce_fn, needs_sort, sort_output, n_buckets, {}
    )
    got = shuffle_parallel(
        maps, combine_fn, reduce_fn, needs_sort, sort_output, n_buckets, {}
    )
    assert got == expected


def _engine_merge(maps, combine_fn, reduce_fn, sort_output):
    """LocalMapReduce's parent side, in batch order: adopt the first
    non-empty map, then fold (combiner) or extend (none) the rest."""
    merged: dict = {}
    for m in maps:
        if not merged:
            merged = m
        elif combine_fn is not None:
            fold_map_into(merged, m, combine_fn)
        else:
            merge_map_into(merged, m)
    if combine_fn is not None:
        return finalize_folded_map(merged, reduce_fn, sort_output, {})
    return finalize_merged_map(merged, combine_fn, reduce_fn, sort_output, {})


@given(
    emissions=worker_emissions_st,
    use_combine=st.booleans(),
    use_reduce=st.booleans(),
    sort_output=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_property_local_merge_identical_to_seed(
    emissions, use_combine, use_reduce, sort_output
):
    combine_fn = operator.add if use_combine else None
    reduce_fn = _sum_reduce if use_reduce else None
    maps = _combiner_maps(emissions, combine_fn)
    # the seed engine's workers sorted each chunk before shipping it
    runs = [seed_local_worker_run(m) for m in maps]
    expected = seed_local_merge_runs(runs, combine_fn, reduce_fn, sort_output, {})
    got = _engine_merge(maps, combine_fn, reduce_fn, sort_output)
    assert got == expected


def _emit_all(data, emit, params):
    for k, v in data:
        emit(k, v)


@given(
    emissions=worker_emissions_st,
    use_combine=st.booleans(),
    use_reduce=st.booleans(),
    needs_sort=st.booleans(),
    sort_output=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_property_sequential_compute_identical_to_seed(
    emissions, use_combine, use_reduce, needs_sort, sort_output
):
    combine_fn = operator.add if use_combine else None
    reduce_fn = _sum_reduce if use_reduce else None
    pairs = [kv for worker in emissions for kv in worker]
    spec = MapReduceSpec(
        name="seq-eq",
        map_fn=_emit_all,
        profile=CostProfile("seq-eq", 1.0),
        reduce_fn=reduce_fn,
        combine_fn=combine_fn,
        needs_sort=needs_sort,
        sort_output=sort_output,
    )
    got = _sequential_compute(spec, pairs, {})
    # one worker holding everything is exactly the sequential case
    expected = seed_shuffle_parallel(
        _combiner_maps([pairs], combine_fn),
        combine_fn, reduce_fn, needs_sort, sort_output, 4, {},
    )
    assert got == expected
