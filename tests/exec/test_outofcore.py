"""Tests for the out-of-core fragment mode (spill runs + lazy merge)."""

from __future__ import annotations

import glob
import operator
import os
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.wordcount import wc_map, wc_reduce
from repro.errors import WorkloadError
from repro.exec import LocalMapReduce, plan_fragments
from repro.exec.chunks import FileChunk, chunk_file
import repro.exec.outofcore as outofcore
from repro.exec.outofcore import dump_run, iter_run, iter_run_bytes, write_run
from repro.obs import Observability
from repro.phoenix.sort import decorate_sorted
from repro.tier import TieredStore
from repro.workloads import zipf_corpus


def _chunks(lengths):
    chunks, off = [], 0
    for n in lengths:
        chunks.append(FileChunk("f", off, n))
        off += n
    return chunks


# -- fragment planning -------------------------------------------------------


def test_plan_fragments_groups_consecutively():
    frags = plan_fragments(_chunks([40, 40, 40, 40, 40]), budget=100)
    assert [[c.offset for c in f] for f in frags] == [[0, 40], [80, 120], [160]]


def test_plan_fragments_single_fragment_when_under_budget():
    frags = plan_fragments(_chunks([10, 10]), budget=1_000)
    assert len(frags) == 1 and len(frags[0]) == 2


def test_plan_fragments_oversized_chunk_is_own_fragment():
    frags = plan_fragments(_chunks([10, 500, 10]), budget=100)
    assert [[c.length for c in f] for f in frags] == [[10], [500], [10]]


def test_plan_fragments_rejects_bad_budget():
    with pytest.raises(WorkloadError):
        plan_fragments(_chunks([10]), budget=0)


# -- spill run format --------------------------------------------------------


def test_run_roundtrip_across_blocks(tmp_path):
    entries = decorate_sorted({b"k%04d" % i: [i, i + 1] for i in range(500)})
    path = str(tmp_path / "run")
    nbytes = write_run(path, entries, block_values=16)  # force many blocks
    assert nbytes == os.path.getsize(path) > 0
    assert list(iter_run(path)) == entries


def test_folded_run_roundtrip_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(outofcore, "SPILL_BLOCK_ENTRIES", 64)  # many blocks
    folded = {b"k%04d" % (i * 7 % 500): i for i in range(500)}
    path = str(tmp_path / "run")
    assert write_run(path, folded) == os.path.getsize(path) > 0
    # insertion order survives: the merge's first-seen order depends on it
    assert list(iter_run(path)) == list(folded.items())
    assert list(iter_run_bytes(dump_run(folded))) == list(folded.items())


def test_run_roundtrip_empty(tmp_path):
    path = str(tmp_path / "empty-run")
    write_run(path, [])
    assert list(iter_run(path)) == []


# -- engine integration ------------------------------------------------------


def _spill_dirs(root):
    return glob.glob(os.path.join(str(root), "localmr-spill-*"))


@pytest.fixture()
def corpus(tmp_path):
    data = zipf_corpus(60_000, seed=7)
    p = tmp_path / "c.txt"
    p.write_bytes(data)
    return str(p), data


def _engine(spill_dir, budget, **kw):
    return LocalMapReduce(
        map_fn=wc_map,
        reduce_fn=wc_reduce,
        combine_fn=operator.add,
        sort_output=True,
        n_workers=2,
        memory_budget=budget,
        spill_dir=str(spill_dir),
        **kw,
    )


def test_out_of_core_matches_in_memory(corpus, tmp_path):
    path, data = corpus
    with _engine(tmp_path, budget=15_000) as eng:
        ooc = eng.run(path, chunk_bytes=4_000)
        mem = eng.run(path, chunk_bytes=4_000, memory_budget=None)
    assert ooc.mode == "outofcore" and mem.mode == "memory"
    assert ooc.n_fragments >= 3
    assert ooc.spilled_bytes > 0
    assert ooc.output == mem.output
    assert dict(ooc.output) == dict(Counter(data.split()))


def test_spill_files_cleaned_up_on_success(corpus, tmp_path):
    path, _ = corpus
    with _engine(tmp_path, budget=15_000) as eng:
        res = eng.run(path, chunk_bytes=4_000)
    assert res.mode == "outofcore"
    assert _spill_dirs(tmp_path) == []


def _boom_map(data, emit, params):
    raise RuntimeError("map exploded")


def test_spill_files_cleaned_up_on_failure(corpus, tmp_path):
    path, _ = corpus
    eng = LocalMapReduce(
        map_fn=_boom_map,
        n_workers=1,
        memory_budget=15_000,
        spill_dir=str(tmp_path),
    )
    with pytest.raises(RuntimeError, match="map exploded"):
        eng.run(path, chunk_bytes=4_000, parallel=False)
    assert _spill_dirs(tmp_path) == []


def test_no_combiner_value_lists_match(corpus, tmp_path):
    path, _ = corpus
    eng = LocalMapReduce(
        map_fn=wc_map,
        n_workers=1,
        memory_budget=15_000,
        spill_dir=str(tmp_path),
    )
    ooc = eng.run(path, chunk_bytes=4_000, parallel=False)
    mem = eng.run(path, chunk_bytes=4_000, parallel=False, memory_budget=None)
    assert ooc.mode == "outofcore"
    # value-list order is part of the contract: global chunk order
    assert ooc.output == mem.output


def test_spill_counters_and_spans(corpus, tmp_path):
    path, _ = corpus
    obs = Observability(enabled=True)
    with _engine(tmp_path, budget=15_000, obs=obs) as eng:
        res = eng.run(path, chunk_bytes=4_000)
    assert obs.metrics.counters["localmr.spill_runs"] == res.n_fragments
    assert obs.metrics.counters["localmr.spill_bytes"] == res.spilled_bytes
    frag_spans = obs.spans.by_name("localmr.fragment")
    spill_spans = obs.spans.by_name("localmr.spill")
    assert len(frag_spans) == len(spill_spans) == res.n_fragments
    assert sum(s.attrs["bytes"] for s in spill_spans) == res.spilled_bytes
    assert res.span is not None and res.span.attrs["mode"] == "outofcore"


def test_run_override_forces_out_of_core(corpus):
    path, _ = corpus
    with LocalMapReduce(
        map_fn=wc_map, reduce_fn=wc_reduce, combine_fn=operator.add,
        sort_output=True, n_workers=2,
    ) as eng:
        mem = eng.run(path, chunk_bytes=4_000)
        ooc = eng.run(path, chunk_bytes=4_000, memory_budget=10_000)
    assert mem.mode == "memory" and ooc.mode == "outofcore"
    assert ooc.output == mem.output


# -- property: out-of-core is observationally identical to in-memory ---------


@given(
    words=st.lists(
        st.sampled_from([b"alpha", b"beta", b"gamma", b"delta", b"x"]),
        min_size=1,
        max_size=200,
    ),
    chunk=st.integers(min_value=4, max_value=64),
    budget=st.integers(min_value=8, max_value=256),
)
@settings(max_examples=30, deadline=None)
def test_property_out_of_core_equals_in_memory(
    tmp_path_factory, words, chunk, budget
):
    data = b" ".join(words)
    p = tmp_path_factory.mktemp("ooc") / "corpus"
    p.write_bytes(data)
    eng = LocalMapReduce(
        map_fn=wc_map,
        reduce_fn=wc_reduce,
        combine_fn=operator.add,
        sort_output=True,
        n_workers=1,
    )
    mem = eng.run(str(p), chunk_bytes=chunk, parallel=False)
    ooc = eng.run(str(p), chunk_bytes=chunk, parallel=False, memory_budget=budget)
    assert mem.output == ooc.output
    assert dict(mem.output) == dict(Counter(data.split()))
    if len(data) > budget:
        assert ooc.mode == "outofcore"


def _grouping_reduce(key, values, params):
    # sees how the partials were grouped, not just their total
    return (len(values), sum(values))


@given(
    words=st.lists(
        st.sampled_from([b"alpha", b"beta", b"gamma", b"delta", b"x"]),
        min_size=1,
        max_size=200,
    ),
    chunk=st.integers(min_value=4, max_value=64),
    budget=st.integers(min_value=8, max_value=256),
)
@settings(max_examples=30, deadline=None)
def test_property_out_of_core_reduce_sees_in_memory_partials(
    tmp_path_factory, words, chunk, budget
):
    """reduce_fn gets one folded partial per key out of core, as in memory
    (the combiner contract in ``finalize_folded_map``), not one per run."""
    data = b" ".join(words)
    p = tmp_path_factory.mktemp("ooc") / "corpus"
    p.write_bytes(data)
    eng = LocalMapReduce(
        map_fn=wc_map,
        reduce_fn=_grouping_reduce,
        combine_fn=operator.add,
        n_workers=1,
    )
    mem = eng.run(str(p), chunk_bytes=chunk, parallel=False)
    ooc = eng.run(str(p), chunk_bytes=chunk, parallel=False, memory_budget=budget)
    assert ooc.output == mem.output
    assert dict(ooc.output) == {
        k: (1, n) for k, n in Counter(data.split()).items()
    }


# -- streamed fragments ---------------------------------------------------------

#: fixed-width tokens: two-byte key + four-digit position, one delimiter
#: after each, so chunk and fragment boundaries fall where they are drafted
_KEYS = (b"ab", b"cd", b"ef", b"gh", b"ij")
_TOKEN_BYTES = 7


def _key_map(data, emit, params):
    # module-level: crosses the multiprocessing pickle boundary
    for tok in data.split():
        emit(tok[:2], 1)


def _position_map(data, emit, params):
    # value lists carry global positions, so their order is observable
    for tok in data.split():
        emit(tok[:2], tok[2:])


@st.composite
def _fragment_layouts(draw):
    """(tokens, chunk_bytes, budget) for an out-of-core run of 1-6
    fragments (one fragment: a single chunk over budget)."""
    n_fragments = draw(st.integers(min_value=1, max_value=6))
    per_fragment = 1 if n_fragments == 1 else draw(st.integers(1, 3))
    per_chunk = draw(st.integers(min_value=1, max_value=6))
    n_tokens = n_fragments * per_fragment * per_chunk
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=n_tokens, max_size=n_tokens))
    tokens = [key + b"%04d" % i for i, key in enumerate(keys)]
    chunk_bytes = per_chunk * _TOKEN_BYTES
    budget = per_fragment * chunk_bytes if n_fragments > 1 else chunk_bytes - 1
    return tokens, chunk_bytes, budget, n_fragments


@given(
    layout=_fragment_layouts(),
    combiner=st.booleans(),
    n_workers=st.sampled_from([2, 3]),
    tiered=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_property_streamed_fragments_are_byte_identical(
    tmp_path_factory, layout, combiner, n_workers, tiered
):
    tokens, chunk_bytes, budget, n_fragments = layout
    d = tmp_path_factory.mktemp("stream")
    path = str(d / "corpus")
    with open(path, "wb") as f:
        f.write(b"".join(tok + b" " for tok in tokens))
    if combiner:
        kw = dict(map_fn=_key_map, reduce_fn=wc_reduce, combine_fn=operator.add,
                  sort_output=True)
    else:
        kw = dict(map_fn=_position_map)
    tier = TieredStore(256, 4096) if tiered else None
    try:
        with LocalMapReduce(
            n_workers=n_workers, start_method="fork", spill_dir=str(d),
            tier=tier, **kw,
        ) as eng:
            runs = {
                "serial": eng.run(path, chunk_bytes, parallel=False),
                "memory": eng.run(path, chunk_bytes),
                "serial-ooc": eng.run(path, chunk_bytes, parallel=False,
                                      memory_budget=budget),
                "outofcore": eng.run(path, chunk_bytes, memory_budget=budget),
            }
    finally:
        if tier is not None:
            tier.close()
    assert runs["outofcore"].mode == "outofcore"
    assert runs["outofcore"].n_fragments == n_fragments
    expected = pickle.dumps(runs["serial"].output)
    for name, res in runs.items():
        assert pickle.dumps(res.output) == expected, name
    if not combiner:
        # global chunk order survives the shares and the fragments
        positions = [int(p) for _, values in runs["serial"].output for p in values]
        assert sorted(positions) == list(range(len(tokens)))
        for _, values in runs["serial"].output:
            assert values == sorted(values)


def test_next_fragment_is_submitted_before_this_one_spills(tmp_path, monkeypatch):
    tokens = [_KEYS[i % 5] + b"%04d" % i for i in range(240)]
    path = str(tmp_path / "corpus")
    with open(path, "wb") as f:
        f.write(b"".join(tok + b" " for tok in tokens))
    chunk_bytes, budget = 10 * _TOKEN_BYTES, 40 * _TOKEN_BYTES
    fragment_of = {
        chunk.offset: i
        for i, fragment in enumerate(plan_fragments(chunk_file(path, chunk_bytes), budget))
        for chunk in fragment
    }
    events: list[tuple[str, int]] = []
    real_write_run = outofcore.write_run

    def write_run(*args, **kwargs):
        events.append(("spill", kwargs["run_index"]))
        return real_write_run(*args, **kwargs)

    monkeypatch.setattr(outofcore, "write_run", write_run)
    with LocalMapReduce(
        map_fn=_key_map, combine_fn=operator.add, n_workers=2,
        start_method="fork", spill_dir=str(tmp_path),
    ) as eng:
        executor = eng.pool.ensure()
        real_submit = executor.submit

        def submit(fn, packed):
            share = packed[1][1]
            events.append(("submit", fragment_of[share[0].offset]))
            return real_submit(fn, packed)

        executor.submit = submit
        res = eng.run(path, chunk_bytes, memory_budget=budget)
    assert res.n_fragments == 6
    assert dict(res.output) == dict(Counter(tok[:2] for tok in tokens))
    # one share per worker per fragment, all through one stream
    assert [e for e in events if e[0] == "submit"] == [
        ("submit", i) for i in range(6) for _ in range(2)
    ]
    for i in range(res.n_fragments - 1):
        assert events.index(("submit", i + 1)) < events.index(("spill", i))
