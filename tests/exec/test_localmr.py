"""Tests for the real-machine multiprocessing MapReduce engine."""

from __future__ import annotations

import operator
import pickle
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.stringmatch import sm_map
from repro.apps.wordcount import wc_map, wc_reduce
from repro.exec import LocalMapReduce
from repro.workloads import keys_for, zipf_corpus


@pytest.fixture()
def corpus(tmp_path):
    data = zipf_corpus(80_000, seed=11)
    p = tmp_path / "c.txt"
    p.write_bytes(data)
    return str(p), data


def wordcount_engine(workers=2):
    return LocalMapReduce(
        map_fn=wc_map,
        reduce_fn=wc_reduce,
        combine_fn=operator.add,
        sort_output=True,
        n_workers=workers,
    )


def test_wordcount_matches_counter(corpus):
    path, data = corpus
    res = wordcount_engine().run(path)
    assert dict(res.output) == dict(Counter(data.split()))


def test_output_sorted_by_frequency(corpus):
    path, _ = corpus
    res = wordcount_engine().run(path)
    counts = [v for _, v in res.output]
    assert counts == sorted(counts, reverse=True)


def test_parallel_equals_serial(corpus):
    path, _ = corpus
    eng = wordcount_engine()
    par = eng.run(path, parallel=True)
    ser = eng.run(path, parallel=False)
    assert par.output == ser.output
    assert ser.n_workers == 1


@given(
    words=st.lists(
        st.text(alphabet="abcde", min_size=1, max_size=6),
        min_size=1, max_size=120,
    )
)
@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_property_pooled_output_byte_identical_to_serial(tmp_path, words):
    p = tmp_path / "corpus"
    p.write_bytes(" ".join(words).encode())
    with LocalMapReduce(
        map_fn=wc_map, combine_fn=operator.add, sort_output=True,
        n_workers=2, start_method="fork",
    ) as eng:
        pooled = eng.run(str(p), chunk_bytes=64)
        serial = eng.run(str(p), chunk_bytes=64, parallel=False)
    assert pickle.dumps(pooled.output) == pickle.dumps(serial.output)


def test_chunk_size_invariance(corpus):
    path, data = corpus
    eng = wordcount_engine()
    outs = {eng.run(path, chunk_bytes=cb).n_chunks: dict(eng.run(path, chunk_bytes=cb).output) for cb in (5_000, 20_000, 200_000)}
    expected = dict(Counter(data.split()))
    assert all(o == expected for o in outs.values())
    assert max(outs) > 1  # at least one config actually chunked


def test_stringmatch_real_engine(tmp_path):
    keys = keys_for(2, seed=1)
    lines = [b"aaaa", keys[0] + b" xxx", b"bbbb", b"yy " + keys[1], keys[0]]
    data = b"\n".join(lines)
    p = tmp_path / "enc.txt"
    p.write_bytes(data)
    eng = LocalMapReduce(
        map_fn=sm_map,
        combine_fn=operator.add,
        delimiters=b"\n",
        n_workers=2,
    )
    res = eng.run(str(p), chunk_bytes=8, params={"keys": keys})
    assert dict(res.output) == {keys[0]: 2, keys[1]: 1}


def test_map_only_without_combiner(tmp_path):
    data = b"a b a"
    p = tmp_path / "t"
    p.write_bytes(data)
    eng = LocalMapReduce(map_fn=wc_map, n_workers=1)
    res = eng.run(str(p), parallel=False)
    assert dict(res.output) == {b"a": [1, 1], b"b": [1]}


def test_result_metadata(corpus):
    path, _ = corpus
    res = wordcount_engine().run(path, chunk_bytes=10_000)
    assert res.n_chunks >= 7
    assert res.elapsed > 0
    assert res.n_workers == 2


def test_bad_chunk_bytes(corpus):
    path, _ = corpus
    with pytest.raises(Exception):
        wordcount_engine().run(path, chunk_bytes=0)


class _CountingKey:
    """Value-equal key counting global ``repr`` calls (shuffle contract)."""

    reprs = 0

    def __init__(self, ident: int):
        self.ident = ident

    def __hash__(self) -> int:
        return hash(self.ident)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _CountingKey) and self.ident == other.ident

    def __repr__(self) -> str:
        _CountingKey.reprs += 1
        return f"_CountingKey({self.ident:04d})"


def _counting_map(data, emit, params):
    for tok in data.split():
        emit(_CountingKey(int(tok)), 1)


def test_engine_reprs_each_distinct_key_once_per_job(tmp_path):
    # 3 distinct keys spread over many chunks: the whole job must repr
    # each key once (in the parent), not once per (key, chunk)
    data = b" ".join(b"%d" % (i % 3) for i in range(60))
    p = tmp_path / "nums.txt"
    p.write_bytes(data)
    eng = LocalMapReduce(
        map_fn=_counting_map,
        reduce_fn=lambda k, vs, params: sum(vs),
        combine_fn=operator.add,
        sort_output=True,
        n_workers=1,
    )
    _CountingKey.reprs = 0
    res = eng.run(str(p), chunk_bytes=16, parallel=False)
    assert res.n_chunks > 1
    assert _CountingKey.reprs == 3
    assert [v for _, v in res.output] == [20, 20, 20]


def test_traced_run_stitches_worker_segments(corpus):
    from repro.obs import Observability

    path, _ = corpus
    obs = Observability(enabled=True)
    eng = LocalMapReduce(
        map_fn=wc_map,
        reduce_fn=wc_reduce,
        combine_fn=operator.add,
        sort_output=True,
        n_workers=2,
        obs=obs,
    )
    res = eng.run(path, chunk_bytes=20_000)
    job = res.span
    assert job is not None and job.name == "localmr.job"
    kids = {s.name for s in job.children()}
    assert {"localmr.chunk_plan", "localmr.map_pool", "localmr.merge"} <= kids
    reads = obs.spans.by_name("localmr.read_chunk")
    maps = obs.spans.by_name("localmr.map_chunk")
    assert len(reads) == res.n_chunks
    assert len(maps) == res.n_chunks
    for seg in reads + maps:
        assert seg.parent_id == job.id
        assert seg.track.startswith("worker-")
        assert seg.attrs["pid"] > 0
        assert seg.dur >= 0.0 and seg.wall_dur >= 0.0


def test_untraced_run_has_no_span(corpus):
    path, _ = corpus
    res = wordcount_engine().run(path, chunk_bytes=40_000)
    assert res.span is None


def test_stitched_segments_preserve_worker_order(corpus):
    from collections import defaultdict

    from repro.obs import Observability

    path, _ = corpus
    obs = Observability(enabled=True)
    eng = LocalMapReduce(
        map_fn=wc_map,
        reduce_fn=wc_reduce,
        combine_fn=operator.add,
        sort_output=True,
        n_workers=2,
        obs=obs,
    )
    res = eng.run(path, chunk_bytes=8_000)
    assert res.n_chunks >= 4
    by_track = defaultdict(list)
    for s in obs.spans.by_name("localmr.read_chunk") + obs.spans.by_name(
        "localmr.map_chunk"
    ):
        by_track[s.track].append(s)
    assert by_track and all(t.startswith("worker-") for t in by_track)
    for track, segs in by_track.items():
        # a worker's wall-clock segments never interleave: sorted by start
        # time they alternate read -> map per chunk, exactly as recorded
        segs.sort(key=lambda s: s.t0)
        names = [s.name for s in segs]
        assert names == ["localmr.read_chunk", "localmr.map_chunk"] * (
            len(segs) // 2
        )
        for a, b in zip(segs, segs[1:]):
            assert a.t1 <= b.t0 + 1e-6


def test_run_batch_ships_no_segments_when_tracing_off(corpus):
    from repro.exec.chunks import chunk_file
    from repro.exec.pool import run_batch

    path, _ = corpus
    chunks = chunk_file(path, 20_000)
    # exactly what a worker receives over IPC with tracing off ...
    index, acc, segments = run_batch((0, chunks, wc_map, operator.add, {}, False))
    assert segments is None  # nothing extra rides the result pickle
    assert index == 0 and acc
    # ... and with tracing on: one read + one map segment per chunk, in
    # order, plus the worker's trailing resource heartbeat
    _, acc2, segs = run_batch((3, chunks, wc_map, operator.add, {}, True))
    assert acc2 == acc
    names = [s[0] for s in segs]
    assert names[-1] == "worker.heartbeat"
    assert names[:-1] == [
        "localmr.read_chunk",
        "localmr.map_chunk",
    ] * len(chunks)
    hb = segs[-1]
    assert hb[1] == hb[2] and hb[3] == 0.0  # a sample, not an interval
    assert hb[4]["rss_kib"] > 0 and hb[4]["cpu_s"] >= 0.0
    assert 0.0 <= hb[4]["util"] <= 1.0
    assert all(s[4]["batch"] == 3 for s in segs)


def test_engine_context_manager_closes_pool(corpus):
    path, _ = corpus
    with wordcount_engine() as eng:
        eng.run(path, chunk_bytes=20_000)
        assert eng.pool.alive
    assert not eng.pool.alive
    # closed engines resurrect their pool on the next run
    res = eng.run(path, chunk_bytes=20_000)
    assert res.output
    eng.close()
    assert not eng.pool.alive


def test_result_mode_metadata(corpus):
    path, _ = corpus
    with wordcount_engine() as eng:
        res = eng.run(path, chunk_bytes=20_000)
    assert res.mode == "memory"
    assert res.n_fragments == 1
    assert res.spilled_bytes == 0
