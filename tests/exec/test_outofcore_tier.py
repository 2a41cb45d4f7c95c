"""Out-of-core engine + TieredStore integration: reuse, loss, recovery."""

from __future__ import annotations

import functools
import operator
import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.wordcount import wc_reduce
from repro.errors import RETRIES, WorkloadError
from repro.exec import LocalMapReduce
from repro.exec.chunks import chunk_file, drop_cached_handle, read_chunk_cached
from repro.exec.outofcore import MERGED_RUN, live_spill_dirs, run_out_of_core
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.obs import Observability
from repro.tier import TieredStore
from repro.workloads import zipf_corpus

#: the merged run of run_job's default tier key
MERGED = "job/merged"


def wc_fragment(fragment):
    counts: dict = {}
    for c in fragment:
        for w in read_chunk_cached(c).split():
            counts[w] = counts.get(w, 0) + 1
    return counts


def wc_lists(fragment):
    """A combinerless map: each word's per-fragment count as a value list."""
    return {w: [n] for w, n in wc_fragment(fragment).items()}


@pytest.fixture()
def corpus(tmp_path):
    p = tmp_path / "corpus"
    p.write_bytes(zipf_corpus(20_000, vocabulary=300, seed=5))
    return str(p)


def run_job(path, tier=None, faults=None, obs=None, max_retries=2,
            tier_key="job", budget=4096, calls=None, combine_fn=operator.add,
            reduce_fn=None, sort_output=True, chunk_bytes=1024):
    """One out-of-core wordcount; ``calls`` collects each mapped
    fragment's first chunk offset."""
    obs = obs or Observability(enabled=False)
    chunks = chunk_file(path, chunk_bytes)
    map_one = wc_fragment if combine_fn is not None else wc_lists

    def map_fragment(fragment):
        if calls is not None:
            calls.append(fragment[0].offset)
        return map_one(fragment)

    out, n_fragments, spilled = run_out_of_core(
        chunks, functools.partial(map, map_fragment), combine_fn, reduce_fn,
        sort_output, {}, budget, obs,
        faults=faults, max_retries=max_retries,
        tier=tier, tier_key=tier_key,
    )
    return out, n_fragments, obs


def counting(reduce_fn, calls):
    """``reduce_fn`` that appends each key it reduces to ``calls``."""
    def reduce_counted(key, values, params):
        calls.append(key)
        return reduce_fn(key, values, params)
    return reduce_counted


def pair_reduce(key, values, params):
    """A reduce whose values are tuples (no plain numbers to sort by)."""
    return key, sum(values)


class Unpicklable:
    """A reduced value that compares by its count and refuses to pickle."""

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        return isinstance(other, Unpicklable) and self.n == other.n

    def __reduce__(self):
        raise TypeError("Unpicklable values do not pickle")


def unpicklable_reduce(key, values, params):
    return Unpicklable(sum(values))


def fragment_runs(store):
    """How many fragment runs the tier holds (every entry but the merged run)."""
    return store.stats()["entries"] - store.contains(MERGED)


def test_tiered_run_matches_plain_run(corpus):
    plain, n, _ = run_job(corpus)
    assert n >= 2
    with TieredStore(64 * 1024, 256 * 1024) as store:
        tiered, _, _ = run_job(corpus, tier=store)
    assert tiered == plain


def test_tier_without_a_job_key_is_refused(tmp_path):
    """Two inputs of the same size and geometry would share runs."""
    first, second = tmp_path / "first", tmp_path / "second"
    first.write_bytes(b"apple pear " * 500)
    second.write_bytes(b"kiwis plum " * 500)
    with TieredStore(64 * 1024, 256 * 1024) as store:
        for path in (first, second):
            with pytest.raises(WorkloadError):
                run_out_of_core(
                    chunk_file(str(path), 512), functools.partial(map, wc_fragment),
                    operator.add, None, True, {}, 2048,
                    Observability(enabled=False), tier=store,
                )
        assert store.stats()["entries"] == 0
        # named by content, the two inputs keep their own answers
        outs = [run_job(str(p), tier=store, tier_key=str(p), budget=2048)[0]
                for p in (first, second, first, second)]
    assert outs[0] == outs[2] == [(b"apple", 500), (b"pear", 500)]
    assert outs[1] == outs[3] == [(b"kiwis", 500), (b"plum", 500)]


def test_warm_tier_skips_recompute(corpus, monkeypatch):
    """A warm rerun reads the merged run: no map, no spill, one run, and
    no ``reduce_fn`` call — the cold run reduced each key once."""
    import repro.exec.outofcore as outofcore

    monkeypatch.setattr(outofcore, "SPILL_BLOCK_ENTRIES", 64)  # many blocks
    reduced: list = []
    reduce_fn = counting(wc_reduce, reduced)
    with TieredStore(64 * 1024, 256 * 1024) as store:
        calls: list = []
        first, n, cold = run_job(corpus, tier=store, calls=calls, reduce_fn=reduce_fn)
        assert len(calls) == n
        assert sorted(reduced) == sorted(k for k, _ in first)  # once per key
        # the merged run replaced the fragment runs in the tier
        assert cold.metrics.counters["localmr.spill_runs"] == n + 1
        assert store.contains(MERGED) and fragment_runs(store) == 0
        calls.clear()
        reduced.clear()
        second, _, obs = run_job(corpus, tier=store, calls=calls, reduce_fn=reduce_fn)
        assert second == first
        assert calls == [] and reduced == []
        ctr = obs.metrics.counters
        assert ctr["tier.spill.reuse"] == 1
        assert ctr.get("localmr.spill_runs", 0) == 0


@given(
    lines=st.lists(
        st.lists(st.sampled_from([b"a", b"bb", b"ccc", b"dd", b"e"]), max_size=12),
        min_size=1, max_size=6,
    ),
    reduce_fn=st.sampled_from([None, wc_reduce, pair_reduce]),
    sort_output=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_property_warm_answer_equals_cold_and_tierless(lines, reduce_fn, sort_output):
    """The kept answer is the answer: a warm rerun's pickled output equals
    the cold run's and a tier-less run's, over 1-6 fragments."""
    # one equal-length line per chunk, one chunk per fragment
    width = 1 + max(len(b" ".join(words)) for words in lines)
    data = b"".join(b" ".join(words).ljust(width - 1) + b"\n" for words in lines)
    with tempfile.TemporaryDirectory(prefix="tier-answer-") as d:
        path = os.path.join(d, "corpus")
        with open(path, "wb") as f:
            f.write(data)
        job = functools.partial(
            run_job, path, reduce_fn=reduce_fn, sort_output=sort_output,
            budget=width, chunk_bytes=width,
        )
        plain, n, _ = job()
        with TieredStore(64 * 1024, 256 * 1024) as store:
            cold, _, _ = job(tier=store)
            warm, _, obs = job(tier=store)
        drop_cached_handle(path)  # the corpus dir vanishes with this example
    assert n == len(lines)
    assert obs.metrics.counters["tier.spill.reuse"] == 1
    assert pickle.dumps(warm) == pickle.dumps(cold) == pickle.dumps(plain)


def test_unpicklable_answer_is_returned_and_not_kept(corpus):
    """An answer that does not pickle cannot be kept: the job still
    returns it, and the fragment runs stay for the next run."""
    plain, n, _ = run_job(corpus, reduce_fn=unpicklable_reduce)
    obs = Observability(enabled=False)
    with TieredStore(64 * 1024, 256 * 1024) as store:
        cold, _, _ = run_job(corpus, tier=store, obs=obs, reduce_fn=unpicklable_reduce)
        assert obs.metrics.counters["tier.spill.unkept"] == 1
        assert not store.contains(MERGED)
        assert fragment_runs(store) == n
        calls: list = []
        again, _, obs2 = run_job(
            corpus, tier=store, calls=calls, reduce_fn=unpicklable_reduce,
        )
        assert calls == []  # every fragment run reused
        assert obs2.metrics.counters["tier.spill.reuse"] == n
        assert not store.contains(MERGED)
    assert cold == again == plain
    assert isinstance(plain[0][1], Unpicklable)


def test_failed_merged_write_still_answers(corpus):
    """A merged write that fails past the spill retries loses only the
    kept answer: the job returns, and the next run reuses the fragment
    runs and keeps its answer then."""
    plain, n, _ = run_job(corpus, reduce_fn=wc_reduce)
    plan = FaultPlan(rules=(
        FaultRule("spill.write", action="fail", count=RETRIES + 1,
                  where={"run": MERGED_RUN}),
    ), seed=2)
    inj = FaultInjector(plan)
    with TieredStore(64 * 1024, 256 * 1024) as store:
        cold, _, obs = run_job(corpus, tier=store, faults=inj, reduce_fn=wc_reduce)
        assert obs.metrics.counters["retry.spill_write"] == RETRIES
        assert obs.metrics.counters["tier.spill.unkept"] == 1
        assert not store.contains(MERGED)
        assert fragment_runs(store) == n
        calls: list = []
        again, _, obs2 = run_job(
            corpus, tier=store, faults=inj, calls=calls, reduce_fn=wc_reduce,
        )
        assert calls == []
        assert obs2.metrics.counters["tier.spill.reuse"] == n
        assert store.contains(MERGED) and fragment_runs(store) == 0
    assert cold == again == plain


def test_different_job_key_misses_the_warm_tier(corpus):
    with TieredStore(64 * 1024, 256 * 1024) as store:
        run_job(corpus, tier=store, tier_key="job-a")
        _, _, obs = run_job(corpus, tier=store, tier_key="job-b")
        assert obs.metrics.counters.get("tier.spill.reuse", 0) == 0


def test_lost_merged_write_keeps_the_fragment_runs(corpus):
    plain, n, _ = run_job(corpus)
    plan = FaultPlan(rules=(
        # every attempt of the first merged write is dropped: it is lost
        FaultRule("tier.writeback", action="drop", count=RETRIES + 1,
                  where={"key": MERGED}),
    ), seed=2)
    inj = FaultInjector(plan)
    obs = Observability(enabled=False)
    with TieredStore(64 * 1024, 256 * 1024, faults=inj, obs=obs) as store:
        cold, _, _ = run_job(corpus, tier=store, faults=inj, obs=obs)
        assert obs.metrics.counters["tier.writeback.lost"] == 1
        assert not store.contains(MERGED)
        assert fragment_runs(store) == n
        # the next run reuses every fragment run, then keeps its merge
        calls: list = []
        again, _, obs2 = run_job(corpus, tier=store, faults=inj, calls=calls)
        assert calls == []
        assert obs2.metrics.counters["tier.spill.reuse"] == n
        assert store.contains(MERGED) and fragment_runs(store) == 0
        warm, _, obs3 = run_job(corpus, tier=store, faults=inj)
        assert obs3.metrics.counters["tier.spill.reuse"] == 1
    assert cold == again == warm == plain


@pytest.mark.parametrize("action,counter", [
    ("fail", "tier.read.degraded"),
    ("corrupt", "tier.read.corrupted"),
])
def test_bad_merged_run_is_invalidated_and_the_job_runs_cold(corpus, action, counter):
    plain, n, _ = run_job(corpus)
    plan = FaultPlan(rules=(
        FaultRule("tier.read", action=action, count=1, where={"key": MERGED}),
    ), seed=2)
    inj = FaultInjector(plan)
    obs = Observability(enabled=False)
    with TieredStore(64 * 1024, 256 * 1024, faults=inj, obs=obs) as store:
        run_job(corpus, tier=store, faults=inj)
        assert store.contains(MERGED)
        calls: list = []
        out, _, job = run_job(corpus, tier=store, faults=inj, calls=calls)
        assert obs.metrics.counters[counter] == 1
        assert len(calls) == n  # cold: every fragment mapped again
        assert job.metrics.counters.get("tier.spill.reuse", 0) == 0
        # ... and it wrote a good merged run, which the next run reads
        warm, _, obs3 = run_job(corpus, tier=store, faults=inj)
        assert obs3.metrics.counters["tier.spill.reuse"] == 1
    assert out == warm == plain


def test_combinerless_job_writes_no_merged_run(corpus):
    plain, n, _ = run_job(corpus, combine_fn=None)
    with TieredStore(64 * 1024, 256 * 1024) as store:
        cold, _, obs = run_job(corpus, tier=store, combine_fn=None)
        assert obs.metrics.counters["localmr.spill_runs"] == n
        assert not store.contains(MERGED)
        assert fragment_runs(store) == n
        warm, _, obs2 = run_job(corpus, tier=store, combine_fn=None)
        assert obs2.metrics.counters["tier.spill.reuse"] == n
    assert cold == warm == plain


def test_lost_writeback_recomputes_before_merge(corpus):
    plain, _, _ = run_job(corpus)
    plan = FaultPlan(
        rules=(FaultRule("tier.writeback", action="drop", count=3),), seed=2
    )
    inj = FaultInjector(plan)
    with TieredStore(64 * 1024, 256 * 1024, faults=inj) as store:
        out, _, obs = run_job(corpus, tier=store, faults=inj)
    ctr = obs.metrics.counters
    assert out == plain
    assert ctr["tier.spill.lost"] >= 1
    assert ctr["localmr.recompute"] >= 1
    assert ctr.get("retry.spill_merge", 0) == 0  # sweep, not a merge retry


def test_degraded_warm_read_recomputes(corpus):
    plain, _, _ = run_job(corpus)
    plan = FaultPlan(
        rules=(FaultRule("tier.read", action="fail", count=1),), seed=2
    )
    inj = FaultInjector(plan)
    obs = Observability(enabled=False)
    with TieredStore(64 * 1024, 256 * 1024, faults=inj, obs=obs) as store:
        out, _, obs = run_job(corpus, tier=store, faults=inj, obs=obs)
    ctr = obs.metrics.counters
    assert out == plain
    assert ctr["tier.read.degraded"] == 1
    assert ctr["localmr.recompute"] >= 1
    assert ctr["retry.spill_merge"] >= 1


def test_corrupt_warm_read_caught_by_crc_and_recomputed(corpus):
    plain, _, _ = run_job(corpus)
    plan = FaultPlan(
        rules=(FaultRule("tier.read", action="corrupt", count=1),), seed=2
    )
    inj = FaultInjector(plan)
    obs = Observability(enabled=False)
    with TieredStore(64 * 1024, 256 * 1024, faults=inj, obs=obs) as store:
        out, _, obs = run_job(corpus, tier=store, faults=inj, obs=obs)
    ctr = obs.metrics.counters
    assert out == plain
    assert ctr["tier.read.corrupted"] == 1
    assert ctr["localmr.recompute"] >= 1


def test_capacity_starved_tier_converges_via_disk_fallback(corpus):
    """A tier too small for even one run set: every merge-side recompute
    must land on durable disk instead of thrashing the tier forever."""
    plain, _, _ = run_job(corpus)
    with TieredStore(512, 1024) as store:
        out, _, obs = run_job(corpus, tier=store)
    assert out == plain
    # merge retries stayed inside the default budget
    assert obs.metrics.counters.get("retry.spill_merge", 0) <= 2
    assert live_spill_dirs() == []  # the fallback dir was cleaned up


def test_retry_exhaustion_still_raises(corpus):
    """An unbounded loss stream must exhaust retries, not hang."""
    from repro.errors import SpillCorruptionError

    plan = FaultPlan(
        rules=(FaultRule("tier.read", action="fail", count=99),), seed=2
    )
    inj = FaultInjector(plan)
    with TieredStore(64 * 1024, 256 * 1024, faults=inj) as store:
        with pytest.raises(SpillCorruptionError):
            run_job(corpus, tier=store, faults=inj, max_retries=1)
    assert live_spill_dirs() == []


# -- LocalMapReduce wiring ----------------------------------------------------


def _map(data, emit, params):
    for token in data.split():
        emit(token, 1)


def test_engine_warm_rerun_through_tier(corpus, monkeypatch):
    """A warm rerun submits no map task, writes no run, reuses one run
    (the merged one) and advises no readahead."""
    from repro.tier import ReadaheadPrefetcher

    advised: list = []
    monkeypatch.setattr(
        ReadaheadPrefetcher, "advise", lambda self, index: advised.append(index)
    )
    obs = Observability(enabled=False)
    with TieredStore(64 * 1024, 256 * 1024, obs=obs) as store:
        with LocalMapReduce(
            _map, combine_fn=operator.add, sort_output=True, n_workers=2,
            start_method="fork", memory_budget=4096, tier=store, readahead=1,
            obs=obs,
        ) as eng:
            with LocalMapReduce(
                _map, combine_fn=operator.add, sort_output=True, n_workers=1,
                memory_budget=4096,
            ) as plain_eng:
                plain = plain_eng.run(corpus, chunk_bytes=1024).output
            executor = eng.pool.ensure()
            submitted: list = []
            real_submit = executor.submit

            def submit(*args, **kwargs):
                submitted.append(args)
                return real_submit(*args, **kwargs)

            executor.submit = submit
            cold = eng.run(corpus, chunk_bytes=1024)
            assert len(submitted) == 2 * cold.n_fragments
            assert advised == list(range(cold.n_fragments))
            before = dict(obs.metrics.counters)
            submitted.clear()
            advised.clear()
            warm = eng.run(corpus, chunk_bytes=1024)
    ctr = obs.metrics.counters
    assert cold.output == plain
    assert warm.output == plain
    assert submitted == [] and advised == []
    assert ctr["tier.spill.reuse"] - before.get("tier.spill.reuse", 0) == 1
    assert ctr["localmr.spill_runs"] == before["localmr.spill_runs"]
    assert warm.spilled_bytes == 0
    tier_dir = store.ssd_dir
    assert not os.path.isdir(tier_dir)


def test_readahead_advises_only_mapped_fragments(corpus, monkeypatch):
    """A warm rerun maps no fragment, so it must not pre-read any."""
    from repro.tier import ReadaheadPrefetcher

    advised: list = []
    advise = ReadaheadPrefetcher.advise

    def spy(self, index):
        advised.append(index)
        return advise(self, index)

    monkeypatch.setattr(ReadaheadPrefetcher, "advise", spy)
    with TieredStore(64 * 1024, 256 * 1024) as store:
        with LocalMapReduce(
            _map, combine_fn=operator.add, n_workers=1,
            memory_budget=4096, tier=store, readahead=1,
        ) as eng:
            cold = eng.run(corpus, chunk_bytes=1024)
            cold_advised = list(advised)
            warm = eng.run(corpus, chunk_bytes=1024)
    assert cold_advised == list(range(cold.n_fragments))
    assert advised == cold_advised  # the warm rerun advised nothing
    assert warm.output == cold.output


def test_job_plans_fragments_once_and_a_warm_job_builds_no_prefetcher(corpus, monkeypatch):
    """Each out-of-core job plans its fragments once; a cold one builds one
    prefetcher over that plan and advises every fragment in order, and a
    warm tiered job builds none."""
    from repro.exec import outofcore
    from repro.tier import ReadaheadPrefetcher

    plans: list = []
    built: list = []
    advised: list = []
    plan_fragments = outofcore.plan_fragments
    init, advise = ReadaheadPrefetcher.__init__, ReadaheadPrefetcher.advise

    def plan_spy(*args):
        plans.append(plan_fragments(*args))
        return plans[-1]

    def init_spy(self, fragments, *args, **kwargs):
        built.append(fragments)
        init(self, fragments, *args, **kwargs)

    def advise_spy(self, index):
        advised.append(index)
        advise(self, index)

    monkeypatch.setattr(outofcore, "plan_fragments", plan_spy)
    monkeypatch.setattr(ReadaheadPrefetcher, "__init__", init_spy)
    monkeypatch.setattr(ReadaheadPrefetcher, "advise", advise_spy)
    with TieredStore(64 * 1024, 256 * 1024) as store:
        with LocalMapReduce(
            _map, combine_fn=operator.add, n_workers=1,
            memory_budget=4096, tier=store, readahead=1,
        ) as eng:
            cold = eng.run(corpus, chunk_bytes=1024)
            assert len(plans) == 1 and len(built) == 1 and built[0] is plans[0]
            assert advised == list(range(cold.n_fragments)) == list(range(len(plans[0])))
            eng.run(corpus, chunk_bytes=1024)
    assert len(plans) == 2  # the warm job planned once more
    assert len(built) == 1 and advised == list(range(cold.n_fragments))


def test_engine_rejects_bad_knobs():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError):
        LocalMapReduce(_map, readahead=-1)
    with pytest.raises(WorkloadError):
        LocalMapReduce(_map, spill_retries=-1)
