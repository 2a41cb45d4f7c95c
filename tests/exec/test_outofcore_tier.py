"""Out-of-core engine + TieredStore integration: reuse, loss, recovery."""

from __future__ import annotations

import operator
import os

import pytest

from repro.exec import LocalMapReduce
from repro.exec.chunks import chunk_file, read_chunk_cached
from repro.exec.outofcore import live_spill_dirs, run_out_of_core
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.obs import Observability
from repro.tier import TieredStore
from repro.workloads import zipf_corpus


def wc_fragment(fragment):
    counts: dict = {}
    for c in fragment:
        for w in read_chunk_cached(c).split():
            counts[w] = counts.get(w, 0) + 1
    return counts


@pytest.fixture()
def corpus(tmp_path):
    p = tmp_path / "corpus"
    p.write_bytes(zipf_corpus(20_000, vocabulary=300, seed=5))
    return str(p)


def run_job(path, tier=None, faults=None, obs=None, max_retries=2,
            tier_key="job", budget=4096):
    obs = obs or Observability(enabled=False)
    chunks = chunk_file(path, 1024)
    out, n_fragments, spilled = run_out_of_core(
        chunks, wc_fragment, operator.add, None, True, {}, budget, obs,
        faults=faults, max_retries=max_retries,
        tier=tier, tier_key=tier_key,
    )
    return out, n_fragments, obs


def test_tiered_run_matches_plain_run(corpus):
    plain, n, _ = run_job(corpus)
    assert n >= 2
    with TieredStore(64 * 1024, 256 * 1024, writeback=False) as store:
        tiered, _, _ = run_job(corpus, tier=store)
    assert tiered == plain


def test_warm_tier_skips_recompute(corpus):
    with TieredStore(64 * 1024, 256 * 1024, writeback=False) as store:
        first, n, _ = run_job(corpus, tier=store)
        second, _, obs = run_job(corpus, tier=store)
        assert second == first
        assert obs.metrics.counters["tier.spill.reuse"] == n


def test_different_job_key_misses_the_warm_tier(corpus):
    with TieredStore(64 * 1024, 256 * 1024, writeback=False) as store:
        run_job(corpus, tier=store, tier_key="job-a")
        _, _, obs = run_job(corpus, tier=store, tier_key="job-b")
        assert obs.metrics.counters.get("tier.spill.reuse", 0) == 0


def test_lost_writeback_recomputes_before_merge(corpus):
    plain, _, _ = run_job(corpus)
    plan = FaultPlan(
        rules=(FaultRule("tier.writeback", action="drop", count=3),), seed=2
    )
    inj = FaultInjector(plan)
    with TieredStore(64 * 1024, 256 * 1024, writeback=False,
                     faults=inj) as store:
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
    with TieredStore(64 * 1024, 256 * 1024, writeback=False,
                     faults=inj, obs=obs) as store:
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
    with TieredStore(64 * 1024, 256 * 1024, writeback=False,
                     faults=inj, obs=obs) as store:
        out, _, obs = run_job(corpus, tier=store, faults=inj, obs=obs)
    ctr = obs.metrics.counters
    assert out == plain
    assert ctr["tier.read.corrupted"] == 1
    assert ctr["localmr.recompute"] >= 1


def test_capacity_starved_tier_converges_via_disk_fallback(corpus):
    """A tier too small for even one run set: every merge-side recompute
    must land on durable disk instead of thrashing the tier forever."""
    plain, _, _ = run_job(corpus)
    with TieredStore(512, 1024, writeback=False) as store:
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
    with TieredStore(64 * 1024, 256 * 1024, writeback=False,
                     faults=inj) as store:
        with pytest.raises(SpillCorruptionError):
            run_job(corpus, tier=store, faults=inj, max_retries=1)
    assert live_spill_dirs() == []


# -- LocalMapReduce wiring ----------------------------------------------------


def _map(data, emit, params):
    for token in data.split():
        emit(token, 1)


def test_engine_warm_rerun_through_tier(corpus):
    obs = Observability(enabled=False)
    with TieredStore(64 * 1024, 256 * 1024, obs=obs) as store:
        with LocalMapReduce(
            _map, combine_fn=operator.add, sort_output=True, n_workers=1,
            memory_budget=4096, tier=store, readahead=1, obs=obs,
        ) as eng:
            with LocalMapReduce(
                _map, combine_fn=operator.add, sort_output=True, n_workers=1,
                memory_budget=4096,
            ) as plain_eng:
                plain = plain_eng.run(corpus, chunk_bytes=1024).output
            cold = eng.run(corpus, chunk_bytes=1024)
            warm = eng.run(corpus, chunk_bytes=1024)
    assert cold.output == plain
    assert warm.output == plain
    assert obs.metrics.counters["tier.spill.reuse"] == cold.n_fragments
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


def test_engine_rejects_bad_knobs():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError):
        LocalMapReduce(_map, readahead=-1)
    with pytest.raises(WorkloadError):
        LocalMapReduce(_map, spill_retries=-1)
