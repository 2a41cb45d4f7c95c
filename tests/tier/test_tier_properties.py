"""Property: the burst tier never changes an answer, only its cost.

The tentpole correctness claim as a hypothesis property: for any random
corpus, any small tier geometry, and any random fault plan over the
``tier.*`` sites (dropped write-backs, failed or corrupted warm reads,
wedged evictions), an out-of-core run that spills through the tier
produces byte-for-byte the same sorted output as a tier-less, fault-free
run over the same input.  Loss degrades to recompute, corruption is
caught by the spill crc, and capacity starvation falls back to durable
disk — none of it may leak into the result.
"""

from __future__ import annotations

import operator
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.exec.chunks import chunk_file, drop_cached_handle, read_chunk_cached
from repro.exec.outofcore import live_spill_dirs, run_out_of_core
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.obs import Observability
from repro.tier import TieredStore, live_tier_dirs

_SITES = ("tier.read", "tier.writeback", "tier.evict")
_ACTIONS = ("drop", "fail", "corrupt")

_rule = st.builds(
    FaultRule,
    st.sampled_from(_SITES),
    action=st.sampled_from(_ACTIONS),
    count=st.integers(min_value=1, max_value=2),
    after=st.integers(min_value=0, max_value=4),
)

_plan = st.builds(
    FaultPlan,
    rules=st.lists(_rule, min_size=1, max_size=3).map(tuple),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

_corpus = st.lists(
    st.sampled_from("ab cd efg hij klmno pq r stu vwx yz".split()),
    min_size=60,
    max_size=400,
)


def _wc(fragment):
    counts: dict = {}
    for c in fragment:
        for w in read_chunk_cached(c).split():
            counts[w] = counts.get(w, 0) + 1
    return counts


def _run(path, budget, tier=None, faults=None):
    out, _, _ = run_out_of_core(
        chunk_file(path, 256), _wc, operator.add, None, True, {}, budget,
        Observability(enabled=False), faults=faults, max_retries=8,
        tier=tier, tier_key="prop",
    )
    return out


@settings(max_examples=25, deadline=None)
@given(
    words=_corpus,
    plan=_plan,
    mem=st.integers(min_value=256, max_value=8192),
    ssd_mult=st.integers(min_value=1, max_value=8),
    budget=st.integers(min_value=512, max_value=4096),
)
def test_tiered_faulty_run_equals_plain_run(words, plan, mem, ssd_mult, budget):
    with tempfile.TemporaryDirectory(prefix="tierprop-") as d:
        path = os.path.join(d, "corpus")
        with open(path, "wb") as f:
            f.write(" ".join(words).encode())
        expected = _run(path, budget)
        inj = FaultInjector(plan)
        with TieredStore(mem, mem * ssd_mult, writeback=False,
                         faults=inj) as store:
            got = _run(path, budget, tier=store, faults=inj)
        drop_cached_handle(path)  # the corpus dir vanishes with this example
    assert got == expected
    assert live_spill_dirs() == []
    assert live_tier_dirs() == []
