"""Tests for the real engine's readahead hints."""

from __future__ import annotations

import os

import pytest

from repro.exec.chunks import FileChunk, chunk_file
from repro.obs import Observability
from repro.tier import ReadaheadPrefetcher

pytestmark = pytest.mark.skipif(
    not hasattr(os, "posix_fadvise"), reason="readahead hints need posix_fadvise"
)


@pytest.fixture()
def fragments(tmp_path):
    p = tmp_path / "input"
    p.write_bytes(b"word " * 4000)  # 20 000 bytes
    chunks = chunk_file(str(p), 4096)
    # one chunk per fragment: a simple, observable schedule
    return [[c] for c in chunks]


def advise(fragments, depth, *indices):
    obs = Observability(enabled=False)
    pf = ReadaheadPrefetcher(fragments, depth=depth, obs=obs)
    for i in indices:
        pf.advise(i)
    return obs.metrics.counters


def test_advise_prefetches_the_next_fragment(fragments):
    ctr = advise(fragments, 1, 0)
    assert ctr["tier.prefetch.issued"] == 1
    assert ctr["tier.prefetch.bytes"] == sum(c.length for c in fragments[1])


def test_depth_covers_multiple_fragments(fragments):
    assert advise(fragments, 2, 0)["tier.prefetch.issued"] == 2


def test_fragments_are_prefetched_once(fragments):
    # a duplicate advise must not hint the same fragment again
    assert advise(fragments, 1, 0, 0)["tier.prefetch.issued"] == 1


def test_last_fragment_has_nothing_to_prefetch(fragments):
    assert "tier.prefetch.issued" not in advise(fragments, 1, len(fragments) - 1)


def test_depth_zero_is_a_noop(fragments):
    assert "tier.prefetch.issued" not in advise(fragments, 0, 0)


def test_negative_depth_rejected(fragments):
    with pytest.raises(ValueError):
        ReadaheadPrefetcher(fragments, depth=-1)


def test_counters_reach_observability(fragments):
    ctr = advise(fragments, 1, 0, 1)
    assert ctr["tier.prefetch.issued"] == 2
    assert ctr["tier.prefetch.bytes"] == sum(
        c.length for frag in fragments[1:3] for c in frag
    )


def test_missing_file_is_counted_not_raised(tmp_path):
    ghost = [[FileChunk(str(tmp_path / "nope"), 0, 100)]] * 2
    ctr = advise(ghost, 1, 0)
    assert ctr["tier.prefetch.failed"] == 1
    assert "tier.prefetch.issued" not in ctr
