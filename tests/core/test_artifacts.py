"""Durable shuffle artifacts: framing, verification, manifest lifecycle."""

from __future__ import annotations

import pytest

from repro.core.artifacts import (
    FRAME,
    AttemptManifest,
    corrupt_artifact,
    pack_artifact,
    unpack_artifact,
)
from repro.errors import ShuffleArtifactError
from repro.exec.outofcore import _BLOCK_HEADER


def test_frame_matches_spill_format():
    # one durable framing convention across the repo: the shuffle frame IS
    # the PR-4 spill frame (<length:u32><crc32:u32>)
    assert FRAME.format == _BLOCK_HEADER.format
    assert FRAME.size == _BLOCK_HEADER.size


def test_roundtrip():
    obj = [("word", 3), ("count", 7), {"nested": [1, 2, 3]}]
    blob = pack_artifact(obj)
    assert unpack_artifact(blob, path="/x/y") == obj


def test_corrupt_payload_detected():
    blob = pack_artifact({"k": list(range(50))})
    bad = corrupt_artifact(blob)
    assert bad != blob and len(bad) == len(blob)
    with pytest.raises(ShuffleArtifactError) as ei:
        unpack_artifact(bad, path="/shuffle/part1", shard=0)
    assert ei.value.retryable
    assert ei.value.shard == 0


def test_truncated_frame_detected():
    blob = pack_artifact([1, 2, 3])
    for cut in (0, FRAME.size - 1, FRAME.size, len(blob) - 1):
        with pytest.raises(ShuffleArtifactError):
            unpack_artifact(blob[:cut], path="/p")


def _manifest():
    m = AttemptManifest()
    m.register_map(0, "sd0", {"parts": [{"index": 0, "path": "/s/part0", "bytes": 10},
                                        {"index": 1, "path": "/s/part1", "bytes": 20}]})
    m.register_map(1, "sd1", {"parts": [{"index": 2, "path": "/s/part2", "bytes": 30},
                                        {"index": 3, "path": "/s/part3", "bytes": 40}]})
    m.gathered[("sd0", 2)] = "/s/final/part2"   # shard 1's parts copied to sd0
    m.gathered[("sd0", 3)] = "/s/final/part3"
    m.gathered[("sd1", 0)] = "/s/final/part0"   # shard 0's part 0 copied to sd1
    return m


def test_invalidate_node_keeps_committed_maps_and_live_copies():
    m = _manifest()
    m.invalidate_node("sd1")
    # a kill crashes the daemon, not the disk: sd1's COMMITTED map artifact
    # survives (host-readable, crc-verified on read)
    assert 1 in m.maps and 0 in m.maps
    # the copy gathered TO sd1 is gone (the merge moves to a live node);
    # the copies of sd1's parts held on live sd0 are KEPT — a
    # deterministic re-map regenerates identical bytes, so the transfers
    # need not repeat
    assert ("sd1", 0) not in m.gathered
    assert ("sd0", 2) in m.gathered and ("sd0", 3) in m.gathered


def test_invalidate_shard_drops_its_buckets_everywhere():
    m = _manifest()
    m.invalidate_shard(1)
    assert 1 not in m.maps and 0 in m.maps
    # every gathered copy of shard 1's parts goes with it
    assert ("sd0", 2) not in m.gathered and ("sd0", 3) not in m.gathered
    assert ("sd1", 0) in m.gathered              # shard 0's copy untouched


def test_invalidate_artifact_routes_by_exception():
    m = _manifest()
    m.invalidate_artifact(ShuffleArtifactError("/s/final/part2", shard=1))
    assert 1 not in m.maps and 0 in m.maps
    assert ("sd0", 2) not in m.gathered and ("sd1", 0) in m.gathered

    m2 = _manifest()
    # no attribution at all: conservative full invalidation
    m2.invalidate_artifact(ShuffleArtifactError("/s/unknown"))
    assert not m2.maps and not m2.gathered


def test_summary_counts():
    assert _manifest().summary() == {"maps": 2, "gathered": 3}
