"""Unit tests for the synthetic workload generators."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.units import MB
from repro.workloads import (
    FIG8A_SIZES,
    FIG8BC_SIZES,
    encrypted_input,
    keys_for,
    size_label,
    text_input,
    zipf_corpus,
)


def test_zipf_corpus_deterministic():
    assert zipf_corpus(10_000, seed=5) == zipf_corpus(10_000, seed=5)
    assert zipf_corpus(10_000, seed=5) != zipf_corpus(10_000, seed=6)


def test_zipf_corpus_size_close_to_target():
    data = zipf_corpus(50_000, seed=1)
    assert 45_000 <= len(data) <= 50_000


def test_zipf_corpus_is_zipfian():
    """The top word should dominate; counts decay quickly."""
    data = zipf_corpus(200_000, vocabulary=500, seed=2)
    from collections import Counter

    counts = Counter(data.split()).most_common()
    top = counts[0][1]
    tenth = counts[9][1]
    assert top > 3 * tenth  # strong head


def test_zipf_corpus_validation():
    with pytest.raises(WorkloadError):
        zipf_corpus(0)
    with pytest.raises(WorkloadError):
        zipf_corpus(100, vocabulary=0)


def test_text_input_declared_vs_payload():
    inp = text_input("/f", MB(500), payload_bytes=10_000, seed=1)
    assert inp.size == MB(500)
    assert len(inp.payload_bytes) <= 10_000
    assert inp.path == "/f"


def test_text_input_payload_capped_at_declared():
    inp = text_input("/f", declared_bytes=1000, payload_bytes=100_000, seed=1)
    assert len(inp.payload_bytes) <= 1000


def test_keys_deterministic_and_distinct():
    keys = keys_for(6, seed=9)
    assert keys == keys_for(6, seed=9)
    assert len(set(keys)) == 6


def test_encrypted_input_planted_hits_exact():
    inp, keys, planted = encrypted_input(
        "/f", MB(100), payload_bytes=50_000, hit_rate=0.3, seed=4
    )
    count = 0
    bkeys = list(keys)
    for line in inp.payload_bytes.splitlines():
        for k in bkeys:
            if k in line:
                count += 1
    assert count == planted
    assert planted > 0
    assert inp.params["keys"] == keys


def test_encrypted_input_zero_hit_rate():
    inp, keys, planted = encrypted_input(
        "/f", MB(10), payload_bytes=20_000, hit_rate=0.0, seed=4
    )
    assert planted == 0


def test_encrypted_input_validation():
    with pytest.raises(WorkloadError):
        encrypted_input("/f", 0)
    with pytest.raises(WorkloadError):
        encrypted_input("/f", MB(1), hit_rate=1.5)


def test_sweep_points_match_paper():
    assert [s // MB(1) for s in FIG8A_SIZES] == [500, 750, 1000, 1250]
    assert FIG8BC_SIZES[-1] == MB(2000)


def test_size_labels():
    assert size_label(MB(500)) == "500M"
    assert size_label(MB(1000)) == "1G"
    assert size_label(MB(1250)) == "1.25G"
    assert size_label(MB(2000)) == "2G"
