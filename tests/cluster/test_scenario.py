"""Integration tests for the Fig 8/9/10 scenario drivers."""

from __future__ import annotations

import pytest

from repro.cluster.scenario import (
    PAIR_SCENARIOS,
    make_data_app,
    run_pair_scenario,
    run_single_app,
)
from repro.errors import ConfigError
from repro.units import MB


def test_make_data_app_wordcount():
    spec, inp = make_data_app("wordcount", MB(100))
    assert spec.name == "wordcount"
    assert inp.size == MB(100)
    assert inp.payload_bytes


def test_make_data_app_stringmatch_has_keys():
    spec, inp = make_data_app("stringmatch", MB(100))
    assert inp.params["keys"]


def test_make_data_app_unknown():
    with pytest.raises(ConfigError):
        make_data_app("sorting", MB(1))


def test_single_app_approaches_ordering():
    size = MB(400)
    seq = run_single_app("wordcount", size, "duo", "sequential")
    par = run_single_app("wordcount", size, "duo", "parallel")
    part = run_single_app("wordcount", size, "duo", "partitioned")
    assert seq.supported and par.supported and part.supported
    # at a comfortable size: parallel ~ partitioned < sequential
    assert par.elapsed < seq.elapsed
    assert part.elapsed < seq.elapsed
    assert part.elapsed == pytest.approx(par.elapsed, rel=0.15)


def test_single_app_oom_reported_as_unsupported():
    r = run_single_app("wordcount", MB(1750), "duo", "parallel")
    assert not r.supported
    assert r.elapsed is None
    assert "wordcount" in r.failure


def test_single_app_partitioned_reports_fragments():
    r = run_single_app("wordcount", MB(1000), "duo", "partitioned")
    assert r.fragments > 1


def test_single_app_unknown_platform_and_approach():
    with pytest.raises(ConfigError):
        run_single_app("wordcount", MB(1), "octo")
    with pytest.raises(ConfigError):
        run_single_app("wordcount", MB(1), "duo", "quantum")


def test_pair_scenario_all_variants_run():
    size = MB(500)
    for scenario in PAIR_SCENARIOS:
        r = run_pair_scenario(scenario, "stringmatch", size)
        assert r.supported, scenario
        assert r.makespan >= max(r.mm_elapsed, r.data_elapsed) - 1e-9
        assert r.scenario == scenario


def test_pair_scenario_unknown_rejected():
    with pytest.raises(ConfigError):
        run_pair_scenario("warp-drive", "wordcount", MB(1))


def test_pair_mcsd_beats_trad_sd():
    size = MB(750)
    mcsd = run_pair_scenario("mcsd", "wordcount", size)
    trad = run_pair_scenario("trad-sd", "wordcount", size)
    assert trad.makespan / mcsd.makespan > 1.5


def test_pair_results_deterministic():
    a = run_pair_scenario("mcsd", "wordcount", MB(500), seed=3)
    b = run_pair_scenario("mcsd", "wordcount", MB(500), seed=3)
    assert a.makespan == b.makespan


def test_host_part_beats_host_only_at_large_size():
    """The Fig 9 caption's Host-part variant: partitioning helps the host too."""
    size = MB(1250)
    host_only = run_pair_scenario("host-only", "wordcount", size)
    host_part = run_pair_scenario("host-part", "wordcount", size)
    assert host_part.makespan < host_only.makespan



def test_pair_phoenix_past_memory_limit_is_unsupported():
    # Section V-B: original Phoenix on the SD fails past the memory limit,
    # and that typed failure must cross the smartFAM log file intact
    r = run_pair_scenario("mcsd-nopart", "wordcount", MB(1750))
    assert not r.supported
    assert "Phoenix cannot support wordcount" in r.failure
    assert "supportable fraction" in r.failure
