"""Tests for host-side module discovery over NFS."""

from __future__ import annotations

from repro.cluster import Testbed
from repro.smartfam.registry import mapreduce_module, standard_registry


def test_list_modules_matches_registry():
    bed = Testbed(seed=51)

    def go():
        return (yield bed.cluster.channel().list_modules())

    assert bed.run(go()) == [
        "dist_map", "dist_merge",
        "matmul", "stringmatch", "wordcount",
    ]


def test_list_modules_sees_extensions():
    from repro.apps.dbselect import make_dbselect_spec

    registry = standard_registry()
    registry.register("dbselect", mapreduce_module(lambda p: make_dbselect_spec()))
    bed = Testbed(registry=registry, seed=52)

    def go():
        return (yield bed.cluster.channel().list_modules())

    assert "dbselect" in bed.run(go())


def test_discovery_is_one_readdir():
    bed = Testbed(seed=53)
    client = bed.cluster.mount().client
    before = client.rpcs

    def go():
        return (yield bed.cluster.channel().list_modules())

    bed.run(go())
    assert client.rpcs == before + 1
