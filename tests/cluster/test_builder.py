"""Integration tests for cluster assembly, the testbed and SMB traffic."""

from __future__ import annotations

import pytest

from repro.cluster import Testbed, build_cluster
from repro.config import NodeConfig, ClusterConfig, DUO_E4400, NodeRole, table1_cluster
from repro.errors import ConfigError
from repro.units import KB, MB, msec
from repro.workloads import text_input


def test_build_cluster_wiring():
    cluster = build_cluster(table1_cluster())
    assert cluster.host.name == "host"
    assert [n.name for n in cluster.sd_nodes] == ["sd0"]
    assert len(cluster.compute_nodes) == 3
    assert "sd0" in cluster.host_channels
    assert cluster.smb is None


def test_build_requires_exactly_one_host():
    cfg = ClusterConfig(nodes=(NodeConfig("only-sd", DUO_E4400, role=NodeRole.SD),))
    with pytest.raises(ConfigError):
        build_cluster(cfg)


def test_sd_export_prepared():
    cluster = build_cluster(table1_cluster())
    sd = cluster.sd(0)
    assert sd.fs.exists("/export")
    assert sd.fs.exists("/export/sdlog")
    # one preloaded log file per standard module (apps + distributed plane)
    assert sorted(sd.fs.vfs.listdir("/export/sdlog")) == [
        "dist_map.log",
        "dist_merge.log",
        "matmul.log",
        "stringmatch.log",
        "wordcount.log",
    ]


def test_host_mounts_sd_export():
    cluster = build_cluster(table1_cluster())
    fs, rel = cluster.host.resolve_fs("/mnt/sd0/sdlog/wordcount.log")
    assert fs is cluster.mount()
    assert rel == "/sdlog/wordcount.log"


def test_compute_nodes_mount_host_share():
    cluster = build_cluster(table1_cluster())
    comp = cluster.compute_nodes[0]
    fs, rel = comp.resolve_fs("/mnt/host/some/file")
    assert fs is not comp.fs


def test_testbed_stage_roundtrip():
    bed = Testbed(seed=0)
    inp = text_input("/data/x", MB(50), payload_bytes=2_000, seed=1)
    sd_view, host_view, sd_path = bed.stage_on_sd("x", inp)
    assert sd_path == "/export/data/x"
    assert bed.sd.fs.size_of(sd_path) == MB(50)
    assert host_view.path == "/mnt/sd0/data/x"
    # host can read the bytes through NFS
    def proc():
        fs, rel = bed.host.resolve_fs(host_view.path)
        data = yield fs.read(rel)
        return data

    assert bed.run(proc()) == inp.payload_bytes


def test_smb_traffic_flows_between_participants():
    bed = Testbed(with_smb=True, seed=0)

    def idle():
        yield bed.sim.timeout(1.0)

    bed.run(idle())
    smb = bed.cluster.smb
    assert smb is not None
    assert smb.messages_sent > 10
    # SMB runs among host + compute nodes, never touching the SD node
    sd_pairs = [pair for pair in bed.cluster.fabric.pair_messages if "sd0" in pair]
    assert not sd_pairs
    smb.stop()


def test_smb_custom_intensity():
    bed = Testbed(with_smb=True, smb_params={"message_bytes": KB(4), "interval": msec(5)}, seed=0)

    def idle():
        yield bed.sim.timeout(0.5)

    bed.run(idle())
    assert bed.cluster.smb.message_bytes == KB(4)
    assert bed.cluster.smb.messages_sent > 50


def test_smb_validation():
    from repro.apps.smb import SMBTraffic
    from repro.errors import ConfigError

    bed = Testbed(seed=0)
    with pytest.raises(ConfigError):
        SMBTraffic([bed.host])
    with pytest.raises(ConfigError):
        SMBTraffic([bed.host, bed.sd], message_bytes=0)


def test_builds_are_deterministic():
    def fingerprint():
        bed = Testbed(with_smb=True, seed=42)

        def idle():
            yield bed.sim.timeout(2.0)

        bed.run(idle())
        return (
            bed.cluster.smb.messages_sent,
            bed.sim.processed_events,
            round(bed.sim.now, 9),
        )

    assert fingerprint() == fingerprint()
