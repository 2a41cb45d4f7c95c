"""Tests for the SMB routine-work traffic generator."""

from __future__ import annotations

import pytest

from repro.apps.smb import SMBTraffic
from repro.cluster import Testbed
from repro.errors import ConfigError
from repro.units import KB, msec


@pytest.fixture()
def bed():
    return Testbed(seed=71)


def run_for(bed, seconds):
    def idle():
        yield bed.sim.timeout(seconds)

    bed.run(idle())


def test_ring_pattern_covers_all_participants(bed):
    participants = [bed.host, *bed.cluster.compute_nodes]
    smb = SMBTraffic(participants, message_bytes=KB(16), interval=msec(10))
    smb.start()
    run_for(bed, 1.0)
    smb.stop()
    fab = bed.cluster.fabric
    names = [n.name for n in participants]
    ring = set(zip(names, names[1:] + names[:1]))
    assert ring <= set(fab.pair_messages)
    for pair in ring:
        assert fab.pair_bytes[pair] == fab.pair_messages[pair] * KB(16)


def test_every_sent_message_is_received(bed):
    participants = [bed.host, *bed.cluster.compute_nodes]
    smb = SMBTraffic(participants, message_bytes=KB(16), interval=msec(10))
    smb.start()
    run_for(bed, 1.0)
    smb.stop()
    run_for(bed, 1.0)  # drain the in-flight round
    assert smb.messages_sent > len(participants)
    assert smb.messages_received == smb.messages_sent


def test_start_is_idempotent(bed):
    smb = SMBTraffic([bed.host, bed.cluster.compute_nodes[0]])
    smb.start()
    smb.start()  # second start must not double the senders
    run_for(bed, 0.5)
    smb.stop()
    first = smb.messages_sent
    # one sender per participant: with interval ~20ms over 0.5s, roughly
    # 2 * 25 messages; a doubled start would have sent ~2x that
    assert first < 80


def test_stop_halts_traffic(bed):
    smb = SMBTraffic([bed.host, bed.cluster.compute_nodes[0]], interval=msec(10))
    smb.start()
    run_for(bed, 0.5)
    smb.stop()
    at_stop = smb.messages_sent
    run_for(bed, 1.0)
    assert smb.messages_sent <= at_stop + 2  # at most in-flight rounds


def test_jitter_bounds(bed):
    smb = SMBTraffic(
        [bed.host, bed.cluster.compute_nodes[0]],
        interval=msec(20),
        jitter=5.0,  # clamped to 1.0
    )
    assert smb.jitter == 1.0


def test_messages_are_seeded_deterministic():
    def run():
        bed = Testbed(with_smb=True, seed=99)

        def idle():
            yield bed.sim.timeout(2.0)

        bed.run(idle())
        return bed.cluster.smb.messages_sent

    assert run() == run()


def test_validation(bed):
    with pytest.raises(ConfigError):
        SMBTraffic([bed.host])
    with pytest.raises(ConfigError):
        SMBTraffic([bed.host, bed.sd], interval=0)
