"""Edge cases of the offload engine and scatter internals."""

from __future__ import annotations

import pytest

from repro.cluster import Testbed
from repro.core import DataJob, OffloadEngine, Placement
from repro.core.offload import _spec_for
from repro.errors import OffloadError
from repro.faults import FaultPlan, FaultRule
from repro.units import MB
from repro.workloads import text_input


@pytest.fixture()
def bed():
    return Testbed(seed=61)


def test_host_path_requires_export_resident_input(bed):
    engine = OffloadEngine(bed.cluster)
    job = DataJob(app="wordcount", input_path="/somewhere/else", input_size=MB(10))

    def go():
        yield engine.run(
            job, Placement(node=bed.host.name, offload=False, reason="test")
        )

    with pytest.raises(OffloadError, match="not under the SD export"):
        bed.run(go())


def test_offload_to_unknown_channel_rejected(bed):
    engine = OffloadEngine(bed.cluster)
    job = DataJob(app="wordcount", input_path="/export/data/x", input_size=MB(10))

    def go():
        yield engine.run(job, Placement(node="sd9", offload=True, reason="test"))

    with pytest.raises(OffloadError, match="channel"):
        bed.run(go())


def test_spec_for_unknown_app():
    with pytest.raises(OffloadError):
        _spec_for(DataJob(app="sorting", input_path="/export/x", input_size=1))


def test_spec_for_matmul_uses_n_param():
    spec = _spec_for(
        DataJob(app="matmul", input_path="/export/x", input_size=1, params={"n": 256})
    )
    assert spec.profile.n == 256


def test_inflight_tracking_returns_to_zero(bed):
    inp = text_input("/data/f", MB(100), payload_bytes=4_000, seed=61)
    _s, _h, sd_path = bed.stage_on_sd("f", inp)
    engine = OffloadEngine(bed.cluster)
    job = DataJob(app="wordcount", input_path=sd_path, input_size=MB(100), mode="parallel")

    def go():
        proc = engine.run(job, Placement(node="sd0", offload=True, reason="t"))
        # while in flight, the counter is up
        assert engine.inflight.get("sd0") == 1
        yield proc

    bed.run(go())
    assert engine.inflight["sd0"] == 0
    assert engine.offloaded == 1


def test_inflight_decrements_on_failure(bed):
    bed.sim.install_faults(FaultPlan(rules=(
        FaultRule("fam.module", action="fail", count=1,
                  where={"node": "sd0", "module": "wordcount"}),
    )))
    inp = text_input("/data/f", MB(50), payload_bytes=2_000, seed=62)
    _s, _h, sd_path = bed.stage_on_sd("f", inp)
    engine = OffloadEngine(bed.cluster)
    job = DataJob(app="wordcount", input_path=sd_path, input_size=MB(50), mode="parallel")

    def go():
        try:
            yield engine.run(job, Placement(node="sd0", offload=True, reason="t"))
        except Exception:
            pass

    bed.run(go())
    assert engine.inflight["sd0"] == 0
