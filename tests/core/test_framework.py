"""Integration tests for the McSD programming framework (core package)."""

from __future__ import annotations

import pytest

from repro.cluster.testbed import Testbed
from repro.core import (
    AdaptivePolicy,
    AlwaysOffloadPolicy,
    ComputeJob,
    DataJob,
    HostOnlyPolicy,
    McSDProgram,
    McSDRuntime,
)
from repro.errors import ConfigError, PlacementError
from repro.units import MB
from repro.workloads import text_input


@pytest.fixture()
def bed():
    return Testbed(seed=2)


def stage_wc(bed, size=MB(300), seed=8):
    inp = text_input("/data/input", size, payload_bytes=10_000, seed=seed)
    _sd, _host, sd_path = bed.stage_on_sd("input", inp)
    return inp, sd_path


def test_program_needs_at_least_one_part():
    with pytest.raises(ConfigError):
        McSDProgram(name="empty")


def test_data_job_validation():
    with pytest.raises(ConfigError):
        DataJob(app="wordcount", input_path="/x", input_size=1, mode="weird")
    with pytest.raises(ConfigError):
        DataJob(app="wordcount", input_path="/x", input_size=-1)


def test_invoke_params_shape():
    job = DataJob(
        app="wordcount",
        input_path="/export/data/f",
        input_size=MB(100),
        fragment_bytes=MB(50),
    )
    p = job.invoke_params()
    assert p["mode"] == "partitioned"
    assert p["fragment_bytes"] == MB(50)
    assert "fragment_bytes" not in DataJob(
        app="wordcount", input_path="/x", input_size=1, mode="parallel"
    ).invoke_params()


def test_full_program_offloads_sd_part(bed):
    inp, sd_path = stage_wc(bed)
    runtime = McSDRuntime(bed.cluster)
    program = McSDProgram(
        name="pair",
        host_part=ComputeJob.matmul(n=512, payload_n=32),
        sd_part=DataJob(
            app="wordcount",
            input_path=sd_path,
            input_size=inp.size,
            params=inp.params,
        ),
    )
    result = bed.run(runtime.submit(program))
    assert result.makespan > 0
    assert result.sd_result.offloaded
    assert result.sd_result.where == "sd0"
    assert result.host_result.where == "host"
    # the word count is real
    assert sum(v for _, v in result.sd_result.output) == len(
        inp.payload_bytes.split()
    )
    # makespan covers both parts
    assert result.makespan >= max(
        result.host_result.elapsed, result.sd_result.elapsed
    ) - 1e-9


def test_sd_only_program(bed):
    inp, sd_path = stage_wc(bed)
    runtime = McSDRuntime(bed.cluster)
    program = McSDProgram(
        name="only-data",
        sd_part=DataJob(app="wordcount", input_path=sd_path, input_size=inp.size),
    )
    result = bed.run(runtime.submit(program))
    assert result.host_result is None
    assert result.sd_result is not None
    assert runtime.programs_run == 1


def test_host_only_policy_pulls_data_over_nfs(bed):
    inp, sd_path = stage_wc(bed)
    runtime = McSDRuntime(bed.cluster, policy=HostOnlyPolicy())
    program = McSDProgram(
        name="hostish",
        sd_part=DataJob(
            app="wordcount", input_path=sd_path, input_size=inp.size, mode="parallel"
        ),
    )
    before = bed.cluster.mount().bytes_read
    result = bed.run(runtime.submit(program))
    assert not result.sd_result.offloaded
    assert result.sd_result.where == "host"
    # the input actually crossed the NFS mount
    assert bed.cluster.mount().bytes_read >= before + inp.size
    assert runtime.engine.host_runs == 1


def test_offload_vs_host_elapsed_ranks_correctly(bed):
    """Offloading to the duo SD beats pulling the data to the host only
    when the host is busy; an idle quad host wins on raw CPU.  We check
    both runs complete and the framework reports where each ran."""
    inp, sd_path = stage_wc(bed, size=MB(400))
    offload_rt = McSDRuntime(bed.cluster, policy=AlwaysOffloadPolicy())
    host_rt = McSDRuntime(bed.cluster, policy=HostOnlyPolicy())

    def job():
        return McSDProgram(
            name="j",
            sd_part=DataJob(
                app="wordcount",
                input_path=sd_path,
                input_size=inp.size,
                mode="parallel",
            ),
        )

    r1 = bed.run(offload_rt.submit(job()))
    r2 = bed.run(host_rt.submit(job()))
    assert r1.sd_result.where == "sd0"
    assert r2.sd_result.where == "host"
    assert dict(r1.sd_result.output) == dict(r2.sd_result.output)


def test_adaptive_policy_prefers_idle_sd(bed):
    inp, sd_path = stage_wc(bed)
    policy = AdaptivePolicy()
    job = DataJob(app="wordcount", input_path=sd_path, input_size=inp.size)
    placement = policy.place(job, bed.cluster)
    assert placement.offload


def test_adaptive_policy_sheds_to_host_when_sd_busy(bed):
    inp, sd_path = stage_wc(bed)
    policy = AdaptivePolicy()
    # saturate the SD CPU with synthetic load
    for i in range(8):
        bed.sd.cpu.submit(1e12, name=f"hog{i}")
    job = DataJob(app="wordcount", input_path=sd_path, input_size=inp.size)
    placement = policy.place(job, bed.cluster)
    assert not placement.offload
    assert placement.node == "host"


def test_unknown_sd_node_rejected(bed):
    policy = AlwaysOffloadPolicy()
    job = DataJob(app="wordcount", input_path="/export/x", input_size=1, sd_node="ghost")
    with pytest.raises(PlacementError):
        policy.place(job, bed.cluster)


def test_concurrent_programs_share_cluster(bed):
    inp, sd_path = stage_wc(bed)
    runtime = McSDRuntime(bed.cluster)

    def both():
        p1 = runtime.submit(
            McSDProgram(
                name="a",
                sd_part=DataJob(
                    app="wordcount", input_path=sd_path, input_size=inp.size
                ),
            )
        )
        p2 = runtime.submit(
            McSDProgram(
                name="b",
                host_part=ComputeJob.matmul(n=256, payload_n=16),
            )
        )
        res = yield bed.sim.all_of([p1, p2])
        return list(res.values())

    results = bed.run(both())
    assert len(results) == 2
    assert runtime.programs_run == 2
