"""Integration tests: the full smartFAM invocation path (Fig 5)."""

from __future__ import annotations

import pytest

from repro.cluster.testbed import Testbed
from repro.config import table1_cluster
from repro.errors import ModuleNotRegisteredError, SmartFAMError
from repro.smartfam.registry import ModuleRegistry, standard_registry
from repro.phoenix.api import InputSpec
from repro.units import KB, MB
from repro.workloads import text_input


@pytest.fixture()
def bed():
    return Testbed(seed=1)


def test_invoke_wordcount_returns_real_result(bed):
    inp = text_input("/data/input", MB(200), payload_bytes=20_000, seed=2)
    _sd, _host, sd_path = bed.stage_on_sd("input", inp)
    channel = bed.cluster.channel()

    def proc():
        result = yield channel.invoke(
            "wordcount",
            {"input_path": sd_path, "input_size": MB(200), "mode": "partitioned"},
        )
        return result

    result = bed.run(proc())
    assert sum(v for _, v in result.output) == len(inp.payload_bytes.split())
    assert channel.calls == 1
    assert bed.cluster.sd_daemons[bed.sd.name].invocations == 1


def test_invoke_unknown_module_raises_on_host(bed):
    def proc():
        try:
            yield bed.cluster.channel().invoke("nonexistent", {"input_path": "/x"})
        except SmartFAMError as exc:
            return str(exc)

    # the daemon only watches registered modules' logs, so the host would
    # wait forever; the channel itself must reject unknown modules early
    # via the registry on the SD side -> we check the registry directly
    reg = standard_registry()
    with pytest.raises(ModuleNotRegisteredError):
        reg.get("nonexistent")


def test_module_error_propagates_to_host(bed):
    def proc():
        try:
            yield bed.cluster.channel().invoke(
                "wordcount", {"input_path": "/export/data/ghost", "mode": "parallel"}
            )
        except Exception as exc:
            return type(exc).__name__

    assert bed.run(proc()) in ("FileNotFoundInVFS", "SmartFAMError")


def test_invocations_serialize_per_module(bed):
    inp = text_input("/data/input", MB(100), payload_bytes=5_000, seed=3)
    _sd, _host, sd_path = bed.stage_on_sd("input", inp)
    channel = bed.cluster.channel()
    spans = []

    def one_call():
        t0 = bed.sim.now
        yield channel.invoke(
            "wordcount",
            {"input_path": sd_path, "input_size": MB(100), "mode": "parallel"},
        )
        spans.append((t0, bed.sim.now))

    def proc():
        calls = [bed.sim.spawn(one_call()) for _ in range(2)]
        yield bed.sim.all_of(calls)

    bed.run(proc())
    assert len(spans) == 2
    # The module ran twice; the log-file channel serialized the calls, so
    # completions are distinct instants.
    ends = sorted(end for _, end in spans)
    assert ends[1] > ends[0]
    assert bed.cluster.sd_daemons[bed.sd.name].invocations == 2


def test_different_modules_run_concurrently(bed):
    text = text_input("/data/t", MB(150), payload_bytes=5_000, seed=4)
    _sd, _host, text_path = bed.stage_on_sd("t", text)
    from repro.workloads import encrypted_input

    enc, keys, _ = encrypted_input("/data/e", MB(150), payload_bytes=5_000, seed=4)
    _sd2, _host2, enc_path = bed.stage_on_sd("e", enc)
    channel = bed.cluster.channel()
    done = {}

    def call(module, path, params):
        t0 = bed.sim.now
        yield channel.invoke(module, params)
        done[module] = (t0, bed.sim.now)

    def proc():
        a = bed.sim.spawn(
            call(
                "wordcount",
                text_path,
                {"input_path": text_path, "mode": "parallel"},
            )
        )
        b = bed.sim.spawn(
            call(
                "stringmatch",
                enc_path,
                {
                    "input_path": enc_path,
                    "mode": "parallel",
                    "app": {"keys": keys},
                },
            )
        )
        yield bed.sim.all_of([a, b])

    bed.run(proc())
    (wc0, wc1), (sm0, sm1) = done["wordcount"], done["stringmatch"]
    # overlap: one started before the other finished
    assert max(wc0, sm0) < min(wc1, sm1)


def test_offload_overhead_is_small(bed):
    """The log-file channel should cost well under a second per call."""
    from repro.phoenix import PhoenixRuntime

    inp = text_input("/data/input", MB(100), payload_bytes=5_000, seed=5)
    sd_view, _host, sd_path = bed.stage_on_sd("input", inp)
    channel = bed.cluster.channel()
    rt = PhoenixRuntime(bed.sd, bed.config.phoenix)

    def proc():
        t0 = bed.sim.now
        direct = yield rt.run(
            bed_spec(), sd_view, mode="parallel", write_output=False
        )
        direct_t = bed.sim.now - t0
        t0 = bed.sim.now
        yield channel.invoke(
            "wordcount",
            {"input_path": sd_path, "input_size": MB(100), "mode": "parallel"},
        )
        offload_t = bed.sim.now - t0
        return direct_t, offload_t

    def bed_spec():
        from repro.apps import make_wordcount_spec

        return make_wordcount_spec()

    direct_t, offload_t = bed.run(proc())
    assert offload_t - direct_t < 1.0


def test_registry_rejects_bad_names():
    reg = ModuleRegistry()
    with pytest.raises(SmartFAMError):
        reg.register("", lambda n, p, c: None)
    with pytest.raises(SmartFAMError):
        reg.register("a/b", lambda n, p, c: None)


def test_standard_registry_contents():
    reg = standard_registry()
    assert set(reg.names()) == {
        "wordcount", "stringmatch", "matmul",
        "dist_map", "dist_merge",
    }
    assert "wordcount" in reg


def test_late_write_reply_cannot_hide_the_result():
    """The INVOKE write's own reply is the result wait's baseline.

    A 1.7 GB NFS read fills the host's downlink, so the reply to each
    call's INVOKE write comes late.  The daemon, watching the log on its
    own disk, may have written the RESULT by then: a getattr sent after
    the reply took the RESULT's mtime as the baseline, saw no change, and
    polled until the 60 s deadline (and calls queued behind it on the
    module's log waited 48-60 s).  The write reply's post-op mtime predates
    the RESULT, so every call returns once the read drains.
    """
    bed = Testbed(config=table1_cluster(n_sd=1, seed=3), seed=3)
    _sd, _host, big_path = bed.stage_on_sd("big", InputSpec(path="/big", size=MB(1700)))
    inp = text_input("/data/s", KB(20), payload_bytes=KB(20), seed=3)
    _sd, _host, sd_path = bed.stage_on_sd("s", inp)
    channel = bed.cluster.channel()
    sim = bed.sim
    waits: list[float] = []
    totals: list[int] = []

    def call():
        t0 = sim.now
        result = yield channel.invoke(
            "wordcount",
            {"input_path": sd_path, "input_size": KB(20), "mode": "parallel",
             "app": {}},
            timeout=60.0,
        )
        waits.append(sim.now - t0)
        totals.append(sum(v for _, v in result.output))

    def driver():
        calls = [bed.cluster.mount().read(big_path[len("/export"):])]
        yield sim.timeout(0.3)
        for _ in range(40):
            calls.append(sim.spawn(call(), name="call"))
            yield sim.timeout(0.37)
        yield sim.all_of(calls)

    bed.run(driver())
    assert len(waits) == 40
    assert max(waits) < 30.0
    assert totals == [len(inp.payload_bytes.split())] * 40
