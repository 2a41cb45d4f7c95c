"""Property: fine-grained recovery never changes a distributed answer.

The partial-restart correctness claim as a hypothesis property: for any
random schedule of one or two faults — node kills and stalls landing in
the map, gather, or merge phase — the engine's output is byte-identical
to the clean run's, because surviving shuffle artifacts are reused and
only the dead node's work is re-derived.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.apps.matmul import assemble_product, matmul_input
from repro.cluster.testbed import Testbed
from repro.config import table1_cluster
from repro.core import DistributedEngine, DistributedJob
from repro.faults import FaultPlan, FaultRule
from repro.phoenix import InputSpec
from repro.units import MB

_TIMEOUT = 3600.0
_WORDS = b"alpha beta gamma delta with z " * 120


def _flat_pairs(out: object) -> list:
    pairs: list = []

    def walk(x: object) -> None:
        if isinstance(x, tuple) and len(x) == 2:
            pairs.append(x)
        elif isinstance(x, list):
            for y in x:
                walk(y)

    walk(out)
    return pairs


def _canonical(app: str, output: object) -> bytes:
    if app == "matmul":
        return pickle.dumps(assemble_product(_flat_pairs(output)).tolist())
    return pickle.dumps(output)


def _inp(app: str) -> tuple[InputSpec, dict]:
    if app == "matmul":
        return matmul_input("/data/prop", 64, payload_n=16, seed=1), {"n": 64}
    return InputSpec(path="/data/prop", size=MB(8), payload=_WORDS), {}


def _bed():
    return Testbed(config=table1_cluster(n_sd=4, seed=0), seed=0)


def _job(app: str, sd_path: str, inp: InputSpec, params: dict) -> DistributedJob:
    return DistributedJob(
        app=app, input_path=sd_path, input_size=inp.size, n_shards=4,
        fragment_bytes=(inp.size + 3) // 4, params=params,
    )


def _kill_time(phase: str, timeline: dict) -> float:
    if phase == "map":
        return timeline["map_done"] * 0.5
    if phase == "gather":
        return (timeline["map_done"] + timeline["gather_done"]) / 2
    return (timeline["gather_done"] + timeline["merge_done"]) / 2


def _delay_rule(phase: str, victim: str) -> FaultRule:
    if phase == "gather":
        return FaultRule(
            "shuffle.exchange", action="delay", count=1, delay=0.2,
            where={"src": victim},
        )
    module = "dist_map" if phase == "map" else "dist_merge"
    return FaultRule(
        "fam.dispatch", action="delay", count=1, delay=0.4,
        where={"module": module, "node": victim},
    )


fault_st = st.tuples(
    st.sampled_from(["map", "gather", "merge"]),
    st.sampled_from(["kill", "delay"]),
    st.integers(min_value=0, max_value=3),
)


@given(
    app=st.sampled_from(["wordcount", "stringmatch", "matmul"]),
    faults=st.lists(fault_st, min_size=1, max_size=2),
)
@settings(max_examples=8, deadline=None)
def test_property_partial_restart_is_transparent(app, faults):
    inp, params = _inp(app)

    bed = _bed()
    _, sd_path = bed.stage_replicated("prop", inp)
    eng = DistributedEngine(bed.cluster)
    clean = bed.run(eng.run(_job(app, sd_path, inp, params), timeout=_TIMEOUT))
    want = _canonical(app, clean.output)
    nodes = list(clean.shard_nodes)

    # keep at least two survivors: cap the distinct kill victims at two
    kills: list[tuple[float, str]] = []
    rules: list[FaultRule] = []
    for phase, kind, vi in faults:
        victim = nodes[vi % len(nodes)]
        if kind == "kill":
            if len({v for _, v in kills} | {victim}) > 2:
                continue
            kills.append((_kill_time(phase, clean.timeline), victim))
        else:
            rules.append(_delay_rule(phase, victim))

    bed2 = _bed()
    _, path2 = bed2.stage_replicated("prop", inp)
    if rules:
        bed2.sim.install_faults(FaultPlan(rules=tuple(rules)))
    eng2 = DistributedEngine(bed2.cluster)

    def killer(at: float, victim: str):
        yield bed2.sim.timeout(at)
        bed2.cluster.sd_daemons[victim].kill()

    for at, victim in kills:
        bed2.sim.spawn(killer(at, victim), name=f"kill:{victim}")

    res = bed2.run(eng2.run(_job(app, path2, inp, params), timeout=5.0))
    # surviving artifacts were reused.  A kill may prove harmless (the
    # victim's work was already durable and it does not merge);
    # every other schedule recovers through a partial restart, and the job
    # never raises.
    assert _canonical(app, res.output) == want
