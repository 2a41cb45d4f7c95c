"""The Section V evaluation scenarios.

Single-application (Section V-B, Fig 8): one data-intensive app on one SD
platform (duo or quad), compared across three approaches — sequential,
original (non-partitioned) Phoenix, and partition-enabled Phoenix.

Multiple-application (Section V-C, Figs 9/10): a computation-intensive MM
paired with a data-intensive app (WC or SM), executed four ways:

* ``host-only``   — both programs run concurrently on the host node; the
  data lives on the SD node, so the host pulls it over NFS (no partition).
* ``host-part``   — like host-only but partition-enabled on the host.
* ``trad-sd``     — traditional smart storage: the SD node has a
  single-core processor and runs the data app *sequentially* (invoked via
  smartFAM); MM runs on the host.
* ``mcsd-nopart`` — multicore SD runs the data app with original Phoenix.
* ``mcsd``        — the full McSD framework: multicore SD runs the data
  app partition-enabled (the paper uses 600 MB fragments); MM on the host.

Every scenario builds a fresh deterministic testbed, so runs are
independent and reproducible.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.matmul import make_matmul_spec, matmul_input
from repro.apps.stringmatch import make_stringmatch_spec
from repro.apps.wordcount import make_wordcount_spec
from repro.cluster.testbed import Testbed
from repro.config import CELERON_450, CPUSpec, DUO_E4400, QUAD_Q9400, table1_cluster
from repro.errors import ConfigError, PhoenixMemoryError
from repro.phoenix.api import InputSpec, MapReduceSpec
from repro.phoenix.runtime import PhoenixRuntime
from repro.partition.extended import ExtendedPhoenixRuntime
from repro.units import MB
from repro.workloads.keys import encrypted_input
from repro.workloads.text import text_input

__all__ = [
    "SingleResult",
    "PairResult",
    "make_data_app",
    "run_single_app",
    "run_pair_scenario",
    "PAIR_SCENARIOS",
    "DEFAULT_MM_N",
    "TRAD_SD_CPU",
]

#: MM problem size for the multi-application pairs: ~10 s on the quad host,
#: comparable to the data app at the small end of the sweep (so neither job
#: trivially hides the other).
DEFAULT_MM_N = 3760

#: the "traditional single-core SD" processor: the same class of silicon as
#: the Duo E4400, with one core
TRAD_SD_CPU = CPUSpec("Single-core SD (E4400-class)", cores=1, clock_ghz=2.0)

PAIR_SCENARIOS = ("host-only", "host-part", "trad-sd", "mcsd-nopart", "mcsd")


def make_data_app(
    app: str, size: int, seed: int = 0
) -> tuple[MapReduceSpec, InputSpec]:
    """(spec, input) for a data-intensive app at a declared size."""
    if app == "wordcount":
        return make_wordcount_spec(), text_input("/data/input", size, seed=seed)
    if app == "stringmatch":
        spec_inp, _keys, _hits = encrypted_input("/data/input", size, seed=seed)
        return make_stringmatch_spec(), spec_inp
    raise ConfigError(f"unknown data app {app!r}")


# ---------------------------------------------------------------------------
# Single-application runs (Fig 8)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SingleResult:
    """One cell of the Fig 8 sweeps."""

    app: str
    platform: str
    size: int
    approach: str  # sequential | parallel | partitioned
    elapsed: float | None  # None => memory overflow (unsupported)
    fragments: int = 1
    failure: str = ""
    peak_pressure: float = 0.0  # the SD's highest memory pressure (used/RAM)

    @property
    def supported(self) -> bool:
        """False where the paper reports 'cannot support'."""
        return self.elapsed is not None


_PLATFORM_CPUS: dict[str, CPUSpec] = {
    "duo": DUO_E4400,
    "quad": QUAD_Q9400,
    "single": TRAD_SD_CPU,
    "celeron": CELERON_450,
}


def run_single_app(
    app: str,
    size: int,
    platform: str = "duo",
    approach: str = "partitioned",
    fragment_bytes: int | None = None,
    with_smb: bool = False,
    seed: int = 0,
    overrides: dict | None = None,
) -> SingleResult:
    """One single-application measurement on a fresh testbed.

    The data lives on the SD node's local disk and the app runs there —
    this is the Fig 8 setting ("the two SD platforms").  ``overrides``
    are keyword arguments for :func:`~repro.config.table1_cluster`, such
    as a swept ``memory_policy``.
    """
    try:
        cpu = _PLATFORM_CPUS[platform]
    except KeyError:
        raise ConfigError(f"unknown platform {platform!r}") from None
    config = table1_cluster(sd_cpu=cpu, seed=seed, **(overrides or {}))
    bed = Testbed(config=config, with_smb=with_smb)
    spec, inp = make_data_app(app, size, seed=seed)
    sd_view, _host_view, _sd_path = bed.stage_on_sd("input", inp)

    def experiment() -> _t.Generator:
        t0 = bed.sim.now
        if approach in ("sequential", "parallel"):
            rt = PhoenixRuntime(bed.sd, bed.config.phoenix)
            res = yield rt.run(spec, sd_view, mode=approach)
            return res.stats.elapsed, 1, res.stats.peak_pressure
        if approach == "partitioned":
            ext = ExtendedPhoenixRuntime(bed.sd, bed.config.phoenix)
            res = yield ext.run(spec, sd_view, fragment_bytes=fragment_bytes)
            peak = max(s.peak_pressure for s in res.fragment_stats)
            return bed.sim.now - t0, res.n_fragments, peak
        raise ConfigError(f"unknown approach {approach!r}")

    try:
        elapsed, fragments, peak = bed.run(experiment(), name=f"single:{app}")
    except PhoenixMemoryError as exc:
        return SingleResult(
            app=app,
            platform=platform,
            size=size,
            approach=approach,
            elapsed=None,
            failure=str(exc),
        )
    return SingleResult(
        app=app,
        platform=platform,
        size=size,
        approach=approach,
        elapsed=elapsed,
        fragments=fragments,
        peak_pressure=peak,
    )


# ---------------------------------------------------------------------------
# Multiple-application runs (Figs 9/10)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class PairResult:
    """One multi-application measurement."""

    scenario: str
    data_app: str
    size: int
    makespan: float | None
    mm_elapsed: float | None = None
    data_elapsed: float | None = None
    failure: str = ""

    @property
    def supported(self) -> bool:
        """False where a job hit the memory wall."""
        return self.makespan is not None


def run_pair_scenario(
    scenario: str,
    data_app: str,
    size: int,
    mm_n: int = DEFAULT_MM_N,
    fragment_bytes: int | None = MB(600),
    with_smb: bool = False,
    smb_params: dict | None = None,
    seed: int = 0,
    overrides: dict | None = None,
) -> PairResult:
    """One Fig 9/10 cell: MM + data app under a scenario.

    The data-intensive input always lives on the SD node (that is the
    premise of smart storage); MM's matrices live on the host.
    ``overrides`` are keyword arguments for
    :func:`~repro.config.table1_cluster`, such as a swept ``network``.
    """
    if scenario not in PAIR_SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; pick from {PAIR_SCENARIOS}")
    sd_cpu = TRAD_SD_CPU if scenario == "trad-sd" else DUO_E4400
    config = table1_cluster(sd_cpu=sd_cpu, seed=seed, **(overrides or {}))
    bed = Testbed(config=config, with_smb=with_smb, smb_params=smb_params)

    data_spec, data_inp = make_data_app(data_app, size, seed=seed)
    _sd_view, host_view, sd_path = bed.stage_on_sd("input", data_inp)

    mm_spec = make_matmul_spec(mm_n)
    mm_inp = matmul_input("/data/mm", mm_n, payload_n=48, seed=seed)
    mm_staged = bed.stage(bed.host, "/data/mm", mm_inp)

    host_rt = PhoenixRuntime(bed.host, bed.config.phoenix)
    host_ext = ExtendedPhoenixRuntime(bed.host, bed.config.phoenix)
    channel = bed.cluster.channel()

    def mm_job() -> _t.Generator:
        t0 = bed.sim.now
        yield host_rt.run(mm_spec, mm_staged, mode="parallel")
        return bed.sim.now - t0

    def data_job() -> _t.Generator:
        t0 = bed.sim.now
        if scenario == "host-only":
            yield host_rt.run(data_spec, host_view, mode="parallel")
        elif scenario == "host-part":
            yield host_ext.run(data_spec, host_view, fragment_bytes=fragment_bytes)
        elif scenario == "trad-sd":
            yield channel.invoke(
                data_app,
                {
                    "input_path": sd_path,
                    "input_size": size,
                    "mode": "sequential",
                    "app": data_inp.params,
                },
            )
        elif scenario == "mcsd-nopart":
            yield channel.invoke(
                data_app,
                {
                    "input_path": sd_path,
                    "input_size": size,
                    "mode": "parallel",
                    "app": data_inp.params,
                },
            )
        else:  # mcsd
            yield channel.invoke(
                data_app,
                {
                    "input_path": sd_path,
                    "input_size": size,
                    "mode": "partitioned",
                    "fragment_bytes": fragment_bytes,
                    "app": data_inp.params,
                },
            )
        return bed.sim.now - t0

    def experiment() -> _t.Generator:
        t0 = bed.sim.now
        mm_p = bed.sim.spawn(mm_job(), name="pair:mm")
        data_p = bed.sim.spawn(data_job(), name=f"pair:{data_app}")
        res = yield bed.sim.all_of([mm_p, data_p])
        return bed.sim.now - t0, res[mm_p], res[data_p]

    try:
        makespan, mm_elapsed, data_elapsed = bed.run(
            experiment(), name=f"pair:{scenario}"
        )
    except PhoenixMemoryError as exc:
        return PairResult(
            scenario=scenario,
            data_app=data_app,
            size=size,
            makespan=None,
            failure=str(exc),
        )
    return PairResult(
        scenario=scenario,
        data_app=data_app,
        size=size,
        makespan=makespan,
        mm_elapsed=mm_elapsed,
        data_elapsed=data_elapsed,
    )
