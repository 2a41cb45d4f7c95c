"""The Phoenix engine: split -> map -> sort -> reduce -> merge (Fig 1).

Workers are simulated processes pinned to the node's PS-CPU; the user's
callbacks run for real over the payload; stage durations come from the
cost profile applied to the *declared* input size.  Memory is reserved for
the job's working set up front, so an oversized job degrades (thrash) or
kills (OOM) the node exactly the way Sections IV-B/V-B describe.

``mode="parallel"`` is the original Phoenix; ``mode="sequential"`` is the
plain single-threaded streaming implementation the paper uses as its
baseline ("the sequential approach") — same algorithmic work, one core,
no MapReduce working set.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.config import PhoenixConfig
from repro.errors import PhoenixError
from repro.phoenix.api import InputSpec, MapReduceSpec
from repro.phoenix.memory import check_supportable
from repro.phoenix.scheduler import Task, run_task_pool
from repro.phoenix.sort import (
    Combiner,
    KeyCache,
    decorate_sorted,
    merge_combiner_maps,
    merge_entry_runs,
    partition_decorated,
    sort_decorated_by_value_desc,
    undecorate,
)
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node

__all__ = ["JobStats", "PhoenixResult", "PhoenixRuntime", "reduce_combined"]


@dataclasses.dataclass
class JobStats:
    """Timing/size accounting of one job run.

    The ``*_time`` fields are a materialized view over the job's span
    tree: each phase of the runtime opens a span (``phoenix.read``,
    ``phoenix.map``, ...) and the field is filled from that span's
    simulated duration when it closes.  The root ``phoenix.job`` span is
    attached as :attr:`span` so callers can walk the full tree (including
    sub-phase children like ``phoenix.split``).
    """

    app: str
    mode: str
    node: str
    input_bytes: int
    started_at: float = 0.0
    finished_at: float = 0.0
    read_time: float = 0.0
    map_time: float = 0.0
    sort_time: float = 0.0
    reduce_time: float = 0.0
    merge_time: float = 0.0
    write_time: float = 0.0
    map_tasks: int = 0
    emitted_pairs: int = 0
    footprint: int = 0
    peak_pressure: float = 0.0
    #: the root phoenix.job span (phase spans are its children)
    span: object | None = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def elapsed(self) -> float:
        """Wall-clock (simulated) duration of the whole job."""
        return self.finished_at - self.started_at

    def phases(self) -> dict[str, float]:
        """Phase name -> simulated seconds, read from the span tree.

        Falls back to the materialized ``*_time`` fields when the span is
        absent or detached from its store (stats that crossed a pickle
        boundary, e.g. through the smartFAM log file).
        """
        if self.span is not None:
            by_child = {child.name: child.dur for child in self.span.children()}
            if by_child:
                return by_child
        return {
            f"phoenix.{name}": value
            for name, value in (
                ("read", self.read_time),
                ("map", self.map_time),
                ("sort", self.sort_time),
                ("reduce", self.reduce_time),
                ("merge", self.merge_time),
                ("write", self.write_time),
            )
            if value > 0
        }


@dataclasses.dataclass
class PhoenixResult:
    """What a job returns: real output + accounting."""

    output: object
    stats: JobStats


class PhoenixRuntime:
    """The MapReduce engine bound to one node."""

    def __init__(self, node: "Node", cfg: PhoenixConfig | None = None):
        self.node = node
        self.sim = node.sim
        self.cfg = cfg or PhoenixConfig()

    # -- public entry points ------------------------------------------------

    def run(
        self,
        spec: MapReduceSpec,
        input_spec: InputSpec,
        mode: str = "parallel",
        enforce_memory_rule: bool = True,
        write_output: bool = True,
        output_path: str | None = None,
    ) -> Event:
        """Run one MapReduce job; Process value is a :class:`PhoenixResult`.

        ``enforce_memory_rule`` applies the original runtime's input-size
        limit (disabled per fragment checks are still applied by the
        extended runtime itself).
        """
        if mode == "parallel":
            gen = self._run_parallel(
                spec, input_spec, enforce_memory_rule, write_output, output_path
            )
        elif mode == "sequential":
            gen = self._run_sequential(spec, input_spec, write_output, output_path)
        else:
            raise PhoenixError(f"unknown mode {mode!r}")
        return self.sim.spawn(gen, name=f"phoenix:{spec.name}@{self.node.name}")

    # -- parallel (the original Phoenix) -----------------------------------------

    def _run_parallel(
        self,
        spec: MapReduceSpec,
        inp: InputSpec,
        enforce_memory_rule: bool,
        write_output: bool,
        output_path: str | None,
    ) -> _t.Generator:
        node, sim, profile = self.node, self.sim, spec.profile
        obs = sim.obs
        stats = JobStats(
            app=spec.name,
            mode="parallel",
            node=node.name,
            input_bytes=inp.size,
            started_at=sim.now,
        )
        # Phase spans are forced: the job needs them for its own JobStats
        # accounting, and a handful per job is well under the noise floor.
        with obs.span(
            "phoenix.job",
            cat="phoenix",
            track=node.name,
            force=True,
            app=spec.name,
            mode="parallel",
            input_bytes=inp.size,
        ) as job_sp:
            stats.span = job_sp
            if enforce_memory_rule:
                check_supportable(
                    spec.name, inp.size, node.memory.capacity, self.cfg, profile
                )
            stats.footprint = profile.footprint(inp.size)
            alloc = node.memory.alloc(stats.footprint, owner=spec.name)
            try:
                stats.peak_pressure = node.memory.pressure
                cores = node.cpu.cores

                # ---- read input (disk or NFS charge for the declared bytes).
                # Phoenix memory-maps its input, so reading streams concurrently
                # with the map phase; only a payload-less input forces a serial
                # read (we need the bytes before we can split them).
                with obs.span(
                    "phoenix.read", cat="phoenix", track=node.name, force=True
                ) as sp:
                    fs, rel = node.resolve_fs(inp.path)
                    read_proc = fs.read(rel, nbytes=inp.size, offset=inp.offset)
                    if inp.payload is not None:
                        payload = inp.payload
                    else:
                        payload = yield read_proc
                        read_proc = None
                stats.read_time = sp.dur

                # ---- map stage: dynamic pool, tasks_per_core x cores splits
                with obs.span(
                    "phoenix.map", cat="phoenix", track=node.name, force=True
                ) as sp:
                    with obs.span(
                        "phoenix.split", cat="phoenix", track=node.name, force=True
                    ) as split_sp:
                        n_tasks = max(1, self.cfg.tasks_per_core * cores)
                        chunks = spec.split(payload, n_tasks)
                        split_sp.set(chunks=len(chunks))
                    stats.map_tasks = len(chunks)
                    ops_total = profile.map_ops(inp.size) + profile.setup_ops
                    weights = _chunk_weights(chunks)
                    combiners: list[Combiner] = []

                    def make_map(chunk: object) -> _t.Callable[[], object]:
                        def _run() -> object:
                            comb = Combiner(spec.combine_fn)
                            if chunk is not None and _nonempty(chunk):
                                spec.map_fn(chunk, comb.emit, inp.params)
                            combiners.append(comb)
                            return None

                        return _run

                    tasks = [
                        Task(
                            name=f"map{i}",
                            ops=ops_total * weights[i],
                            compute=make_map(chunks[i]),
                        )
                        for i in range(len(chunks))
                    ]
                    pool = run_task_pool(
                        sim, node.cpu, tasks, cores, label=f"{spec.name}.map"
                    )
                    if read_proc is not None:
                        yield sim.all_of([pool, read_proc])
                    else:
                        yield pool
                    stats.emitted_pairs = sum(c.emitted for c in combiners)
                    sp.set(tasks=len(tasks), emitted=stats.emitted_pairs)
                stats.map_time = sp.dur

                # ---- sort stage (cost parallelized across cores; the real
                #      data work is one dict-merge of the combiner maps plus a
                #      single decorate-sort computing each key's repr once)
                entries: list | None = None
                if spec.needs_sort:
                    with obs.span(
                        "phoenix.sort", cat="phoenix", track=node.name, force=True
                    ) as sp:
                        sort_total = profile.sort_ops(inp.size)
                        sort_tasks = [
                            Task(name=f"sort{i}", ops=sort_total / cores)
                            for i in range(cores)
                        ]
                        yield run_task_pool(
                            sim, node.cpu, sort_tasks, cores, label=f"{spec.name}.sort"
                        )
                        entries = decorate_sorted(
                            merge_combiner_maps(
                                (c.data for c in combiners), spec.combine_fn
                            )
                        )
                    stats.sort_time = sp.dur

                # ---- reduce stage: buckets inherit the sorted order, so the
                #      per-bucket outputs are sorted runs merged below
                reduced_parts: list[list] | None = None
                if spec.reduce_fn is not None:
                    with obs.span(
                        "phoenix.reduce", cat="phoenix", track=node.name, force=True
                    ) as sp:
                        if entries is None:
                            entries = decorate_sorted(
                                merge_combiner_maps(
                                    (c.data for c in combiners), spec.combine_fn
                                )
                            )
                        buckets = partition_decorated(entries, cores)
                        total_items = max(1, sum(len(b) for b in buckets))
                        reduce_total = profile.reduce_ops(inp.size)
                        reduced_parts = [[] for _ in buckets]

                        def make_reduce(bidx: int) -> _t.Callable[[], object]:
                            def _run() -> object:
                                reduced_parts[bidx] = [
                                    (skey, key, spec.reduce_fn(key, values, inp.params))
                                    for skey, key, values in buckets[bidx]
                                ]
                                return None

                            return _run

                        rtasks = [
                            Task(
                                name=f"reduce{i}",
                                ops=reduce_total * (len(buckets[i]) / total_items),
                                compute=make_reduce(i),
                            )
                            for i in range(len(buckets))
                        ]
                        yield run_task_pool(
                            sim, node.cpu, rtasks, cores, label=f"{spec.name}.reduce"
                        )
                        sp.set(buckets=len(buckets))
                    stats.reduce_time = sp.dur

                # ---- final merge (single-threaded, like Phoenix's merge phase)
                with obs.span(
                    "phoenix.merge", cat="phoenix", track=node.name, force=True
                ) as sp:
                    merge_ops = profile.merge_ops(inp.size)
                    if merge_ops > 0:
                        yield node.cpu.submit(merge_ops, name=f"{spec.name}.merge")
                    if reduced_parts is not None:
                        if spec.sort_output:
                            # the value sort is a total order (distinct sort
                            # keys break ties); the key-order merge would be
                            # wasted work
                            out_entries: _t.Iterable = (
                                e for part in reduced_parts for e in part
                            )
                        else:
                            out_entries = merge_entry_runs(reduced_parts)
                    elif entries is not None:
                        out_entries = entries
                    else:
                        # no sort, no reduce: per-worker sorted runs in worker
                        # order; the cache holds cross-worker keys to one repr
                        cache = KeyCache()
                        out_entries = [
                            e for c in combiners for e in decorate_sorted(c.data, cache)
                        ]
                    if spec.sort_output:
                        out_entries = sort_decorated_by_value_desc(out_entries)
                    output: object = undecorate(out_entries)
                stats.merge_time = sp.dur

                # ---- write output
                if write_output:
                    with obs.span(
                        "phoenix.write", cat="phoenix", track=node.name, force=True
                    ) as sp:
                        opath = output_path or f"{inp.path}.out"
                        ofs, orel = node.resolve_fs(opath)
                        yield ofs.write(orel, size=profile.output_bytes(inp.size))
                    stats.write_time = sp.dur
            finally:
                alloc.free()
            stats.finished_at = sim.now
            job_sp.set(map_tasks=stats.map_tasks, emitted=stats.emitted_pairs)
        return PhoenixResult(output=output, stats=stats)

    # -- sequential baseline --------------------------------------------------------

    def _run_sequential(
        self,
        spec: MapReduceSpec,
        inp: InputSpec,
        write_output: bool,
        output_path: str | None,
    ) -> _t.Generator:
        node, sim, profile = self.node, self.sim, spec.profile
        obs = sim.obs
        stats = JobStats(
            app=spec.name,
            mode="sequential",
            node=node.name,
            input_bytes=inp.size,
            started_at=sim.now,
        )
        with obs.span(
            "phoenix.job",
            cat="phoenix",
            track=node.name,
            force=True,
            app=spec.name,
            mode="sequential",
            input_bytes=inp.size,
        ) as job_sp:
            stats.span = job_sp
            stats.footprint = profile.seq_footprint(inp.size)
            alloc = node.memory.alloc(stats.footprint, owner=f"{spec.name}.seq")
            try:
                stats.peak_pressure = node.memory.pressure
                # The sequential implementation is a streaming scan: reading
                # overlaps computing (unless the payload must come from disk).
                with obs.span(
                    "phoenix.read", cat="phoenix", track=node.name, force=True
                ) as sp:
                    fs, rel = node.resolve_fs(inp.path)
                    read_proc = fs.read(rel, nbytes=inp.size, offset=inp.offset)
                    if inp.payload is not None:
                        payload = inp.payload
                    else:
                        payload = yield read_proc
                        read_proc = None
                stats.read_time = sp.dur

                with obs.span(
                    "phoenix.map", cat="phoenix", track=node.name, force=True,
                    sequential=True,
                ) as sp:
                    compute = node.cpu.submit(
                        profile.sequential_ops(inp.size), name=f"{spec.name}.seq"
                    )
                    if read_proc is not None:
                        yield sim.all_of([compute, read_proc])
                    else:
                        yield compute
                    output = _sequential_compute(spec, payload, inp.params)
                stats.map_time = sp.dur
                stats.map_tasks = 1

                if write_output:
                    with obs.span(
                        "phoenix.write", cat="phoenix", track=node.name, force=True
                    ) as sp:
                        opath = output_path or f"{inp.path}.out"
                        ofs, orel = node.resolve_fs(opath)
                        yield ofs.write(orel, size=profile.output_bytes(inp.size))
                    stats.write_time = sp.dur
            finally:
                alloc.free()
            stats.finished_at = sim.now
        return PhoenixResult(output=output, stats=stats)


def _sequential_compute(spec: MapReduceSpec, payload: object, params: dict) -> object:
    """Run the whole algorithm single-threaded over the real payload."""
    comb = Combiner(spec.combine_fn)
    if payload is not None and _nonempty(payload):
        spec.map_fn(payload, comb.emit, params)
    return reduce_combined(spec, [comb.data], params)


def reduce_combined(spec: MapReduceSpec, maps: list[dict], params: dict) -> object:
    """Sort, reduce and order combiner maps into the output pairs.

    The data work of everything after map, on one core; a map-only app
    keeps each map's sorted run, in map order.
    """
    if spec.reduce_fn is not None or spec.needs_sort:
        entries = decorate_sorted(merge_combiner_maps(maps, spec.combine_fn))
        if spec.reduce_fn is not None:
            entries = [
                (skey, key, spec.reduce_fn(key, values, params))
                for skey, key, values in entries
            ]
    else:
        entries = [e for m in maps for e in decorate_sorted(m)]
    if spec.sort_output:
        entries = sort_decorated_by_value_desc(entries)
    return undecorate(entries)


def _chunk_weights(chunks: list) -> list[float]:
    """Fraction of total work per chunk (by real size when available)."""
    sizes = []
    for c in chunks:
        if isinstance(c, (bytes, bytearray, str)) or hasattr(c, "__len__"):
            try:
                sizes.append(len(c))  # type: ignore[arg-type]
                continue
            except TypeError:
                pass
        sizes.append(1)
    total = sum(sizes)
    if total <= 0:
        return [1.0 / len(chunks)] * len(chunks) if chunks else []
    return [s / total for s in sizes]


def _nonempty(payload: object) -> bool:
    try:
        return len(payload) > 0  # type: ignore[arg-type]
    except TypeError:
        return True
