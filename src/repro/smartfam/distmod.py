"""SD-side modules of the distributed execution mode (``dist_*``).

Two preloaded smartFAM modules carry one distributed job end to end —
the host never sees data, only metadata (paths, declared bytes) through
the log-file channel.  Together they are the extended runtime's Fig 6
flow (partition -> MapReduce per fragment -> user merge) spread over
the SDs:

* ``dist_map`` — run each of the shard's global fragments through the
  plain Phoenix runtime and persist its whole output as a crc32-framed
  part under the job's shuffle directory (an app that shards a
  non-byte payload through its own split function maps its slice of
  the single-node task grid and persists one reduced part instead);
  return the parts' metadata.
* ``dist_merge`` — read the gathered parts in global fragment order and
  apply the user merge function; the returned value is the job's final
  output.

Cost discipline is identical to the single-node runtime: the user's real
callbacks run over the tiny materialized payload, while CPU/disk charges
come from the cost profile applied to *declared* bytes.  A part is
charged at *output* scale (one record per distinct key), which is what
crosses the wire in the gather — small relative to the map leg (the
paper's McSD premise, applied one level up).
"""

from __future__ import annotations

import typing as _t

from repro.config import PhoenixConfig
from repro.core.artifacts import corrupt_artifact, pack_artifact, unpack_artifact
from repro.errors import ShuffleArtifactError, SmartFAMError
from repro.fs import path as _p
from repro.phoenix.api import InputSpec
from repro.phoenix.memory import check_supportable
from repro.phoenix.runtime import (
    PhoenixRuntime,
    _chunk_weights,
    _nonempty,
    reduce_combined,
)
from repro.phoenix.scheduler import Task, run_task_pool
from repro.phoenix.sort import Combiner

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node

__all__ = ["dist_map", "dist_merge"]


def _spec_of(params: dict):
    from repro.apps import spec_for_app

    app = params.get("app")
    if not app:
        raise SmartFAMError("dist module: missing app parameter")
    return spec_for_app(app, dict(params.get("app_params") or {}))


def _store_artifact(node: "Node", obj: object, **ctx) -> bytes:
    """Frame ``obj`` as a crc32 shuffle artifact (fault site on the write).

    ``shuffle.artifact`` with ``op="write"`` and *corrupt* flips payload
    bytes after framing — the damage surfaces only at a later verified
    read, like real silent disk corruption.
    """
    blob = pack_artifact(obj)
    inj = node.sim.faults
    if inj is not None:
        decision = inj.check("shuffle.artifact", node=node.name, op="write", **ctx)
        if decision is not None and decision.action == "corrupt":
            blob = corrupt_artifact(blob)
            node.sim.obs.count("fault.shuffle.artifact")
    return blob


def _read_obj(
    node: "Node", path: str, nbytes: int, shard: int | None = None
) -> _t.Generator:
    """Read + verify a stored shuffle artifact, charging ``nbytes`` to disk.

    Fault site ``shuffle.artifact`` with ``op="read"``: *fail*/*corrupt*/
    *drop* raise :class:`ShuffleArtifactError` (attributed to the
    producing shard so the engine can rebuild exactly that artifact),
    *delay* adds read latency.
    """
    inj = node.sim.faults
    if inj is not None:
        decision = inj.check(
            "shuffle.artifact", node=node.name, op="read", path=path, shard=shard,
        )
        if decision is not None:
            if decision.action == "delay":
                yield node.sim.timeout(decision.delay)
            elif decision.action in ("fail", "corrupt", "drop", "kill"):
                node.sim.obs.count("fault.shuffle.artifact")
                raise ShuffleArtifactError(
                    path, shard=shard, detail="injected artifact fault",
                )
    data = node.fs.vfs.read(path)
    yield node.fs.read(path, nbytes=max(1, int(nbytes)))
    # empty intermediates materialize as b'' in the VFS; in the distributed
    # plane every stored object is a framed list
    if data == b"":
        return []
    return unpack_artifact(data, path=path, shard=shard)


def dist_map(node: "Node", params: dict, cfg: PhoenixConfig) -> _t.Generator:
    """Map this shard's fragments; persist each one's output as a part."""
    spec = _spec_of(params)
    profile = spec.profile
    app_params = dict(params.get("app_params") or {})
    obs = node.sim.obs
    path = params["input_path"]
    fs, rel = node.resolve_fs(path)
    payload = node.fs.vfs.read(rel) or None if fs is node.fs else None
    shard_index = int(params["shard_index"])
    shuffle_dir = params["shuffle_dir"]
    node.fs.vfs.mkdir(shuffle_dir, parents=True)
    if params.get("kind", "bytes") == "split":
        return (yield from _map_split(node, spec, params, cfg, payload, fs, rel))

    # run each global fragment through the plain runtime and persist its
    # whole output for the gather
    rt = PhoenixRuntime(node, cfg)
    parts = []
    with obs.span(
        "dist.map.local", cat="dist", track=node.name, force=True,
        shard=shard_index,
    ):
        for sz, p0, p1, gi in params.get("fragments") or []:
            piece = payload[p0:p1] if (payload is not None and p0 >= 0) else None
            frag_inp = InputSpec(path=path, size=int(sz), payload=piece, params=app_params)
            res = yield rt.run(spec, frag_inp, mode="parallel", write_output=False)
            out_bytes = max(1, profile.output_bytes(int(sz)))
            part_path = _p.join(shuffle_dir, f"part{int(gi)}")
            blob = _store_artifact(
                node, res.output, shard=shard_index, part=int(gi)
            )
            yield node.fs.write(part_path, data=blob, size=out_bytes)
            parts.append({"index": int(gi), "path": part_path, "bytes": out_bytes})
    return {"parts": parts}


def _map_split(
    node: "Node", spec, params: dict, cfg: PhoenixConfig, payload: object, fs, rel: str
) -> _t.Generator:
    """Map this shard's slice of the single-node task grid, reduce its
    keys locally and persist the result as one part (index = shard)."""
    profile = spec.profile
    app_params = dict(params.get("app_params") or {})
    sim = node.sim
    shard_index = int(params["shard_index"])
    n_shards = max(1, int(params["n_shards"]))
    shard_size = int(params["shard_size"])
    cores = node.cpu.cores
    n_tasks = max(1, cfg.tasks_per_core * cores)
    # the app's own split function cuts the payload into the SAME global
    # task grid a single node would use (n_tasks is a function of the
    # homogeneous SD hardware, not of the shard count); this shard takes
    # its contiguous slice of that grid.  Keeping the chunk shapes
    # identical to the single-node run is what keeps numeric output
    # bitwise identical (e.g. BLAS kernels pick different summation
    # orders for different block shapes).
    if payload is not None:
        grid = spec.split(payload, n_tasks)
        lo = (shard_index * len(grid)) // n_shards
        hi = ((shard_index + 1) * len(grid)) // n_shards
        chunks = grid[lo:hi] or [None]
    else:
        chunks = [None] * n_tasks

    combiners: list[Combiner] = []
    with sim.obs.span(
        "dist.map.local", cat="dist", track=node.name, force=True, shard=shard_index
    ) as sp:
        check_supportable(spec.name, shard_size, node.memory.capacity, cfg, profile)
        alloc = node.memory.alloc(profile.footprint(shard_size), owner=f"dist.{spec.name}")
        try:
            read_proc = fs.read(rel, nbytes=shard_size)
            ops_total = profile.map_ops(shard_size) + profile.setup_ops
            weights = _chunk_weights(chunks)

            def make_map(chunk):
                def _run() -> None:
                    comb = Combiner(spec.combine_fn)
                    if chunk is not None and _nonempty(chunk):
                        spec.map_fn(chunk, comb.emit, app_params)
                    combiners.append(comb)

                return _run

            tasks = [
                Task(name=f"map{i}", ops=ops_total * weights[i], compute=make_map(chunk))
                for i, chunk in enumerate(chunks)
            ]
            pool = run_task_pool(sim, node.cpu, tasks, cores, label=f"{spec.name}.dist_map")
            yield sim.all_of([pool, read_proc])
        finally:
            alloc.free()
        reduce_total = profile.sort_ops(shard_size) + profile.reduce_ops(shard_size)
        if reduce_total > 0:
            rtasks = [Task(name=f"red{i}", ops=reduce_total / cores) for i in range(cores)]
            yield run_task_pool(
                sim, node.cpu, rtasks, cores, label=f"{spec.name}.dist_map.reduce"
            )
        output = reduce_combined(spec, [c.data for c in combiners], app_params)
        out_bytes = max(1, profile.output_bytes(shard_size))
        part_path = _p.join(params["shuffle_dir"], f"part{shard_index}")
        blob = _store_artifact(node, output, shard=shard_index, part=shard_index)
        yield node.fs.write(part_path, data=blob, size=out_bytes)
        sp.set(emitted=sum(c.emitted for c in combiners))
    return {"parts": [{"index": shard_index, "path": part_path, "bytes": out_bytes}]}


def dist_merge(node: "Node", params: dict, cfg: PhoenixConfig) -> _t.Generator:
    """Apply the user merge function over the gathered parts; final output."""
    spec = _spec_of(params)
    profile = spec.profile
    app_params = dict(params.get("app_params") or {})
    obs = node.sim.obs
    input_size = int(params["input_size"])
    shuffle_dir = params["shuffle_dir"]
    outputs = []
    with obs.span("dist.merge.local", cat="dist", track=node.name, force=True) as sp:
        for part in params.get("parts") or []:
            data = yield from _read_obj(
                node, part["path"], part["bytes"], shard=part.get("shard")
            )
            outputs.append(data)
        merge_ops = profile.merge_ops(input_size)
        if merge_ops > 0:
            yield node.cpu.submit(merge_ops, name=f"{spec.name}.dist_merge")
        total_frags = int(params.get("total_fragments") or len(outputs))
        if total_frags > 1 and spec.merge_fn is not None:
            output = spec.merge_fn(outputs, app_params)
        elif outputs:
            output = outputs[0]
        else:
            output = []
        out_path = _p.join(shuffle_dir, "output")
        yield node.fs.write(out_path, size=max(1, profile.output_bytes(input_size)))
        sp.set(parts=len(outputs))
    return {"output": output, "path": out_path}
