"""SD-side modules of the distributed execution mode (``dist_*``).

Three preloaded smartFAM modules carry one distributed job end to end —
the host never sees data, only metadata (paths, declared bytes, entry
counts) through the log-file channel:

* ``dist_map`` — map + combine the shard's local fragments; persist the
  intermediate data partitioned by the crc32 shuffle hash under the
  job's shuffle directory (or, for map-only applications, persist whole
  per-fragment outputs); return per-partition metadata.
* ``dist_reduce`` — merge the sorted per-shard runs of a partition (a
  streaming heap merge, the one combinerless single-node spills use),
  group equal keys across shards, apply the user reduce function.
* ``dist_merge`` — read the reduced partitions (or gathered fragment
  outputs) in deterministic order and apply the user merge function;
  the returned value is the job's final output.

Cost discipline is identical to the single-node runtime: the user's real
callbacks run over the tiny materialized payload, while CPU/disk charges
come from the cost profile applied to *declared* bytes.  Combined map
output and reduced partitions are charged at *output* scale (one record
per distinct key, the same population as the final output) rather than
intermediate scale — that is what actually crosses the wire in a
combiner-equipped MapReduce, and what makes the exchange leg cheap
relative to the map leg (the paper's McSD premise, applied one level
up).
"""

from __future__ import annotations

import typing as _t

from repro.config import PhoenixConfig
from repro.core.artifacts import corrupt_artifact, pack_artifact, unpack_artifact
from repro.errors import ShuffleArtifactError, SmartFAMError
from repro.fs import path as _p
from repro.phoenix.api import InputSpec
from repro.phoenix.memory import check_supportable
from repro.phoenix.runtime import PhoenixRuntime, _chunk_weights, _nonempty
from repro.phoenix.scheduler import Task, run_task_pool
from repro.phoenix.sort import (
    Combiner,
    decorate_sorted,
    merge_combiner_maps,
    merge_decorated_runs,
    partition_decorated,
    undecorate,
)

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node

__all__ = ["dist_map", "dist_reduce", "dist_merge"]


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
    node: "Node",
    path: str,
    nbytes: int,
    shard: int | None = None,
    partition: int | None = None,
) -> _t.Generator:
    """Read + verify a stored shuffle artifact, charging ``nbytes`` to disk.

    Fault site ``shuffle.artifact`` with ``op="read"``: *fail*/*corrupt*/
    *drop* raise :class:`ShuffleArtifactError` (attributed to the
    producing shard/partition so the engine can rebuild exactly that
    artifact), *delay* adds read latency.
    """
    inj = node.sim.faults
    if inj is not None:
        decision = inj.check(
            "shuffle.artifact", node=node.name, op="read", path=path,
            shard=shard, partition=partition,
        )
        if decision is not None:
            if decision.action == "delay":
                yield node.sim.timeout(decision.delay)
            elif decision.action in ("fail", "corrupt", "drop", "kill"):
                node.sim.obs.count("fault.shuffle.artifact")
                raise ShuffleArtifactError(
                    path, shard=shard, partition=partition,
                    detail="injected artifact fault",
                )
    data = node.fs.vfs.read(path)
    yield node.fs.read(path, nbytes=max(1, int(nbytes)))
    # empty intermediates materialize as b'' in the VFS; in the distributed
    # plane every stored object is a framed list
    if data == b"":
        return []
    return unpack_artifact(data, path=path, shard=shard, partition=partition)


def dist_map(node: "Node", params: dict, cfg: PhoenixConfig) -> _t.Generator:
    """Map + combine this shard's fragments; spill crc32-partitioned runs."""
    spec = _spec_of(params)
    profile = spec.profile
    app_params = dict(params.get("app_params") or {})
    sim = node.sim
    obs = sim.obs
    path = params["input_path"]
    fs, rel = node.resolve_fs(path)
    payload = node.fs.vfs.read(rel) or None if fs is node.fs else None
    shard_index = int(params["shard_index"])
    n_shards = max(1, int(params["n_shards"]))
    shard_size = int(params["shard_size"])
    kind = params.get("kind", "bytes")
    shuffle_dir = params["shuffle_dir"]
    node.fs.vfs.mkdir(shuffle_dir, parents=True)
    cores = node.cpu.cores
    n_tasks = max(1, cfg.tasks_per_core * cores)

    # ---- map-only applications: run each global fragment through the
    # plain runtime and persist its whole output for the gather
    if spec.reduce_fn is None:
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
        return {"parts": parts, "entries": 0, "emitted": 0}

    # ---- exchange applications: inline map + combine over the fragments
    if kind == "split":
        # the app's own split function cuts the payload into the SAME
        # global task grid a single node would use (n_tasks is a function
        # of the homogeneous SD hardware, not of the shard count); this
        # shard takes its contiguous slice of that grid.  Keeping the
        # chunk shapes identical to the single-node run is what keeps
        # numeric output bitwise identical (e.g. BLAS kernels pick
        # different summation orders for different block shapes).
        if payload is not None:
            grid = spec.split(payload, n_tasks)
            lo = (shard_index * len(grid)) // n_shards
            hi = ((shard_index + 1) * len(grid)) // n_shards
            chunks = grid[lo:hi] or [None]
        else:
            chunks = [None] * n_tasks
        work = [(shard_size, chunks)]
    else:
        work = []
        for sz, p0, p1, _gi in params.get("fragments") or []:
            piece = payload[p0:p1] if (payload is not None and p0 >= 0) else None
            work.append((int(sz), spec.split(piece, n_tasks) if piece is not None else [None] * n_tasks))

    combiners: list[Combiner] = []
    with obs.span(
        "dist.map.local", cat="dist", track=node.name, force=True, shard=shard_index
    ) as sp:
        for sz, chunks in work:
            check_supportable(spec.name, sz, node.memory.capacity, cfg, profile)
            alloc = node.memory.alloc(profile.footprint(sz), owner=f"dist.{spec.name}")
            try:
                read_proc = fs.read(rel, nbytes=sz)
                ops_total = profile.map_ops(sz) + profile.setup_ops
                weights = _chunk_weights(chunks)

                def make_map(chunk):
                    def _run() -> None:
                        comb = Combiner(spec.combine_fn)
                        if chunk is not None and _nonempty(chunk):
                            spec.map_fn(chunk, comb.emit, app_params)
                        combiners.append(comb)

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
                    sim, node.cpu, tasks, cores, label=f"{spec.name}.dist_map"
                )
                yield sim.all_of([pool, read_proc])
            finally:
                alloc.free()
        emitted = sum(c.emitted for c in combiners)
        sp.set(emitted=emitted, fragments=len(work))

    # ---- local sort + shuffle partitioning
    n_partitions = max(1, int(params["n_partitions"]))
    with obs.span("dist.sort", cat="dist", track=node.name, force=True):
        sort_total = profile.sort_ops(shard_size)
        if sort_total > 0:
            sort_tasks = [Task(name=f"sort{i}", ops=sort_total / cores) for i in range(cores)]
            yield run_task_pool(
                sim, node.cpu, sort_tasks, cores, label=f"{spec.name}.dist_sort"
            )
        entries = decorate_sorted(
            merge_combiner_maps((c.data for c in combiners), spec.combine_fn)
        )
        buckets = partition_decorated(entries, n_partitions)

    # declared bytes of the combined map output: with a combiner the shard
    # holds one (key, partial) record per distinct key — the same record
    # population as the final output — so what crosses the wire is
    # output-sized, not intermediate-sized; without a combiner every
    # emitted record survives
    if spec.combine_fn is not None:
        inter = profile.output_bytes(shard_size)
    else:
        inter = profile.intermediate_bytes(shard_size)
    total_entries = len(entries)
    partitions: dict[int, dict] = {}
    with obs.span("dist.spill", cat="dist", track=node.name, force=True) as sp:
        written = 0
        for p, bucket in enumerate(buckets):
            if not bucket:
                continue
            nbytes = max(1, int(inter * (len(bucket) / max(1, total_entries))))
            ppath = _p.join(shuffle_dir, f"map{shard_index}.p{p}")
            blob = _store_artifact(node, bucket, shard=shard_index, partition=p)
            yield node.fs.write(ppath, data=blob, size=nbytes)
            partitions[p] = {"path": ppath, "bytes": nbytes, "entries": len(bucket)}
            written += nbytes
        sp.set(bytes=written, partitions=len(partitions))
    return {"partitions": partitions, "entries": total_entries, "emitted": emitted}


def dist_reduce(node: "Node", params: dict, cfg: PhoenixConfig) -> _t.Generator:
    """Merge the per-shard runs of each owned partition and reduce them."""
    spec = _spec_of(params)
    if spec.reduce_fn is None:
        raise SmartFAMError(f"{spec.name}: dist_reduce on a map-only application")
    profile = spec.profile
    app_params = dict(params.get("app_params") or {})
    sim = node.sim
    obs = sim.obs
    input_size = int(params["input_size"])
    total_entries = max(1, int(params.get("total_entries") or 1))
    shuffle_dir = params["shuffle_dir"]
    cores = node.cpu.cores
    out: dict[int, dict] = {}
    with obs.span("dist.reduce.local", cat="dist", track=node.name, force=True) as sp:
        for part in params.get("partitions") or []:
            p = int(part["index"])
            runs = []
            n_entries = 0
            in_bytes = 0
            for src in part.get("sources") or []:
                data = yield from _read_obj(
                    node, src["path"], src["bytes"],
                    shard=src.get("shard"), partition=src.get("partition"),
                )
                runs.append(list(data))
                n_entries += int(src["entries"])
                in_bytes += int(src["bytes"])
            # equal keys sit adjacent in the merged stream (runs are
            # sorted); extend collapses them across shards exactly like
            # merge_combiner_maps does within one node
            grouped: list = []
            for skey, key, values in merge_decorated_runs(runs):
                if grouped and grouped[-1][0] == skey:
                    grouped[-1][2].extend(values)
                else:
                    grouped.append((skey, key, list(values)))
            reduce_total = profile.reduce_ops(input_size) * (n_entries / total_entries)
            if reduce_total > 0:
                rtasks = [Task(name=f"red{i}", ops=reduce_total / cores) for i in range(cores)]
                yield run_task_pool(
                    sim, node.cpu, rtasks, cores, label=f"{spec.name}.dist_reduce"
                )
            entries = [
                (skey, key, spec.reduce_fn(key, values, app_params))
                for skey, key, values in grouped
            ]
            # the reduced partition is output-shaped: its share of the final
            # output, never larger than what was merged to produce it
            out_share = profile.output_bytes(input_size) * (n_entries / total_entries)
            nbytes = max(1, int(min(in_bytes, out_share)) if out_share > 0 else in_bytes)
            rpath = _p.join(shuffle_dir, f"red.p{p}")
            blob = _store_artifact(node, entries, partition=p)
            yield node.fs.write(rpath, data=blob, size=nbytes)
            out[p] = {"path": rpath, "bytes": nbytes, "entries": len(entries)}
        sp.set(partitions=len(out))
    return {"partitions": out}


def dist_merge(node: "Node", params: dict, cfg: PhoenixConfig) -> _t.Generator:
    """Apply the user merge function over the gathered parts; final output."""
    spec = _spec_of(params)
    profile = spec.profile
    app_params = dict(params.get("app_params") or {})
    sim = node.sim
    obs = sim.obs
    input_size = int(params["input_size"])
    exchange = bool(params.get("exchange"))
    shuffle_dir = params["shuffle_dir"]
    outputs = []
    with obs.span("dist.merge.local", cat="dist", track=node.name, force=True) as sp:
        for part in params.get("parts") or []:
            data = yield from _read_obj(
                node, part["path"], part["bytes"],
                shard=part.get("shard"), partition=part.get("partition"),
            )
            outputs.append(data)
        merge_ops = profile.merge_ops(input_size)
        if merge_ops > 0:
            yield node.cpu.submit(merge_ops, name=f"{spec.name}.dist_merge")
        if exchange:
            # reduced partitions hold decorated entries; the user merge
            # function sees plain per-part (key, value) lists, exactly what
            # the extended runtime hands it
            parts_out = [undecorate(entries) for entries in outputs]
            if spec.merge_fn is not None:
                output = spec.merge_fn(parts_out, app_params)
            else:
                output = [pair for part in parts_out for pair in part]
        else:
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
