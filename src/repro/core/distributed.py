"""Distributed single-job execution: one job sharded across N McSD nodes.

The scale-out the paper leaves as future work ("the parallelisms among
multiple McSD smart disks", Section VI), following the independent
blocks-per-node model: the input is staged *replicated* on every SD node
(:meth:`~repro.cluster.testbed.Testbed.stage_replicated`), so any subset
of nodes can run any subset of the work — which is also what makes
fine-grained recovery on the survivors possible after a shard node dies.

One distributed run is the extended runtime's Fig 6 flow (partition ->
MapReduce per fragment -> user merge) spread over the SDs, in four
phases:

1. **plan** — the host peeks the replica payload (content never leaves
   the SD; the planner needs only boundaries) and cuts the declared input
   into integrity-checked fragments
   (:func:`~repro.partition.partitioner.plan_fragments`, the Fig 7
   check), assigning contiguous fragment runs to shard nodes;
2. **map** — every shard node runs each of its fragments through the
   plain Phoenix runtime via its own smartFAM channel (``dist_map``) and
   persists each fragment's output as a crc32-framed shuffle artifact
   under ``/export/shuffle/<job>/``, returning only metadata;
3. **gather** — the fragment outputs gather at the node already holding
   the most of their bytes (minimum transfer); the others cross the
   simulated fabric (``kind="shuffle"``), with byte accounting and fault
   hooks at the ``shuffle.exchange`` site;
4. **merge** — ``dist_merge`` applies the app's merge function over the
   outputs in global fragment order and returns the final output.

Because the fragment plan is the single-node partitioned run's, every
output equals that run's by construction, at every width.  An app whose
own split function shards a non-byte payload (matmul) maps each shard's
slice of the single-node task grid and reduces it locally, so its
assembled answer is bitwise the single-node one.

Recovery from faults is one loop of passes over an artifact
manifest: every durable intermediate is registered in a
per-job :class:`~repro.core.artifacts.AttemptManifest`, and each failure
is decided once.  A call that ends in its node's quarantine by the
cluster's failure detector, or would start on a quarantined node
(:class:`~repro.errors.NodeDownError`), or misses its invoke deadline
evicts the shard node — the engine invalidates only what that node held,
reassigns its shards to survivors, and re-runs exactly the missing work;
gather legs that already landed are deduplicated by
``(merge node, fragment)`` id.  Any other transient failure (a corrupt
artifact, a module crash, a transfer that used up its in-place retries)
re-runs the missing work where it was, except that a map shard whose
module failed moves to another survivor.  When the pass budget
runs out or no replicas remain, the engine removes the job's shuffle dir
and raises
:class:`~repro.errors.DistributedJobError` — retryable, so the cluster
scheduler's requeue (and finally its single-node host run) is the
whole-job retry.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import typing as _t

from repro.apps import spec_for_app
from repro.core.artifacts import AttemptManifest
from repro.core.loadbalance import predicted_ops
from repro.errors import (
    RETRIES,
    RETRY_BACKOFF,
    DistributedJobError,
    NetworkError,
    NodeDownError,
    OffloadError,
    OffloadTimeoutError,
    ShuffleArtifactError,
    is_retryable,
    mark_retryable,
)
from repro.fs import path as _p
from repro.phoenix.api import InputSpec
from repro.partition.partitioner import auto_fragment_bytes, plan_fragments
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import BuiltCluster

__all__ = [
    "DistributedJob",
    "DistributedResult",
    "DistPlan",
    "ShardAssignment",
    "ShardFragment",
    "plan_distribution",
    "DistributedEngine",
]

#: recovery passes allowed beyond one per candidate node (corrupt-artifact
#: rebuilds and in-place reruns draw on the same budget)
_MAX_REBUILDS = 3


@dataclasses.dataclass(frozen=True)
class ShardFragment:
    """One integrity-checked fragment assigned to a shard.

    ``p0``/``p1`` locate the fragment's slice inside the replica payload
    (-1 when the input carries no payload); ``index`` is the fragment's
    position in the *global* plan, which fixes the merge order.
    """

    size: int
    p0: int = -1
    p1: int = -1
    index: int = 0


@dataclasses.dataclass
class ShardAssignment:
    """A contiguous run of fragments owned by one SD node."""

    index: int
    node: str
    fragments: list
    size: int


@dataclasses.dataclass
class DistPlan:
    """The outcome of distribution planning for one job."""

    app: str
    #: "bytes" (fragment plan over a byte payload) or "split" (the app's
    #: own split function shards a non-byte payload, e.g. matrix rows)
    kind: str
    shards: list
    n_fragments: int


@dataclasses.dataclass
class DistributedJob:
    """One logical job to be sharded across the SD replica set.

    ``n_shards=None`` uses every available replica; ``fragment_bytes``
    fixes the global fragment plan (pass the same value to a single-node
    partitioned run to compare outputs byte for byte) and ``None`` picks
    the runtime's memory-safe size, cut smaller so every shard gets work.
    """

    app: str
    input_path: str
    input_size: int
    n_shards: int | None = None
    fragment_bytes: int | None = None
    params: dict = dataclasses.field(default_factory=dict)
    tenant: str = "default"
    #: control-plane compatibility (a distributed job is never pinned)
    sd_node: str = ""
    mode: str = "distributed"


@dataclasses.dataclass
class DistributedResult:
    """Outcome of a distributed run (duck-compatible with JobResult)."""

    app: str
    output: object
    elapsed: float
    n_shards: int
    shard_nodes: list
    merge_node: str
    shuffle_bytes: int
    shuffle_transfers: int
    #: absolute sim times of phase completions (chaos windows key off this)
    timeline: dict
    plan: DistPlan | None = dataclasses.field(default=None, repr=False)
    #: the job's shuffle-dir id (``<app>-<seq>``)
    job_id: str = ""
    #: recovery accounting: partial restarts, dedup, failures
    recovery: dict = dataclasses.field(default_factory=dict)

    @property
    def name(self) -> str:
        """The application name (JobResult compatibility)."""
        return self.app

    @property
    def where(self) -> str:
        """Where the final merge ran (JobResult compatibility)."""
        return self.merge_node

    @property
    def offloaded(self) -> bool:
        """Distributed runs always execute on the SD fleet."""
        return True


def plan_distribution(
    job: DistributedJob,
    payload: object,
    nodes: _t.Sequence[str],
    mem_capacity: int,
    cfg,
) -> DistPlan:
    """Cut one job into per-node shards of integrity-checked fragments.

    Deterministic in (job, payload, nodes): planning on a smaller
    replica set re-plans the *same global fragments* over fewer shards,
    which is what keeps outputs byte-identical at every width.
    """
    if not nodes:
        raise OffloadError(f"distributed job {job.app!r} needs at least one SD node")
    spec = spec_for_app(job.app, job.params)
    want = job.n_shards if job.n_shards is not None else len(nodes)
    n = max(1, min(int(want), len(nodes)))

    if payload is not None and not isinstance(payload, (bytes, bytearray)):
        # Non-byte payloads (matmul's matrices) shard through the app's
        # own split function at map time; the plan only fixes the declared
        # byte apportionment and the shard count.
        base, extra = divmod(job.input_size, n)
        shards = [
            ShardAssignment(
                index=i,
                node=nodes[i],
                fragments=[],
                size=base + (1 if i < extra else 0),
            )
            for i in range(n)
        ]
        return DistPlan(
            app=job.app, kind="split", shards=shards, n_fragments=len(shards)
        )

    frag = job.fragment_bytes
    if frag is None:
        # the runtime-chosen fragment (Section IV-C), capped so every
        # shard still gets work
        frag = min(
            max(1, math.ceil(job.input_size / n)),
            auto_fragment_bytes(mem_capacity, spec.profile, cfg),
        )
    inp = InputSpec(
        path=job.input_path,
        size=job.input_size,
        payload=payload,
        params=dict(job.params),
    )
    fplan = plan_fragments(
        inp, int(frag), mem_capacity, spec.profile, cfg, delimiters=spec.delimiters
    )
    fragments: list[ShardFragment] = []
    off = 0
    for gi, piece in enumerate(fplan.fragments):
        if piece.payload is not None:
            ln = len(piece.payload)
            fragments.append(ShardFragment(size=piece.size, p0=off, p1=off + ln, index=gi))
            off += ln
        else:
            fragments.append(ShardFragment(size=piece.size, index=gi))
    total = len(fragments)
    n_eff = max(1, min(n, total))
    shards = []
    for i in range(n_eff):
        lo = (i * total) // n_eff
        hi = ((i + 1) * total) // n_eff
        chunk = fragments[lo:hi]
        shards.append(
            ShardAssignment(
                index=i,
                node=nodes[i],
                fragments=chunk,
                size=sum(f.size for f in chunk),
            )
        )
    return DistPlan(app=job.app, kind="bytes", shards=shards, n_fragments=total)


class _ShardFailure(Exception):
    """Internal: one shard node failed its invocation (carries the cause)."""

    def __init__(self, node: str, cause: BaseException, phase: str = "?"):
        super().__init__(f"shard on {node} failed at {phase}: {cause!r}")
        self.node = node
        self.cause = cause
        self.phase = phase


class DistributedEngine:
    """Shard one job across the SD replica set and merge at one of them.

    Parameters
    ----------
    cluster:
        The built cluster whose SD nodes hold replicas of the input.
    inflight, inflight_ops:
        Optional shared per-node ledgers of calls in flight and of the
        predicted ops of the ``dist_map`` shards among them (the scheduler
        passes the offload engine's, so shard load shows up in placement
        decisions).
    """

    def __init__(
        self,
        cluster: "BuiltCluster",
        inflight: dict | None = None,
        inflight_ops: dict | None = None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.inflight: dict[str, int] = inflight if inflight is not None else {}
        self.inflight_ops: dict[str, int] = (
            inflight_ops if inflight_ops is not None else {}
        )
        #: always 0; ``perfbench/cluster.py`` still reads both under ``--trace 1``
        self.spec_launched = self.spec_won = 0
        self._seq = itertools.count(1)

    # -- public entry point -------------------------------------------------

    def run(
        self,
        job: DistributedJob,
        nodes: _t.Sequence[str] | None = None,
        timeout: float | None = None,
    ) -> Event:
        """Run ``job``; the Process value is a :class:`DistributedResult`.

        ``nodes`` restricts the candidate replica set (default: every SD
        node holding the input).  ``timeout`` bounds each smartFAM
        invocation.  The run starts the cluster's failure detector; a call
        that ends in its node's quarantine, would start on a quarantined
        node, or misses that deadline (a daemon alive but hung) turns the
        shard node into an evicted node and a recovery pass on the
        survivors.
        """
        self.cluster.start_detector()
        return self.sim.spawn(self._run(job, nodes, timeout), name=f"dist:{job.app}")

    # -- one job ------------------------------------------------------------

    def _candidates(
        self, job: DistributedJob, nodes: _t.Sequence[str] | None
    ) -> list[str]:
        pool = list(nodes) if nodes is not None else [
            n.name for n in self.cluster.sd_nodes
        ]
        out = []
        for name in pool:
            try:
                self.cluster.node(name).fs.vfs.stat(job.input_path)
            except Exception:
                continue
            out.append(name)
        return out

    def _record_failure(
        self, recovery: dict, node: str, phase: str, cause: BaseException
    ) -> None:
        recovery["failures"].append(
            {
                "node": node,
                "phase": phase,
                "cause": type(cause).__name__,
                "at": round(self.sim.now, 6),
            }
        )
        self.sim.obs.count(f"dist.fail.{phase}")

    def _run(
        self,
        job: DistributedJob,
        nodes: _t.Sequence[str] | None,
        timeout: float | None,
    ) -> _t.Generator:
        obs = self.sim.obs
        seq = next(self._seq)
        obs.count("dist.jobs")
        track = f"dist:{job.app}#{seq}"
        job_id = f"{job.app}-{seq}"
        t0 = self.sim.now
        recovery: dict = {
            "evicted": set(),
            "failures": [],
            "partial_restarts": 0,
            "dedup_transfers": 0,
        }
        with obs.span(
            "dist.job", cat="dist", track=track, force=True,
            app=job.app, input_bytes=job.input_size,
        ) as root:
            cand = self._candidates(job, nodes)
            if not cand:
                raise DistributedJobError(job.app)
            try:
                result = yield from self._attempt(
                    job, cand, job_id, timeout, track, recovery
                )
            except Exception as exc:
                self._remove_shuffle_dir(job_id)
                if not is_retryable(exc):
                    raise
                # every evicted node was quarantined or missed a deadline
                raise DistributedJobError(
                    job.app,
                    excluded=recovery["evicted"],
                    failures=recovery["failures"],
                ) from exc
            result.elapsed = self.sim.now - t0
            result.job_id = job_id
            result.recovery = {
                "partial_restarts": recovery["partial_restarts"],
                "dedup_transfers": recovery["dedup_transfers"],
                "failures": list(recovery["failures"]),
            }
            root.set(
                shards=result.n_shards,
                merge_node=result.merge_node,
                shuffle_bytes=result.shuffle_bytes,
                partial_restarts=recovery["partial_restarts"],
            )
            return result

    def _remove_shuffle_dir(self, job_id: str) -> None:
        """Remove a failed job's shuffle dir from every SD node.

        Host-driven VFS teardown, so it works even on nodes whose daemons
        are dead — exactly the nodes that would leak the directory.
        """
        path = f"/export/shuffle/{job_id}"
        cleaned = 0
        for node in self.cluster.sd_nodes:
            if node.fs.vfs.exists(path):
                node.fs.vfs.rmtree(path)
                cleaned += 1
        if cleaned:
            self.sim.obs.count("dist.shuffle.cleaned", cleaned)

    # -- the recovery loop --------------------------------------------------

    def _attempt(
        self,
        job: DistributedJob,
        cand: list[str],
        job_id: str,
        timeout: float | None,
        track: str,
        recovery: dict,
    ) -> _t.Generator:
        """The job's one attempt: a fixpoint loop of recovery passes.

        Each pass runs exactly the work whose artifacts are missing from
        the manifest, and each failure is decided once.  A quarantine or a
        missed deadline evicts the node: what it held is invalidated and
        its shards move to survivors.  A corrupt artifact is invalidated
        and rebuilt.  A map shard that failed any other way moves to
        another survivor (its node stays alive, so it can still hold parts
        and merge); any other transient failure reruns the missing work
        where it was.
        Every pass draws on one budget; when it runs out, or no survivors
        remain, the failure propagates to :meth:`_run`.
        """
        sim, cluster = self.sim, self.cluster
        obs = sim.obs
        first = cluster.node(cand[0])
        # Planner peek: boundaries only — content never leaves the SD.
        payload = first.fs.vfs.read(job.input_path) or None
        with obs.span("dist.plan", cat="dist", track=track, force=True) as sp:
            plan = plan_distribution(
                job, payload, cand, first.memory.capacity, cluster.config.phoenix
            )
            sp.set(shards=len(plan.shards), kind=plan.kind)
        obs.count("dist.shards", len(plan.shards))
        shuffle_dir = f"/export/shuffle/{job_id}"
        rank = {name: i for i, name in enumerate(cand)}
        timeline: dict[str, float] = {"started": sim.now}
        acc = {"bytes": 0, "transfers": 0}
        alive = set(cand)
        assignment = {s.index: s.node for s in plan.shards}
        manifest = AttemptManifest()

        base = {
            "job_id": job_id,
            "app": job.app,
            "app_params": dict(job.params),
            "input_path": job.input_path,
            "input_size": job.input_size,
            "kind": plan.kind,
            "n_shards": len(plan.shards),
            "total_fragments": plan.n_fragments,
            "shuffle_dir": shuffle_dir,
        }
        params_by_shard = {
            s.index: dict(
                base,
                shard_index=s.index,
                shard_size=s.size,
                fragments=[[f.size, f.p0, f.p1, f.index] for f in s.fragments],
            )
            for s in plan.shards
        }

        max_passes = len(cand) + _MAX_REBUILDS + 2
        for _ in range(max_passes):
            try:
                return (
                    yield from self._attempt_pass(
                        job, plan, shuffle_dir, base, params_by_shard,
                        alive, assignment, manifest, rank, timeout, track,
                        timeline, acc, recovery,
                    )
                )
            except _ShardFailure as fail:
                cause = fail.cause
                if not is_retryable(cause):
                    raise cause
                self._record_failure(recovery, fail.node, fail.phase, cause)
                if isinstance(cause, (NodeDownError, OffloadTimeoutError)):
                    # quarantined, or silent past its deadline: evict the
                    # node and move its work to the survivors
                    recovery["evicted"].add(fail.node)
                    alive.discard(fail.node)
                    if not alive:
                        raise cause
                    manifest.invalidate_node(fail.node)
                    self._reassign(assignment, alive, rank)
                elif isinstance(cause, ShuffleArtifactError):
                    manifest.invalidate_artifact(cause)
                elif fail.phase == "map" and len(alive) > 1:
                    self._reassign(assignment, alive - {fail.node}, rank)
                recovery["partial_restarts"] += 1
                obs.count("dist.restart.partial")
        raise mark_retryable(
            OffloadError(
                f"distributed job {job.app!r}: recovery exceeded "
                f"{max_passes} passes in {job_id!r}"
            )
        )

    def _reassign(self, assignment: dict, alive: set, rank: dict) -> None:
        """Move the shards of nodes outside ``alive`` to the least loaded
        nodes in it."""
        load = {name: 0 for name in alive}
        for node in assignment.values():
            if node in load:
                load[node] += 1
        for i in sorted(assignment):
            if assignment[i] in alive:
                continue
            target = min(load, key=lambda nm: (load[nm], rank[nm]))
            assignment[i] = target
            load[target] += 1

    # -- one recovery pass --------------------------------------------------

    def _attempt_pass(
        self,
        job: DistributedJob,
        plan: DistPlan,
        shuffle_dir: str,
        base: dict,
        params_by_shard: dict,
        alive: set,
        assignment: dict,
        manifest: AttemptManifest,
        rank: dict,
        timeout: float | None,
        track: str,
        timeline: dict,
        acc: dict,
        recovery: dict,
    ) -> _t.Generator:
        sim = self.sim
        obs = sim.obs

        # ---- map: only the shards whose artifacts are missing
        todo = [s.index for s in plan.shards if s.index not in manifest.maps]
        if todo:
            with obs.span("dist.map", cat="dist", track=track, force=True) as sp:
                yield from self._map_phase(
                    todo, params_by_shard, assignment, manifest, timeout
                )
                sp.set(shards=len(todo))
            timeline["map_done"] = sim.now
        timeline.setdefault("map_done", sim.now)

        # ---- gather fragment outputs in global order at the node already
        # holding the most output bytes (minimum transfer)
        all_parts = []
        for i, art in manifest.maps.items():
            for part in art.parts:
                all_parts.append(
                    (int(part["index"]), art.node, part["path"],
                     int(part["bytes"]), i)
                )
        all_parts.sort()
        local: dict[str, int] = {}
        for _, nm, _, nbytes, _ in all_parts:
            if nm in alive:  # dist_merge needs a live daemon
                local[nm] = local.get(nm, 0) + nbytes
        merge_node = (
            max(local, key=lambda nm: (local[nm], -rank[nm]))
            if local
            else min(alive, key=lambda nm: rank[nm])
        )
        parts_for_merge: list[dict] = []
        transfers = []
        deduped = 0
        for gi, nm, path, nbytes, i in all_parts:
            if nm == merge_node:
                parts_for_merge.append({"path": path, "bytes": nbytes, "shard": i})
            else:
                dst = f"{shuffle_dir}/final/part{gi}"
                key = (merge_node, gi)
                if key in manifest.gathered:
                    deduped += 1
                else:
                    transfers.append(
                        (nm, merge_node, path, dst, max(1, nbytes), gi, key)
                    )
                parts_for_merge.append({"path": dst, "bytes": nbytes, "shard": i})
        with obs.span(
            "shuffle.exchange", cat="dist", track=track, force=True
        ) as sp:
            moved = yield from self._run_transfers(
                transfers, manifest.gathered, acc
            )
            if deduped:
                recovery["dedup_transfers"] += deduped
                obs.count("dist.transfer.dedup", deduped)
            sp.set(bytes=moved, transfers=len(transfers))
        timeline["gather_done"] = sim.now

        # ---- final merge at the minimum-transfer node
        with obs.span(
            "dist.merge", cat="dist", track=track, force=True, node=merge_node
        ):
            params = dict(base, parts=parts_for_merge)
            node_name, ok, value = yield sim.spawn(
                self._invoke_on(merge_node, "dist_merge", params, timeout, "merge"),
                name=f"dist-merge:{merge_node}",
            )
            if not ok:
                raise _ShardFailure(node_name, value, phase="merge")
        timeline["merge_done"] = sim.now

        return DistributedResult(
            app=job.app,
            output=value.get("output"),
            elapsed=sim.now - timeline["started"],
            n_shards=len(plan.shards),
            # where each shard's committed map artifact actually lives — a
            # dead mapper whose artifact was reused still shows up here
            shard_nodes=[
                manifest.maps[s.index].node
                if s.index in manifest.maps
                else assignment[s.index]
                for s in plan.shards
            ],
            merge_node=merge_node,
            shuffle_bytes=acc["bytes"],
            shuffle_transfers=acc["transfers"],
            timeline=timeline,
            plan=plan,
        )

    # -- map phase -----------------------------------------------------------

    def _map_phase(
        self,
        todo: list,
        params_by_shard: dict,
        assignment: dict,
        manifest: AttemptManifest,
        timeout: float | None,
    ) -> _t.Generator:
        """Run the ``todo`` map shards, registering each success.

        The first failure interrupts the shards still in flight and fails
        the pass; what they had not committed re-runs on the next one.
        """
        sim = self.sim
        pending = {}  # proc -> shard index
        for i in todo:
            node = assignment[i]
            proc = sim.spawn(
                self._invoke_on(node, "dist_map", params_by_shard[i], timeout, "map"),
                name=f"dist-map:{node}",
            )
            pending[proc] = i
        while pending:
            waits = list(pending)
            yield sim.any_of(waits)
            abort: _ShardFailure | None = None
            for proc in [p for p in waits if p.triggered]:
                i = pending.pop(proc)
                node_name, ok, value = proc.value
                if ok:
                    assignment[i] = node_name
                    manifest.register_map(i, node_name, value)
                elif abort is None:
                    abort = _ShardFailure(node_name, value, phase="map")
            if abort is not None:
                for other in pending:
                    other.interrupt("map phase aborted")
                raise abort

    # -- building blocks ----------------------------------------------------

    def _invoke_on(
        self, node_name: str, module: str, params: dict, timeout: float | None,
        phase: str,
    ) -> _t.Generator:
        """Invoke one SD-side module; returns (node, ok, value-or-exc)."""
        obs = self.sim.obs
        channel = self.cluster.host_channels.get(node_name)
        if channel is None:
            return (
                node_name,
                False,
                OffloadError(f"no smartFAM channel to {node_name!r}"),
            )
        if node_name in self.cluster.health.unhealthy:
            # presumed dead: a call there would only wait out its deadline
            return (node_name, False, NodeDownError(node_name, module))
        # a map shard's work is its slice of the job's predicted ops
        ops = (
            predicted_ops(params["app"], params["app_params"], params["shard_size"])
            if module == "dist_map" else 0
        )
        self.inflight[node_name] = self.inflight.get(node_name, 0) + 1
        self.inflight_ops[node_name] = self.inflight_ops.get(node_name, 0) + ops
        obs.count(f"dist.invoke.{phase}")
        try:
            with obs.span(
                "dist.shard", cat="dist", track=node_name, force=True,
                phase=phase, module=module,
            ) as sp:
                try:
                    value = yield channel.invoke(module, params, timeout=timeout)
                except Exception as exc:
                    sp.set(error=type(exc).__name__)
                    return (node_name, False, exc)
            return (node_name, True, value)
        finally:
            self.inflight[node_name] -= 1
            self.inflight_ops[node_name] -= ops

    def _run_transfers(
        self, transfers: list[tuple], landed: dict, acc: dict
    ) -> _t.Generator:
        """Run gather transfers concurrently; returns delivered bytes.

        ``transfers`` are ``(src, dst, src_path, dst_path, nbytes,
        part, key)``.  Every transfer that lands is registered as
        ``landed[key] = dst_path`` and counted in ``acc`` — also when
        another one fails, so the rerun ships only the lost ones.  A
        transfer that used up its in-place retries fails the pass.
        """
        if not transfers:
            return 0
        sim = self.sim
        procs = [
            sim.spawn(self._transfer(*t[:6]), name=f"shuffle:{t[0]}->{t[1]}")
            for t in transfers
        ]
        gathered = yield sim.all_of(procs)
        moved = 0
        failure: _ShardFailure | None = None
        for t, proc in zip(transfers, procs):
            ok, value = gathered[proc]
            if ok:
                moved += value
                landed[t[6]] = t[3]
                acc["transfers"] += 1
            elif failure is None:
                failure = _ShardFailure(t[1], value, phase="gather")
        acc["bytes"] += moved
        if failure is not None:
            raise failure
        return moved

    def _transfer(
        self,
        src: str,
        dst: str,
        src_path: str,
        dst_path: str,
        nbytes: int,
        part: int,
    ) -> _t.Generator:
        """One gather leg of fragment output ``part``: SD disk read ->
        fabric -> SD disk write.

        Fault site ``shuffle.exchange`` (ctx: src, dst, part, nbytes):
        *fail*/*drop*/*corrupt* cost a bounded in-place retry (then the pass),
        *delay* adds latency before the payload lands.  Returns
        ``(True, bytes)`` or ``(False, exc)`` — never raises, so a batch
        of concurrent transfers can be inspected as a whole.
        """
        sim = self.sim
        obs = sim.obs
        src_node = self.cluster.node(src)
        dst_node = self.cluster.node(dst)
        last: BaseException | None = None
        for att in range(RETRIES + 1):
            inj = sim.faults
            decision = None
            if inj is not None:
                decision = inj.check(
                    "shuffle.exchange", src=src, dst=dst, part=part, nbytes=nbytes,
                )
            try:
                with obs.span(
                    "shuffle.transfer", cat="dist", track=src,
                    part=part, bytes=nbytes, dst=dst,
                ):
                    if decision is not None and decision.action in ("fail", "kill"):
                        raise mark_retryable(
                            NetworkError(
                                f"injected shuffle fault {src}->{dst} part{part}"
                            )
                        )
                    if decision is not None and decision.action == "delay":
                        yield sim.timeout(decision.delay)
                    data = src_node.fs.vfs.read(src_path)
                    yield src_node.fs.read(src_path, nbytes=nbytes)
                    yield self.cluster.fabric.transfer(src, dst, nbytes, kind="shuffle")
                    if decision is not None and decision.action in ("drop", "corrupt"):
                        # the wire cost was paid but the payload never
                        # landed intact — retry ships it again
                        raise mark_retryable(
                            NetworkError(
                                f"shuffle payload lost {src}->{dst} part{part}"
                            )
                        )
                    dst_node.fs.vfs.mkdir(
                        _p.parent(_p.normalize(dst_path)), parents=True
                    )
                    yield dst_node.fs.write(dst_path, data=data, size=nbytes)
                obs.count("shuffle.bytes", nbytes)
                obs.count("shuffle.transfers")
                return (True, nbytes)
            except Exception as exc:
                last = exc
                if not is_retryable(exc) or att == RETRIES:
                    return (False, exc)
                obs.count("retry.count")
                obs.count("retry.shuffle")
                yield sim.timeout(RETRY_BACKOFF * (2.0 ** att))
        return (False, last)
