"""The offload engine: run a DataJob wherever placement said.

Offloaded jobs cross the smartFAM channel; host-placed jobs run in the
host's own Phoenix runtime with the input pulled through the NFS mount
(exactly what the paper's Host-only baseline pays for).
"""

from __future__ import annotations

import typing as _t

from repro.core.job import DataJob, JobResult
from repro.core.loadbalance import Placement, predicted_ops
from repro.errors import InterruptError, OffloadError, OffloadTimeoutError
from repro.fs import path as _p
from repro.phoenix.api import InputSpec
from repro.phoenix.runtime import PhoenixRuntime
from repro.partition.extended import ExtendedPhoenixRuntime
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import BuiltCluster

__all__ = ["OffloadEngine"]


class OffloadEngine:
    """Executes data jobs against a built cluster."""

    def __init__(self, cluster: "BuiltCluster"):
        self.cluster = cluster
        self.sim = cluster.sim
        #: jobs run via smartFAM / on the host (stats)
        self.offloaded = 0
        self.host_runs = 0
        #: jobs currently placed on each node (placement-time load signal)
        self.inflight: dict[str, int] = {}
        #: their predicted CPU ops per node (the adaptive policy's backlog)
        self.inflight_ops: dict[str, int] = {}

    def run(
        self, job: DataJob, placement: Placement, timeout: float | None = None
    ) -> Event:
        """Run ``job`` per ``placement``; Process value is a JobResult.

        ``timeout`` bounds the attempt wherever it runs; expiry raises
        :class:`~repro.errors.OffloadTimeoutError`.  Offloaded, it covers
        queueing + execution on the SD node — the backstop for a daemon
        that is alive but hung (a quarantine of the node ends the call
        sooner, with :class:`~repro.errors.NodeDownError`).  On the host
        it ends a run whose NFS message was lost: the run is aborted,
        handing back its memory and withdrawing its CPU tasks.
        """
        if placement.offload:
            gen = self._run_offloaded(job, placement, timeout)
        else:
            gen = self._run_on_host(job, timeout)
        target = placement.node if placement.offload else self.cluster.host.name
        ops = predicted_ops(job.app, job.params, job.input_size)
        self.inflight[target] = self.inflight.get(target, 0) + 1
        self.inflight_ops[target] = self.inflight_ops.get(target, 0) + ops

        def _tracked() -> _t.Generator:
            try:
                result = yield self.sim.spawn(gen, name=f"offload:{job.app}")
                return result
            finally:
                self.inflight[target] -= 1
                self.inflight_ops[target] -= ops

        return self.sim.spawn(_tracked(), name=f"offload-track:{job.app}")

    # -- smartFAM path ---------------------------------------------------------

    def _run_offloaded(
        self, job: DataJob, placement: Placement, timeout: float | None = None
    ) -> _t.Generator:
        channel = self.cluster.host_channels.get(placement.node)
        if channel is None:
            raise OffloadError(f"no smartFAM channel to {placement.node!r}")
        t0 = self.sim.now
        result = yield channel.invoke(job.app, job.invoke_params(), timeout=timeout)
        self.offloaded += 1
        return JobResult(
            name=job.app,
            where=placement.node,
            elapsed=self.sim.now - t0,
            output=getattr(result, "output", result),
            offloaded=True,
        )

    # -- host path -----------------------------------------------------------------

    def _host_view(self, job: DataJob) -> InputSpec:
        """The job's SD-resident input as seen through the host's mount."""
        sd_name = job.sd_node or self.cluster.sd_nodes[0].name
        export_prefix = "/export"
        if not _p.is_under(job.input_path, export_prefix):
            raise OffloadError(
                f"data job input {job.input_path!r} is not under the SD export"
            )
        rel = job.input_path[len(export_prefix):] or "/"
        host_path = _p.join(f"/mnt/{sd_name}", rel.lstrip("/"))
        # peek the payload from the SD's VFS so splitting can proceed; the
        # byte charges still cross NFS when the runtime reads the mount path
        sd = self.cluster.node(sd_name)
        payload = sd.fs.vfs.read(job.input_path) or None
        return InputSpec(
            path=host_path, size=job.input_size, payload=payload, params=dict(job.params)
        )

    def _run_on_host(self, job: DataJob, timeout: float | None) -> _t.Generator:
        host = self.cluster.host
        cfg = self.cluster.config.phoenix
        inp = self._host_view(job)
        spec = _spec_for(job)
        t0 = self.sim.now
        if job.mode == "partitioned":
            ext = ExtendedPhoenixRuntime(host, cfg)
            run = ext.run(spec, inp, fragment_bytes=job.fragment_bytes)
        else:
            run = PhoenixRuntime(host, cfg).run(spec, inp, mode=job.mode)
        if timeout is not None:
            # a bare timer: the completion path gains no event
            def expire(_ev: Event) -> None:
                if run.is_alive:
                    run.abort("host deadline", cancel=host.cpu.cancel)

            self.sim.timeout(timeout).add_callback(expire)
        try:
            result = yield run
        except InterruptError:
            raise OffloadTimeoutError(job.app, timeout, node=host.name) from None
        output = result.output
        self.host_runs += 1
        return JobResult(
            name=job.app,
            where=host.name,
            elapsed=self.sim.now - t0,
            output=output,
            offloaded=False,
        )


def _spec_for(job: DataJob):
    from repro.apps import spec_for_app

    return spec_for_app(job.app, job.params)
