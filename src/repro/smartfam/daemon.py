"""The smartFAM daemons: SD-side dispatcher and host-side caller (Fig 5).

``SDSmartFAM`` runs on the storage node: it creates one log file per
preloaded module under the export's log directory, watches them with
inotify, and on each host write dispatches the module with the decoded
parameters, writing the result back into the log.

``HostSmartFAM`` runs on the host: ``invoke(module, params)`` performs the
paper's five invoke steps and four return steps through the NFS mount,
returning an event carrying the module's result.  The host-side "inotify"
is NFS mtime polling (kernel inotify does not see server-side writes),
with the interval from :class:`~repro.config.SmartFAMConfig`.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.config import SmartFAMConfig
from repro.errors import (
    RETRIES,
    RETRY_BACKOFF,
    InterruptError,
    OffloadTimeoutError,
    ProtocolError,
    SmartFAMError,
    is_retryable,
    mark_retryable,
)
from repro.fs import path as _p
from repro.fs.inotify import IN_MODIFY
from repro.fs.nfs import NFSMount
from repro.sim.events import Event
from repro.sim.sync import Semaphore
from repro.smartfam.logfile import INVOKE, RESULT, LogFileCodec, LogRecord
from repro.smartfam.registry import ModuleRegistry

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node

__all__ = ["SDSmartFAM", "HostSmartFAM", "LOG_DIR"]

#: log-file folder inside the SD export ("A log-file folder, created in NFS
#: at the server side", Section IV-A)
LOG_DIR = "/export/sdlog"

_seqs = itertools.count(1)


class SDSmartFAM:
    """The smartFAM daemon on a McSD storage node."""

    def __init__(
        self,
        node: "Node",
        registry: ModuleRegistry,
        cfg: SmartFAMConfig | None = None,
        log_dir: str = LOG_DIR,
        phoenix_cfg=None,
    ):
        from repro.config import PhoenixConfig

        self.node = node
        self.sim = node.sim
        self.registry = registry
        self.cfg = cfg or SmartFAMConfig()
        self.log_dir = _p.normalize(log_dir)
        self.phoenix_cfg = phoenix_cfg or PhoenixConfig()
        #: module invocations served (stats)
        self.invocations = 0
        #: results silently lost (injected daemon deaths; stats)
        self.results_dropped = 0
        #: a killed daemon stops dispatching and never answers (see kill())
        self.dead = False
        #: liveness ping loop (started on demand by the scheduler)
        self._hb_proc = None
        #: sequence numbers currently being executed (idempotency guard)
        self._in_flight: set[int] = set()
        node.fs.vfs.mkdir(self.log_dir, parents=True)
        for name in registry.names():
            path = self.log_path(name)
            node.fs.vfs.create(path, exist_ok=True)
            watch = node.inotify.add_watch(path, IN_MODIFY, watch_children=False)
            self.sim.spawn(
                self._dispatch_loop(name, path, watch),
                name=f"smartfam:{node.name}:{name}",
            )

    def log_path(self, module: str) -> str:
        """The log file of a module."""
        return _p.join(self.log_dir, f"{module}.log")

    # -- fault injection (Section VI: fault tolerance future work) ---------

    def kill(self) -> None:
        """Kill the daemon: it stops dispatching and never answers again.

        The smartFAM channel gives no failure notification — the log files
        stay on disk, the host's INVOKE writes land, and nothing ever
        replies — so the host only learns of the death through its own
        deadlines.  In-flight module runs complete (the node is alive, the
        daemon process died) but their results are dropped.
        """
        self.dead = True

    def revive(self) -> None:
        """Restart a killed daemon (it resumes dispatching new writes)."""
        self.dead = False

    # -- heartbeats (failure-detector feed) --------------------------------

    def start_heartbeat(self, fabric, dst: str, interval: float) -> None:
        """Ping ``dst`` every ``interval`` sim-seconds over the fabric.

        Idempotent.  A dead daemon skips its pings (the process that
        would send them is gone) but the loop survives, so a
        :meth:`revive` resumes beating — that resumption is what moves a
        quarantined node into probation at the failure detector.
        """
        if self._hb_proc is not None:
            return
        self._hb_proc = self.sim.spawn(
            self._heartbeat_loop(fabric, dst, interval),
            name=f"smartfam-hb:{self.node.name}",
        )

    def _heartbeat_loop(self, fabric, dst: str, interval: float) -> _t.Generator:
        """Fault site ``heartbeat.drop`` (ctx: node): *drop*/*fail* swallow
        one ping, *delay* postpones it — lost pings raise suspicion at the
        receiver; they are never an error here."""
        while True:
            yield self.sim.timeout(interval)
            if self.dead:
                continue
            inj = self.sim.faults
            if inj is not None:
                decision = inj.check("heartbeat.drop", node=self.node.name)
                if decision is not None:
                    if decision.action == "delay":
                        yield self.sim.timeout(decision.delay)
                    elif decision.action in ("drop", "fail", "kill", "corrupt"):
                        self.sim.obs.count("fault.heartbeat")
                        continue
            try:
                yield fabric.transfer(
                    self.node.name, dst, nbytes=64, kind="heartbeat"
                )
            except Exception:
                continue  # a lost ping is the failure detector's signal

    def _dispatch_loop(self, module: str, path: str, watch) -> _t.Generator:
        """Steps 2-4 of the invoke protocol, forever.

        Dispatch guards: every write to the log fires inotify, and the
        daemon runs the *latest* INVOKE record, keyed on its sequence
        number.  A seq is skipped while a run for it is *in flight* or
        once its RESULT is already in the log.  Both guards matter even
        though the host never re-sends a seq: each RESULT write fires
        inotify again, and a timed-out call releases the host's module
        lock, so a later call's INVOKE (or a late RESULT) can land while
        an older run is still going — without the guards the daemon
        would run the latest INVOKE once per such write.

        Resilience: a transient read failure (torn write, injected disk
        fault) skips the event rather than killing the loop — the daemon
        is a long-lived service, and the next write re-fires inotify.
        """
        obs = self.sim.obs
        track = f"{self.node.name}:{module}"
        while True:
            yield watch.queue.get()  # Step 2: inotify fires
            if self.dead:
                continue  # killed daemon: the write lands, nobody reacts
            inj = self.sim.faults
            if inj is not None:
                decision = inj.check("fam.dispatch", module=module, node=self.node.name)
                if decision is not None and decision.action == "drop":
                    continue  # the daemon "missed" the notification
                if decision is not None and decision.action == "delay":
                    # a stalled dispatch: the module runs late (straggler)
                    yield self.sim.timeout(decision.delay)
            with obs.span(
                "fam.dispatch", cat="smartfam", track=track, module=module
            ) as sp:
                # Step 3: the Daemon opens the log and retrieves parameters.
                try:
                    with obs.span("fam.dispatch.read_log", cat="smartfam", track=track):
                        payload = yield self.node.fs.read(
                            path, nbytes=self.cfg.logfile_bytes
                        )
                    record = LogFileCodec.latest(payload, INVOKE)
                except Exception as exc:
                    if not is_retryable(exc):
                        raise
                    # A torn/garbage write or a transient disk error must
                    # not kill the daemon: skip the event; a well-formed
                    # record (or the host's retry) will fire inotify again.
                    self.sim.obs.count("smartfam.corrupt_log")
                    continue
                if (
                    record is None
                    or record.seq in self._in_flight
                    or LogFileCodec.find(payload, RESULT, record.seq) is not None
                ):
                    continue  # running, already answered, or our own write
                self._in_flight.add(record.seq)
                sp.set(seq=record.seq)
                yield self.sim.timeout(self.cfg.daemon_dispatch_overhead)
                # Step 4: invoke the data-intensive module.
                self.sim.spawn(
                    self._run_module(module, path, record),
                    name=f"smartfam:{self.node.name}:{module}#{record.seq}",
                )

    def _should_crash(self, module: str) -> bool:
        inj = self.sim.faults
        if inj is not None:
            decision = inj.check("fam.module", module=module, node=self.node.name)
            return decision is not None and decision.action in ("fail", "kill")
        return False

    def _should_drop_result(self, module: str) -> bool:
        """A ``fam.result`` drop models the daemon dying after the module
        ran but before the result record was written."""
        inj = self.sim.faults
        if inj is not None:
            decision = inj.check("fam.result", module=module, node=self.node.name)
            return decision is not None and decision.action == "drop"
        return False

    def _run_module(self, module: str, path: str, record: LogRecord) -> _t.Generator:
        try:
            yield from self._run_module_inner(module, path, record)
        finally:
            # whatever happened — result written, result dropped, module
            # crashed — the seq is no longer executing
            self._in_flight.discard(record.seq)

    def _run_module_inner(
        self, module: str, path: str, record: LogRecord
    ) -> _t.Generator:
        fn = self.registry.get(module)
        self.invocations += 1
        obs = self.sim.obs
        track = f"{self.node.name}:{module}"
        if self._should_crash(module):
            # transient by construction: the module died, not the job
            reply = LogRecord(
                RESULT,
                record.seq,
                module,
                body=mark_retryable(
                    SmartFAMError(f"injected crash in module {module!r}")
                ),
                ok=False,
            )
            yield from self._write_result(path, reply, track)
            return
        with obs.span(
            "fam.module.run", cat="smartfam", track=track,
            module=module, seq=record.seq,
        ) as run_sp:
            try:
                result = yield self.sim.spawn(
                    fn(self.node, dict(record.body or {}), self.phoenix_cfg),
                    name=f"module:{module}#{record.seq}",
                )
                reply = LogRecord(RESULT, record.seq, module, body=result, ok=True)
            except Exception as exc:
                reply = LogRecord(RESULT, record.seq, module, body=exc, ok=False)
                run_sp.set(error=type(exc).__name__)
        if self.dead or self._should_drop_result(module):
            self.results_dropped += 1
            return  # the daemon died before persisting the result
        # Return Step 1: results are written to the module's log file.
        yield from self._write_result(path, reply, track)

    def _write_result(self, path: str, reply: LogRecord, track: str) -> _t.Generator:
        """Persist a RESULT record, riding out transient disk faults.

        The write is the daemon's only chance to answer — losing it to a
        transient error turns a served call into a host-side timeout — so
        it retries a bounded number of times before giving up (at which
        point the host's deadline machinery takes over).
        """
        obs = self.sim.obs
        for attempt in range(RETRIES + 1):
            try:
                with obs.span(
                    "fam.result.write", cat="smartfam", track=track,
                    seq=reply.seq, ok=reply.ok,
                ):
                    current = self.node.fs.vfs.read(path)
                    new_payload = LogFileCodec.append(current, reply)
                    yield self.node.fs.write(
                        path, data=new_payload, size=self.cfg.logfile_bytes,
                        append=False,
                    )
                return
            except Exception as exc:
                if not is_retryable(exc) or attempt == RETRIES:
                    raise
                obs.count("retry.count")
                obs.count("retry.fam.result_write")
                yield self.sim.timeout(RETRY_BACKOFF * (2.0 ** attempt))


class HostSmartFAM:
    """The host-side smartFAM endpoint, bound to one SD node's NFS mount."""

    def __init__(
        self,
        node: "Node",
        mount: NFSMount,
        cfg: SmartFAMConfig | None = None,
        log_dir_on_mount: str = "/sdlog",
    ):
        self.node = node
        self.sim = node.sim
        self.mount = mount
        self.cfg = cfg or SmartFAMConfig()
        self.log_dir = _p.normalize(log_dir_on_mount)
        self._locks: dict[str, Semaphore] = {}
        #: completed invocations (stats)
        self.calls = 0

    def log_path(self, module: str) -> str:
        """Mount-relative path of a module's log file."""
        return _p.join(self.log_dir, f"{module}.log")

    def list_modules(self) -> Event:
        """Discover the SD node's preloaded modules from the host side.

        The log-file directory *is* the module registry as the host can
        see it (one log per preloaded module, Section IV-A), so discovery
        is one NFS readdir.  Process value: sorted module names.
        """

        def _proc() -> _t.Generator:
            names = yield self.mount.listdir(self.log_dir)
            return sorted(
                name[: -len(".log")] for name in names if name.endswith(".log")
            )

        return self.sim.spawn(_proc(), name="smartfam-discover")

    def invoke(self, module: str, params: dict, timeout: float | None = None) -> Event:
        """Offload one call; the returned Process carries the result.

        The log file is a single channel, so concurrent calls to the same
        module from this host serialize (FIFO) on a per-module lock.

        ``timeout`` bounds the wait for the *result* (measured from the
        call, covering queueing + execution); on expiry the call is
        abandoned and :class:`~repro.errors.OffloadTimeoutError` raised —
        the liveness mechanism a dead SD daemon requires.
        """
        if timeout is None:
            return self.sim.spawn(
                self._invoke(module, params), name=f"smartfam-call:{module}"
            )
        return self.sim.spawn(
            self._invoke_with_timeout(module, params, timeout),
            name=f"smartfam-call:{module}",
        )

    def _invoke_with_timeout(
        self, module: str, params: dict, timeout: float
    ) -> _t.Generator:
        inner = self.sim.spawn(
            self._invoke(module, params), name=f"smartfam-inner:{module}"
        )
        timer = self.sim.timeout(timeout)
        yield self.sim.any_of([inner, timer])
        if inner.triggered:
            if not inner.ok:
                raise _t.cast(BaseException, inner.value)
            return inner.value
        inner.interrupt("smartfam timeout")
        # absorb the interrupted process so its failure is not unhandled
        try:
            yield inner
        except Exception:
            pass
        raise OffloadTimeoutError(module, timeout)

    def _lock(self, module: str) -> Semaphore:
        lock = self._locks.get(module)
        if lock is None:
            lock = Semaphore(self.sim, value=1, name=f"famlock:{module}")
            self._locks[module] = lock
        return lock

    def _invoke(self, module: str, params: dict) -> _t.Generator:
        obs = self.sim.obs
        track = f"{self.node.name}:{module}"
        with obs.span(
            "fam.invoke", cat="smartfam", track=track, module=module
        ) as call_sp:
            lock = self._lock(module)
            acq = lock.acquire()
            try:
                yield acq
            except InterruptError:
                # A timed-out caller must not strand the channel: withdraw
                # the queued acquire, or hand a just-granted permit back.
                if not lock.cancel(acq) and acq.triggered:
                    lock.release()
                raise
            try:
                path = self.log_path(module)
                seq = next(_seqs)
                call_sp.set(seq=seq)
                # Invoke Step 1: write the input parameters to the log file.
                with obs.span(
                    "fam.invoke.write_params", cat="smartfam", track=track, seq=seq
                ):
                    current = yield self.mount.read(
                        path, nbytes=self.cfg.logfile_bytes
                    )
                    current = (
                        current if isinstance(current, (bytes, bytearray)) else None
                    )
                    payload = LogFileCodec.append(
                        current,
                        LogRecord(INVOKE, seq, module, body=dict(params)),
                    )
                    yield self.mount.write(
                        path, data=payload, size=self.cfg.logfile_bytes
                    )
                    baseline = yield self.mount.stat(path)
                # Return Steps 2-4: the host-side monitor polls the log's
                # attributes over NFS (cheap getattr round trips) and only
                # re-reads the log when it has actually changed.
                with obs.span(
                    "fam.return.wait", cat="smartfam", track=track, seq=seq
                ) as wait_sp:
                    polls = 0
                    while True:
                        if self.cfg.host_poll_interval > 0:
                            yield self.sim.timeout(self.cfg.host_poll_interval)
                        else:
                            yield self.sim.timeout(0.0)
                        attrs = yield self.mount.stat(path)
                        polls += 1
                        if attrs["mtime"] == baseline["mtime"]:
                            continue
                        baseline = attrs
                        with obs.span(
                            "fam.return.read_log", cat="smartfam", track=track,
                            seq=seq,
                        ):
                            data = yield self.mount.read(
                                path, nbytes=self.cfg.logfile_bytes
                            )
                        record = LogFileCodec.find(
                            data if isinstance(data, (bytes, bytearray)) else None,
                            RESULT,
                            seq,
                        )
                        if record is not None:
                            wait_sp.set(polls=polls)
                            self.calls += 1
                            if not record.ok:
                                raise _as_exception(record.body)
                            return record.body
            finally:
                lock.release()


def _as_exception(body: object) -> BaseException:
    if isinstance(body, BaseException):
        return body
    return SmartFAMError(f"module failed: {body!r}")
