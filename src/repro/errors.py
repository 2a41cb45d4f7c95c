"""Exception hierarchy for the McSD reproduction.

Every failure mode the paper discusses has a dedicated exception so that
tests and benchmarks can assert on *why* something failed (e.g. the original
Phoenix runtime OOM-ing past ~60 % of node memory, Section IV-B).
"""

from __future__ import annotations

import copyreg

__all__ = [
    "McSDError",
    "RETRIES",
    "RETRY_BACKOFF",
    "is_retryable",
    "mark_retryable",
    "SimulationError",
    "DeadlockError",
    "InterruptError",
    "HardwareError",
    "OutOfMemoryError",
    "DiskError",
    "NetworkError",
    "RoutingError",
    "FileSystemError",
    "FileNotFoundInVFS",
    "FileExistsInVFS",
    "NotADirectoryInVFS",
    "IsADirectoryInVFS",
    "StaleHandleError",
    "NFSError",
    "SmartFAMError",
    "ModuleNotRegisteredError",
    "ProtocolError",
    "PhoenixError",
    "PhoenixMemoryError",
    "PartitionError",
    "IntegrityError",
    "OffloadError",
    "OffloadTimeoutError",
    "NodeDownError",
    "ShuffleArtifactError",
    "DistributedJobError",
    "PlacementError",
    "AdmissionError",
    "ConfigError",
    "WorkloadError",
    "ProvenanceError",
    "FaultInjectedError",
    "WorkerCrashError",
    "SpillCorruptionError",
]


class McSDError(Exception):
    """Base class for every error raised by this package.

    ``retryable`` classifies the failure for every retry site in the
    system: *transient* errors (``True``) are worth retrying — the same
    operation may succeed on the next attempt — while *permanent* errors
    (``False``, the default) must fail fast: no amount of retrying fixes a
    missing module, an invalid configuration, or a working set that does
    not fit in memory.  The class attribute is the default for the type;
    individual instances may override it (see :func:`mark_retryable`),
    which is how injected faults flag themselves transient regardless of
    the carrier exception type.
    """

    #: default transient/permanent classification for this error type
    retryable: bool = False
    #: the node the failure happened on, when the raiser knows it; a
    #: retry excludes that node only (None: the node the attempt ran on)
    node: str | None = None

    def __reduce__(self):
        # Module errors cross the smartFAM log file as pickles.  The
        # default reduce calls ``type(self)(*self.args)``, but subclasses
        # take structured arguments and hand one formatted message up, so
        # rebuild from the stored state without re-running ``__init__``.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__ or None


#: in-place retries of a transient failure where nothing sets a budget:
#: the smartFAM result write, a shuffle transfer, both tier write-backs
#: and a worker-pool task; the retry settings that remain default to it
RETRIES = 2
#: base delay in seconds of the retry sites that back off (the result
#: write, a shuffle transfer), doubling per attempt
RETRY_BACKOFF = 0.1


def mark_retryable(exc: BaseException, retryable: bool = True) -> BaseException:
    """Stamp an instance-level transient/permanent override onto ``exc``."""
    try:
        exc.retryable = retryable  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - exceptions with __slots__
        pass
    return exc


def is_retryable(exc: BaseException) -> bool:
    """Whether a failure is transient (retry) or permanent (fail fast).

    Instance-level ``retryable`` wins over the class default; exceptions
    from outside the taxonomy (OSError and friends from real I/O) default
    to non-retryable unless explicitly marked.
    """
    return bool(getattr(exc, "retryable", False))


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------


class SimulationError(McSDError):
    """Error inside the discrete-event kernel."""


class DeadlockError(SimulationError):
    """The simulator ran out of events while processes were still waiting."""


class InterruptError(SimulationError):
    """A simulated process was interrupted while waiting.

    The interrupting cause is available as ``.cause``.
    """

    def __init__(self, cause: object = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


# --------------------------------------------------------------------------
# Hardware models
# --------------------------------------------------------------------------


class HardwareError(McSDError):
    """Error in a hardware model."""


class OutOfMemoryError(HardwareError):
    """A memory allocation exceeded the node's physical + swap capacity."""

    def __init__(self, requested: int, available: int, node: str = "?"):
        super().__init__(
            f"out of memory on {node}: requested {requested} bytes, "
            f"{available} available"
        )
        self.requested = requested
        self.available = available
        self.node = node


class DiskError(HardwareError):
    """Error in the disk model."""


# --------------------------------------------------------------------------
# Network
# --------------------------------------------------------------------------


class NetworkError(McSDError):
    """Error in the network fabric."""


class RoutingError(NetworkError):
    """No route between two endpoints."""


# --------------------------------------------------------------------------
# File systems
# --------------------------------------------------------------------------


class FileSystemError(McSDError):
    """Error in the simulated VFS / local FS / NFS."""


class FileNotFoundInVFS(FileSystemError):
    """Path does not exist."""


class FileExistsInVFS(FileSystemError):
    """Path already exists (exclusive create)."""


class NotADirectoryInVFS(FileSystemError):
    """A path component is a regular file."""


class IsADirectoryInVFS(FileSystemError):
    """Attempted file I/O on a directory."""


class StaleHandleError(FileSystemError):
    """File handle refers to a deleted inode (NFS staleness).

    Transient by definition: re-resolving the path gets a fresh handle.
    """

    retryable = True


class NFSError(FileSystemError):
    """NFS client/server protocol error.

    Transient by default — NFS is a soft-mount-style RPC protocol here and
    a failed round trip says nothing about the next one.  ``node`` names
    the client when its own RPC layer failed the call.
    """

    retryable = True

    def __init__(self, message: str = "", node: str | None = None):
        super().__init__(message)
        if node is not None:
            self.node = node


# --------------------------------------------------------------------------
# smartFAM
# --------------------------------------------------------------------------


class SmartFAMError(McSDError):
    """Error in the smartFAM invocation mechanism."""


class ModuleNotRegisteredError(SmartFAMError):
    """The host invoked a processing module that was never preloaded."""


class ProtocolError(SmartFAMError):
    """Malformed log-file record.

    Transient: a torn read of a mid-append log decodes as garbage once and
    fine on the next read; genuinely corrupt logs burn out the retry
    budget and surface anyway.
    """

    retryable = True


# --------------------------------------------------------------------------
# Phoenix MapReduce runtime
# --------------------------------------------------------------------------


class PhoenixError(McSDError):
    """Error in the Phoenix-style MapReduce runtime."""


class PhoenixMemoryError(PhoenixError):
    """The original Phoenix runtime cannot hold the job's working set.

    The paper (Section IV-B) observed that Phoenix fails once required data
    exceeds ~60 % of node memory; Section V-B reports WC/SM failing beyond
    1.5 GB on the 2 GB testbed nodes.
    """

    def __init__(self, footprint: int, capacity: int, app: str = "?"):
        super().__init__(
            f"Phoenix cannot support {app}: working set {footprint} bytes "
            f"exceeds supportable fraction of {capacity} bytes of memory"
        )
        self.footprint = footprint
        self.capacity = capacity
        self.app = app


# --------------------------------------------------------------------------
# Partitioning
# --------------------------------------------------------------------------


class PartitionError(McSDError):
    """Error planning or applying a partition."""


class IntegrityError(PartitionError):
    """The integrity check could not find a safe fragment boundary."""


# --------------------------------------------------------------------------
# McSD framework
# --------------------------------------------------------------------------


class OffloadError(McSDError):
    """Offloading a job to a smart-storage node failed."""


class OffloadTimeoutError(OffloadError):
    """An offloaded call produced no result within its deadline.

    The smartFAM channel has no connection to break: a daemon that is
    alive but hung just never writes the result record, so the host-side
    deadline is the backstop; a dead daemon is normally caught sooner by
    the failure detector (:class:`NodeDownError`).  ``node`` is where the
    call ran: the SD node, or the host for a host run.
    """

    retryable = True

    def __init__(self, module: str, timeout: float, node: str | None = None):
        where = f" on {node}" if node is not None else ""
        super().__init__(
            f"module {module!r}{where} produced no result within {timeout}s"
        )
        self.module = module
        self.timeout = timeout
        self.node = node


class NodeDownError(OffloadError):
    """The failure detector quarantined the SD node a call was waiting on.

    A quarantined node's daemon is presumed dead, so every smartFAM call
    in flight to it ends at once instead of waiting out its deadline (and
    a distributed call to it fails before it starts).  Transient: the
    work can run on another node.
    """

    retryable = True

    def __init__(self, node: str, module: str):
        super().__init__(f"SD node {node!r} went down during a call to {module!r}")
        self.node = node
        self.module = module


class ShuffleArtifactError(OffloadError):
    """A crc32-framed shuffle artifact failed its integrity check.

    Transient: map shards are deterministic, so the distributed engine
    invalidates the corrupt artifact in the job's manifest and rebuilds
    exactly the lost pieces (a partial restart), giving the job up only
    when its recovery-pass budget is exhausted.  ``shard`` attributes the
    frame back to its producer when known.
    """

    retryable = True

    def __init__(self, path: str, shard: int | None = None, detail: str = ""):
        super().__init__(
            f"shuffle artifact {path!r}"
            + (f" (shard {shard})" if shard is not None else "")
            + " failed its crc32 frame check"
            + (f": {detail}" if detail else "")
        )
        self.path = path
        self.shard = shard


class DistributedJobError(OffloadError):
    """A distributed (sharded) job could not finish on its shard nodes.

    Transient from the control plane's point of view: the scheduler may
    retry the job on the surviving replicas or fall back to a single-node
    run on the host.  ``excluded`` names the shard nodes the engine
    evicted — it evicts a node only when a call to it ended in a
    quarantine (:class:`NodeDownError`) or a deadline miss
    (:class:`OffloadTimeoutError`), so these are the nodes to keep out of
    the job's next placement; ``failures`` is the structured
    per-shard history — one ``{"node", "phase", "cause", "at"}`` dict per
    observed failure.
    """

    retryable = True

    def __init__(self, app: str, excluded=(), failures=()):
        super().__init__(
            f"distributed job {app!r} failed; "
            f"excluded nodes: {sorted(excluded) or 'none'}"
        )
        self.app = app
        self.excluded = set(excluded)
        self.failures = list(failures)


class PlacementError(McSDError):
    """No feasible placement for a job under the active policy."""


class AdmissionError(McSDError):
    """The scheduler refused a job at admission (bounded-queue backpressure).

    Deliberately *not* retryable by the runtime's retry sites: rejection is
    the control plane shedding load so overload degrades predictably; the
    submitting client decides whether to resubmit later.  A rejected job
    never entered the queue — admitted jobs are never dropped.
    """

    def __init__(self, job: str, queued: int, limit: int):
        super().__init__(
            f"job {job!r} rejected at admission: queue full ({queued}/{limit})"
        )
        self.job = job
        self.queued = queued
        self.limit = limit


class ConfigError(McSDError):
    """Invalid hardware/cluster configuration."""


class WorkloadError(McSDError):
    """Invalid workload specification."""


class ProvenanceError(McSDError):
    """A trace artifact does not belong to the run being analyzed.

    Raised by the :mod:`repro.obs.export` loaders when a caller states the
    run id it expects and the file carries a different one — mixing spans
    from one run with metrics from another produces breakdowns that look
    plausible and mean nothing.
    """

    def __init__(self, path: str, expected: str, found: str | None):
        super().__init__(
            f"{path!r} belongs to run {found!r}, expected run {expected!r}"
        )
        self.path = path
        self.expected = expected
        self.found = found


# --------------------------------------------------------------------------
# Fault injection & fault-tolerant execution
# --------------------------------------------------------------------------


class FaultInjectedError(McSDError):
    """An error produced by the deterministic fault-injection layer.

    Raised by injection hooks that have no more specific carrier type;
    hooks that *do* impersonate a layer's native exception (DiskError,
    NFSError, ...) stamp that instance with ``retryable=True`` via
    :func:`mark_retryable` instead.
    """

    retryable = True

    def __init__(self, site: str, detail: str = ""):
        super().__init__(f"injected fault at {site}" + (f": {detail}" if detail else ""))
        self.site = site


class WorkerCrashError(McSDError):
    """A pool worker process died while holding a task.

    Transient by default — the pool respawns workers and re-dispatches the
    in-flight batch; the *exhausted-retries* variant is raised with an
    instance-level ``retryable=False`` stamp.
    """

    retryable = True

    def __init__(self, msg: str, task_index: int | None = None):
        super().__init__(msg)
        self.task_index = task_index


class SpillCorruptionError(McSDError):
    """A spilled run block failed its crc32 integrity check.

    Transient: the reader first re-reads the block (in-memory/transport
    corruption), then the engine recomputes the fragment from its source
    chunks (on-disk corruption) — the data is never lost, only the spill.
    """

    retryable = True

    def __init__(self, path: str, block_index: int, run_index: int | None = None):
        super().__init__(
            f"spill block {block_index} of {path!r} failed its crc32 check"
        )
        self.path = path
        self.block_index = block_index
        self.run_index = run_index
