"""Real-machine execution engine: a streaming multiprocessing mini-Phoenix.

Everything else in this package runs inside the deterministic simulator.
This subpackage is the *real* counterpart: the same programming model
(map / reduce / partition-with-integrity-check / merge) executed with
``multiprocessing`` over actual files on the machine running the tests —
the honest demonstration that the McSD programming framework is
implementable outside the simulator.

The engine is a bounded-memory streaming pipeline: a persistent worker
pool (:mod:`repro.exec.pool`) with mmap-backed chunk reads and a bounded
submission window, one contiguous share of the chunks per worker per map
call, overlapped map/merge via ``imap_unordered``, and an out-of-core
fragment mode (:mod:`repro.exec.outofcore`) that streams every fragment
through the pool and spills each fragment's run while the workers map the
next, when the input exceeds the configured memory budget — the paper's
Fig 6 partitioning loop on real hardware.  The pre-streaming barrier engine is
frozen in :mod:`repro.exec.seed_engine` for the perf gate.

GIL note: workers are OS *processes* (not threads), so map tasks genuinely
run in parallel on multicore hosts; on a single-core CI box the engine
still works, it just cannot speed up — which is exactly why the paper's
performance claims are carried by the simulator (DESIGN.md §2).
"""

from repro.exec.chunks import (
    chunk_file,
    read_chunk,
    read_chunk_cached,
    read_chunk_view,
)
from repro.exec.localmr import LocalJobResult, LocalMapReduce
from repro.exec.outofcore import plan_fragments
from repro.exec.pool import WorkerPool, resolve_start_method
from repro.exec.seed_engine import SeedLocalMapReduce

__all__ = [
    "chunk_file",
    "read_chunk",
    "read_chunk_cached",
    "read_chunk_view",
    "LocalMapReduce",
    "LocalJobResult",
    "WorkerPool",
    "resolve_start_method",
    "plan_fragments",
    "SeedLocalMapReduce",
]
