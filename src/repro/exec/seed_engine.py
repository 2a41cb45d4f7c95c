"""Frozen pre-streaming LocalMapReduce hot path (perf-gate reference).

This is the real-machine engine exactly as it stood before the streaming
rewrite: a fresh ``multiprocessing`` pool is forked per job, every task
re-opens the input file and ``seek``/``read``s its chunk, all per-chunk
combiner maps are materialized in the parent behind a ``pool.map``
barrier, and only then does the parent merge them.  Peak parent memory is
O(all chunk maps); merge CPU is serialized after the last map finishes.

Do not "fix" or speed this up: like :mod:`repro.phoenix.seed_shuffle` it
exists so ``tools/perf_gate.py --real`` can keep measuring the streaming
engine against the dataflow it replaced and asserting byte-identical
output.  The live engine is :class:`repro.exec.localmr.LocalMapReduce`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import typing as _t

from repro.errors import WorkloadError
from repro.exec.chunks import chunk_file, read_chunk
from repro.phoenix.sort import finalize_merged_map, merge_combiner_maps

__all__ = ["SeedJobResult", "SeedLocalMapReduce"]


class SeedJobResult(_t.NamedTuple):
    """Outcome of a frozen-path run."""

    output: list
    elapsed: float
    n_chunks: int
    n_workers: int


def _seed_apply_chunk(args: tuple) -> dict:
    """Worker body: open/seek/read one chunk, map it, pre-combine."""
    chunk, map_fn, combine_fn, params = args
    data = read_chunk(chunk)
    acc: dict[object, object] = {}
    if combine_fn is None:
        def emit(key: object, value: object) -> None:
            acc.setdefault(key, []).append(value)  # type: ignore[union-attr]
    else:
        def emit(key: object, value: object) -> None:
            acc[key] = combine_fn(acc[key], value) if key in acc else value
    if data:
        map_fn(data, emit, params)
    return acc


class SeedLocalMapReduce:
    """The pre-PR barrier engine: fresh pool per job, merge after barrier."""

    def __init__(
        self,
        map_fn: _t.Callable,
        reduce_fn: _t.Callable | None = None,
        combine_fn: _t.Callable | None = None,
        sort_output: bool = False,
        delimiters: bytes = b" \t\n\r",
        n_workers: int | None = None,
    ):
        self.map_fn = map_fn
        self.reduce_fn = reduce_fn
        self.combine_fn = combine_fn
        self.sort_output = sort_output
        self.delimiters = delimiters
        self.n_workers = n_workers or max(1, os.cpu_count() or 1)

    def run(
        self,
        path: str,
        chunk_bytes: int | None = None,
        params: dict | None = None,
        parallel: bool = True,
    ) -> SeedJobResult:
        """Execute over ``path`` with the frozen barrier dataflow."""
        params = params or {}
        size = os.path.getsize(path)
        if chunk_bytes is None:
            chunk_bytes = max(1, size // (4 * self.n_workers) or 1)
        if chunk_bytes < 1:
            raise WorkloadError("chunk_bytes must be >= 1")
        t0 = time.perf_counter()
        chunks = chunk_file(path, chunk_bytes, self.delimiters)
        tasks = [(c, self.map_fn, self.combine_fn, params) for c in chunks]
        if parallel and self.n_workers > 1 and len(chunks) > 1:
            ctx = mp.get_context("spawn" if os.name == "nt" else "fork")
            with ctx.Pool(processes=min(self.n_workers, len(chunks))) as pool:
                parts = pool.map(_seed_apply_chunk, tasks)
        else:
            parts = [_seed_apply_chunk(t) for t in tasks]
        out = finalize_merged_map(
            merge_combiner_maps(parts, self.combine_fn),
            self.combine_fn, self.reduce_fn, self.sort_output, params,
        )
        return SeedJobResult(
            output=out,
            elapsed=time.perf_counter() - t0,
            n_chunks=len(chunks),
            n_workers=self.n_workers if parallel else 1,
        )
