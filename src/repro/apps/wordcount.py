"""Word Count (WC).

"It counts the frequency of occurrence for each word in a set of files.
The Map tasks process different sections of the input files and return
intermediate data (key, value) that consist of a word and a value of 1.
Then the Reduce tasks add up the values for each identity word.  Finally,
the words are sorted and printed out in accordance with the frequency in
decreasing order." (Section V-A)

Memory: "the memory footprint of Word-Count is around three times of the
input data size" (Section V-C).

Calibration: ~120 ops per declared byte total on the reference core
(=> ~16.7 MB/s per 2 GHz core, Phoenix-era WC throughput), split across
map/sort/reduce/merge.  WC is compute-bound: the 120 MB/s disk keeps up
with even four 2.66 GHz cores (~89 MB/s), which is what makes the
parallel speedup track the core count (Fig 8(a)).
"""

from __future__ import annotations

import typing as _t

from repro.phoenix.api import CostProfile, Emit, MapReduceSpec
from repro.partition.merge import sum_merge

__all__ = ["WC_PROFILE", "wc_map", "wc_reduce", "make_wordcount_spec"]

#: Word Count cost/memory profile (see module docstring).
WC_PROFILE = CostProfile(
    name="wordcount",
    map_ops_per_byte=90.0,
    sort_ops_per_byte=20.0,
    reduce_ops_per_byte=8.0,
    merge_ops_per_byte=1.0,
    footprint_factor=3.0,
    seq_footprint_factor=1.05,
    intermediate_ratio=1.0,
    output_ratio=0.02,
)


def wc_map(data: object, emit: Emit, params: dict) -> None:
    """Emit (word, 1) for every word in this split.

    Accepts ``bytes``/``bytearray``/``memoryview`` (zero-copy chunk views
    from :func:`repro.exec.chunks.read_chunk_view`) or ``str``.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        words: list = bytes(data).split()
    elif isinstance(data, str):
        words = data.split()
    else:
        raise TypeError(f"word count expects text, got {type(data).__name__}")
    many = getattr(emit, "many", None)
    if many is not None:
        # vectorized counting: the engine folds the whole token list in C
        many(words, 1)
        return
    for word in words:
        emit(word, 1)


def wc_reduce(key: object, values: list, params: dict) -> int:
    """Add up the values for each identity word."""
    return sum(values)


def make_wordcount_spec(profile: CostProfile | None = None) -> MapReduceSpec:
    """The Word Count program in the McSD programming model."""
    return MapReduceSpec(
        name="wordcount",
        map_fn=wc_map,
        reduce_fn=wc_reduce,
        combine_fn=lambda old, new: old + new,
        merge_fn=sum_merge,
        profile=profile or WC_PROFILE,
        needs_sort=True,
        sort_output=True,
        delimiters=b" \t\n\r",
    )
