"""Synthetic workload generators (the paper's datasets are not published).

Inputs follow the reproduction's scale model: each dataset has a
*declared* size (what the cost models see: 500 MB ... 2 GB, matching the
paper's sweeps) and a small *materialized* payload of real bytes with the
same statistical character, which the MapReduce callbacks actually
process.  All generators are seeded and deterministic.
"""

from repro.workloads.arrivals import Arrival, ArrivalProcess, DriveReport
from repro.workloads.keys import encrypted_input, keys_for
from repro.workloads.sizes import FIG8A_SIZES, FIG8BC_SIZES, FIG9_SIZES, size_label
from repro.workloads.text import text_input, zipf_corpus

__all__ = [
    "Arrival",
    "ArrivalProcess",
    "DriveReport",
    "zipf_corpus",
    "text_input",
    "encrypted_input",
    "keys_for",
    "FIG8A_SIZES",
    "FIG8BC_SIZES",
    "FIG9_SIZES",
    "size_label",
]
