"""Result-transport reporting: which path a job's results rode.

Pooled chunk results are pickled by the worker and cross the pool's
result pipe; a serial run computes them in-process and never crosses a
process boundary.  ``MRResult.transport`` names the path taken, and the
output is byte-identical either way.
"""

from __future__ import annotations

import operator
import pickle

from repro.apps.wordcount import wc_map
from repro.exec import LocalMapReduce


def test_transport_selection_reported(tmp_path):
    p = tmp_path / "f"
    p.write_bytes(b"the quick brown fox " * 40)
    with LocalMapReduce(
        map_fn=wc_map, combine_fn=operator.add, sort_output=True,
        n_workers=2, start_method="fork",
    ) as eng:
        pooled = eng.run(str(p), chunk_bytes=64)
        serial = eng.run(str(p), chunk_bytes=64, parallel=False)
    assert pooled.transport == "pickle"
    assert serial.transport == "inline"
    assert pickle.dumps(serial.output) == pickle.dumps(pooled.output)
