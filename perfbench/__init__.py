"""Whole-job benchmark of the McSD reproduction (see ``perfbench/README.md``).

Entry point: ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0|1``.  Importing any module of this package runs nothing: the
real engine's forkserver workers re-import ``__main__``.
"""
