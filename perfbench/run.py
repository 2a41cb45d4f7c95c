"""Run one workload of the whole-job benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-memory --seed 1 --seconds 20 --trace 0

Workloads: ``engine-memory``, ``engine-spill`` (the real multiprocess
engine) and ``sim-cluster`` (the simulated McSD cluster).  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones; the last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in two fresh processes: one writes the seeded inputs
and their reference outputs under ``.perfbench/``, the other sets the
program up and measures it, so input generation is off the clock and the
measuring process starts with empty module-level caches.  The exit code
is non-zero when an output or leak check fails, a job fails, or the
program's sources are missing.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import common  # noqa: E402

MODULES = {
    "engine-memory": "perfbench.engine",
    "engine-spill": "perfbench.engine",
    "sim-cluster": "perfbench.cluster",
}
#: seconds each phase may take before it is killed (a run must end within
#: 180 s, set-up included)
PREPARE_TIMEOUT = 40
MEASURE_TIMEOUT = 130


def run_phase(module: str, phase: str, argv: list[str], timeout: int) -> tuple[int, str]:
    """Run one phase in its own process group; returns (code, stdout).

    On timeout the whole group (forkserver and workers included) is
    killed and reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", module, phase, *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 124, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main(argv: list[str]) -> int:
    args = common.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    run_dir = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    passed = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", run_dir,
    ]
    module = MODULES[args.workload]
    try:
        code, out = run_phase(module, "prepare", passed, PREPARE_TIMEOUT)
        sys.stdout.write(out)
        if code != 0:
            print(f"error: prepare failed ({code})", file=sys.stderr)
            return code or 1
        code, out = run_phase(module, "measure", passed, MEASURE_TIMEOUT)
        sys.stdout.write(out)
        if code != 0:
            print(f"error: measure failed ({code})", file=sys.stderr)
        return code
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
