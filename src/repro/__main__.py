"""Experiment CLI: ``python -m repro <command>``.

Commands regenerate individual paper results on the terminal without
going through pytest:

    python -m repro table1            # the testbed configuration
    python -m repro fig8a             # single-app speedups
    python -m repro fig8b | fig8c     # growth curves (WC / SM)
    python -m repro fig9  | fig10     # multi-application pairs (WC / SM)
    python -m repro network           # an ablation: multisd, network, partition,
                                      #   sensitivity, smartfam or smb
    python -m repro single wordcount 1000 --platform quad --approach partitioned
    python -m repro pair mcsd wordcount 1250
    python -m repro cmd "wordcount /export/data/input 600M" --size 1000

Each figure command prints that figure's EXPERIMENTS.md rows; there is
one per entry of :data:`repro.analysis.figures.FIGURES`.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.figures import FIGURES, render_text, sweep
from repro.analysis.report import banner, render_table
from repro.cluster.scenario import (
    PAIR_SCENARIOS,
    run_pair_scenario,
    run_single_app,
)
from repro.units import MB, fmt_time


def cmd_table1(_args) -> None:
    """Print the Table I testbed configuration."""
    from repro.cluster import Testbed
    from repro.units import GiB

    bed = Testbed()
    rows = [
        [n.name, n.cpu.name, f"{n.cpu.cores}c @ {n.cpu.clock_ghz}GHz",
         f"{n.mem_bytes / GiB(1):.0f}GiB", n.role]
        for n in bed.config.nodes
    ]
    print(banner("TABLE I - the 5-node cluster"))
    print(render_table(["node", "CPU", "cores", "memory", "role"], rows))


def cmd_figure(args) -> None:
    """Print one figure's EXPERIMENTS.md rows."""
    print(render_text(args.figure, sweep([args.figure])))


def cmd_single(args) -> None:
    """Run one single-application measurement."""
    r = run_single_app(args.app, MB(args.size_mb), args.platform, args.approach)
    if not r.supported:
        print(f"not supported: {r.failure}")
        return
    print(
        f"{args.app} {args.size_mb}MB on {args.platform} ({args.approach}): "
        f"{fmt_time(r.elapsed)}"
        + (f", {r.fragments} fragments" if args.approach == "partitioned" else "")
    )


def cmd_pair(args) -> None:
    """Run one multi-application measurement."""
    r = run_pair_scenario(args.scenario, args.app, MB(args.size_mb))
    if not r.supported:
        print(f"not supported: {r.failure}")
        return
    print(
        f"{args.scenario} MM/{args.app} {args.size_mb}MB: makespan "
        f"{fmt_time(r.makespan)} (mm {fmt_time(r.mm_elapsed)}, "
        f"data {fmt_time(r.data_elapsed)})"
    )


def cmd_cmd(args) -> None:
    """Run a Section IV-C style command on a fresh Table I testbed."""
    from repro.cluster import Testbed
    from repro.cluster.scenario import make_data_app
    from repro.core.cmdline import parse_command, run_command

    job = parse_command(args.command)
    size = MB(args.size) if args.size else MB(500)
    app = job.app if job.app in ("wordcount", "stringmatch") else "wordcount"
    bed = Testbed(seed=0)
    _spec, inp = make_data_app(app, size)
    _sd, _h, sd_path = bed.stage_on_sd("input", inp)
    # rewrite the data-file to the staged path so the one-liner "just runs"
    command = args.command.replace(job.input_path, sd_path)
    if job.app == "stringmatch" and "keys=" not in command:
        keys = ",".join(k.decode() for k in inp.params.get("keys", []))
        command += f" keys={keys}"
    result = run_command(bed, command, input_size=size)
    elapsed = getattr(result, "elapsed", None)
    if elapsed is None:
        elapsed = result.stats.elapsed
    print(f"{command!r} over {size / 1e6:.0f}MB: {fmt_time(elapsed)} on {bed.sd.name}")
    output = getattr(result, "output", None)
    if output:
        print("head of output:", output[:3])


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1").set_defaults(fn=cmd_table1)
    for name, fig in FIGURES.items():
        sub.add_parser(name, help=fig.title).set_defaults(fn=cmd_figure, figure=name)

    p_single = sub.add_parser("single", help="one single-application run")
    p_single.add_argument("app", choices=["wordcount", "stringmatch"])
    p_single.add_argument("size_mb", type=int)
    p_single.add_argument("--platform", default="duo", choices=["duo", "quad", "single", "celeron"])
    p_single.add_argument(
        "--approach", default="partitioned", choices=["sequential", "parallel", "partitioned"]
    )
    p_single.set_defaults(fn=cmd_single)

    p_pair = sub.add_parser("pair", help="one multi-application run")
    p_pair.add_argument("scenario", choices=list(PAIR_SCENARIOS))
    p_pair.add_argument("app", choices=["wordcount", "stringmatch"])
    p_pair.add_argument("size_mb", type=int)
    p_pair.set_defaults(fn=cmd_pair)

    p_cmd = sub.add_parser("cmd", help="run a paper-syntax command (Section IV-C)")
    p_cmd.add_argument("command", help='e.g. "wordcount /export/data/input 600M"')
    p_cmd.add_argument("--size", type=int, default=0, help="declared input size in MB")
    p_cmd.set_defaults(fn=cmd_cmd)

    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
