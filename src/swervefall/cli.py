"""Command-line front end for scenario runs.

    swervefall run <config> [-o DIR]
    swervefall compare <config_a> <config_b> [-o DIR]
    swervefall sweep <config> --param NAME --values V1,V2,... [-o DIR]

<config> is a path or a bundled scenario name (drop_controlled,
drop_uncontrolled, ledge).  The default output directory comes from
SWERVEFALL_OUTPUT_DIR, falling back to ./out.

Exit codes: 0 success, 2 config error, 3 simulation diverged.  A reader
that closes the output early (``| head``) ends the command with exit 0
and no traceback: summaries are printed only after every run and file
is complete.
"""

from __future__ import annotations

import argparse
import os
import sys

from .params import ConfigError
from .scenario import compare, run_scenario, sweep
from .simulation import NonFiniteState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONFINITE = 3


def _default_output_dir() -> str:
    return os.environ.get("SWERVEFALL_OUTPUT_DIR", "out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swervefall",
        description="Airborne attitude-control simulator for a "
        "four-wheel independent drive-and-steer robot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("config", help="config path or bundled name")
    run_p.add_argument("-o", "--output-dir", default=None)

    cmp_p = sub.add_parser("compare", help="run two scenarios side by side")
    cmp_p.add_argument("config_a")
    cmp_p.add_argument("config_b")
    cmp_p.add_argument("-o", "--output-dir", default=None)

    sweep_p = sub.add_parser("sweep", help="run one scenario per value")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True, help="config key to vary")
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated numeric values"
    )
    sweep_p.add_argument("-o", "--output-dir", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.output_dir or _default_output_dir()
    try:
        if args.command == "run":
            summary = run_scenario(args.config, out_dir)
            print("\n".join(summary.lines()))
        elif args.command == "compare":
            summary_a, summary_b, report = compare(
                args.config_a, args.config_b, out_dir
            )
            print("\n".join(summary_a.lines()))
            print("\n".join(summary_b.lines()))
            print("\n".join(report))
        elif args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --values list: {exc}") from exc
            if not values:
                raise ConfigError("--values list is empty")
            for summary in sweep(args.config, args.param, values, out_dir):
                print("\n".join(summary.lines()))
        # A closed reader surfaces here rather than at interpreter exit.
        sys.stdout.flush()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteState as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except BrokenPipeError:
        # Point stdout at the null device so the flush at shutdown stays
        # quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
