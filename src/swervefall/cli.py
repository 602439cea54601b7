"""Command-line front end for scenario runs.

    swervefall run <config> [-o DIR]
    swervefall compare <config_a> <config_b> [-o DIR]
    swervefall sweep <config> --param NAME --values V1,V2,... [-o DIR]

<config> is a path or a bundled scenario name (drop_controlled,
drop_uncontrolled, ledge).  The default output directory comes from
SWERVEFALL_OUTPUT_DIR, falling back to ./out; an empty -o or
SWERVEFALL_OUTPUT_DIR counts as not given.  Every command makes its
output directory before it simulates.

Exit codes: 0 success, 2 config error, 3 simulation diverged.  Config
errors include a run over the work budget of 10**6 physics steps
(t_max / dt_physics; about 20 s of wall time at ten physics steps per
control tick, 60 s at one), a dt_control / dt_physics ratio beyond the
float range (dt_control = 1e308), a release spin past |omega| *
dt_physics = 0.0719 rad, an IMU noise sigma above 180 deg, 100 rad/s
or 1000 m/s^2, geometry that cannot place the robot at
drop_height, a config file that is not UTF-8 (a leading byte-order
mark is allowed), compare of two different config files with the same
name (their outputs would overwrite each other), sweep values that
print alike to 12 significant digits, and an output directory or file
that cannot be created or written (-o naming an existing regular file;
reported as "output error").  A --values
list may start with a minus sign (--values -10,-20).  A simulation
diverges when the integration leaves the finite range or when the
controller's torque demand does (kd_roll = 1e308 with a nonzero
omega_x) or its allocation does (kd_roll = kd_pitch = 1e307 with
omega_x = omega_y = -15); numpy prints no warning about it.  A reader
that closes the output early (``| head``) ends the command with exit 0
and no traceback: summaries are printed only after every run and file
is complete.

The range checks of a parsed config are the ones library ``simulate``
makes (``simulation.validate_run``), so ``simulate`` refuses the same
input with the same message, as a ConfigError (a ValueError).

sweep and compare validate every config before the first run and group
the runs that differ only in drop_height, velocity_x/y/z and t_max:
each group integrates one attitude history for all of its runs.  The
groups run in parallel: one forked worker process per CPU this process
may use, no more than there are groups, so a one-group sweep runs in
process.  The workers only simulate.  This process writes each
telemetry CSV in input order as its result arrives, then the summaries
and the sweep aggregate or compare delta file, so the output is
byte-identical to one-value runs'; ``taskset -c 0 swervefall sweep
...`` runs serially.  A run that diverges ends the command with exit 3
and the message its one-value run prints, leaving the CSVs of the runs
before it and no aggregate or delta file.
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
    # An empty SWERVEFALL_OUTPUT_DIR counts as unset, as an empty -o does.
    return os.environ.get("SWERVEFALL_OUTPUT_DIR") or "out"


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
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--values" in argv[:-1]:
        # argparse takes a following argument that starts with "-" and is
        # not a plain number (-10,-20 or -1e-300) for an option; attached
        # with "=" it is always the value.
        i = argv.index("--values")
        argv[i:i + 2] = [f"--values={argv[i + 1]}"]
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
    except OSError as exc:
        # Config files are read as ConfigError, so this is an output
        # directory or file that cannot be created or written.
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
