"""Scenario definitions, telemetry CSV output, and batch runs.

A scenario file is one flat key-value config carrying robot parameters,
controller gains, and initial conditions together (see the bundled
``drop_controlled``, ``drop_uncontrolled``, and ``ledge`` files);
``loaded_from_entries`` is the one reader of its keys.  Every
run writes one telemetry CSV and returns a RunSummary.  The CSV holds
the simulator's per-tick rows as they are, under its ``CSV_HEADER``,
with every value printed to 12 significant digits.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .controller import ControllerConfig
from .params import (
    ConfigError,
    RobotParams,
    read_config_file,
    take_bool,
    take_float,
    take_int,
)
from .simulation import (
    CSV_COLUMNS,
    CSV_HEADER,
    NoiseModel,
    NonFiniteState,
    ScenarioConfig,
    Trajectory,
    attitude_key,
    initial_body_state,
    simulate_lanes,
    validate_run,
)
from .state import euler_angles

TAU_COLUMNS = tuple(CSV_HEADER.split(",").index(f"tau_{i}") for i in range(1, 5))
# One CSV line: every value to 12 significant digits, the same text as
# format(v, ".12g") but made in one call; the integer-valued mode and
# sat_mask print without a decimal point.  Rows are formatted and written
# a chunk at a time, so the CSV never sits in memory whole.
CSV_ROW_FORMAT = ",".join(["%.12g"] * CSV_COLUMNS) + "\n"
CSV_CHUNK_ROWS = 32

BUNDLED_SCENARIOS = ("drop_controlled", "drop_uncontrolled", "ledge")

# The Euler axes as config keys name them: the gains kp_<axis> and
# kd_<axis>, and the release attitude <axis>_deg.
AXES = ("roll", "pitch", "yaw")


@dataclass(frozen=True)
class LoadedScenario:
    params: RobotParams
    controller: ControllerConfig
    scenario: ScenarioConfig
    name: str


def resolve_config_path(ref: str | Path) -> Path:
    """A config file's path, or a bundled scenario's name (a directory is no file)."""
    path = Path(ref)
    if path.exists() and not path.is_dir():
        return path
    if str(ref) in BUNDLED_SCENARIOS:
        packaged = resources.files("swervefall.configs") / f"{ref}.cfg"
        with resources.as_file(packaged) as concrete:
            return Path(concrete)
    raise ConfigError(f"config '{ref}' not found (not a file or bundled name)")


def load_scenario_file(ref: str | Path) -> LoadedScenario:
    """Load and fully validate one scenario config file."""
    path = resolve_config_path(ref)
    return loaded_from_entries(read_config_file(path), name=path.stem)


def loaded_from_entries(entries: dict[str, str], name: str) -> LoadedScenario:
    """Validate parsed config entries into one runnable scenario.

    Every config key is read here, and only here: each robot parameter
    under its ``RobotParams`` field name, then the controller keys, then
    the scenario keys, angles in degrees.  Consumes every key; anything
    left over is an unknown key and a hard error.  Then the run must pass
    ``simulate``'s own checks: ``validate_run`` and the placement in
    ``initial_body_state``.
    """
    params = RobotParams(**{
        field.name: take_float(entries, field.name, field.default)
        for field in fields(RobotParams)
    })
    base = ControllerConfig()
    controller = ControllerConfig(
        kp=tuple(take_float(entries, f"kp_{axis}", k) for axis, k in zip(AXES, base.kp)),
        kd=tuple(take_float(entries, f"kd_{axis}", k) for axis, k in zip(AXES, base.kd)),
        freefall_accel_threshold=take_float(
            entries, "freefall_accel_threshold", base.freefall_accel_threshold
        ),
        freefall_debounce=take_float(
            entries, "freefall_debounce", base.freefall_debounce
        ),
        dt_control=take_float(entries, "dt_control", base.dt_control),
        enabled=take_bool(entries, "controller_enabled", base.enabled),
    )
    release = ScenarioConfig()
    scenario = ScenarioConfig(
        drop_height=take_float(entries, "drop_height", release.drop_height),
        velocity=tuple(take_float(entries, f"velocity_{x}", 0.0) for x in "xyz"),
        euler0=tuple(
            math.radians(take_float(entries, f"{axis}_deg", 0.0)) for axis in AXES
        ),
        omega0=tuple(take_float(entries, f"omega_{x}", 0.0) for x in "xyz"),
        alpha0=math.radians(take_float(entries, "alpha_deg", 45.0)),
        beta0=math.radians(take_float(entries, "beta_deg", 0.0)),
        t_max=take_float(entries, "t_max", release.t_max),
        seed=take_int(entries, "seed", release.seed),
        dt_physics=take_float(entries, "dt_physics", release.dt_physics),
        noise=NoiseModel(
            sigma_euler=math.radians(
                take_float(entries, "noise_sigma_euler_deg", 0.0)
            ),
            sigma_omega=take_float(entries, "noise_sigma_omega", 0.0),
            sigma_accel=take_float(entries, "noise_sigma_accel", 0.0),
        ),
    )
    if entries:
        unknown = ", ".join(sorted(entries))
        raise ConfigError(f"unknown config keys: {unknown}")
    validate_run(scenario, controller, params)
    initial_body_state(scenario, params)
    return LoadedScenario(
        params=params, controller=controller, scenario=scenario, name=name
    )


def _fmt_or_none(value: float | None) -> str:
    """An event time in a summary or delta report: six decimals, or none."""
    return "none" if value is None else f"{value:.6f}"


@dataclass(frozen=True)
class RunSummary:
    """Headline metrics of one simulated run."""

    name: str
    touchdown_time: float | None
    euler_touchdown_deg: tuple[float, float, float] | None
    omega_touchdown: tuple[float, float, float] | None
    settle_time: float | None
    freefall_start: float | None
    peak_tau: tuple[float, float, float, float]
    saturation_fraction: tuple[float, float, float, float]
    steer_saturation_fraction: float
    max_specific_accel: float

    def lines(self) -> list[str]:
        out = [f"run: {self.name}"]
        out.append(f"  touchdown_time_s: {_fmt_or_none(self.touchdown_time)}")
        if self.euler_touchdown_deg is None:
            out.append("  touchdown_euler_deg: none")
        else:
            phi, theta, psi = self.euler_touchdown_deg
            out.append(
                f"  touchdown_euler_deg: {phi:.4f} {theta:.4f} {psi:.4f}"
            )
        if self.omega_touchdown is None:
            out.append("  touchdown_omega_rad_s: none")
        else:
            out.append(
                "  touchdown_omega_rad_s: "
                + " ".join(f"{w:.4f}" for w in self.omega_touchdown)
            )
        out.append(f"  settle_time_s: {_fmt_or_none(self.settle_time)}")
        out.append(f"  freefall_start_s: {_fmt_or_none(self.freefall_start)}")
        out.append(
            "  peak_wheel_torque_Nm: "
            + " ".join(f"{v:.4f}" for v in self.peak_tau)
        )
        out.append(
            "  saturation_fraction: "
            + " ".join(f"{v:.4f}" for v in self.saturation_fraction)
        )
        out.append(
            f"  steer_saturation_fraction: {self.steer_saturation_fraction:.4f}"
        )
        out.append(f"  max_specific_accel_m_s2: {self.max_specific_accel:.6f}")
        return out


def summarize(name: str, trajectory: Trajectory) -> RunSummary:
    events = dict()
    for t, kind in trajectory.events:
        events.setdefault(kind, t)

    euler_td = None
    omega_td = None
    y = trajectory.touchdown_state
    if y is not None:
        euler_td = tuple(math.degrees(v) for v in euler_angles(y[6:10]))
        omega_td = tuple(y[10:13])

    values = trajectory.values
    n = max(1, len(values) // CSV_COLUMNS)
    peak = [max(map(abs, values[col::CSV_COLUMNS]), default=0.0) for col in TAU_COLUMNS]
    masks = [int(m) for m in values[CSV_COLUMNS - 1::CSV_COLUMNS]]
    sat_counts = [sum(m >> bit & 1 for m in masks) for bit in range(5)]

    return RunSummary(
        name=name,
        touchdown_time=trajectory.touchdown_time,
        euler_touchdown_deg=euler_td,
        omega_touchdown=omega_td,
        settle_time=events.get("settled"),
        freefall_start=events.get("freefall_start"),
        peak_tau=tuple(peak),
        saturation_fraction=tuple(v / n for v in sat_counts[:4]),
        steer_saturation_fraction=sat_counts[4] / n,
        max_specific_accel=trajectory.max_specific_accel,
    )


def write_trajectory_csv(trajectory: Trajectory, path: Path) -> None:
    rows = trajectory.rows
    with path.open("w", encoding="utf-8") as out:
        out.write(CSV_HEADER + "\n")
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            # + 0.0 folds IEEE negative zero into plain zero.
            chunk = (rows[start:start + CSV_CHUNK_ROWS] + 0.0).tolist()
            out.writelines(CSV_ROW_FORMAT % tuple(row) for row in chunk)


def run_scenario(config: str | Path, output_dir: str | Path) -> RunSummary:
    """Execute one scenario config; write telemetry CSV; return summary.

    The output directory is made before the run, so an unusable one
    fails before any simulation."""
    [summary] = _run_and_write([load_scenario_file(config)], Path(output_dir))
    return summary


def _worker_count(groups: int) -> int:
    """Worker processes for ``groups`` independent groups of runs: one
    per CPU this process may use, and no more than there are groups."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(groups, cpus)


def _simulate_group(group: list[LoadedScenario]) -> list[Trajectory | NonFiniteState]:
    first = group[0]
    return simulate_lanes([run.scenario for run in group], first.controller, first.params)


def _simulate_in_order(runs: list[LoadedScenario]) -> Iterator[Trajectory]:
    """Yield the trajectory of each validated run, in input order.

    Runs that differ only in drop height and release velocity form one
    group, simulated as lanes of one attitude integration
    (``simulate_lanes``).  With more than one group and more than one
    worker the groups execute in a pool of forked processes, which
    inherit the imported package and are each bound to a CPU of their
    own (``_bind_to_cpu``); each trajectory is yielded once its
    group and the groups of every run before it are done, and a run's
    NonFiniteState is raised at that run's turn.  With one group or one
    worker, in a process that runs other threads (forking it could copy
    a lock that one of them holds), or where ``fork`` is unavailable,
    the groups execute here one after another.
    """
    members: dict[str, list[int]] = {}
    for index, loaded in enumerate(runs):
        key = attitude_key(loaded.scenario, loaded.controller, loaded.params)
        members.setdefault(key, []).append(index)
    indices = list(members.values())
    groups = [[runs[i] for i in group] for group in indices]
    workers = _worker_count(len(groups))
    with contextlib.ExitStack() as stack:
        if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
            results = map(_simulate_group, groups)
        else:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            pool = stack.enter_context(ProcessPoolExecutor(
                workers, mp_context=context,
                initializer=_bind_to_cpu, initargs=(context.Value("i", 0),),
            ))
            results = pool.map(_simulate_group, groups)
        pending = zip(indices, results)
        done = {}
        for index in range(len(runs)):
            while index not in done:
                group, outcomes = next(pending)
                done.update(zip(group, outcomes))
            result = done.pop(index)
            if isinstance(result, NonFiniteState):
                raise result
            yield result


def _bind_to_cpu(taken) -> None:
    """Pool initializer: bind this forked worker to the next of the CPUs
    it inherited, so that a scheduler which does not balance load cannot
    leave two workers on one CPU while another idles.  ``taken`` counts
    the workers bound so far.  A worker that cannot be bound runs where
    the scheduler puts it."""
    if not hasattr(os, "sched_setaffinity"):
        return
    with taken.get_lock():
        index = taken.value
        taken.value += 1
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    except OSError:
        pass


def _run_and_write(runs: list[LoadedScenario], out: Path) -> list[RunSummary]:
    """Simulate the runs and write each one's telemetry CSV into ``out``
    in input order, as its result arrives; return their summaries.  A
    run that diverges leaves the CSVs of the runs before it."""
    out.mkdir(parents=True, exist_ok=True)
    summaries = []
    for loaded, trajectory in zip(runs, _simulate_in_order(runs)):
        write_trajectory_csv(trajectory, out / f"{loaded.name}.csv")
        summaries.append(summarize(loaded.name, trajectory))
    return summaries


def compare(
    config_a: str | Path, config_b: str | Path, output_dir: str | Path
) -> tuple[RunSummary, RunSummary, list[str]]:
    """Run two scenarios and emit a side-by-side delta report.

    Both configs are loaded and validated before either runs, so a bad
    one leaves no output behind; two different files with the same name,
    whose CSVs would overwrite each other, are a config error too.  The
    two runs execute in parallel worker processes; their telemetry CSVs,
    then the report ``delta_<a>_vs_<b>.txt``, are written as a serial
    run writes them.

    The report covers touchdown attitude and settle time.  Impact-phase
    accelerations are intentionally absent: the simulation ends at
    touchdown and carries no contact model, so impact loads are out of
    scope here.
    """
    path_a, path_b = resolve_config_path(config_a), resolve_config_path(config_b)
    if path_a.stem == path_b.stem and not path_a.samefile(path_b):
        raise ConfigError(
            f"configs '{config_a}' and '{config_b}' share the name '{path_a.stem}'"
        )
    out = Path(output_dir)
    runs = [load_scenario_file(path_a), load_scenario_file(path_b)]
    summary_a, summary_b = _run_and_write(runs, out)

    def angles_or_nan(summary):
        if summary.euler_touchdown_deg is None:
            return (float("nan"),) * 3
        return summary.euler_touchdown_deg

    a_phi, a_theta, _ = angles_or_nan(summary_a)
    b_phi, b_theta, _ = angles_or_nan(summary_b)

    report = [
        f"comparison: {summary_a.name} vs {summary_b.name}",
        f"  touchdown_roll_deg:  {a_phi:.4f} vs {b_phi:.4f} "
        f"(delta {a_phi - b_phi:+.4f})",
        f"  touchdown_pitch_deg: {a_theta:.4f} vs {b_theta:.4f} "
        f"(delta {a_theta - b_theta:+.4f})",
        f"  settle_time_s: {_fmt_or_none(summary_a.settle_time)} vs "
        f"{_fmt_or_none(summary_b.settle_time)}",
        "  note: impact-phase accelerations are out of scope "
        "(no contact model; runs end at touchdown)",
    ]
    delta_path = out / f"delta_{summary_a.name}_vs_{summary_b.name}.txt"
    delta_path.write_text("\n".join(report) + "\n", encoding="utf-8")
    return summary_a, summary_b, report


def sweep(
    base_config: str | Path,
    parameter: str,
    values: list[int | float],
    output_dir: str | Path,
) -> list[RunSummary]:
    """Run the base scenario once per parameter value.

    ``parameter`` is any config key the loader reads; it is set as the base
    config would set it, so an unknown key or a value the key does not take
    (a fractional ``seed``) is the loader's config error.  Each run is named
    and configured by its value, an int printed exactly and a float to 12
    significant digits; values that print alike are an error.  The base
    config is read once, and every value's scenario is validated before the
    first run, so a bad value leaves no output behind.  Writes one telemetry
    CSV per run plus an aggregated summary CSV.  The runs execute in
    parallel worker processes and their files match a serial run's byte for
    byte; a run that diverges leaves the CSVs of the runs before it and no
    aggregate.
    """
    texts = [f"{v:d}" if isinstance(v, int) else f"{v:.12g}" for v in values]
    repeated = sorted({text for text in texts if texts.count(text) > 1})
    if repeated:
        raise ConfigError(f"duplicate sweep values: {', '.join(repeated)}")
    base_path = resolve_config_path(base_config)
    base_entries = read_config_file(base_path)
    runs = [
        loaded_from_entries(
            dict(base_entries, **{parameter: text}),
            name=f"{base_path.stem}_{parameter}_{text}",
        )
        for text in texts
    ]

    out = Path(output_dir)
    summaries = _run_and_write(runs, out)
    aggregate = ["parameter,value,touchdown_time,settle_time,"
                 "peak_tau_1,peak_tau_2,peak_tau_3,peak_tau_4"]
    for text, summary in zip(texts, summaries):
        settle = "" if summary.settle_time is None else f"{summary.settle_time:.12g}"
        touchdown = (
            "" if summary.touchdown_time is None else f"{summary.touchdown_time:.12g}"
        )
        aggregate.append(
            f"{parameter},{text},{touchdown},{settle},"
            + ",".join(f"{v:.12g}" for v in summary.peak_tau)
        )
    (out / f"sweep_{parameter}.csv").write_text(
        "\n".join(aggregate) + "\n", encoding="utf-8"
    )
    return summaries
