"""Scenario definitions, telemetry CSV output, and batch runs.

A scenario file is one flat key-value config carrying robot parameters,
controller gains, and initial conditions together (see the bundled
``drop_controlled``, ``drop_uncontrolled``, and ``ledge`` files).  Every
run writes one telemetry CSV (one row per control tick, angles in
degrees, at least 9 significant digits) and returns a RunSummary.

CSV column order is fixed:

    t,phi,theta,psi,omega_x,omega_y,omega_z,tau_1,tau_2,tau_3,tau_4,
    tau_delta,delta_1,delta_2,delta_3,delta_4,pos_x,pos_y,pos_z,
    wheel_w1,wheel_w2,wheel_w3,wheel_w4,mode,sat_mask

Pose columns are ground truth from the simulated state (IMU noise, when
enabled, affects only what the controller saw).  ``mode`` is the integer
controller mode (0 ground, 1 freefall stabilize) and
``sat_mask`` packs the saturation flags (bits 0-3 wheels, bit 4
steering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import ControllerConfig
from .params import (
    ConfigError,
    RobotParams,
    read_config_file,
    robot_params_from_entries,
    take_float,
    take_int,
)
from .simulation import (
    NoiseModel,
    ScenarioConfig,
    SimClock,
    Trajectory,
    simulate,
)
from .state import euler_from_quaternion

CSV_HEADER = (
    "t,phi,theta,psi,omega_x,omega_y,omega_z,"
    "tau_1,tau_2,tau_3,tau_4,tau_delta,"
    "delta_1,delta_2,delta_3,delta_4,"
    "pos_x,pos_y,pos_z,"
    "wheel_w1,wheel_w2,wheel_w3,wheel_w4,mode,sat_mask"
)

BUNDLED_SCENARIOS = ("drop_controlled", "drop_uncontrolled", "ledge")


def scenario_config_from_entries(entries: dict[str, str]) -> ScenarioConfig:
    base = ScenarioConfig()
    noise = NoiseModel(
        sigma_euler=math.radians(
            take_float(entries, "noise_sigma_euler_deg", 0.0)
        ),
        sigma_omega=take_float(entries, "noise_sigma_omega", 0.0),
        sigma_accel=take_float(entries, "noise_sigma_accel", 0.0),
    )
    config = ScenarioConfig(
        drop_height=take_float(entries, "drop_height", base.drop_height),
        velocity=(
            take_float(entries, "velocity_x", 0.0),
            take_float(entries, "velocity_y", 0.0),
            take_float(entries, "velocity_z", 0.0),
        ),
        euler0=(
            math.radians(take_float(entries, "roll_deg", 0.0)),
            math.radians(take_float(entries, "pitch_deg", 0.0)),
            math.radians(take_float(entries, "yaw_deg", 0.0)),
        ),
        omega0=(
            take_float(entries, "omega_x", 0.0),
            take_float(entries, "omega_y", 0.0),
            take_float(entries, "omega_z", 0.0),
        ),
        alpha0=math.radians(take_float(entries, "alpha_deg", 45.0)),
        beta0=math.radians(take_float(entries, "beta_deg", 0.0)),
        t_max=take_float(entries, "t_max", base.t_max),
        seed=take_int(entries, "seed", base.seed),
        dt_physics=take_float(entries, "dt_physics", base.dt_physics),
        noise=noise,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


@dataclass(frozen=True)
class LoadedScenario:
    params: RobotParams
    controller: ControllerConfig
    scenario: ScenarioConfig
    name: str


def resolve_config_path(ref: str | Path) -> Path:
    """Accept a filesystem path or the name of a bundled scenario."""
    path = Path(ref)
    if path.exists():
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

    Consumes every key; anything left over is an unknown key and a hard
    error.  Timing that the simulator would reject is a config error too.
    """
    params = robot_params_from_entries(entries)
    controller = ControllerConfig.from_entries(entries)
    scenario = scenario_config_from_entries(entries)
    if entries:
        unknown = ", ".join(sorted(entries))
        raise ConfigError(f"unknown config keys: {unknown}")
    try:
        SimClock.create(scenario.dt_physics, controller.dt_control)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return LoadedScenario(
        params=params, controller=controller, scenario=scenario, name=name
    )


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
        def fmt(value, unit=""):
            if value is None:
                return "none"
            return f"{value:.6f}{unit}"

        out = [f"run: {self.name}"]
        out.append(f"  touchdown_time_s: {fmt(self.touchdown_time)}")
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
        out.append(f"  settle_time_s: {fmt(self.settle_time)}")
        out.append(f"  freefall_start_s: {fmt(self.freefall_start)}")
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
    if trajectory.touchdown_state is not None:
        angles = euler_from_quaternion(trajectory.touchdown_state.quat)
        euler_td = tuple(math.degrees(v) for v in (angles.phi, angles.theta, angles.psi))
        omega_td = tuple(float(w) for w in trajectory.touchdown_state.omega)

    n = max(1, len(trajectory.samples))
    peak = np.zeros(4)
    sat_counts = np.zeros(5)
    max_accel = 0.0
    for sample in trajectory.samples:
        peak = np.maximum(peak, np.abs(sample.command.tau))
        sat_counts += sample.command.saturated.astype(float)
        max_accel = max(max_accel, float(np.linalg.norm(sample.imu.specific_accel)))

    return RunSummary(
        name=name,
        touchdown_time=trajectory.touchdown_time,
        euler_touchdown_deg=euler_td,
        omega_touchdown=omega_td,
        settle_time=events.get("settled"),
        freefall_start=events.get("freefall_start"),
        peak_tau=tuple(float(v) for v in peak),
        saturation_fraction=tuple(float(v) / n for v in sat_counts[:4]),
        steer_saturation_fraction=float(sat_counts[4]) / n,
        max_specific_accel=max_accel,
    )


def _csv_row(sample) -> str:
    deg = math.degrees
    angles = sample.state.euler()
    values = [
        sample.t,
        deg(angles.phi), deg(angles.theta), deg(angles.psi),
        *sample.state.omega,
        *sample.command.tau,
        sample.command.tau_delta,
        *(deg(d) for d in sample.steering.delta),
        *sample.state.r_ob,
        *sample.state.wheel_speed,
    ]
    mask = 0
    for bit, flag in enumerate(sample.command.saturated):
        if flag:
            mask |= 1 << bit
    # + 0.0 folds IEEE negative zero into plain zero.
    cells = [f"{v + 0.0:.12g}" for v in values]
    cells.append(str(sample.mode))
    cells.append(str(mask))
    return ",".join(cells)


def write_trajectory_csv(trajectory: Trajectory, path: Path) -> None:
    lines = [CSV_HEADER]
    lines.extend(_csv_row(sample) for sample in trajectory.samples)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_scenario(config: str | Path, output_dir: str | Path) -> RunSummary:
    """Execute one scenario config; write telemetry CSV; return summary."""
    loaded = load_scenario_file(config)
    trajectory = simulate(loaded.scenario, loaded.controller, loaded.params)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(trajectory, out / f"{loaded.name}.csv")
    return summarize(loaded.name, trajectory)


def compare(
    config_a: str | Path, config_b: str | Path, output_dir: str | Path
) -> tuple[RunSummary, RunSummary, list[str]]:
    """Run two scenarios and emit a side-by-side delta report.

    The report covers touchdown attitude and settle time.  Impact-phase
    accelerations are intentionally absent: the simulation ends at
    touchdown and carries no contact model, so impact loads are out of
    scope here.
    """
    summary_a = run_scenario(config_a, output_dir)
    summary_b = run_scenario(config_b, output_dir)

    def angles_or_nan(summary):
        if summary.euler_touchdown_deg is None:
            return (float("nan"),) * 3
        return summary.euler_touchdown_deg

    a_phi, a_theta, _ = angles_or_nan(summary_a)
    b_phi, b_theta, _ = angles_or_nan(summary_b)

    def fmt_settle(value):
        return "none" if value is None else f"{value:.6f}"

    report = [
        f"comparison: {summary_a.name} vs {summary_b.name}",
        f"  touchdown_roll_deg:  {a_phi:.4f} vs {b_phi:.4f} "
        f"(delta {a_phi - b_phi:+.4f})",
        f"  touchdown_pitch_deg: {a_theta:.4f} vs {b_theta:.4f} "
        f"(delta {a_theta - b_theta:+.4f})",
        f"  settle_time_s: {fmt_settle(summary_a.settle_time)} vs "
        f"{fmt_settle(summary_b.settle_time)}",
        "  note: impact-phase accelerations are out of scope "
        "(no contact model; runs end at touchdown)",
    ]
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    delta_path = out / f"delta_{summary_a.name}_vs_{summary_b.name}.txt"
    delta_path.write_text("\n".join(report) + "\n", encoding="utf-8")
    return summary_a, summary_b, report


SWEEPABLE_EXTRA = {
    "kp_roll", "kp_pitch", "kp_yaw", "kd_roll", "kd_pitch", "kd_yaw",
    "freefall_accel_threshold", "freefall_debounce", "dt_control",
    "drop_height", "velocity_x", "velocity_y", "velocity_z",
    "roll_deg", "pitch_deg", "yaw_deg", "omega_x", "omega_y", "omega_z",
    "alpha_deg", "beta_deg", "t_max", "dt_physics",
    "noise_sigma_euler_deg", "noise_sigma_omega", "noise_sigma_accel",
}


def sweepable_parameters() -> set[str]:
    from dataclasses import fields

    robot = {f.name for f in fields(RobotParams)}
    return robot | SWEEPABLE_EXTRA


def sweep(
    base_config: str | Path,
    parameter: str,
    values: list[float],
    output_dir: str | Path,
) -> list[RunSummary]:
    """Run the base scenario once per parameter value.

    The base config is read once, and every value's scenario is validated
    before the first run, so a bad value leaves no output behind.  Writes
    one telemetry CSV per run plus an aggregated summary CSV.  Unknown
    parameter names are config errors.
    """
    if parameter not in sweepable_parameters():
        raise ConfigError(f"unknown sweep parameter '{parameter}'")
    base_path = resolve_config_path(base_config)
    base_entries = read_config_file(base_path)
    runs = [
        loaded_from_entries(
            dict(base_entries, **{parameter: f"{value:.12g}"}),
            name=f"{base_path.stem}_{parameter}_{value:g}",
        )
        for value in values
    ]

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries: list[RunSummary] = []
    aggregate = ["parameter,value,touchdown_time,settle_time,"
                 "peak_tau_1,peak_tau_2,peak_tau_3,peak_tau_4"]
    for value, loaded in zip(values, runs):
        trajectory = simulate(loaded.scenario, loaded.controller, loaded.params)
        write_trajectory_csv(trajectory, out / f"{loaded.name}.csv")
        summary = summarize(loaded.name, trajectory)
        summaries.append(summary)
        settle = "" if summary.settle_time is None else f"{summary.settle_time:.12g}"
        touchdown = (
            "" if summary.touchdown_time is None else f"{summary.touchdown_time:.12g}"
        )
        aggregate.append(
            f"{parameter},{value:.12g},{touchdown},{settle},"
            + ",".join(f"{v:.12g}" for v in summary.peak_tau)
        )
    (out / f"sweep_{parameter}.csv").write_text(
        "\n".join(aggregate) + "\n", encoding="utf-8"
    )
    return summaries
