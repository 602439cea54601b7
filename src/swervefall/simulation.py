"""Fixed-step flight integration, simulated IMU, and event detection.

The physics runs classical RK4 at ``dt_physics`` while the controller is
sampled at ``dt_control`` with zero-order hold in between; the control
period must be an integer multiple of the physics step.  Touchdown is the
first instant the lowest wheel contact point (wheel-center height minus
wheel radius) reaches the ground plane z = 0, refined by bisection to
1e-6 s.  No contact response is modeled; the run ends there.

One control tick carries plain floats from the simulated IMU through
the freefall debounce, the PD law, the allocation and the wheel-speed
limit, and appends one flat telemetry row: the 25 CSV values in
``CSV_HEADER`` order, angles in degrees, ending with the integer-valued
``mode`` and ``sat_mask``.  Rows go into one growing float64 buffer,
200 bytes per tick.  Pose columns are ground truth from the simulated
state (IMU noise, when enabled, affects only what the controller saw).
``mode`` is the controller mode (0 ground, 1 freefall stabilize) and
``sat_mask`` packs the saturation flags (bits 0-3 wheels, bit 4
steering).

Determinism: given identical configs and seed, every run produces
bit-identical trajectories.  IMU noise, when enabled, draws from a
dedicated seeded generator in a fixed per-tick order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .controller import ZERO_COMMAND, AttitudeControlLoop, ControllerMode
from .dynamics import (
    FlightKernel,
    NonFiniteState,
    kernel_holding,
    lowest_contact,
    wheel_centers,
)
from .kinematics import steering_from_submovements
from .params import RobotParams
from .state import (
    BodyState,
    SteeringState,
    SubmovementParams,
    TorqueCommand,
    euler_angles,
    quat_from_euler,
)

BISECTION_TOL = 1e-6
# Largest t_max / dt_physics a scenario may ask for: about 25 s of wall
# time for `swervefall run` at ten physics steps per control tick and
# 70 s at one (one core of a 2-vCPU Xeon).
MAX_PHYSICS_STEPS = 10**6

CSV_HEADER = (
    "t,phi,theta,psi,omega_x,omega_y,omega_z,"
    "tau_1,tau_2,tau_3,tau_4,tau_delta,"
    "delta_1,delta_2,delta_3,delta_4,"
    "pos_x,pos_y,pos_z,"
    "wheel_w1,wheel_w2,wheel_w3,wheel_w4,mode,sat_mask"
)
CSV_COLUMNS = CSV_HEADER.count(",") + 1


@dataclass(frozen=True)
class NoiseModel:
    """Additive zero-mean Gaussian IMU noise, per channel group.

    sigma_euler [rad], sigma_omega [rad/s], sigma_accel [m/s^2]; all
    default to zero (noise off).
    """

    sigma_euler: float = 0.0
    sigma_omega: float = 0.0
    sigma_accel: float = 0.0

    def enabled(self) -> bool:
        return self.sigma_euler > 0 or self.sigma_omega > 0 or self.sigma_accel > 0


def imu_sample(
    euler,
    omega,
    noise: NoiseModel,
    rng: np.random.Generator | None = None,
) -> tuple[list[float], list[float], float]:
    """What the IMU reports for the true Z-Y-X angles ``euler`` [rad] and
    body rates ``omega`` [rad/s], given as float triples.

    Returns (euler, omega, accel): the angles and rates plus optional
    seeded noise, and the accelerometer magnitude [m/s^2].  The body is
    in ballistic flight, so its specific force is exactly zero; only
    noise moves the accelerometer.  Noise takes one standard-normal draw
    per call, three values per noisy channel in a fixed order: angles,
    rates, accelerometer.
    """
    accel = 0.0
    if noise.enabled():
        if rng is None:
            raise ValueError("noise enabled but no generator supplied")
        s_euler, s_omega, s_accel = noise.sigma_euler, noise.sigma_omega, noise.sigma_accel
        draws = iter(rng.standard_normal(
            3 * ((s_euler > 0) + (s_omega > 0) + (s_accel > 0))
        ).tolist())
        # 0.0 + sigma * z is numpy's own normal(0.0, sigma) from z, so the
        # values are those of one normal(0.0, sigma, 3) per channel.
        # zip takes three draws: it stops at the end of the triple.
        if s_euler > 0:
            euler = [e + (0.0 + s_euler * z) for e, z in zip(euler, draws)]
        if s_omega > 0:
            omega = [w + (0.0 + s_omega * z) for w, z in zip(omega, draws)]
        if s_accel > 0:
            specific = np.array([0.0 + s_accel * z for z in draws])
            # np.linalg.norm's own arithmetic: numpy's dot, then sqrt.
            accel = math.sqrt(specific.dot(specific))
    return euler, omega, accel


def step_rk4(
    state: BodyState,
    cmd: TorqueCommand,
    s: SteeringState,
    params: RobotParams,
    dt: float,
) -> BodyState:
    """One classical fourth-order step; renormalizes the quaternion.

    Raises NonFiniteState if any component leaves the finite range.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    kernel = kernel_holding(cmd, s, params)
    return BodyState.from_flat(kernel.step(state.flat(), dt))


def contact_height(state: BodyState, s: SteeringState, params: RobotParams) -> float:
    """Height of the lowest wheel contact point above the ground plane."""
    return lowest_contact(
        state.r_ob[2], state.quat, wheel_centers(params, s), params.wheel_radius
    )


@dataclass
class Trajectory:
    """Control-tick telemetry plus run events.

    values: the telemetry rows back to back, 25 ``CSV_HEADER`` values per
    control tick, strictly increasing in time; ``rows`` views them as a
    (ticks, 25) float64 array.
    events: (time, kind) with kind in {freefall_start, settled, touchdown}.
    max_specific_accel: largest accelerometer magnitude the IMU reported.
    touchdown_time/touchdown_state: bisection-refined terminal condition,
    present when the run ended by ground contact rather than t_max.
    """

    values: array = field(default_factory=lambda: array("d"))
    events: list[tuple[float, str]] = field(default_factory=list)
    max_specific_accel: float = 0.0
    touchdown_time: float | None = None
    touchdown_state: BodyState | None = None

    @property
    def rows(self) -> np.ndarray:
        """The telemetry as a (ticks, 25) float64 array, sharing memory
        with ``values``; ``mode`` and ``sat_mask`` hold small integers."""
        return np.frombuffer(self.values, dtype=np.float64).reshape(-1, CSV_COLUMNS)


def refine_touchdown(
    kernel: FlightKernel, y: list[float], dt: float, t0: float
) -> tuple[float, BodyState]:
    """Bisect the crossing time of the contact height within one step.

    ``kernel`` is the tick's flight kernel with its command set; ``y`` is
    the flat pre-step state at time t0 with positive clearance, and the
    clearance at t0 + dt is non-positive.  Returns (t_touchdown, state at
    touchdown) with the time bracketed to 1e-6 s.
    """
    if kernel.clearance(y) <= 0.0:
        return t0, BodyState.from_flat(y)
    lo, hi = 0.0, dt
    y_hi = kernel.step(y, dt)
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        y_mid = kernel.step(y, mid)
        if kernel.clearance(y_mid) <= 0.0:
            hi, y_hi = mid, y_mid
        else:
            lo = mid
    return t0 + hi, BodyState.from_flat(y_hi)


@dataclass(frozen=True)
class SimClock:
    """Validated timing: control period must divide onto physics steps."""

    dt_physics: float
    dt_control: float
    steps_per_tick: int

    @staticmethod
    def create(dt_physics: float, dt_control: float) -> "SimClock":
        if dt_physics <= 0 or dt_control <= 0:
            raise ValueError("time steps must be positive")
        ratio = dt_control / dt_physics
        if not math.isfinite(ratio):
            raise ValueError(
                f"dt_control / dt_physics ({dt_control} / {dt_physics}) "
                f"overflows the float range"
            )
        steps = round(ratio)
        if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
            raise ValueError(
                f"dt_control ({dt_control}) must be an integer multiple "
                f"of dt_physics ({dt_physics})"
            )
        return SimClock(dt_physics, dt_control, steps)


def apply_wheel_speed_limit(command, wheel_speed, params: RobotParams):
    """Zero drive torque that would push a wheel past its speed limit.

    ``command`` is (tau_1, tau_2, tau_3, tau_4, tau_delta, sat_mask) as
    ``allocate_body_torque`` returns it and ``wheel_speed`` the four
    wheel spin rates; returns the command in the same form.  Checked
    pairwise so the flight torque symmetry survives clamping: a diagonal
    pair loses drive in the offending direction when either member has
    reached the limit.  The saturation flags are left as they are.
    """
    tau_1, tau_2, tau_3, tau_4, tau_delta, sat_mask = command
    w1, w2, w3, w4 = wheel_speed
    limit = params.wheel_speed_max
    if (
        (w1 >= limit and tau_1 > 0.0) or (w1 <= -limit and tau_1 < 0.0)
        or (w3 >= limit and tau_3 > 0.0) or (w3 <= -limit and tau_3 < 0.0)
    ):
        tau_1 = tau_3 = 0.0
    if (
        (w2 >= limit and tau_2 > 0.0) or (w2 <= -limit and tau_2 < 0.0)
        or (w4 >= limit and tau_4 > 0.0) or (w4 <= -limit and tau_4 < 0.0)
    ):
        tau_2 = tau_4 = 0.0
    return tau_1, tau_2, tau_3, tau_4, tau_delta, sat_mask


@dataclass(frozen=True)
class ScenarioConfig:
    """One flight scenario: initial conditions and run controls.

    ``drop_height`` is the initial clearance of the lowest wheel contact
    point above the ground plane.  Angles are the initial Z-Y-X Euler
    attitude; alpha/beta set the initial steering configuration.
    """

    drop_height: float = 0.85
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    euler0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    omega0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    alpha0: float = math.pi / 4.0
    beta0: float = 0.0
    t_max: float = 2.0
    seed: int = 0
    dt_physics: float = 1e-4
    noise: NoiseModel = NoiseModel()

    def validate(self) -> None:
        if self.drop_height < 0.0:
            raise ValueError("drop_height must be non-negative")
        if self.t_max < 0.0:
            raise ValueError("t_max must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        noise = self.noise
        if min(noise.sigma_euler, noise.sigma_omega, noise.sigma_accel) < 0.0:
            raise ValueError("IMU noise sigmas must be non-negative")
        if self.dt_physics <= 0.0:
            raise ValueError("dt_physics must be positive")
        if self.t_max > MAX_PHYSICS_STEPS * self.dt_physics:
            raise ValueError(
                f"t_max / dt_physics exceeds the work budget of "
                f"{MAX_PHYSICS_STEPS} physics steps (up to about a minute)"
            )


SETTLED_ANGLE_LIMIT = math.radians(2.0)
SETTLED_RATE_LIMIT = 0.5


def initial_body_state(
    scenario: ScenarioConfig, steering: SteeringState, params: RobotParams
) -> BodyState:
    """Place the robot so the lowest contact point sits at drop_height."""
    quat = quat_from_euler(*scenario.euler0)
    probe = BodyState(np.zeros(3), scenario.velocity, quat, scenario.omega0)
    z0 = scenario.drop_height - contact_height(probe, steering, params)
    return BodyState(
        [0.0, 0.0, z0], scenario.velocity, quat, scenario.omega0
    )


# Overflow and invalid results end the run as NonFiniteState; numpy need
# not warn about them as well.
@np.errstate(over="ignore", invalid="ignore")
def simulate(scenario, controller, params: RobotParams) -> Trajectory:
    """Run one scenario to touchdown or t_max.

    ``controller`` is a ControllerConfig; physics advances at
    scenario.dt_physics with the control command held between ticks, the
    tick's RK4 steps in one ``FlightKernel.advance`` call.  Raises
    NonFiniteState (with the absolute time) if integration diverges, the
    accelerometer magnitude or the controller's torque demand leaves the
    finite range.
    """
    scenario.validate()
    clock = SimClock.create(scenario.dt_physics, controller.dt_control)
    dt, steps = clock.dt_physics, clock.steps_per_tick
    sub = SubmovementParams(alpha=scenario.alpha0, beta=scenario.beta0)
    steering = steering_from_submovements(sub)
    kernel = FlightKernel(steering, params)
    y = initial_body_state(scenario, steering, params).flat()
    loop = AttitudeControlLoop(controller, params, sub)
    noise = scenario.noise
    rng = np.random.default_rng(scenario.seed) if noise.enabled() else None

    trajectory = Trajectory()
    append_row = trajectory.values.fromlist
    delta_deg = [math.degrees(d) for d in steering.delta]
    settled_seen = False
    tick = 0
    t = 0.0
    while True:
        phi, theta, psi = euler_angles(y[6:10])
        omega = y[10:13]
        euler_read, omega_read, accel = imu_sample(
            (phi, theta, psi), omega, noise, rng=rng
        )
        if not math.isfinite(accel):
            raise NonFiniteState("non-finite IMU reading", t=t)
        if accel > trajectory.max_specific_accel:
            trajectory.max_specific_accel = accel
        if controller.enabled:
            previous_mode = loop.mode
            try:
                command = loop.update(t, euler_read, omega_read, accel)
            except ValueError as exc:
                # The allocator refuses a NaN or infinite PD demand.
                raise NonFiniteState("non-finite controller demand", t=t) from exc
            mode = loop.mode
            if mode != previous_mode:
                trajectory.events.append((t, "freefall_start"))
                steering = steering_from_submovements(loop.sub)
                kernel = FlightKernel(steering, params)
                delta_deg = [math.degrees(d) for d in steering.delta]
            command = apply_wheel_speed_limit(command, y[13:17], params)
        else:
            command = ZERO_COMMAND
            mode = ControllerMode.GROUND_TELEOP

        tau_1, tau_2, tau_3, tau_4, tau_delta, sat_mask = command
        append_row([
            t, math.degrees(phi), math.degrees(theta), math.degrees(psi), *omega,
            tau_1, tau_2, tau_3, tau_4, tau_delta, *delta_deg, *y[0:3],
            *y[13:17], mode, sat_mask,
        ])

        if (
            not settled_seen
            and mode == ControllerMode.FREEFALL_STABILIZE
            and abs(phi) < SETTLED_ANGLE_LIMIT
            and abs(theta) < SETTLED_ANGLE_LIMIT
            and float(np.linalg.norm(omega)) < SETTLED_RATE_LIMIT
        ):
            trajectory.events.append((t, "settled"))
            settled_seen = True

        next_tick_t = (tick + 1) * controller.dt_control
        if next_tick_t > scenario.t_max + 1e-12:
            break

        kernel.set_command(tau_1, tau_2, tau_delta)
        try:
            y_next, taken = kernel.advance(y, dt, steps, stop_at_ground=True)
        except NonFiniteState as exc:
            raise NonFiniteState("simulation diverged", t=t + exc.t) from exc
        if taken < steps:
            # Step ``taken`` of this tick reaches the ground; bisect it
            # from its pre-step state.
            td_t, td_state = refine_touchdown(kernel, y_next, dt, t + taken * dt)
            trajectory.events.append((td_t, "touchdown"))
            trajectory.touchdown_time = td_t
            trajectory.touchdown_state = td_state
            return trajectory
        y = y_next
        tick += 1
        t = tick * controller.dt_control
    return trajectory
