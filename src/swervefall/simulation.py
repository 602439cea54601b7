"""Fixed-step flight integration, simulated IMU, and event detection.

The physics runs classical RK4 at ``dt_physics`` while the controller is
sampled at ``dt_control`` with zero-order hold in between; the control
period must be an integer multiple of the physics step.  Touchdown is the
first instant the lowest wheel contact point (wheel-center height minus
wheel radius) reaches the ground plane z = 0, refined by bisection to
1e-6 s.  No contact response is modeled; the run ends there.

Determinism: given identical configs and seed, every run produces
bit-identical trajectories.  IMU noise, when enabled, draws from a
dedicated seeded generator in a fixed per-tick order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import FlightKernel, NonFiniteState, wheel_centers
from .params import RobotParams
from .state import (
    BodyState,
    SteeringState,
    TorqueCommand,
    euler_from_quaternion,
    quat_from_euler,
    quat_to_matrix,
)

BISECTION_TOL = 1e-6


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


@dataclass(frozen=True)
class ImuReading:
    """Simulated inertial sensor output in body axes.

    specific_accel is the accelerometer signal (true acceleration minus
    gravity): zero in exact freefall, (0, 0, +g) resting upright.
    """

    euler: np.ndarray
    omega: np.ndarray
    specific_accel: np.ndarray
    timestamp: float


def imu_sample(
    state: BodyState,
    noise: NoiseModel,
    t: float,
    rng: np.random.Generator | None = None,
    world_accel: np.ndarray | None = None,
    g: float = 9.81,
) -> ImuReading:
    """Sample exact kinematic quantities plus optional seeded noise.

    ``world_accel`` is the true acceleration of the body in the world
    frame; it defaults to ballistic (0, 0, -g).  Pass zeros for a body at
    rest on support.
    """
    if world_accel is None:
        world_accel = np.array([0.0, 0.0, -g])
    rot = state.rotation()
    specific = rot.T @ (np.asarray(world_accel, dtype=float) - np.array([0.0, 0.0, -g]))
    angles = euler_from_quaternion(state.quat)
    euler = angles.as_array()
    omega = state.omega.copy()
    if noise.enabled():
        if rng is None:
            raise ValueError("noise enabled but no generator supplied")
        euler = euler + rng.normal(0.0, noise.sigma_euler, 3) if noise.sigma_euler > 0 else euler
        omega = omega + rng.normal(0.0, noise.sigma_omega, 3) if noise.sigma_omega > 0 else omega
        if noise.sigma_accel > 0:
            specific = specific + rng.normal(0.0, noise.sigma_accel, 3)
    return ImuReading(euler=euler, omega=omega, specific_accel=specific, timestamp=t)


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
    kernel = FlightKernel(s, params)
    kernel.set_command(cmd)
    return BodyState.from_flat(kernel.step(state.flat(), dt))


def contact_height(state: BodyState, s: SteeringState, params: RobotParams) -> float:
    """Height of the lowest wheel contact point above the ground plane."""
    return _lowest_contact(
        state.r_ob[2], state.quat, wheel_centers(params, s), params.wheel_radius
    )


def _lowest_contact(
    z: float, quat, centers: np.ndarray, wheel_radius: float
) -> float:
    centers_world_z = z + (quat_to_matrix(quat) @ centers.T)[2]
    return float(centers_world_z.min() - wheel_radius)


@dataclass(frozen=True)
class TelemetrySample:
    t: float
    state: BodyState
    command: TorqueCommand
    mode: int
    imu: ImuReading
    steering: SteeringState


@dataclass
class Trajectory:
    """Control-tick telemetry records plus run events.

    samples: one record per control tick, strictly increasing in time.
    events: (time, kind) with kind in {freefall_start, settled, touchdown}.
    touchdown_time/touchdown_state: bisection-refined terminal condition,
    present when the run ended by ground contact rather than t_max.
    """

    samples: list[TelemetrySample] = field(default_factory=list)
    events: list[tuple[float, str]] = field(default_factory=list)
    touchdown_time: float | None = None
    touchdown_state: BodyState | None = None


def refine_touchdown(
    kernel: FlightKernel, y: list[float], wheel_radius: float,
    dt: float, t0: float,
) -> tuple[float, BodyState]:
    """Bisect the crossing time of the contact height within one step.

    ``kernel`` is the tick's flight kernel with its command set; ``y`` is
    the flat pre-step state at time t0 with positive clearance, and the
    clearance at t0 + dt is non-positive.  Returns (t_touchdown, state at
    touchdown) with the time bracketed to 1e-6 s.
    """
    def clearance(state) -> float:
        return _lowest_contact(state[2], state[6:10], kernel.centers, wheel_radius)

    if clearance(y) <= 0.0:
        return t0, BodyState.from_flat(y)
    lo, hi = 0.0, dt
    y_hi = kernel.step(y, dt)
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        y_mid = kernel.step(y, mid)
        if clearance(y_mid) <= 0.0:
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
        steps = round(ratio)
        if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
            raise ValueError(
                f"dt_control ({dt_control}) must be an integer multiple "
                f"of dt_physics ({dt_physics})"
            )
        return SimClock(dt_physics, dt_control, steps)


def apply_wheel_speed_limit(
    cmd: TorqueCommand, state: BodyState, params: RobotParams
) -> TorqueCommand:
    """Zero drive torque that would push a wheel past its speed limit.

    Checked pairwise so the flight torque symmetry survives clamping:
    a diagonal pair loses drive in the offending direction when either
    member has reached the limit.
    """
    tau = cmd.tau.copy()
    limit = params.wheel_speed_max
    changed = False
    for lead, trail in ((0, 2), (1, 3)):
        for idx in (lead, trail):
            w, t = state.wheel_speed[idx], tau[idx]
            if (w >= limit and t > 0.0) or (w <= -limit and t < 0.0):
                tau[lead] = 0.0
                tau[trail] = 0.0
                changed = True
                break
    if not changed:
        return cmd
    return TorqueCommand(tau=tau, tau_delta=cmd.tau_delta, saturated=cmd.saturated)


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


def simulate(scenario, controller, params: RobotParams) -> Trajectory:
    """Run one scenario to touchdown or t_max.

    ``controller`` is a ControllerConfig; physics advances at
    scenario.dt_physics with the control command held between ticks.
    Raises NonFiniteState (with the absolute time) if integration
    diverges.
    """
    from .controller import AttitudeControlLoop, ControllerMode
    from .kinematics import steering_from_submovements
    from .state import SubmovementParams

    scenario.validate()
    clock = SimClock.create(scenario.dt_physics, controller.dt_control)
    sub = SubmovementParams(alpha=scenario.alpha0, beta=scenario.beta0)
    steering = steering_from_submovements(sub)
    kernel = FlightKernel(steering, params)
    y = initial_body_state(scenario, steering, params).flat()
    loop = AttitudeControlLoop(controller, params, sub)
    rng = np.random.default_rng(scenario.seed) if scenario.noise.enabled() else None

    trajectory = Trajectory()
    settled_seen = False
    tick = 0
    t = 0.0
    while True:
        state = BodyState.from_flat(y)
        imu = imu_sample(state, scenario.noise, t, rng=rng, g=params.g)
        if controller.enabled:
            previous_mode = loop.mode
            cmd = loop.update(imu)
            mode = loop.mode
            if (
                previous_mode == ControllerMode.GROUND_TELEOP
                and mode == ControllerMode.FREEFALL_STABILIZE
            ):
                trajectory.events.append((t, "freefall_start"))
                steering = steering_from_submovements(loop.sub)
                kernel = FlightKernel(steering, params)
            cmd = apply_wheel_speed_limit(cmd, state, params)
        else:
            cmd = TorqueCommand.zero()
            mode = ControllerMode.GROUND_TELEOP

        trajectory.samples.append(
            TelemetrySample(
                t=t, state=state, command=cmd, mode=int(mode), imu=imu,
                steering=steering,
            )
        )

        if (
            controller.enabled
            and not settled_seen
            and mode == ControllerMode.FREEFALL_STABILIZE
        ):
            angles = euler_from_quaternion(state.quat)
            if (
                abs(angles.phi) < SETTLED_ANGLE_LIMIT
                and abs(angles.theta) < SETTLED_ANGLE_LIMIT
                and float(np.linalg.norm(state.omega)) < SETTLED_RATE_LIMIT
            ):
                trajectory.events.append((t, "settled"))
                settled_seen = True

        next_tick_t = (tick + 1) * controller.dt_control
        if next_tick_t > scenario.t_max + 1e-12:
            break

        kernel.set_command(cmd)
        for sub_step in range(clock.steps_per_tick):
            t_step = t + sub_step * clock.dt_physics
            try:
                stepped = kernel.step(y, clock.dt_physics)
            except NonFiniteState as exc:
                raise NonFiniteState("simulation diverged", t=t_step) from exc
            near_ground = stepped[2] <= kernel.contact_reach
            if near_ground and _lowest_contact(
                stepped[2], stepped[6:10], kernel.centers, params.wheel_radius
            ) <= 0.0:
                td_t, td_state = refine_touchdown(
                    kernel, y, params.wheel_radius, clock.dt_physics, t_step
                )
                trajectory.events.append((td_t, "touchdown"))
                trajectory.touchdown_time = td_t
                trajectory.touchdown_state = td_state
                return trajectory
            y = stepped
        tick += 1
        t = tick * controller.dt_control
    return trajectory
