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
bit-identical trajectories on a given numpy/OpenBLAS build and CPU.  Six
numpy calls round as the build's kernels do: the kernel's quaternion
``dot`` after each RK4 step, the ``dot`` of the tick's Euler readout
(and of the settled check's rate norm), the stacked wheel product, the
kernel's ``full @ pair``, the allocation's LAPACK ``dgesv`` and the
IMU's stacked accelerometer ``matmul``; ``docs/model.md`` records how
they round on the reference machine.  IMU noise, when enabled, draws
from a dedicated seeded generator in a fixed per-tick order, a block of
ticks per call (``imu_stream``).  Runs that differ only in
``LANE_FIELDS`` can share one attitude integration as lanes
(``simulate_lanes``) and still get their separate runs' bits.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import chain, count, repeat

import numpy as np

from .controller import ZERO_COMMAND, AttitudeControlLoop, ControllerMode
from .dynamics import FlightKernel, NonFiniteState, lowest_contact, wheel_centers
from .kinematics import steering_from_submovements
from .params import ConfigError, RobotParams, validate_params
from .state import (
    BodyState,
    NormBuffer,
    SteeringState,
    SubmovementParams,
    quat_from_euler,
    unit_euler_angles,
)

BISECTION_TOL = 1e-6
# Largest t_max / dt_physics a scenario may ask for: about 20 s of wall
# time for `swervefall run` at ten physics steps per control tick and
# 60 s at one (one core of a 2-vCPU Xeon).
MAX_PHYSICS_STEPS = 10**6
# Attitude error [rad] a release spin may build up over MAX_PHYSICS_STEPS
# steps.  An RK4 step of a spin at |omega| lags the exact rotation by
# about theta^5 / 60 rad, theta = |omega| dt / 2 (docs/model.md, Release
# spin), so the largest |omega0| dt_physics of a release is about 0.072.
SPIN_ERROR_BUDGET = 1e-3
MAX_SPIN_STEP = 2.0 * (60.0 * SPIN_ERROR_BUDGET / MAX_PHYSICS_STEPS) ** 0.2

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


# IMU samples drawn per noise block: with all three channels noisy a
# block holds 2304 floats, and a run of a few hundred ticks draws one to
# three blocks.
IMU_BLOCK_TICKS = 256


def imu_noise(noise: NoiseModel, rng: np.random.Generator, ticks: int) -> list:
    """The noise of ``ticks`` consecutive IMU samples from one draw.

    Returns one (euler_noise, omega_noise, accel) per sample: the float
    triples added to the true angles and rates, or None for a channel
    without noise, and the accelerometer magnitude [m/s^2].  The body is
    in ballistic flight, so its specific force is exactly zero; only
    noise moves the accelerometer.

    One ``rng.standard_normal(3 k ticks)`` call for the k noisy channels
    gives the values of ``ticks`` successive ``standard_normal(3 k)``
    draws, each sample's three values per channel in a fixed order:
    angles, rates, accelerometer.  Each value is scaled as
    ``0.0 + sigma * z``, numpy's own ``normal(0.0, sigma)`` arithmetic.
    The magnitudes come from one stacked ``(ticks, 1, 3) @ (ticks, 3, 1)``
    product, which numpy forms with the dot of each sample's own
    ``specific.dot(specific)``, then a square root.
    """
    sigmas = [s for s in (noise.sigma_euler, noise.sigma_omega, noise.sigma_accel) if s > 0]
    z = rng.standard_normal(3 * len(sigmas) * ticks).reshape(ticks, len(sigmas), 3)
    scaled = 0.0 + np.array(sigmas)[:, None] * z
    channels = iter(scaled.transpose(1, 0, 2))
    euler = next(channels).tolist() if noise.sigma_euler > 0 else [None] * ticks
    omega = next(channels).tolist() if noise.sigma_omega > 0 else [None] * ticks
    if noise.sigma_accel > 0:
        specific = next(channels)
        accel = np.sqrt(specific[:, None, :] @ specific[:, :, None]).ravel().tolist()
    else:
        accel = [0.0] * ticks
    return list(zip(euler, omega, accel))


def imu_stream(noise: NoiseModel, seed: int) -> Iterator:
    """The noise of a run's IMU samples, one per control tick, as
    ``imu_noise`` gives it: drawn ``IMU_BLOCK_TICKS`` samples at a time
    from a generator seeded with ``seed``, the values of one
    ``imu_noise(noise, rng, 1)`` draw per tick.  Without noise every
    sample reads the truth and a zero accelerometer, and nothing is
    drawn."""
    if not noise.enabled():
        return repeat((None, None, 0.0))
    rng = np.random.default_rng(seed)
    return chain.from_iterable(imu_noise(noise, rng, IMU_BLOCK_TICKS) for _ in count())


def imu_reading(euler, omega, sample_noise) -> tuple:
    """What the IMU reports for the true Z-Y-X angles ``euler`` [rad] and
    body rates ``omega`` [rad/s], given as float triples, under one
    sample's noise from ``imu_noise``: (euler, omega, accel), the angles
    and rates plus their noise, and the accelerometer magnitude.  A
    channel without noise reports the truth as given."""
    euler_noise, omega_noise, accel = sample_noise
    # Spelled out: a list comprehension costs more than the additions.
    if euler_noise is not None:
        (phi, theta, psi), (n1, n2, n3) = euler, euler_noise
        euler = [phi + n1, theta + n2, psi + n3]
    if omega_noise is not None:
        (wx, wy, wz), (n1, n2, n3) = omega, omega_noise
        omega = [wx + n1, wy + n2, wz + n3]
    return euler, omega, accel


def step_rk4(
    state: BodyState,
    command,
    s: SteeringState,
    params: RobotParams,
    dt: float,
) -> BodyState:
    """One classical fourth-order step under the flight command
    ``(tau_1, tau_2, tau_delta)``; renormalizes the quaternion.

    Raises ValueError unless ``dt`` is positive and finite, and
    NonFiniteState if any component leaves the finite range.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    kernel = FlightKernel(s, params)
    kernel.set_command(*command)
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


# Largest IMU noise sigmas: a half turn for the angles, 100 rad/s for the
# rates and 1000 m/s^2 (about 100 g) for the accelerometer, each past the
# full scale of any IMU a robot carries.  Under them every reading, and
# the accelerometer magnitude, stays finite.
NOISE_SIGMA_MAX = (math.pi, 100.0, 1000.0)

# The ScenarioConfig fields in which runs sharing one attitude
# integration may differ: translation is ballistic and feeds back into
# nothing, and t_max only ends a run.
LANE_FIELDS = ("drop_height", "velocity", "t_max")


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


def validate_run(scenario: ScenarioConfig, controller, params: RobotParams) -> int:
    """Check one run: the robot (``validate_params``), the controller's
    freefall detection, the scenario, the work budget, the release spin
    against the physics step (``MAX_SPIN_STEP``) and that the
    control period is a whole number of physics steps, which it returns.
    Raises ConfigError at the first violation.  ``initial_body_state``
    checks the placement at ``drop_height``."""
    violations = validate_params(params)
    if violations:
        raise ConfigError("invalid robot parameters: " + "; ".join(violations))
    # Each "not x >= bound" refuses NaN as well.
    if not controller.freefall_accel_threshold > 0.0:
        raise ConfigError("freefall_accel_threshold must be positive")
    if not controller.freefall_debounce >= 0.0:
        raise ConfigError("freefall_debounce must be non-negative")
    if not scenario.drop_height >= 0.0:
        raise ConfigError("drop_height must be non-negative")
    if not scenario.t_max >= 0.0:
        raise ConfigError("t_max must be non-negative")
    if scenario.seed < 0:
        raise ConfigError("seed must be non-negative")
    noise = scenario.noise
    sigmas = (noise.sigma_euler, noise.sigma_omega, noise.sigma_accel)
    if not all(sigma >= 0.0 for sigma in sigmas):
        raise ConfigError("IMU noise sigmas must be non-negative")
    if any(sigma > top for sigma, top in zip(sigmas, NOISE_SIGMA_MAX)):
        raise ConfigError(
            "IMU noise sigmas may not exceed 180 deg (noise_sigma_euler_deg), "
            "100 rad/s (noise_sigma_omega) and 1000 m/s^2 (noise_sigma_accel)"
        )
    dt_physics, dt_control = scenario.dt_physics, controller.dt_control
    if not dt_physics > 0.0:
        raise ConfigError("dt_physics must be positive")
    if scenario.t_max > MAX_PHYSICS_STEPS * dt_physics:
        raise ConfigError(
            f"t_max / dt_physics exceeds the work budget of "
            f"{MAX_PHYSICS_STEPS} physics steps (up to about a minute)"
        )
    spin_step = math.hypot(*scenario.omega0) * dt_physics
    if not spin_step <= MAX_SPIN_STEP:
        raise ConfigError(
            f"release spin |omega| * dt_physics = {spin_step:.3g} rad exceeds "
            f"{MAX_SPIN_STEP:.3g} rad: lower dt_physics or omega_x/y/z"
        )
    if not dt_control > 0.0:
        raise ConfigError("time steps must be positive")
    ratio = dt_control / dt_physics
    if not math.isfinite(ratio):
        raise ConfigError(
            f"dt_control / dt_physics ({dt_control} / {dt_physics}) "
            f"overflows the float range"
        )
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
        raise ConfigError(
            f"dt_control ({dt_control}) must be an integer multiple "
            f"of dt_physics ({dt_physics})"
        )
    return steps


SETTLED_ANGLE_LIMIT = math.radians(2.0)
SETTLED_RATE_LIMIT = 0.5


def initial_body_state(
    scenario: ScenarioConfig, steering: SteeringState, params: RobotParams
) -> BodyState:
    """Place the robot so the lowest contact point sits at drop_height;
    raises ConfigError where the placed state misses it by over 1e-9 m."""
    quat = quat_from_euler(*scenario.euler0)
    probe = BodyState(np.zeros(3), scenario.velocity, quat, scenario.omega0)
    z0 = scenario.drop_height - contact_height(probe, steering, params)
    state = BodyState([0.0, 0.0, z0], scenario.velocity, quat, scenario.omega0)
    placed = contact_height(state, steering, params)
    if not abs(placed - scenario.drop_height) <= 1e-9:
        raise ConfigError(
            f"cannot place the robot at drop_height {scenario.drop_height:g} m "
            f"(placed at {placed:g} m; check wheel_radius and the geometry)"
        )
    return state


def attitude_key(scenario: ScenarioConfig, controller, params: RobotParams) -> str:
    """Equal for runs that share one attitude history: everything but
    ``LANE_FIELDS`` agrees, every float to the bit (``repr`` tells -0.0
    from 0.0)."""
    shared = replace(scenario, **dict.fromkeys(LANE_FIELDS))
    return repr((shared, controller, params))


def simulate(scenario, controller, params: RobotParams) -> Trajectory:
    """Run one scenario to touchdown or t_max: ``simulate_lanes`` for
    one lane.  Raises ConfigError for a run the config loader refuses
    (``validate_run``), and NonFiniteState (with the absolute time) if
    the integration diverges or the controller's torque demand leaves
    the finite range."""
    [result] = simulate_lanes([scenario], controller, params)
    if isinstance(result, NonFiniteState):
        raise result
    return result


# Overflow and invalid results end a run as NonFiniteState; numpy need
# not warn about them as well.
@np.errstate(over="ignore", invalid="ignore")
def simulate_lanes(
    scenarios, controller, params: RobotParams
) -> list[Trajectory | NonFiniteState]:
    """Run scenarios that differ only in ``LANE_FIELDS`` (drop height,
    release velocity and t_max), each to its touchdown or t_max, on one
    attitude integration.

    ``controller`` is a ControllerConfig; physics advances at
    scenario.dt_physics with the control command held between ticks, the
    tick's RK4 steps in one ``FlightKernel.advance_lanes`` call.  Each
    tick reads the IMU through ``imu_reading`` under the next sample of
    ``imu_stream``, whose noise is drawn ``IMU_BLOCK_TICKS`` ticks at a
    time, and carries the controller mode as the int the telemetry
    records.
    Translation is ballistic and nothing reads it back: the IMU, the
    freefall debounce, the controller, the wheel speeds and the events
    are the same for every lane until the lane ends.  So the runs are
    lanes of one integration, each with its own position and velocity,
    contact check, touchdown bisection, t_max end and divergence.
    Returns, per scenario in order, its Trajectory or the NonFiniteState
    (with the absolute time) that ends it, each bit for bit what the
    scenario alone gives.
    """
    if len({attitude_key(s, controller, params) for s in scenarios}) != 1:
        raise ValueError(f"lanes may differ only in {', '.join(LANE_FIELDS)}")
    for scenario in scenarios:
        steps = validate_run(scenario, controller, params)
    first = scenarios[0]
    dt = first.dt_physics
    sub = SubmovementParams(alpha=first.alpha0, beta=first.beta0)
    steering = steering_from_submovements(sub)
    kernel = FlightKernel(steering, params)
    loop = AttitudeControlLoop(controller, params, sub)
    imu = imu_stream(first.noise, first.seed)
    # The norms of the Euler readout and the settled check.
    norms = NormBuffer()

    results: list[Trajectory | NonFiniteState] = [Trajectory() for _ in scenarios]
    # The running lanes and their flat states, which agree in y[6:17]:
    # attitude, body rates and wheel speeds.
    live = list(range(len(scenarios)))
    states = [initial_body_state(s, steering, params).flat() for s in scenarios]
    t_ends = [s.t_max + 1e-12 for s in scenarios]
    soonest_end = min(t_ends)
    max_accel = 0.0
    delta_deg = [math.degrees(d) for d in steering.delta]
    settled_seen = False
    # The controller mode as the int the telemetry records.
    mode = int(ControllerMode.GROUND_TELEOP)
    freefall = int(ControllerMode.FREEFALL_STABILIZE)
    tick = 0
    t = 0.0
    while True:
        y = states[0]
        phi, theta, psi = unit_euler_angles(*norms.unit(y[6:10]))
        omega = y[10:13]
        euler_read, omega_read, accel = imu_reading((phi, theta, psi), omega, next(imu))
        if accel > max_accel:
            max_accel = accel
        if controller.enabled:
            try:
                command = loop.update(t, euler_read, omega_read, accel)
            except ValueError:
                # The allocator refuses a NaN or infinite PD demand and a
                # solve that overflows.
                for k in live:
                    results[k] = NonFiniteState("non-finite controller demand", t=t)
                break
            if loop.mode != mode:
                mode = int(loop.mode)
                for k in live:
                    results[k].events.append((t, "freefall_start"))
                steering = steering_from_submovements(loop.sub)
                kernel = FlightKernel(steering, params)
                delta_deg = [math.degrees(d) for d in steering.delta]
            command = apply_wheel_speed_limit(command, y[13:17], params)
        else:
            command = ZERO_COMMAND

        tau_1, tau_2, tau_3, tau_4, tau_delta, sat_mask = command
        phi_deg, theta_deg, psi_deg = (
            math.degrees(phi), math.degrees(theta), math.degrees(psi)
        )
        for k, state in zip(live, states):
            results[k].values.fromlist([
                t, phi_deg, theta_deg, psi_deg, *omega,
                tau_1, tau_2, tau_3, tau_4, tau_delta, *delta_deg, *state[0:3],
                *y[13:17], mode, sat_mask,
            ])

        if (
            not settled_seen
            and mode == freefall
            and abs(phi) < SETTLED_ANGLE_LIMIT
            and abs(theta) < SETTLED_ANGLE_LIMIT
            and norms.norm3(omega) < SETTLED_RATE_LIMIT
        ):
            for k in live:
                results[k].events.append((t, "settled"))
            settled_seen = True

        next_tick_t = (tick + 1) * controller.dt_control
        if next_tick_t > soonest_end:
            # A lane whose next tick lies past its t_max ends here.
            for k in live:
                if next_tick_t > t_ends[k]:
                    results[k].max_specific_accel = max_accel
            states = [s for k, s in zip(live, states) if next_tick_t <= t_ends[k]]
            live = [k for k in live if next_tick_t <= t_ends[k]]
            if not live:
                break
            soonest_end = min(t_ends[k] for k in live)

        kernel.set_command(tau_1, tau_2, tau_delta)
        lanes = zip(live, kernel.advance_lanes(states, dt, steps, stop_at_ground=True))
        live, states = [], []
        for k, (y_next, taken, failure) in lanes:
            if failure is None and taken == steps:
                live.append(k)
                states.append(y_next)
            elif failure is not None:
                results[k] = NonFiniteState("simulation diverged", t=t + taken * dt)
            else:
                # Step ``taken`` of this tick reaches the ground; bisect it
                # from the lane's pre-step state.
                trajectory = results[k]
                trajectory.max_specific_accel = max_accel
                try:
                    td_t, td_state = refine_touchdown(
                        kernel, y_next, dt, t + taken * dt
                    )
                except NonFiniteState as exc:
                    results[k] = exc
                    continue
                trajectory.events.append((td_t, "touchdown"))
                trajectory.touchdown_time = td_t
                trajectory.touchdown_state = td_state
        if not live:
            break
        tick += 1
        t = tick * controller.dt_control
    return results
