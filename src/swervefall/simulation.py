"""Fixed-step flight integration, simulated IMU, and event detection.

The physics runs classical RK4 at ``dt_physics`` while the controller is
sampled at ``dt_control`` with zero-order hold in between; the control
period must be an integer multiple of the physics step.  Touchdown is the
first instant the lowest wheel contact point (wheel-center height minus
wheel radius) reaches the ground plane z = 0, refined by bisection to
1e-6 s.  No contact response is modeled; the run ends there.

One control tick carries plain floats from the simulated IMU into one
``AttitudeControlLoop.update`` call (freefall debounce, PD law,
allocation and wheel-speed limit), holds the flight command it returns
over the tick's physics steps, and appends one flat telemetry row: the
25 CSV values in ``CSV_HEADER`` order, angles in degrees, ending with
the integer-valued ``mode`` and ``sat_mask``.  Rows go into one growing
float64 buffer, 200 bytes per tick.  Pose columns are ground truth from
the simulated state (IMU noise, when enabled, affects only what the
controller saw).
``mode`` is the controller mode (0 ground, 1 freefall stabilize) and
``sat_mask`` packs the saturation flags (bits 0-3 wheels, bit 4
steering).

Determinism: given identical configs and seed, every run produces
bit-identical trajectories on a given numpy/OpenBLAS build and CPU.  Five
numpy calls round as the build's kernels do: the kernel's quaternion
``dot`` after each RK4 step, the ``dot`` of the tick's Euler readout,
the stacked wheel product, the kernel's ``full @ pair`` and the
allocation's LAPACK ``dgesv``; ``docs/model.md`` records how they round
on the reference machine.  IMU noise, when enabled, draws
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

from .controller import FLIGHT, AttitudeControlLoop, ControllerMode
from .dynamics import (
    FlightKernel,
    NonFiniteState,
    effective_inertia,
    lowest_contact,
    wheel_centers,
)
from .kinematics import steering_angles
from .params import ConfigError, RobotParams, validate_params
from .state import NormBuffer, SubmovementParams, quat_from_euler, unit_euler_angles

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
# How a run ends whose body rates grow past that bound in flight.
SPIN_STEP_EXCEEDED = (
    f"body rates past the spin bound |omega| * dt_physics = {MAX_SPIN_STEP:.3g} rad"
)

# Largest |position| and RK4 stage sum of a release's ballistic path up
# to t_max: 1/1024 of the largest float; g = 1e300 at t_max = 2 s loads.
TRANSLATION_MAX = float(np.finfo(float).max) / 1024.0

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
    Each magnitude is ``sqrt(x*x + y*y + z*z)`` in float arithmetic.
    """
    sigmas = [s for s in (noise.sigma_euler, noise.sigma_omega, noise.sigma_accel) if s > 0]
    z = rng.standard_normal(3 * len(sigmas) * ticks).reshape(ticks, len(sigmas), 3)
    scaled = 0.0 + np.array(sigmas)[:, None] * z
    channels = iter(scaled.transpose(1, 0, 2))
    euler = next(channels).tolist() if noise.sigma_euler > 0 else [None] * ticks
    omega = next(channels).tolist() if noise.sigma_omega > 0 else [None] * ticks
    if noise.sigma_accel > 0:
        accel = [math.sqrt(x * x + y * y + z * z) for x, y, z in next(channels).tolist()]
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
    state, command, sub: SubmovementParams, params: RobotParams, dt: float
) -> list[float]:
    """One classical fourth-order step of the flat body state ``state``
    (17 numbers, ``swervefall.state``) under the flight command
    ``(tau_1, tau_2, tau_delta)``; renormalizes the quaternion after the
    step and returns the stepped state as 17 floats.

    Raises ValueError unless ``state`` has 17 entries and ``dt`` is
    positive and finite, and NonFiniteState if any component leaves the
    finite range.
    """
    y = [float(v) for v in state]
    if len(y) != 17:
        raise ValueError(f"a body state is 17 floats, not {len(y)}")
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    kernel = FlightKernel(sub, params)
    kernel.set_command(*command)
    return kernel.step(y, dt)


@dataclass
class Trajectory:
    """Control-tick telemetry plus run events.

    values: the telemetry rows back to back, 25 ``CSV_HEADER`` values per
    control tick, strictly increasing in time; ``rows`` views them as a
    (ticks, 25) float64 array.
    events: (time, kind) with kind in {freefall_start, settled, touchdown}.
    max_specific_accel: largest accelerometer magnitude the IMU reported.
    touchdown_time/touchdown_state: bisection-refined terminal condition,
    present when the run ended by ground contact rather than t_max; the
    state is the flat body state at touchdown, 17 floats (r_ob, v_ob,
    quat, omega, wheel_speed).
    """

    values: array = field(default_factory=lambda: array("d"))
    events: list[tuple[float, str]] = field(default_factory=list)
    max_specific_accel: float = 0.0
    touchdown_time: float | None = None
    touchdown_state: list[float] | None = None

    @property
    def rows(self) -> np.ndarray:
        """The telemetry as a (ticks, 25) float64 array, sharing memory
        with ``values``; ``mode`` and ``sat_mask`` hold small integers."""
        return np.frombuffer(self.values, dtype=np.float64).reshape(-1, CSV_COLUMNS)


def refine_touchdown(
    kernel: FlightKernel, y: list[float], dt: float, t0: float
) -> tuple[float, list[float]]:
    """Bisect the crossing time of the contact height within one step.

    ``kernel`` is the tick's flight kernel with its command set; ``y`` is
    the flat pre-step state at time t0 with positive clearance, and the
    clearance at t0 + dt is non-positive.  Returns (t_touchdown, flat
    state at touchdown) with the time bracketed to 1e-6 s.
    """
    if kernel.clearance(y) <= 0.0:
        return t0, list(y)
    lo, hi = 0.0, dt
    y_hi = kernel.step(y, dt)
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        y_mid = kernel.step(y, mid)
        if kernel.clearance(y_mid) <= 0.0:
            hi, y_hi = mid, y_mid
        else:
            lo = mid
    return t0 + hi, y_hi


# Largest IMU noise sigmas: a half turn for the angles, 100 rad/s for the
# rates and 1000 m/s^2 (about 100 g) for the accelerometer, each past the
# full scale of any IMU a robot carries.  Under them every reading, and
# the accelerometer magnitude, stays finite.
NOISE_SIGMA_MAX = (math.pi, 100.0, 1000.0)

# The ScenarioConfig fields in which runs sharing one attitude
# integration may differ: translation is ballistic and feeds back into
# nothing.
LANE_FIELDS = ("drop_height", "velocity")


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
    gains and freefall detection, the scenario (``beta0`` = 0 when the
    controller is disabled, which never swings), the effective inertia
    at the release and flight steering, the work budget, the release's
    translation (``TRANSLATION_MAX``) and spin (``MAX_SPIN_STEP``) and
    that the control period is a whole number of physics steps, which it returns.
    Raises ConfigError at the first violation.  ``initial_body_state``
    checks the placement at ``drop_height``."""
    violations = validate_params(params)
    if violations:
        raise ConfigError("invalid robot parameters: " + "; ".join(violations))
    # Each "not x >= bound" refuses NaN as well.
    kp, kd = controller.kp, controller.kd
    if not (len(kp) == len(kd) == 3 and all(0.0 <= g < math.inf for g in (*kp, *kd))):
        raise ConfigError("gains must be non-negative and finite")
    if not controller.freefall_accel_threshold > 0.0:
        raise ConfigError("freefall_accel_threshold must be positive")
    if not controller.freefall_debounce >= 0.0:
        raise ConfigError("freefall_debounce must be non-negative")
    if not scenario.drop_height >= 0.0:
        raise ConfigError("drop_height must be non-negative")
    if not all(math.isfinite(v) for v in scenario.velocity):
        raise ConfigError("velocity must be finite")
    if not all(map(math.isfinite, (*scenario.euler0, scenario.alpha0, scenario.beta0))):
        raise ConfigError("release attitude and steering angles must be finite")
    # Only the freefall swing takes beta to 0, where the diagonal model
    # is exact, and a disabled controller never swings.
    if not controller.enabled and scenario.beta0 != 0.0:
        raise ConfigError("controller_enabled = false needs beta_deg = 0: the steering "
                          "never swings, and the model drops J_xy at beta != 0")
    # The diagonal model needs a positive, finite J* on every axis; the
    # axle terms of a steering far from flight can outweigh the rest.
    # Huge parameters overflow to inf or NaN, which the comparison
    # judges: an infinite J* times a zero rate is NaN.
    for sub in (SubmovementParams(scenario.alpha0, scenario.beta0), FLIGHT):
        with np.errstate(over="ignore", invalid="ignore"):
            inertia = effective_inertia(params, sub).tolist()
        if not all(0.0 < j < math.inf for j in inertia):
            raise ConfigError(
                f"effective inertia J* = ({', '.join(f'{j:.4g}' for j in inertia)}) "
                f"kg m^2 is not positive and finite at "
                f"alpha_deg = {math.degrees(sub.alpha):g}, beta_deg = {math.degrees(sub.beta):g}"
            )
    if not scenario.t_max >= 0.0:
        raise ConfigError("t_max must be non-negative")
    # The noise generator takes only integer seeds.
    if not isinstance(scenario.seed, (int, np.integer)) or scenario.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
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
    # p0 + v0 t - g t^2 Z / 2 up to t_max axis by axis, p0 within reach of
    # drop_height (docs/model.md, Release translation).
    t, g = scenario.t_max, params.g
    vx, vy, vz = map(abs, scenario.velocity)
    reach = 0.5 * (params.a + params.b) + params.c + params.wheel_radius
    height = scenario.drop_height + reach + vz * t + 0.5 * g * t * t
    bound = max(vx * t, vy * t, height, 6.0 * max(vx, vy, vz + g * t, g))
    if not bound <= TRANSLATION_MAX:
        raise ConfigError(
            f"release translation may leave the float range by t_max: |position| "
            f"or 6 max(|velocity|, g) reaches {bound:.3g}, past {TRANSLATION_MAX:.3g}; "
            f"lower drop_height, velocity_x/y/z, g or t_max"
        )
    # The comparison ``simulate_lanes`` makes on every tick, so a release
    # that passes it cannot fail it at t = 0.
    ox, oy, oz = scenario.omega0
    spin_top = MAX_SPIN_STEP / dt_physics
    if not ox * ox + oy * oy + oz * oz <= spin_top * spin_top:
        raise ConfigError(
            f"release spin |omega| * dt_physics = "
            f"{math.hypot(ox, oy, oz) * dt_physics:.3g} rad exceeds "
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
    scenario: ScenarioConfig, sub: SubmovementParams, params: RobotParams
) -> list[float]:
    """The release as a flat body state with its wheels still, placed so
    the lowest contact point sits at drop_height; raises ConfigError
    where the placed state misses it by over 1e-9 m."""
    quat = NormBuffer().unit(quat_from_euler(*scenario.euler0))
    centers, radius = wheel_centers(params, sub).tolist(), params.wheel_radius
    z0 = scenario.drop_height - lowest_contact(0.0, quat, centers, radius)
    placed = lowest_contact(z0, quat, centers, radius)
    if not abs(placed - scenario.drop_height) <= 1e-9:
        raise ConfigError(
            f"cannot place the robot at drop_height {scenario.drop_height:g} m "
            f"(placed at {placed:g} m; check wheel_radius and the geometry)"
        )
    return [
        0.0, 0.0, z0, *map(float, scenario.velocity), *quat,
        *map(float, scenario.omega0), 0.0, 0.0, 0.0, 0.0,
    ]


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
    the integration diverges, the controller's torque demand leaves the
    finite range or the body rates grow past the step's spin bound
    (``SPIN_STEP_EXCEEDED``)."""
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
    """Run scenarios that differ only in ``LANE_FIELDS`` (drop height
    and release velocity), each to its touchdown or their shared t_max,
    on one attitude integration.

    ``controller`` is a ControllerConfig; physics advances at
    scenario.dt_physics with the control command held between ticks, the
    tick's RK4 steps in one ``FlightKernel.advance_lanes`` call.  Each
    tick reads the IMU through ``imu_reading`` under the next sample of
    ``imu_stream``, holds the command of one ``AttitudeControlLoop.update``
    call (``-tau_1`` and ``-tau_2`` are the ``tau_3`` and ``tau_4``
    columns) and carries the controller mode as the int the telemetry
    records.  The tick that detects freefall swings the steering: it
    rebuilds the kernel at the new effective inertia J* and, where an
    axis's J* changes, rescales the body rates so each axis keeps its
    momentum J* W (the tick's row keeps the rates the IMU read).  A tick
    that starts with |omega| dt_physics past ``MAX_SPIN_STEP`` ends
    every live lane with ``SPIN_STEP_EXCEEDED``.
    Translation is ballistic and nothing reads it back, so the runs are
    lanes of one integration, each with its own position and velocity,
    contact check and touchdown bisection; a lane, a
    validated release, diverges only with the shared history.  Returns,
    per scenario in order, its Trajectory or the NonFiniteState (with
    the absolute time) that ends it, each bit for bit what the scenario
    alone gives.
    """
    if len({attitude_key(s, controller, params) for s in scenarios}) != 1:
        raise ValueError(f"lanes may differ only in {', '.join(LANE_FIELDS)}")
    for scenario in scenarios:
        steps = validate_run(scenario, controller, params)
    first = scenarios[0]
    dt = first.dt_physics
    sub = SubmovementParams(alpha=first.alpha0, beta=first.beta0)
    kernel = FlightKernel(sub, params)
    loop = AttitudeControlLoop(controller, params)
    imu = imu_stream(first.noise, first.seed)
    # |omega|^2 past which the step no longer resolves the spin
    # (``MAX_SPIN_STEP``); a product, since a square may overflow.
    spin_top = MAX_SPIN_STEP / dt
    max_spin_squared = spin_top * spin_top
    # The norm of the Euler readout.
    norms = NormBuffer()

    results: list[Trajectory | NonFiniteState] = [Trajectory() for _ in scenarios]
    # The running lanes and their flat states, which agree in y[6:17]:
    # attitude, body rates and wheel speeds.
    live = list(range(len(scenarios)))
    states = [initial_body_state(s, sub, params) for s in scenarios]
    t_end = first.t_max + 1e-12
    max_accel = 0.0
    delta_deg = [math.degrees(d) for d in steering_angles(sub)]
    settled_seen = False
    # The controller mode as the int the telemetry records.
    mode = int(ControllerMode.GROUND_TELEOP)
    freefall = int(ControllerMode.FREEFALL_STABILIZE)
    tick = 0
    t = 0.0
    while True:
        y = states[0]
        omega = y[10:13]
        ox, oy, oz = omega
        spin_squared = ox * ox + oy * oy + oz * oz
        if spin_squared > max_spin_squared:
            for k in live:
                results[k] = NonFiniteState(SPIN_STEP_EXCEEDED, t=t)
            break
        phi, theta, psi = unit_euler_angles(*norms.unit(y[6:10]))
        euler_read, omega_read, accel = imu_reading((phi, theta, psi), omega, next(imu))
        if accel > max_accel:
            max_accel = accel
        try:
            tau_1, tau_2, tau_delta, sat_mask = loop.update(
                t, euler_read, omega_read, accel, y[13:17]
            )
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
            swung = FlightKernel(FLIGHT, params)
            delta_deg = [math.degrees(d) for d in steering_angles(FLIGHT)]
            # The swing is internal: each axis keeps its momentum J* W.
            rates = [
                w if j == j_swung else j * w / j_swung
                for w, j, j_swung in zip(omega, kernel.inertia, swung.inertia)
            ]
            states = [[*state[:10], *rates, *state[13:]] for state in states]
            kernel = swung

        phi_deg, theta_deg, psi_deg = (
            math.degrees(phi), math.degrees(theta), math.degrees(psi)
        )
        for k, state in zip(live, states):
            results[k].values.fromlist([
                t, phi_deg, theta_deg, psi_deg, *omega,
                tau_1, tau_2, -tau_1, -tau_2, tau_delta, *delta_deg, *state[0:3],
                *y[13:17], mode, sat_mask,
            ])

        if (
            not settled_seen
            and mode == freefall
            and abs(phi) < SETTLED_ANGLE_LIMIT
            and abs(theta) < SETTLED_ANGLE_LIMIT
            and spin_squared < SETTLED_RATE_LIMIT**2
        ):
            for k in live:
                results[k].events.append((t, "settled"))
            settled_seen = True

        if (tick + 1) * controller.dt_control > t_end:
            # The next tick lies past t_max: every live lane ends here.
            for k in live:
                results[k].max_specific_accel = max_accel
            break

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
