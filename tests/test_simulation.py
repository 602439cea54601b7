import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swervefall import (
    BodyState,
    ConfigError,
    ControllerConfig,
    NoiseModel,
    RobotParams,
    ScenarioConfig,
    SubmovementParams,
    simulate,
    steering_from_submovements,
    step_rk4,
    quat_from_euler,
)
from swervefall.cli import main as cli_main
from swervefall.simulation import (
    IMU_BLOCK_TICKS,
    MAX_PHYSICS_STEPS,
    MAX_SPIN_STEP,
    SPIN_ERROR_BUDGET,
    apply_wheel_speed_limit,
    contact_height,
    imu_noise,
    imu_reading,
    imu_stream,
    initial_body_state,
    validate_run,
)
from swervefall.dynamics import FlightKernel
from swervefall.state import euler_angles, quat_multiply

ISO = steering_from_submovements(SubmovementParams(math.pi / 4, 0.0))
ZERO = (0.0, 0.0, 0.0)


# --- integrator --------------------------------------------------------------

def test_freefall_distance(params):
    # Ballistic fall of 0.85 m takes sqrt(2h/g); RK4 on constant
    # acceleration is exact to rounding.
    state = BodyState.at_rest((0, 0, 0))
    t_fall = math.sqrt(2 * 0.85 / params.g)
    dt = t_fall / 4163.0
    for _ in range(4163):
        state = step_rk4(state, ZERO, ISO, params, dt)
    assert abs(state.r_ob[2] - (-0.85)) < 1e-6


def test_rk4_rejects_nonpositive_dt(params):
    # NaN and inf too: each used to end in NonFiniteState at t=nan.
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            step_rk4(BodyState.at_rest(), ZERO, ISO, params, dt)


def test_rk4_fourth_order_convergence(params):
    # Vigorous tumbling keeps the truncation error well above roundoff;
    # Richardson reference at a much finer step.  Halving dt should cut
    # the error ~16x.
    omega0 = np.array([6.0, -5.0, 4.0])
    kernel = FlightKernel(ISO, params)
    kernel.set_command(0.0, 0.0, 0.5)

    def integrate(dt, t_end=0.2):
        state = BodyState([0, 0, 10], [0, 0, 0], [1, 0, 0, 0], omega0)
        [(y, _, _)] = kernel.advance_lanes([state.flat()], dt, int(round(t_end / dt)))
        return np.array(y[10:13])

    # Reference step is 200x finer than the probes, so its own error is
    # ~(1/200)^4 of theirs and does not disturb the ratio.
    reference = integrate(1e-5)
    err_coarse = np.linalg.norm(integrate(4e-3) - reference)
    err_fine = np.linalg.norm(integrate(2e-3) - reference)
    ratio = err_coarse / err_fine
    assert 16 * 0.8 <= ratio <= 16 * 1.2


def test_quiescent_rotation_state_unchanged(params):
    # No torque, no rotation: attitude, rates, and wheel speeds hold
    # exactly while the body falls.
    state = BodyState.at_rest((0, 0, 5))
    stepped = step_rk4(state, ZERO, ISO, params, 1e-3)
    np.testing.assert_allclose(stepped.quat, state.quat, atol=1e-15)
    np.testing.assert_allclose(stepped.omega, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(stepped.wheel_speed, np.zeros(4), atol=1e-15)


def test_quaternion_stays_normalized(params, rng):
    state = BodyState([0, 0, 10], [0, 0, 0], rng.normal(0, 1, 4), rng.uniform(-2, 2, 3))
    for _ in range(500):
        state = step_rk4(state, ZERO, ISO, params, 1e-3)
    assert abs(np.linalg.norm(state.quat) - 1.0) < 1e-9


# --- IMU ---------------------------------------------------------------------

def test_imu_ballistic_reads_zero(params):
    state = BodyState([0, 0, 3], [1, 0, -2], quat_from_euler(0.4, 0.2, -1.0), [1, 2, 3])
    truth = euler_angles(state.quat)
    euler, omega, accel = imu_reading(truth, state.omega.tolist(),
                                      next(imu_stream(NoiseModel(), 0)))
    assert abs(accel) <= 1e-12
    np.testing.assert_allclose(omega, [1, 2, 3], atol=1e-15)
    assert tuple(euler) == truth


def test_imu_noise_is_seed_deterministic(params):
    noise = NoiseModel(sigma_euler=0.01, sigma_omega=0.02, sigma_accel=0.1)

    def sample_run(seed):
        gen = np.random.default_rng(seed)
        return [imu_reading((0.0, 0.0, 0.0), [0.0, 0.0, 0.0],
                            imu_noise(noise, gen, 1)[0])
                for _ in range(5)]

    run_a, run_b = sample_run(7), sample_run(7)
    for (euler_a, omega_a, accel_a), (euler_b, omega_b, accel_b) in zip(run_a, run_b):
        np.testing.assert_array_equal(euler_a, euler_b)
        np.testing.assert_array_equal(omega_a, omega_b)
        assert accel_a == accel_b


def per_tick_imu_sample(euler, omega, noise, rng):
    """The IMU as it drew before block draws, kept as the reference: one
    standard_normal(3 k) draw per tick for the k noisy channels."""
    accel = 0.0
    s_euler, s_omega, s_accel = noise.sigma_euler, noise.sigma_omega, noise.sigma_accel
    draws = iter(rng.standard_normal(
        3 * ((s_euler > 0) + (s_omega > 0) + (s_accel > 0))
    ).tolist())
    if s_euler > 0:
        euler = [e + (0.0 + s_euler * z) for e, z in zip(euler, draws)]
    if s_omega > 0:
        omega = [w + (0.0 + s_omega * z) for w, z in zip(omega, draws)]
    if s_accel > 0:
        specific = np.array([0.0 + s_accel * z for z in draws])
        accel = math.sqrt(specific.dot(specific))
    return euler, omega, accel


def reading_bits(reading):
    euler, omega, accel = reading
    return np.array([*euler, *omega, accel], dtype=float).view(np.uint64)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    sigmas=st.dictionaries(
        st.sampled_from(["sigma_euler", "sigma_omega", "sigma_accel"]),
        st.floats(1e-6, 3.0), min_size=1,
    ),
    ticks=st.integers(2 * IMU_BLOCK_TICKS + 1, 3 * IMU_BLOCK_TICKS + 1),
)
def test_imu_block_stream_matches_per_tick_draws(seed, sigmas, ticks):
    noise = NoiseModel(**sigmas)
    truth = np.random.default_rng(seed + 1).uniform(-3.0, 3.0, (ticks, 6)).tolist()
    stream = imu_stream(noise, seed)
    reference, one_tick = np.random.default_rng(seed), np.random.default_rng(seed)
    for row in truth:
        euler, omega = row[:3], row[3:]
        want = reading_bits(per_tick_imu_sample(euler, omega, noise, reference))
        np.testing.assert_array_equal(
            reading_bits(imu_reading(euler, omega, next(stream))), want)
        np.testing.assert_array_equal(
            reading_bits(imu_reading(euler, omega, imu_noise(noise, one_tick, 1)[0])),
            want)

    # A noisy run reads its accelerometer from the same stream.
    scenario = ScenarioConfig(
        drop_height=1.6, euler0=(0.3, -0.2, 0.0), seed=seed, dt_physics=1e-3,
        noise=noise,
    )
    trajectory = simulate(scenario, ControllerConfig(), RobotParams())
    reference = np.random.default_rng(seed)
    accels = [
        per_tick_imu_sample((0.0, 0.0, 0.0), [0.0, 0.0, 0.0], noise, reference)[2]
        for _ in range(len(trajectory.rows))
    ]
    assert len(accels) > 2 * IMU_BLOCK_TICKS
    assert trajectory.max_specific_accel == max([0.0, *accels])


# --- clock and limits --------------------------------------------------------

def test_clock_requires_integer_ratio(params):
    controller = ControllerConfig(dt_control=1e-3)
    assert validate_run(ScenarioConfig(dt_physics=1e-4), controller, params) == 10
    with pytest.raises(ValueError):
        validate_run(ScenarioConfig(dt_physics=3e-4), controller, params)


def test_wheel_speed_limit_zeroes_pair(params):
    wheel_speed = [params.wheel_speed_max, 0.0, -params.wheel_speed_max, 0.0]
    cmd = (1.0, 2.0, -1.0, -2.0, 0.0, 0)
    limited = apply_wheel_speed_limit(cmd, wheel_speed, params)
    np.testing.assert_allclose(limited[0:3:2], [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(limited[1:4:2], [2.0, -2.0], atol=1e-15)
    # Opposing torque would spin the wheel back down: allowed.
    reverse = (-1.0, 2.0, 1.0, -2.0, 0.0, 0)
    np.testing.assert_allclose(
        apply_wheel_speed_limit(reverse, wheel_speed, params), reverse, atol=1e-15
    )


def test_wheel_speed_limit_checks_trailing_wheel(params):
    # Only the trailing wheel of the 1-3 pair is at the limit, spinning
    # the way its torque (tau_3 = -tau_1) would push it.
    wheel_speed = [0.0, 0.0, params.wheel_speed_max, -params.wheel_speed_max]
    assert apply_wheel_speed_limit(
        (-1.0, 2.0, 1.0, -2.0, 0.5, 0), wheel_speed, params
    ) == (0.0, 0.0, 0.0, 0.0, 0.5, 0)
    assert apply_wheel_speed_limit(
        (1.0, -2.0, -1.0, 2.0, 0.5, 0), wheel_speed, params
    ) == (1.0, -2.0, -1.0, 2.0, 0.5, 0)


# --- scenario machinery -------------------------------------------------------

def test_initial_state_sets_contact_clearance(params):
    scenario = ScenarioConfig(drop_height=0.85, euler0=(0.3, -0.4, 0.0))
    state = initial_body_state(scenario, ISO, params)
    assert abs(contact_height(state, ISO, params) - 0.85) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(-1.5, 1.5),
    beta=st.floats(-1.5, 1.5),
    quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(c * c for c in q) > 0.01
    ),
    height=st.floats(0.0, 1.1),
)
def test_contact_bound_never_skips_a_touching_wheel(alpha, beta, quat, height):
    # The flight loop forms the exact contact height only where the
    # kernel's tilt bound says a wheel may touch; elsewhere every wheel
    # must clear the ground.
    params = RobotParams()
    steering = steering_from_submovements(SubmovementParams(alpha, beta))
    kernel = FlightKernel(steering, params)
    state = BodyState([0, 0, height * kernel.contact_reach], [0, 0, 0], quat, [0, 0, 0])
    if not kernel.may_touch_ground(state.flat()):
        assert contact_height(state, steering, params) > 0.0


def test_simulate_zero_t_max_single_sample(params):
    scenario = ScenarioConfig(t_max=0.0)
    trajectory = simulate(scenario, ControllerConfig(), params)
    assert len(trajectory.rows) == 1
    assert trajectory.rows[0][0] == 0.0
    assert trajectory.touchdown_time is None


def test_simulate_is_deterministic(params):
    scenario = ScenarioConfig(
        drop_height=0.3,
        euler0=(0.2, -0.3, 0.0),
        seed=11,
        noise=NoiseModel(sigma_accel=0.05),
    )
    run_a = simulate(scenario, ControllerConfig(), params)
    run_b = simulate(scenario, ControllerConfig(), params)
    assert run_a.rows.tobytes() == run_b.rows.tobytes()
    assert run_a.max_specific_accel == run_b.max_specific_accel
    assert run_a.touchdown_time == run_b.touchdown_time


def test_touchdown_time_matches_ballistic(params):
    scenario = ScenarioConfig(drop_height=0.5, euler0=(0.1, 0.2, 0.0))
    controller = ControllerConfig(enabled=False)
    trajectory = simulate(scenario, controller, params)
    expected = math.sqrt(2 * 0.5 / params.g)
    assert trajectory.touchdown_time is not None
    assert abs(trajectory.touchdown_time - expected) <= scenario.dt_physics


def test_event_ordering(params):
    scenario = ScenarioConfig(drop_height=0.85, euler0=(0.05, -0.05, 0.0))
    trajectory = simulate(scenario, ControllerConfig(), params)
    times = {kind: t for t, kind in trajectory.events}
    assert "freefall_start" in times and "touchdown" in times
    if "settled" in times:
        assert times["freefall_start"] <= times["settled"] <= times["touchdown"]
    sample_times = [row[0] for row in trajectory.rows]
    assert all(b > a for a, b in zip(sample_times, sample_times[1:]))


# --- release spin bound ------------------------------------------------------

def spin_scenario(axis, step):
    """A level release spinning about principal axis ``axis`` at ``step``
    rad per physics step."""
    omega0 = [0.0, 0.0, 0.0]
    omega0[axis] = step / 1e-4
    return ScenarioConfig(drop_height=0.5, omega0=tuple(omega0), dt_physics=1e-4)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_spin_inside_the_bound_tracks_the_exact_spin(params, axis):
    # Torque-free spin about a principal axis keeps its rate W, so the
    # exact attitude at touchdown is the turn W t about that axis.  Just
    # inside the bound the run's attitude misses it by no more than the
    # budget's share for the steps taken, and by most of that share: the
    # error model behind the bound holds, and is not loose.
    scenario = spin_scenario(axis, 0.999 * MAX_SPIN_STEP)
    trajectory = simulate(scenario, ControllerConfig(enabled=False), params)
    t = trajectory.touchdown_time
    half_turn = 0.5 * scenario.omega0[axis] * t
    undo_exact = np.zeros(4)
    undo_exact[0], undo_exact[1 + axis] = math.cos(half_turn), -math.sin(half_turn)
    miss = quat_multiply(undo_exact, trajectory.touchdown_state.quat)
    error = 2.0 * math.atan2(float(np.linalg.norm(miss[1:])), abs(miss[0]))
    share = SPIN_ERROR_BUDGET * (t / scenario.dt_physics) / MAX_PHYSICS_STEPS
    assert 0.9 * share <= error <= share


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_spin_outside_the_bound_exits_2(tmp_path, capsys, params, axis):
    # Just past the bound the loader refuses the release, and so does
    # library simulate.
    step = 1.001 * MAX_SPIN_STEP
    config = tmp_path / "spin.cfg"
    config.write_text(f"dt_physics = 0.0001\nomega_{axis} = {step / 1e-4!r}\n",
                      encoding="utf-8")
    assert cli_main(["run", str(config), "-o", str(tmp_path / "o")]) == 2
    assert "config error: release spin" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="release spin"):
        simulate(spin_scenario("xyz".index(axis), step), ControllerConfig(), params)
