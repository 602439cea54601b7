import math

import numpy as np
import pytest

from swervefall import (
    BodyState,
    ControllerConfig,
    NoiseModel,
    ScenarioConfig,
    SubmovementParams,
    TorqueCommand,
    imu_sample,
    simulate,
    steering_from_submovements,
    step_rk4,
    quat_from_euler,
)
from swervefall.simulation import (
    SimClock,
    apply_wheel_speed_limit,
    contact_height,
    initial_body_state,
)

ISO = steering_from_submovements(SubmovementParams(math.pi / 4, 0.0))


# --- integrator --------------------------------------------------------------

def test_freefall_distance(params):
    # Ballistic fall of 0.85 m takes sqrt(2h/g); RK4 on constant
    # acceleration is exact to rounding.
    state = BodyState.at_rest((0, 0, 0))
    t_fall = math.sqrt(2 * 0.85 / params.g)
    dt = t_fall / 4163.0
    for _ in range(4163):
        state = step_rk4(state, TorqueCommand.zero(), ISO, params, dt)
    assert abs(state.r_ob[2] - (-0.85)) < 1e-6


def test_rk4_rejects_nonpositive_dt(params):
    with pytest.raises(ValueError):
        step_rk4(BodyState.at_rest(), TorqueCommand.zero(), ISO, params, 0.0)


def test_rk4_fourth_order_convergence(params):
    # Vigorous tumbling keeps the truncation error well above roundoff;
    # Richardson reference at a much finer step.  Halving dt should cut
    # the error ~16x.
    omega0 = np.array([6.0, -5.0, 4.0])
    cmd = TorqueCommand(np.zeros(4), 0.5)

    def integrate(dt, t_end=0.2):
        state = BodyState([0, 0, 10], [0, 0, 0], [1, 0, 0, 0], omega0)
        for _ in range(int(round(t_end / dt))):
            state = step_rk4(state, cmd, ISO, params, dt)
        return state.omega

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
    stepped = step_rk4(state, TorqueCommand.zero(), ISO, params, 1e-3)
    np.testing.assert_allclose(stepped.quat, state.quat, atol=1e-15)
    np.testing.assert_allclose(stepped.omega, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(stepped.wheel_speed, np.zeros(4), atol=1e-15)


def test_quaternion_stays_normalized(params, rng):
    state = BodyState([0, 0, 10], [0, 0, 0], rng.normal(0, 1, 4), rng.uniform(-2, 2, 3))
    for _ in range(500):
        state = step_rk4(state, TorqueCommand.zero(), ISO, params, 1e-3)
    assert abs(np.linalg.norm(state.quat) - 1.0) < 1e-9


# --- IMU ---------------------------------------------------------------------

def test_imu_at_rest_reads_plus_g(params):
    state = BodyState.at_rest()
    reading = imu_sample(state, NoiseModel(), 0.0, world_accel=np.zeros(3), g=params.g)
    np.testing.assert_allclose(reading.specific_accel, [0, 0, 9.81], atol=1e-12)


def test_imu_ballistic_reads_zero(params):
    state = BodyState([0, 0, 3], [1, 0, -2], quat_from_euler(0.4, 0.2, -1.0), [1, 2, 3])
    reading = imu_sample(state, NoiseModel(), 0.0, g=params.g)
    np.testing.assert_allclose(reading.specific_accel, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(reading.omega, [1, 2, 3], atol=1e-15)


def test_imu_noise_is_seed_deterministic(params):
    noise = NoiseModel(sigma_euler=0.01, sigma_omega=0.02, sigma_accel=0.1)
    state = BodyState.at_rest((0, 0, 1))

    def sample_run(seed):
        gen = np.random.default_rng(seed)
        return [imu_sample(state, noise, 0.001 * i, rng=gen, g=params.g) for i in range(5)]

    run_a, run_b = sample_run(7), sample_run(7)
    for sample_a, sample_b in zip(run_a, run_b):
        np.testing.assert_array_equal(sample_a.euler, sample_b.euler)
        np.testing.assert_array_equal(sample_a.omega, sample_b.omega)
        np.testing.assert_array_equal(sample_a.specific_accel, sample_b.specific_accel)


def test_imu_noise_requires_generator(params):
    with pytest.raises(ValueError):
        imu_sample(BodyState.at_rest(), NoiseModel(sigma_accel=0.1), 0.0)


# --- clock and limits --------------------------------------------------------

def test_clock_requires_integer_ratio():
    clock = SimClock.create(1e-4, 1e-3)
    assert clock.steps_per_tick == 10
    with pytest.raises(ValueError):
        SimClock.create(3e-4, 1e-3)


def test_wheel_speed_limit_zeroes_pair(params):
    state = BodyState(
        [0, 0, 1], [0, 0, 0], [1, 0, 0, 0], [0, 0, 0],
        wheel_speed=[params.wheel_speed_max, 0, -params.wheel_speed_max, 0],
    )
    cmd = TorqueCommand([1.0, 2.0, -1.0, -2.0], 0.0)
    limited = apply_wheel_speed_limit(cmd, state, params)
    np.testing.assert_allclose(limited.tau[[0, 2]], [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(limited.tau[[1, 3]], [2.0, -2.0], atol=1e-15)
    # Opposing torque would spin the wheel back down: allowed.
    reverse = TorqueCommand([-1.0, 2.0, 1.0, -2.0], 0.0)
    np.testing.assert_allclose(
        apply_wheel_speed_limit(reverse, state, params).tau, reverse.tau, atol=1e-15
    )


# --- scenario machinery -------------------------------------------------------

def test_initial_state_sets_contact_clearance(params):
    scenario = ScenarioConfig(drop_height=0.85, euler0=(0.3, -0.4, 0.0))
    state = initial_body_state(scenario, ISO, params)
    assert abs(contact_height(state, ISO, params) - 0.85) < 1e-12


def test_simulate_zero_t_max_single_sample(params):
    scenario = ScenarioConfig(t_max=0.0)
    trajectory = simulate(scenario, ControllerConfig(), params)
    assert len(trajectory.samples) == 1
    assert trajectory.samples[0].t == 0.0
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
    assert len(run_a.samples) == len(run_b.samples)
    for sample_a, sample_b in zip(run_a.samples, run_b.samples):
        np.testing.assert_array_equal(sample_a.state.omega, sample_b.state.omega)
        np.testing.assert_array_equal(sample_a.command.tau, sample_b.command.tau)
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
    sample_times = [s.t for s in trajectory.samples]
    assert all(b > a for a, b in zip(sample_times, sample_times[1:]))
