import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swervefall import (
    ConfigError,
    ControllerConfig,
    NoiseModel,
    RobotParams,
    ScenarioConfig,
    SubmovementParams,
    simulate,
    step_rk4,
    quat_from_euler,
)
from swervefall.cli import main as cli_main
from swervefall.controller import FLIGHT, apply_wheel_speed_limit
from swervefall.kinematics import steering_angles
from swervefall.params import read_config_file
from swervefall.scenario import (
    load_scenario_file,
    loaded_from_entries,
    resolve_config_path,
)
from swervefall.simulation import (
    BISECTION_TOL,
    CSV_HEADER,
    IMU_BLOCK_TICKS,
    MAX_PHYSICS_STEPS,
    MAX_SPIN_STEP,
    SPIN_ERROR_BUDGET,
    SPIN_STEP_EXCEEDED,
    TRANSLATION_MAX,
    imu_noise,
    imu_reading,
    imu_stream,
    initial_body_state,
    validate_run,
)
from swervefall.dynamics import FlightKernel, NonFiniteState, effective_inertia
from swervefall.state import euler_angles, quat_multiply, quat_to_matrix

from conftest import body_state

ISO = SubmovementParams(math.pi / 4, 0.0)
ZERO = (0.0, 0.0, 0.0)


# --- integrator --------------------------------------------------------------

def test_freefall_distance(params):
    # Ballistic fall of 0.85 m takes sqrt(2h/g); RK4 on constant
    # acceleration is exact to rounding.
    state = body_state((0, 0, 0))
    t_fall = math.sqrt(2 * 0.85 / params.g)
    dt = t_fall / 4163.0
    for _ in range(4163):
        state = step_rk4(state, ZERO, ISO, params, dt)
    assert abs(state[2] - (-0.85)) < 1e-6


def test_rk4_rejects_nonpositive_dt(params):
    # NaN and inf too: each used to end in NonFiniteState at t=nan.
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            step_rk4(body_state(), ZERO, ISO, params, dt)


def test_rk4_refuses_a_state_of_other_than_17_floats(params):
    for size in (16, 18):
        with pytest.raises(ValueError, match="17 floats"):
            step_rk4([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0] + [0.0] * (size - 7),
                     ZERO, ISO, params, 1e-3)


def test_rk4_raises_on_translation_overflow(params):
    # step_rk4 takes any state, not only a validated release, so it tests
    # the stepped translation itself.
    state = body_state((1e308, 0.0, 0.0), (1e308, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), ZERO)
    with pytest.raises(NonFiniteState, match="non-finite state after RK4 step"):
        step_rk4(state, ZERO, ISO, params, 1e-3)


def test_rk4_fourth_order_convergence(params):
    # Vigorous tumbling keeps the truncation error well above roundoff;
    # Richardson reference at a much finer step.  Halving dt should cut
    # the error ~16x.
    omega0 = np.array([6.0, -5.0, 4.0])
    kernel = FlightKernel(ISO, params)
    kernel.set_command(0.0, 0.0, 0.5)

    def integrate(dt, t_end=0.2):
        state = body_state([0, 0, 10], [0, 0, 0], [1, 0, 0, 0], omega0)
        [(y, _, _)] = kernel.advance_lanes([state], dt, int(round(t_end / dt)))
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
    state = body_state((0, 0, 5))
    stepped = step_rk4(state, ZERO, ISO, params, 1e-3)
    np.testing.assert_allclose(stepped[6:10], state[6:10], atol=1e-15)
    np.testing.assert_allclose(stepped[10:13], np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(stepped[13:17], np.zeros(4), atol=1e-15)


def test_quaternion_stays_normalized(params, rng):
    state = body_state([0, 0, 10], [0, 0, 0], rng.normal(0, 1, 4), rng.uniform(-2, 2, 3))
    for _ in range(500):
        state = step_rk4(state, ZERO, ISO, params, 1e-3)
    assert abs(np.linalg.norm(state[6:10]) - 1.0) < 1e-9


# --- IMU ---------------------------------------------------------------------

def test_imu_ballistic_reads_zero(params):
    state = body_state([0, 0, 3], [1, 0, -2], quat_from_euler(0.4, 0.2, -1.0), [1, 2, 3])
    truth = euler_angles(state[6:10])
    euler, omega, accel = imu_reading(truth, state[10:13],
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
        x, y, z = (0.0 + s_accel * z for z in draws)
        accel = math.sqrt(x * x + y * y + z * z)
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
    cmd = (1.0, 2.0, 0.0, 0)
    limited = apply_wheel_speed_limit(cmd, wheel_speed, params)
    np.testing.assert_allclose(limited[0], 0.0, atol=1e-15)
    np.testing.assert_allclose(limited[1], 2.0, atol=1e-15)
    # Opposing torque would spin the wheel back down: allowed.
    reverse = (-1.0, 2.0, 0.0, 0)
    np.testing.assert_allclose(
        apply_wheel_speed_limit(reverse, wheel_speed, params), reverse, atol=1e-15
    )


def test_wheel_speed_limit_checks_trailing_wheel(params):
    # Only the trailing wheel of the 1-3 pair is at the limit, spinning
    # the way its torque (tau_3 = -tau_1) would push it.
    wheel_speed = [0.0, 0.0, params.wheel_speed_max, -params.wheel_speed_max]
    assert apply_wheel_speed_limit(
        (-1.0, 2.0, 0.5, 0), wheel_speed, params
    ) == (0.0, 0.0, 0.5, 0)
    assert apply_wheel_speed_limit(
        (1.0, -2.0, 0.5, 0), wheel_speed, params
    ) == (1.0, -2.0, 0.5, 0)


# --- scenario machinery -------------------------------------------------------

def test_initial_state_sets_contact_clearance(params):
    scenario = ScenarioConfig(drop_height=0.85, euler0=(0.3, -0.4, 0.0))
    state = initial_body_state(scenario, ISO, params)
    assert abs(FlightKernel(ISO, params).clearance(state) - 0.85) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(-1.5, 1.5),
    beta=st.floats(-1.5, 1.5),
    quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(c * c for c in q) > 0.01
    ),
    excess=st.floats(0.0, 0.1),
)
# Rolled a quarter turn: the wheels on one side hang straight down.
@example(alpha=math.pi / 4, beta=0.0, quat=(1.0, 1.0, 0.0, 0.0), excess=0.0)
def test_contact_reach_never_skips_a_touching_wheel(alpha, beta, quat, excess):
    # The flight loop forms the contact height only once the base is
    # within the kernel's contact_reach of the ground; above it every
    # wheel must clear the ground at any attitude.
    params = RobotParams()
    kernel = FlightKernel(SubmovementParams(alpha, beta), params)
    z = math.nextafter(kernel.contact_reach, math.inf) * (1.0 + excess)
    state = body_state([0, 0, z], [0, 0, 0], quat, [0, 0, 0])
    assert kernel.clearance(state) > 0.0


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


def test_steering_swing_conserves_angular_momentum():
    for beta_deg in ("0", "10"):
        check_swing_momentum(beta_deg)


def check_swing_momentum(beta_deg):
    # A ledge release spinning at (2, 3, 0) rad/s with zero gains: the
    # swing from alpha = 0 to 45 deg at freefall entry changes J* from
    # (0.862, 0.736, 0.316) to (0.767, 0.970, 0.316) kg m^2, and no torque
    # acts, so the world momentum R(q) J* W on the ticks either side of the
    # swing tick agrees; keeping W across the swing would take |H| from
    # 2.80 to 3.29 N m s.  The swing tick's row holds the rates the IMU
    # read, before the swing.  A release at beta = 10 deg swings to
    # beta = 0 as well, where the diagonal J* is exact.
    entries = read_config_file(resolve_config_path("ledge"))
    entries.update(omega_x="2", omega_y="3", kp_roll="0", kp_pitch="0",
                   kd_roll="0", kd_pitch="0", beta_deg=beta_deg)
    loaded = loaded_from_entries(entries, name="spinning_ledge")
    trajectory = simulate(loaded.scenario, loaded.controller, loaded.params)
    [swing_t] = [t for t, kind in trajectory.events if kind == "freefall_start"]
    col = CSV_HEADER.split(",").index
    rows = trajectory.rows
    [swing] = np.flatnonzero(rows[:, col("t")] == swing_t)
    release = SubmovementParams(loaded.scenario.alpha0, loaded.scenario.beta0)
    deltas = rows[:, col("delta_1"):col("delta_4") + 1]
    # The swing tick's row shows the swung steering.
    assert (deltas[:swing] == [math.degrees(d) for d in steering_angles(release)]).all()
    assert (deltas[swing:] == [45.0, -45.0, 45.0, -45.0]).all()

    def momentum(row, sub):
        attitude = quat_from_euler(*np.radians(row[col("phi"):col("psi") + 1]))
        inertia = effective_inertia(loaded.params, sub)
        return quat_to_matrix(attitude) @ (inertia * row[col("omega_x"):col("omega_z") + 1])

    before = momentum(rows[swing - 1], release)
    size = np.linalg.norm(before)
    for row, sub in ((rows[swing], release), (rows[swing + 1], FLIGHT)):
        after = momentum(row, sub)
        assert abs(np.linalg.norm(after) - size) <= 1e-12 * size
        assert np.abs(after - before).max() <= 1e-12 * size


# --- step convergence --------------------------------------------------------

# Largest deviation of each telemetry column between a bundled run at its
# shipped dt_physics and at a tenth of it: degrees for the angles, rad/s
# for the rates and wheel speeds, N m for the torques and m for the
# positions.  Measured deviations are at most 2e-12 in each unit.
CONVERGED = {
    **dict.fromkeys(["phi", "theta", "psi"], 1e-9),
    **dict.fromkeys(["omega_x", "omega_y", "omega_z"], 1e-9),
    **dict.fromkeys(["tau_1", "tau_2", "tau_3", "tau_4", "tau_delta"], 1e-9),
    **dict.fromkeys(["pos_x", "pos_y", "pos_z"], 1e-9),
    **dict.fromkeys(["wheel_w1", "wheel_w2", "wheel_w3", "wheel_w4"], 1e-9),
    # The tick clock, the steering and the flags must agree exactly.
    **dict.fromkeys(["t", "delta_1", "delta_2", "delta_3", "delta_4",
                     "mode", "sat_mask"], 0.0),
}


@pytest.mark.parametrize("name", ["drop_controlled", "drop_uncontrolled", "ledge"])
def test_bundled_runs_converge_in_the_physics_step(name):
    # The shipped step resolves the flight: a ten times finer step moves
    # no column past its tolerance, no flag, event or tick, and the spin
    # per step stays far under the bound the step is checked against.
    loaded = load_scenario_file(name)
    shipped = loaded.scenario
    finer = replace(shipped, dt_physics=shipped.dt_physics / 10)
    coarse = simulate(shipped, loaded.controller, loaded.params)
    fine = simulate(finer, loaded.controller, loaded.params)
    assert coarse.rows.shape == fine.rows.shape
    columns = CSV_HEADER.split(",")
    deviation = dict(zip(columns, np.abs(coarse.rows - fine.rows).max(axis=0).tolist()))
    assert all(deviation[column] <= CONVERGED[column] for column in columns), deviation
    assert [kind for _, kind in coarse.events] == [kind for _, kind in fine.events]
    for (t_coarse, _), (t_fine, _) in zip(coarse.events, fine.events):
        assert abs(t_coarse - t_fine) <= BISECTION_TOL
    assert abs(coarse.touchdown_time - fine.touchdown_time) <= BISECTION_TOL
    omega = coarse.rows[:, columns.index("omega_x"):columns.index("omega_z") + 1]
    peak_spin = math.sqrt((omega * omega).sum(axis=1).max())
    assert peak_spin * shipped.dt_physics < 0.1 * MAX_SPIN_STEP


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
    miss = quat_multiply(undo_exact, trajectory.touchdown_state[6:10])
    error = 2.0 * math.atan2(float(np.linalg.norm(miss[1:])), abs(miss[0]))
    share = SPIN_ERROR_BUDGET * (t / scenario.dt_physics) / MAX_PHYSICS_STEPS
    assert 0.9 * share <= error <= share


def test_nonfinite_release_velocity_is_a_config_error(params):
    # The loader refuses it at parse; library simulate used to run it and
    # end in NonFiniteState at t=0.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="velocity must be finite"):
            simulate(ScenarioConfig(velocity=(0.0, bad, 0.0)), ControllerConfig(), params)


@pytest.mark.parametrize("scenario, message", [
    (ScenarioConfig(alpha0=math.inf), "steering angles must be finite"),
    (ScenarioConfig(alpha0=math.nan), "steering angles must be finite"),
    (ScenarioConfig(beta0=math.inf), "steering angles must be finite"),
    (ScenarioConfig(euler0=(0.0, math.inf, 0.0)), "release attitude"),
    (ScenarioConfig(euler0=(math.nan, 0.0, 0.0)), "release attitude"),
    (ScenarioConfig(seed=1.5, noise=NoiseModel(sigma_accel=0.05)),
     "non-negative integer"),
    (ScenarioConfig(seed="7"), "non-negative integer"),
], ids=["alpha_inf", "alpha_nan", "beta_inf", "pitch_inf", "roll_nan",
        "fractional_seed", "text_seed"])
def test_unrunnable_release_is_a_config_error(params, scenario, message):
    # The loader cannot produce these; library simulate used to fail on
    # them in math.cos, the placement check or numpy's seed handling.
    with pytest.raises(ConfigError, match=message):
        simulate(scenario, ControllerConfig(), params)


# --- release translation bound ---------------------------------------------------

# A config key, a t_max [s] and the largest value of the key that
# TRANSLATION_MAX allows at that t_max on a level drop: the release
# velocity, where the stage sum 6 |v| binds; the drop height, where the
# height binds; g at 20 s, where g t^2 / 2 = 200 g binds; and g over a
# short flight, where gravity's own stage sum 6 g binds.
TRANSLATION_LIMITS = [
    ("velocity_x", 0.05, TRANSLATION_MAX / 6.0),
    ("drop_height", 0.05, TRANSLATION_MAX),
    ("g", 20.0, TRANSLATION_MAX / 200.0),
    ("g", 0.05, TRANSLATION_MAX / 6.0),
]
TRANSLATION_IDS = ["velocity", "drop_height", "g_t_squared", "g"]


def translation_config(tmp_path, key, t_max, value):
    path = tmp_path / f"{key}.cfg"
    path.write_text(
        f"dt_physics = 0.001\ndt_control = 0.001\nt_max = {t_max}\n{key} = {value!r}\n",
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("key, t_max, limit", TRANSLATION_LIMITS, ids=TRANSLATION_IDS)
def test_release_translation_just_inside_the_bound_runs(tmp_path, key, t_max, limit):
    # The loader takes the release, and its run keeps every value finite.
    config = translation_config(tmp_path, key, t_max, (1.0 - 1e-9) * limit)
    loaded = load_scenario_file(config)
    trajectory = simulate(loaded.scenario, loaded.controller, loaded.params)
    assert len(trajectory.rows) and np.isfinite(trajectory.rows).all()


@pytest.mark.parametrize("key, t_max, limit", TRANSLATION_LIMITS, ids=TRANSLATION_IDS)
def test_release_translation_just_outside_the_bound_exits_2(
    tmp_path, capsys, key, t_max, limit
):
    config = translation_config(tmp_path, key, t_max, (1.0 + 1e-9) * limit)
    assert cli_main(["run", str(config), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: release translation may leave the float range by t_max"
    )
    assert not (tmp_path / "o").exists()


def test_simulate_refuses_an_overflowing_release_as_the_loader_does(
    tmp_path, capsys, params
):
    config = tmp_path / "fast.cfg"
    config.write_text("velocity_x = 1e308\n", encoding="utf-8")
    assert cli_main(["run", str(config), "-o", str(tmp_path / "o")]) == 2
    with pytest.raises(ConfigError) as refused:
        simulate(ScenarioConfig(velocity=(1e308, 0.0, 0.0)), ControllerConfig(), params)
    assert capsys.readouterr().err == f"config error: {refused.value}\n"


def test_huge_gravity_over_a_short_flight_loads(params):
    # g = 1e300 at t_max = 2 s reaches stage sums of 1.2e301, well inside
    # the bound.
    validate_run(ScenarioConfig(t_max=2.0), ControllerConfig(), replace(params, g=1e300))


def spin_up_config(tmp_path, kp):
    """drop_controlled at one physics step per tick, level in pitch, whose
    stiff, undamped roll loop (gain ``kp``, torque and wheel-speed limits
    lifted) spins the body up in flight."""
    entries = dict(
        read_config_file(resolve_config_path("drop_controlled")),
        pitch_deg="0.0", dt_physics="0.001", kp_roll=kp, kp_pitch=kp,
        kd_roll="0", kd_pitch="0", tau_wheel_max="1e6", wheel_speed_max="1e12",
    )
    path = tmp_path / "spin_up.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()),
                    encoding="utf-8")
    return path


def test_rates_past_the_bound_in_flight_exit_3(tmp_path, capsys):
    # Released at rest, the run reaches |omega| dt_physics of about 1.2
    # against the 0.072 bound; it used to exit 0 and report touchdown
    # rates of hundreds of rad/s.
    config = spin_up_config(tmp_path, "3e4")
    assert cli_main(["run", str(config), "-o", str(tmp_path / "o")]) == 3
    assert f"simulation error: {SPIN_STEP_EXCEEDED} at t=" in capsys.readouterr().err


def test_rates_just_inside_the_bound_in_flight_run(tmp_path):
    # A softer loop peaks just under the bound and runs to touchdown.  The
    # telemetry rates are the rates the guard reads at each tick.
    loaded = load_scenario_file(spin_up_config(tmp_path, "7800"))
    trajectory = simulate(loaded.scenario, loaded.controller, loaded.params)
    assert trajectory.touchdown_time is not None
    peak = np.linalg.norm(trajectory.rows[:, 4:7], axis=1).max()
    assert 0.95 * MAX_SPIN_STEP < peak * loaded.scenario.dt_physics <= MAX_SPIN_STEP


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
