import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swervefall import (
    AttitudeControlLoop,
    ConfigError,
    ControllerConfig,
    ControllerMode,
    RobotParams,
    ScenarioConfig,
    SubmovementParams,
    linearized_plant,
    pd_attitude,
    angular_acceleration,
)
from swervefall.controller import (
    FLIGHT,
    FLIGHT_JACOBIAN,
    apply_wheel_speed_limit,
    closed_loop_poles,
)
from swervefall.kinematics import allocate_body_torque, torque_jacobian
from swervefall.scenario import loaded_from_entries
from swervefall.simulation import validate_run

from conftest import body_state

ISO = SubmovementParams(math.pi / 4, 0.0)


def reading(euler=(0, 0, 0), omega=(0, 0, 0), accel=(0, 0, 0), t=0.0,
            wheel_speed=(0.0, 0.0, 0.0, 0.0)):
    """``AttitudeControlLoop.update`` arguments for one IMU reading and
    the wheel speeds."""
    return (
        t,
        [float(v) for v in euler],
        [float(v) for v in omega],
        float(np.linalg.norm(accel)),
        list(wheel_speed),
    )


def saturated(cmd):
    """The five saturation flags of a command's ``sat_mask``."""
    return [bool(cmd[3] >> bit & 1) for bit in range(5)]


# --- freefall detection ------------------------------------------------------

def windowed_first_detection(magnitudes, dt, threshold, debounce):
    """Reference debounce: the windowed rule over a trimmed history.

    A tick detects freefall when the history spans the debounce window
    and every magnitude from the window boundary to now is under the
    threshold.  Returns the first detecting tick, or None.
    """
    history = deque()
    for tick, magnitude in enumerate(magnitudes):
        t = tick * dt
        history.append((t, magnitude))
        while len(history) > 2 and history[0][0] < t - 2.0 * debounce:
            history.popleft()
        if t - history[0][0] < debounce - 1e-12:
            continue
        window_start = t - debounce
        for t_i, m_i in reversed(history):
            if m_i >= threshold:
                break
            if t_i <= window_start + 1e-12:
                return tick
        else:
            return tick
    return None


def loop_first_detection(params, magnitudes, dt, threshold=2.0, debounce=0.02):
    """First tick at which AttitudeControlLoop enters FreefallStabilize."""
    config = ControllerConfig(freefall_accel_threshold=threshold,
                              freefall_debounce=debounce, dt_control=dt)
    loop = AttitudeControlLoop(config, params)
    for tick, magnitude in enumerate(magnitudes):
        loop.update(*reading(accel=(0, 0, magnitude), t=tick * dt))
        if loop.mode == ControllerMode.FREEFALL_STABILIZE:
            return tick
    return None


def test_resting_accel_is_not_freefall(params):
    assert loop_first_detection(params, [9.81] * 100, dt=0.001) is None


def test_sustained_zero_accel_is_freefall(params):
    # The first reading opens the window; detection waits a full 20 ms,
    # so nothing fires before the readings span the window.
    assert loop_first_detection(params, [0.0] * 100, dt=0.001) == 20


def test_single_dropout_is_rejected(params):
    # One spurious low reading inside a 1 g stream must not trigger.
    magnitudes = [9.81] * 40 + [0.1] + [9.81] * 40
    assert loop_first_detection(params, magnitudes, dt=0.001) is None


@pytest.mark.parametrize("spike", [2.0, 9.81])
def test_spike_inside_freefall_restarts_window(params, spike):
    # A reading at or over the threshold 15 ms into freefall clears the
    # run; the next reading starts a fresh full window.
    magnitudes = [0.0] * 15 + [spike] + [0.0] * 60
    assert loop_first_detection(params, magnitudes, dt=0.001) == 16 + 20


MAGNITUDE_FACTORS = (0.0, 0.3, 0.999, 1.0, 4.9)  # times the threshold


@settings(max_examples=300, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.sampled_from(MAGNITUDE_FACTORS), st.integers(1, 40)),
        min_size=1, max_size=8,
    ),
    dt=st.one_of(st.just(1e-3), st.floats(1e-4, 1e-2)),
    debounce=st.one_of(st.just(0.02), st.just(0.0), st.floats(0.0, 0.06)),
    threshold=st.floats(0.5, 5.0),
)
def test_loop_debounce_matches_windowed_rule(runs, dt, debounce, threshold):
    magnitudes = [
        float(np.linalg.norm([0.0, 0.0, factor * threshold]))
        for factor, length in runs for _ in range(length)
    ]
    assert loop_first_detection(
        RobotParams(), magnitudes, dt, threshold, debounce
    ) == windowed_first_detection(magnitudes, dt, threshold, debounce)


# --- PD law --------------------------------------------------------------------

def test_proportional_term():
    tau_x, tau_y, tau_z = pd_attitude(
        q=(-0.1, 0.0, 0.0), q_dot=(0.0, 0.0, 0.0),
        q_desired=(0.0, 0.0, 0.0), kp=(75, 75, 0), kd=(12, 12, 0),
    )
    assert math.isclose(tau_x, 7.5, rel_tol=1e-12)
    assert tau_y == 0.0 and tau_z == 0.0


def test_equilibrium_gives_zero_torque():
    config = ControllerConfig()
    zero = (0.0, 0.0, 0.0)
    tau_x, tau_y, tau_z = pd_attitude(zero, zero, zero, config.kp, config.kd)
    assert tau_x == tau_y == tau_z == 0.0


def test_derivative_term():
    tau_x, tau_y, _ = pd_attitude(
        q=(0.0, 0.0, 0.0), q_dot=(0.0, 1.0, 0.0),
        q_desired=(0.0, 0.0, 0.0), kp=(75, 75, 0), kd=(12, 12, 0),
    )
    assert math.isclose(tau_y, -12.0, rel_tol=1e-12)
    assert tau_x == 0.0


def test_error_wraps_across_seam():
    from swervefall.state import wrap_angle

    psi = math.pi - 0.05
    # Sweep the desired heading through the -pi/pi seam: the commanded
    # torque must stay continuous (no 2*pi*K_P jump) and take the short
    # way around.
    desired = np.linspace(math.pi - 0.2, math.pi + 0.2, 81)
    torques = []
    for psi_d in desired:
        _, _, tau_z = pd_attitude(
            q=(0.0, 0.0, psi),
            q_dot=(0.0, 0.0, 0.0),
            q_desired=(0.0, 0.0, wrap_angle(psi_d)),
            kp=(0.0, 0.0, 10.0), kd=(0.0, 0.0, 0.0),
        )
        torques.append(tau_z)
        assert abs(tau_z) <= 10.0 * (abs(psi_d - psi) + 1e-12)
    step = desired[1] - desired[0]
    jumps = np.abs(np.diff(torques))
    assert jumps.max() <= 10.0 * step + 1e-9


def refuse_gains(kp, kd):
    """``validate_run`` on default robot and scenario with these gains."""
    with pytest.raises(ConfigError, match="gains must be non-negative and finite"):
        validate_run(ScenarioConfig(), ControllerConfig(kp=kp, kd=kd), RobotParams())


def test_gains_must_be_nonnegative():
    refuse_gains((-1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    # A gain triple has three entries.
    refuse_gains((75.0, 75.0), (12.0, 12.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gains_must_be_finite(bad):
    # Refused where negative gains are, with the ConfigError the loader
    # raises for them; NaN used to pass and end a run as NonFiniteState.
    refuse_gains((bad, 75.0, 0.0), (12.0, 12.0, 0.0))
    refuse_gains((75.0, 75.0, 0.0), (12.0, bad, 0.0))


# --- flight command ----------------------------------------------------------

def test_zero_error_zero_command(params):
    loop = AttitudeControlLoop(ControllerConfig(), params)
    loop.mode = ControllerMode.FREEFALL_STABILIZE
    cmd = loop.update(*reading())
    np.testing.assert_allclose(cmd[:2], np.zeros(2), atol=1e-15)


def test_ground_mode_emits_nothing(params):
    # On the ground at 1 g the loop only debounces: no torque, no switch.
    loop = AttitudeControlLoop(ControllerConfig(), params)
    cmd = loop.update(*reading(euler=(0.5, -0.4, 0.2), omega=(1, 1, 1),
                               accel=(0, 0, 9.81)))
    assert loop.mode == ControllerMode.GROUND_TELEOP
    np.testing.assert_array_equal(cmd[:2], np.zeros(2))
    assert cmd[2] == 0.0


def test_drop_attitude_saturates_wheels_two_and_four(params):
    # Release disturbance (roll 16 deg, pitch 23 deg nose-down): the
    # demand concentrates on the 2-4 diagonal, which clips at the limit.
    loop = AttitudeControlLoop(ControllerConfig(), params)
    loop.mode = ControllerMode.FREEFALL_STABILIZE
    cmd = loop.update(*reading(euler=(math.radians(16), math.radians(23), 0.0)))
    assert abs(cmd[1]) == params.tau_wheel_max
    assert saturated(cmd)[1] and saturated(cmd)[3]
    assert abs(cmd[0]) < params.tau_wheel_max


def test_flight_jacobian_is_far_from_singular():
    # The loop allocates only after the swing to FLIGHT, where |det N| =
    # sin(pi/2) = 1, so allocate_body_torque's singular guard
    # (|det| < 1e-6) never fires on a run.
    assert FLIGHT_JACOBIAN.alpha == FLIGHT.alpha and FLIGHT_JACOBIAN.beta == FLIGHT.beta
    assert abs(FLIGHT_JACOBIAN.det - 1.0) < 1e-15


def test_achievable_command_reproduces_demand(params):
    from swervefall.kinematics import map_wheel_to_body_torque

    config = ControllerConfig(kp=(5.0, 5.0, 1.0), kd=(1.0, 1.0, 0.1))
    loop = AttitudeControlLoop(config, params)
    loop.mode = ControllerMode.FREEFALL_STABILIZE
    t, euler, omega, accel, wheel_speed = reading(
        euler=(0.2, -0.1, 0.05), omega=(0.1, 0.0, -0.2)
    )
    demand = pd_attitude(euler, omega, (0.0, 0.0, 0.0), config.kp, config.kd)
    cmd = loop.update(t, euler, omega, accel, wheel_speed)
    assert not any(saturated(cmd))
    body = map_wheel_to_body_torque(cmd[:3], ISO)
    np.testing.assert_allclose(
        np.array(body), np.array(demand), atol=1e-9
    )


def test_command_holds_the_wheel_speed_limit(params):
    # Wheel 3 at the limit, spinning the way -tau_1 pushes it: the 1-3
    # pair loses its drive, the 2-4 pair and steering keep theirs.
    loop = AttitudeControlLoop(ControllerConfig(), params)
    loop.mode = ControllerMode.FREEFALL_STABILIZE
    euler = (math.radians(16), math.radians(23), 0.1)
    free = loop.update(*reading(euler=euler))
    assert free[0] < 0.0
    limit = params.wheel_speed_max
    held = loop.update(*reading(euler=euler, wheel_speed=(0.0, 0.0, limit, 0.0)))
    assert held == (0.0, *free[1:])


def test_disabled_loop_commands_nothing(params):
    # A disabled controller neither debounces nor leaves GroundTeleop.
    loop = AttitudeControlLoop(ControllerConfig(enabled=False), params)
    for tick in range(50):
        cmd = loop.update(*reading(euler=(0.3, 0.2, 0.0), t=tick * 1e-3))
        assert cmd == (0.0, 0.0, 0.0, 0)
    assert loop.mode == ControllerMode.GROUND_TELEOP


# --- linearized plant ----------------------------------------------------------

def test_plant_formulas(params):
    from swervefall import reflected_inertia

    j_roll, j_pitch, j_yaw = linearized_plant(params)
    refl_xx, refl_yy, _ = reflected_inertia(params, ISO)
    axle = 2 * math.sqrt(2) * params.j_wxx
    assert math.isclose(j_roll, params.j_bxx + refl_xx + axle, rel_tol=1e-12)
    assert math.isclose(j_pitch, params.j_byy + refl_yy + axle, rel_tol=1e-12)
    assert j_yaw == params.j_bzz


def test_plant_matches_finite_difference(params):
    # Central differences of the nonlinear dynamics wrt wheel torques,
    # composed with the inverse torque map, give diag(1/J) per axis.
    steering = ISO
    state = body_state()
    h = 1e-5
    sensitivity = np.zeros((3, 3))
    for j in range(3):
        for sign in (+1.0, -1.0):
            pair = np.zeros(3)
            pair[j] = sign * h
            cmd = (pair[0], pair[1], pair[2])
            acc = angular_acceleration(state, steering, cmd, params)
            sensitivity[:, j] += sign * acc
    sensitivity /= 2 * h
    body_map = sensitivity @ np.linalg.inv(torque_jacobian(ISO).full)
    plant = linearized_plant(params)
    measured = 1.0 / np.diag(body_map)
    np.testing.assert_allclose(measured, np.array(plant), rtol=1e-6)


def test_closed_loop_poles_stable(params):
    j_roll, j_pitch, _ = linearized_plant(params)
    for inertia in (j_roll, j_pitch):
        poles = closed_loop_poles(inertia, kp=75.0, kd=12.0)
        assert (poles.real < 0).all()


# --- runtime loop --------------------------------------------------------------

def make_loop(params):
    return AttitudeControlLoop(ControllerConfig(), params)


def feed_freefall(loop, ticks, yaw=0.25, t0=0.0):
    cmd = None
    for i in range(ticks):
        imu = reading(euler=(0.1, -0.2, yaw), accel=(0, 0, 0), t=t0 + i * 1e-3)
        cmd = loop.update(*imu)
    return cmd


def test_loop_detects_after_debounce(params):
    loop = make_loop(params)
    assert loop.mode == ControllerMode.GROUND_TELEOP
    feed_freefall(loop, ticks=20)
    assert loop.mode == ControllerMode.GROUND_TELEOP
    feed_freefall(loop, ticks=3, t0=0.020)
    assert loop.mode == ControllerMode.FREEFALL_STABILIZE


def test_loop_switches_to_isotropic_alpha_and_latches_yaw(params):
    loop = make_loop(params)
    cmd = feed_freefall(loop, ticks=25, yaw=0.25)
    assert loop.mode == ControllerMode.FREEFALL_STABILIZE
    np.testing.assert_allclose(loop.q_desired, [0.0, 0.0, 0.25], atol=1e-12)
    # The command is allocated at alpha = pi/4 and beta = 0, where the
    # diagonal inertia is exact.
    demand = pd_attitude((0.1, -0.2, 0.25), (0.0, 0.0, 0.0), loop.q_desired,
                         loop.config.kp, loop.config.kd)
    expected = allocate_body_torque(demand, torque_jacobian(ISO), params)
    assert cmd == apply_wheel_speed_limit(expected, (0.0,) * 4, params)


def test_loop_stays_in_freefall_stabilize_at_one_g(params):
    # No transition leaves FreefallStabilize: readings at 1 g after entry
    # neither switch the mode back nor silence the PD command.
    loop = make_loop(params)
    feed_freefall(loop, ticks=25)
    assert loop.mode == ControllerMode.FREEFALL_STABILIZE
    for i in range(50):
        imu = reading(euler=(0.2, 0.1, 0), accel=(0, 0, 9.81), t=0.025 + i * 1e-3)
        cmd = loop.update(*imu)
        assert loop.mode == ControllerMode.FREEFALL_STABILIZE
        assert np.abs(cmd[:2]).max() > 0.0


def test_controller_config_from_entries_roundtrip():
    entries = {
        "kp_roll": "60", "kd_roll": "10", "controller_enabled": "false",
        "freefall_debounce": "0.05",
    }
    config = loaded_from_entries(entries, name="x").controller
    assert entries == {}
    assert config == ControllerConfig(
        kp=(60.0, 75.0, 0.0), kd=(10.0, 12.0, 0.0), enabled=False,
        freefall_debounce=0.05,
    )
