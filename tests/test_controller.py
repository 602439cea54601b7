import math

import numpy as np
import pytest

from swervefall import (
    AttitudeControlLoop,
    BodyState,
    ControllerConfig,
    ControllerGains,
    ControllerMode,
    ImuReading,
    NoiseModel,
    SubmovementParams,
    control_step,
    detect_freefall,
    imu_sample,
    linearized_plant,
    pd_attitude,
    quat_from_euler,
    steering_from_submovements,
    angular_acceleration,
    TorqueCommand,
)
from swervefall.controller import InsufficientHistory, closed_loop_poles
from swervefall.kinematics import torque_jacobian

ISO = SubmovementParams(math.pi / 4, 0.0)


def reading(euler=(0, 0, 0), omega=(0, 0, 0), accel=(0, 0, 0), t=0.0):
    return ImuReading(
        euler=np.array(euler, dtype=float),
        omega=np.array(omega, dtype=float),
        specific_accel=np.array(accel, dtype=float),
        timestamp=t,
    )


def history(magnitudes, dt=0.005):
    return [(i * dt, m) for i, m in enumerate(magnitudes)]


# --- freefall detection ------------------------------------------------------

def test_resting_accel_is_not_freefall():
    assert not detect_freefall(history([9.81] * 10), threshold=2.0, debounce=0.02)


def test_sustained_zero_accel_is_freefall():
    assert detect_freefall(history([0.0] * 10), threshold=2.0, debounce=0.02)


def test_single_dropout_is_rejected():
    # One spurious low reading inside a 1 g stream must not trigger.
    magnitudes = [9.81] * 4 + [0.1] + [9.81] * 5
    assert not detect_freefall(history(magnitudes), threshold=2.0, debounce=0.02)


def test_short_history_raises():
    with pytest.raises(InsufficientHistory):
        detect_freefall(history([0.0, 0.0]), threshold=2.0, debounce=0.02)


# --- PD law --------------------------------------------------------------------

def test_proportional_term():
    gains = ControllerGains(kp=[75, 75, 0], kd=[12, 12, 0])
    torque = pd_attitude(
        q=np.array([-0.1, 0.0, 0.0]), q_dot=np.zeros(3),
        q_desired=np.zeros(3), gains=gains,
    )
    assert math.isclose(torque.tau_x, 7.5, rel_tol=1e-12)
    assert torque.tau_y == 0.0 and torque.tau_z == 0.0


def test_equilibrium_gives_zero_torque():
    gains = ControllerGains.default()
    torque = pd_attitude(np.zeros(3), np.zeros(3), np.zeros(3), gains)
    assert torque.tau_x == torque.tau_y == torque.tau_z == 0.0


def test_derivative_term():
    gains = ControllerGains(kp=[75, 75, 0], kd=[12, 12, 0])
    torque = pd_attitude(
        q=np.zeros(3), q_dot=np.array([0.0, 1.0, 0.0]),
        q_desired=np.zeros(3), gains=gains,
    )
    assert math.isclose(torque.tau_y, -12.0, rel_tol=1e-12)
    assert torque.tau_x == 0.0


def test_error_wraps_across_seam():
    from swervefall.state import wrap_angle

    gains = ControllerGains(kp=[0, 0, 10.0], kd=np.zeros(3))
    psi = math.pi - 0.05
    # Sweep the desired heading through the -pi/pi seam: the commanded
    # torque must stay continuous (no 2*pi*K_P jump) and take the short
    # way around.
    desired = np.linspace(math.pi - 0.2, math.pi + 0.2, 81)
    torques = []
    for psi_d in desired:
        torque = pd_attitude(
            q=np.array([0.0, 0.0, psi]),
            q_dot=np.zeros(3),
            q_desired=np.array([0.0, 0.0, wrap_angle(psi_d)]),
            gains=gains,
        )
        torques.append(torque.tau_z)
        assert abs(torque.tau_z) <= 10.0 * (abs(psi_d - psi) + 1e-12)
    step = desired[1] - desired[0]
    jumps = np.abs(np.diff(torques))
    assert jumps.max() <= 10.0 * step + 1e-9


def test_gains_must_be_nonnegative():
    with pytest.raises(ValueError):
        ControllerGains(kp=[-1, 0, 0], kd=[0, 0, 0])


# --- control step ------------------------------------------------------------

def test_zero_error_zero_command(params):
    cmd = control_step(reading(), ControllerMode.FREEFALL_STABILIZE,
                       ControllerGains.default(), torque_jacobian(ISO), params)
    np.testing.assert_allclose(cmd.tau, np.zeros(4), atol=1e-15)


def test_ground_mode_emits_nothing(params):
    imu = reading(euler=(0.5, -0.4, 0.2), omega=(1, 1, 1))
    cmd = control_step(imu, ControllerMode.GROUND_TELEOP,
                       ControllerGains.default(), torque_jacobian(ISO), params)
    np.testing.assert_array_equal(cmd.tau, np.zeros(4))
    assert cmd.tau_delta == 0.0


def test_drop_attitude_saturates_wheels_two_and_four(params):
    # Release disturbance (roll 16 deg, pitch 23 deg nose-down): the
    # demand concentrates on the 2-4 diagonal, which clips at the limit.
    imu = reading(euler=(math.radians(16), math.radians(23), 0.0))
    cmd = control_step(imu, ControllerMode.FREEFALL_STABILIZE,
                       ControllerGains.default(), torque_jacobian(ISO), params)
    assert abs(cmd.tau[1]) == params.tau_wheel_max
    assert abs(cmd.tau[3]) == params.tau_wheel_max
    assert cmd.saturated[1] and cmd.saturated[3]
    assert abs(cmd.tau[0]) < params.tau_wheel_max


def test_singular_configuration_zeroes_command(params):
    imu = reading(euler=(0.3, 0.1, 0.0))
    cmd = control_step(imu, ControllerMode.FREEFALL_STABILIZE,
                       ControllerGains.default(),
                       torque_jacobian(SubmovementParams(0.0, 0.0)), params)
    np.testing.assert_array_equal(cmd.tau, np.zeros(4))
    assert cmd.saturated[4]


def test_achievable_command_reproduces_demand(params):
    from swervefall.kinematics import map_wheel_to_body_torque

    gains = ControllerGains(kp=[5.0, 5.0, 1.0], kd=[1.0, 1.0, 0.1])
    imu = reading(euler=(0.2, -0.1, 0.05), omega=(0.1, 0.0, -0.2))
    demand = pd_attitude(imu.euler, imu.omega, np.zeros(3), gains)
    cmd = control_step(imu, ControllerMode.FREEFALL_STABILIZE, gains,
                       torque_jacobian(ISO), params)
    assert not cmd.any_saturated()
    body = map_wheel_to_body_torque(cmd, ISO)
    np.testing.assert_allclose(
        body.as_array(), demand.as_array(), atol=1e-9
    )


# --- linearized plant ----------------------------------------------------------

def test_plant_formulas(params):
    from swervefall import reflected_inertia

    plant = linearized_plant(params)
    refl = reflected_inertia(params, steering_from_submovements(ISO))
    axle = 2 * math.sqrt(2) * params.j_wxx
    assert math.isclose(plant.j_roll, params.j_bxx + refl.j_xx + axle, rel_tol=1e-12)
    assert math.isclose(plant.j_pitch, params.j_byy + refl.j_yy + axle, rel_tol=1e-12)
    assert plant.j_yaw == params.j_bzz


def test_plant_matches_finite_difference(params):
    # Central differences of the nonlinear dynamics wrt wheel torques,
    # composed with the inverse torque map, give diag(1/J) per axis.
    steering = steering_from_submovements(ISO)
    state = BodyState.at_rest()
    h = 1e-5
    sensitivity = np.zeros((3, 3))
    for j in range(3):
        for sign in (+1.0, -1.0):
            pair = np.zeros(3)
            pair[j] = sign * h
            cmd = TorqueCommand([pair[0], pair[1], -pair[0], -pair[1]], pair[2])
            acc = angular_acceleration(state, steering, cmd, params)
            sensitivity[:, j] += sign * acc
    sensitivity /= 2 * h
    body_map = sensitivity @ np.linalg.inv(torque_jacobian(ISO).full)
    plant = linearized_plant(params)
    measured = 1.0 / np.diag(body_map)
    np.testing.assert_allclose(measured, plant.as_array(), rtol=1e-6)


def test_closed_loop_poles_stable(params):
    plant = linearized_plant(params)
    for inertia in (plant.j_roll, plant.j_pitch):
        poles = closed_loop_poles(inertia, kp=75.0, kd=12.0)
        assert (poles.real < 0).all()


# --- runtime loop --------------------------------------------------------------

def make_loop(params, sub=SubmovementParams(0.0, 0.0)):
    return AttitudeControlLoop(ControllerConfig(), params, sub)


def feed_freefall(loop, ticks, yaw=0.25, t0=0.0):
    cmd = TorqueCommand.zero()
    for i in range(ticks):
        imu = reading(euler=(0.1, -0.2, yaw), accel=(0, 0, 0), t=t0 + i * 1e-3)
        cmd = loop.update(imu)
    return cmd


def test_loop_detects_after_debounce(params):
    loop = make_loop(params)
    assert loop.mode == ControllerMode.GROUND_TELEOP
    feed_freefall(loop, ticks=20)
    assert loop.mode == ControllerMode.GROUND_TELEOP
    feed_freefall(loop, ticks=3, t0=0.020)
    assert loop.mode == ControllerMode.FREEFALL_STABILIZE


def test_loop_switches_to_isotropic_alpha_and_latches_yaw(params):
    loop = make_loop(params, sub=SubmovementParams(0.0, 0.1))
    feed_freefall(loop, ticks=25, yaw=0.25)
    assert loop.mode == ControllerMode.FREEFALL_STABILIZE
    assert math.isclose(loop.sub.alpha, math.pi / 4, rel_tol=1e-12)
    assert math.isclose(loop.sub.beta, 0.1, rel_tol=1e-12)  # beta preserved
    np.testing.assert_allclose(loop.q_desired, [0.0, 0.0, 0.25], atol=1e-12)


def test_loop_stays_in_freefall_stabilize_at_one_g(params):
    # No transition leaves FreefallStabilize: readings at 1 g after entry
    # neither switch the mode back nor silence the PD command.
    loop = make_loop(params)
    feed_freefall(loop, ticks=25)
    assert loop.mode == ControllerMode.FREEFALL_STABILIZE
    for i in range(50):
        imu = reading(euler=(0.2, 0.1, 0), accel=(0, 0, 9.81), t=0.025 + i * 1e-3)
        cmd = loop.update(imu)
        assert loop.mode == ControllerMode.FREEFALL_STABILIZE
        assert np.abs(cmd.tau).max() > 0.0


def test_controller_config_from_entries_roundtrip():
    entries = {
        "kp_roll": "60", "kd_roll": "10", "controller_enabled": "false",
        "freefall_debounce": "0.05",
    }
    config = ControllerConfig.from_entries(entries)
    assert entries == {}
    assert config.gains.kp[0] == 60.0
    assert config.gains.kp[1] == 75.0
    assert not config.enabled
    assert config.freefall_debounce == 0.05
