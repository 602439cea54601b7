import dataclasses
import math

import numpy as np
import pytest

from swervefall import (
    BodyState,
    RobotParams,
    SteeringState,
    SubmovementParams,
    TorqueCommand,
    angular_acceleration,
    oracle_newton_euler,
    reflected_inertia,
    steering_from_submovements,
    step_rk4,
    quat_from_euler,
)
from swervefall.dynamics import (
    GRAVITY_DIR,
    FlightKernel,
    _drive_torque_columns,
    effective_inertia,
    steer_points,
    wheel_centers,
)
from swervefall.kinematics import submovements_from_steering, torque_jacobian
from swervefall.state import quat_multiply

SQRT2 = math.sqrt(2.0)
ISO = steering_from_submovements(SubmovementParams(math.pi / 4, 0.0))


def random_symmetric_setup(rng):
    sub = SubmovementParams(*rng.uniform(-1.5, 1.5, 2))
    steering = steering_from_submovements(sub)
    t1, t2 = rng.uniform(-8.0, 8.0, 2)
    cmd = TorqueCommand([t1, t2, -t1, -t2], rng.uniform(-2.0, 2.0))
    state = BodyState(
        rng.uniform(-1, 1, 3),
        rng.uniform(-3, 3, 3),
        rng.normal(0, 1, 4),
        rng.uniform(-3, 3, 3),
        rng.uniform(-20, 20, 4),
    )
    return state, steering, cmd


# --- reflected inertia -------------------------------------------------------

def test_reflection_point_wheel_limit(params):
    # c = 0 puts the wheel mass on the steering axes.
    p = dataclasses.replace(params, c=1e-300)
    refl = reflected_inertia(p, ISO)
    assert math.isclose(refl.j_xx, p.wheel_mass * p.b**2, rel_tol=1e-9)
    assert math.isclose(refl.j_yy, p.wheel_mass * p.a**2, rel_tol=1e-9)


def test_reflection_neutral_config(params):
    refl = reflected_inertia(params, SteeringState([0.0, 0.0, 0.0, 0.0]))
    expected = 4 * params.wheel_mass * (params.b / 2 + params.c) ** 2
    assert math.isclose(refl.j_xx, expected, rel_tol=1e-12)


def test_reflection_zz_is_sum(params, rng):
    for _ in range(20):
        steering = steering_from_submovements(SubmovementParams(*rng.uniform(-3, 3, 2)))
        refl = reflected_inertia(params, steering)
        assert math.isclose(refl.j_zz, refl.j_xx + refl.j_yy, rel_tol=1e-12)


def test_reflection_matches_parallel_axis_sum(params, rng):
    # Independent oracle: sum m (y^2+z^2) and m (x^2+z^2) over the wheel
    # centers directly.
    for _ in range(10):
        steering = steering_from_submovements(SubmovementParams(*rng.uniform(-3, 3, 2)))
        refl = reflected_inertia(params, steering)
        centers = wheel_centers(params, steering)
        j_xx = sum(params.wheel_mass * (c[1] ** 2 + c[2] ** 2) for c in centers)
        j_yy = sum(params.wheel_mass * (c[0] ** 2 + c[2] ** 2) for c in centers)
        assert abs(refl.j_xx - j_xx) < 1e-12
        assert abs(refl.j_yy - j_yy) < 1e-12


def test_steer_points_symmetry(params):
    pts = steer_points(params)
    np.testing.assert_allclose(pts.sum(axis=0), np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(pts[0], -pts[2], atol=1e-15)
    np.testing.assert_allclose(pts[1], -pts[3], atol=1e-15)


def test_wheel_centers_cancel_in_pairs(params, rng):
    # Symmetric steering keeps the system mass center on the base center.
    for _ in range(20):
        steering = steering_from_submovements(SubmovementParams(*rng.uniform(-3, 3, 2)))
        centers = wheel_centers(params, steering)
        np.testing.assert_allclose(centers.sum(axis=0), np.zeros(3), atol=1e-12)


# --- angular acceleration ----------------------------------------------------

def test_equilibrium_is_stationary(params):
    state = BodyState.at_rest()
    acc = angular_acceleration(state, ISO, TorqueCommand.zero(), params)
    np.testing.assert_allclose(acc, np.zeros(3), atol=1e-15)


def test_isotropic_opposing_torques_roll_only(params):
    cmd = TorqueCommand([-1.0, 1.0, 1.0, -1.0], 0.0)
    acc = angular_acceleration(BodyState.at_rest(), ISO, cmd, params)
    refl = reflected_inertia(params, ISO)
    j_roll = params.j_bxx + refl.j_xx + 2 * SQRT2 * params.j_wxx
    assert math.isclose(acc[0], 2 * SQRT2 / j_roll, rel_tol=1e-12)
    assert abs(acc[1]) < 1e-15
    assert abs(acc[2]) < 1e-15


def test_pure_steering_torque_yaw_rate(params):
    cmd = TorqueCommand(np.zeros(4), 1.0)
    acc = angular_acceleration(BodyState.at_rest(), ISO, cmd, params)
    assert math.isclose(acc[2], 4.0 / params.j_bzz, rel_tol=1e-14)
    assert abs(acc[0]) < 1e-15 and abs(acc[1]) < 1e-15


def test_closed_form_matches_oracle_randomized(params, rng):
    for _ in range(100):
        state, steering, cmd = random_symmetric_setup(rng)
        closed = angular_acceleration(state, steering, cmd, params)
        oracle, _ = oracle_newton_euler(state, steering, cmd, params)
        scale = max(1.0, float(np.abs(oracle).max()))
        assert np.abs(closed - oracle).max() / scale < 1e-10


def test_oracle_reaction_forces_vanish_at_rest(params):
    # cmd = 0, Omega = 0: gravity and base acceleration cancel in every
    # wheel reaction force, so the loads and the acceleration are zero
    # even at a tilted attitude.
    state = BodyState([0, 0, 2], [0, 0, 0], quat_from_euler(0.4, -0.3, 0.2), [0, 0, 0])
    acc, loads = oracle_newton_euler(state, ISO, TorqueCommand.zero(), params)
    np.testing.assert_allclose(acc, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(loads.f_b, np.zeros((4, 3)), atol=1e-15)


def test_gravity_moment_cancellation_by_symmetry(params, rng):
    # The moment of a common per-wheel load about the base center is
    # (sum r_i) x u = 0 for symmetric steering.
    for _ in range(10):
        steering = steering_from_submovements(SubmovementParams(*rng.uniform(-3, 3, 2)))
        centers = wheel_centers(params, steering)
        u = rng.normal(0, 9.81, 3)
        moment = np.cross(centers, u[None, :]).sum(axis=0)
        np.testing.assert_allclose(moment, np.zeros(3), atol=1e-12)


def test_effective_inertia_positive_over_configs(params, rng):
    for _ in range(200):
        steering = steering_from_submovements(SubmovementParams(*rng.uniform(-3.2, 3.2, 2)))
        inertia = effective_inertia(params, steering)
        assert (inertia > 0).all()


# --- conservation ------------------------------------------------------------

def run_torque_free(params, steering, omega0, duration, dt):
    state = BodyState([0, 0, 100.0], [0, 0, 0], quat_from_euler(0.1, 0.2, -0.3), omega0)
    cmd = TorqueCommand.zero()
    steps = int(round(duration / dt))
    inertia = effective_inertia(params, steering)
    states = [state]
    for _ in range(steps):
        state = step_rk4(state, cmd, steering, params, dt)
        states.append(state)
    return states, inertia


def angular_momentum_world(state, inertia):
    return state.rotation() @ (inertia * state.omega)


def test_torque_free_conservation(params):
    steering = steering_from_submovements(SubmovementParams(0.55, 0.2))
    states, inertia = run_torque_free(params, steering, [0.9, -1.3, 0.7], 1.0, 1e-3)
    h0 = angular_momentum_world(states[0], inertia)
    ke0 = 0.5 * float(states[0].omega @ (inertia * states[0].omega))
    for state in states[::50]:
        h = angular_momentum_world(state, inertia)
        ke = 0.5 * float(state.omega @ (inertia * state.omega))
        assert np.abs(h - h0).max() / np.linalg.norm(h0) < 1e-9
        assert abs(ke - ke0) / ke0 < 1e-8


# --- state derivative --------------------------------------------------------

def kernel_derivative(state, steering, cmd, params):
    """Flat derivative (v_ob, a_ob, quat_dot, omega_dot, wheel_accel)."""
    kernel = FlightKernel(steering, params)
    kernel.set_command(cmd)
    return np.array(kernel.derivative(state.flat()))


def test_rest_state_falls_straight(params):
    deriv = kernel_derivative(BodyState.at_rest(), ISO, TorqueCommand.zero(), params)
    np.testing.assert_allclose(deriv[3:6], [0.0, 0.0, -params.g], atol=1e-15)
    np.testing.assert_allclose(deriv[10:13], np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(deriv[0:3], np.zeros(3), atol=1e-15)


def test_vertical_acceleration_independent_of_torque(params, rng):
    for _ in range(20):
        state, steering, cmd = random_symmetric_setup(rng)
        deriv = kernel_derivative(state, steering, cmd, params)
        assert math.isclose(deriv[5], -params.g, rel_tol=1e-15)
        assert deriv[3] == 0.0 and deriv[4] == 0.0


def test_wheel_speed_integrates_drive_torque(params):
    # With the base pinned by a huge inertia, wheel speed is a pure
    # integrator of tau / j_wyy.
    heavy = dataclasses.replace(params, j_bxx=1e9, j_byy=1e9, j_bzz=1e9)
    cmd = TorqueCommand([2.0, -1.0, -2.0, 1.0], 0.0)
    state = BodyState.at_rest((0, 0, 50))
    dt, steps = 1e-3, 200
    for _ in range(steps):
        state = step_rk4(state, cmd, ISO, heavy, dt)
    expected = cmd.tau * (dt * steps) / heavy.j_wyy
    np.testing.assert_allclose(state.wheel_speed, expected, rtol=1e-9, atol=1e-12)


def test_wheel_acceleration_formula(params, rng):
    from swervefall.dynamics import _drive_torque_columns

    state, steering, cmd = random_symmetric_setup(rng)
    deriv = kernel_derivative(state, steering, cmd, params)
    spin_axes = -_drive_torque_columns(steering)
    expected = cmd.tau / params.j_wyy - spin_axes @ deriv[10:13]
    np.testing.assert_allclose(deriv[13:17], expected, atol=1e-12)


# --- scalar kernel against the array formulation ------------------------------

def reference_derivative(y, steering, cmd, params):
    """The flight derivative in array form, operation for operation as
    the scalar kernel must reproduce it."""
    inertia = effective_inertia(params, steering)
    pair = np.array([cmd.tau[0], cmd.tau[1], cmd.tau_delta])
    torque = torque_jacobian(submovements_from_steering(steering)).full @ pair
    omega = y[10:13]
    omega_dot = (torque - np.cross(omega, inertia * omega)) / inertia
    quat_dot = 0.5 * quat_multiply(y[6:10], np.array([0.0, *omega]))
    spin_axes = -_drive_torque_columns(steering)
    wheel_accel = cmd.tau / params.j_wyy - spin_axes @ omega_dot
    return np.concatenate(
        [y[3:6], params.g * GRAVITY_DIR, quat_dot, omega_dot, wheel_accel]
    )


def reference_rk4(y0, steering, cmd, params, dt):
    def deriv(y):
        return reference_derivative(y, steering, cmd, params)

    k1 = deriv(y0)
    k2 = deriv(y0 + 0.5 * dt * k1)
    k3 = deriv(y0 + 0.5 * dt * k2)
    k4 = deriv(y0 + dt * k3)
    y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    y1[6:10] = y1[6:10] / float(np.linalg.norm(y1[6:10]))
    return y1


def test_derivative_matches_array_formulation_bitwise(params, rng):
    for _ in range(50):
        state, steering, cmd = random_symmetric_setup(rng)
        expected = reference_derivative(np.array(state.flat()), steering, cmd, params)
        np.testing.assert_array_equal(
            kernel_derivative(state, steering, cmd, params), expected
        )


def test_rk4_matches_array_formulation_bitwise(params, rng):
    # A tumbling base under a held command, long enough for any rounding
    # difference to surface.
    for _ in range(5):
        state, steering, cmd = random_symmetric_setup(rng)
        y = np.array(state.flat())
        for _ in range(200):
            state = step_rk4(state, cmd, steering, params, 1e-3)
            y = reference_rk4(y, steering, cmd, params, 1e-3)
            assert state.flat() == y.tolist()
