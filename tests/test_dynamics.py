import ctypes
import dataclasses
import glob
import hashlib
import math
import os
import pickle
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import swervefall
from swervefall import (
    RobotParams,
    SubmovementParams,
    angular_acceleration,
    oracle_newton_euler,
    reflected_inertia,
    step_rk4,
    quat_from_euler,
)
from swervefall.dynamics import (
    FlightKernel,
    NonFiniteState,
    _drive_torque_columns,
    effective_inertia,
    lowest_contact,
    steer_points,
    wheel_centers,
)
from swervefall.kinematics import torque_jacobian
from swervefall.state import quat_multiply, quat_to_matrix

from conftest import body_state

SQRT2 = math.sqrt(2.0)
ISO = SubmovementParams(math.pi / 4, 0.0)
ZERO = (0.0, 0.0, 0.0)


def random_symmetric_setup(rng):
    steering = SubmovementParams(*rng.uniform(-1.5, 1.5, 2))
    t1, t2 = rng.uniform(-8.0, 8.0, 2)
    cmd = (t1, t2, rng.uniform(-2.0, 2.0))
    state = body_state(
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
    refl_xx, refl_yy, _ = reflected_inertia(p, ISO)
    assert math.isclose(refl_xx, p.wheel_mass * p.b**2, rel_tol=1e-9)
    assert math.isclose(refl_yy, p.wheel_mass * p.a**2, rel_tol=1e-9)


def test_reflection_neutral_config(params):
    refl_xx, _, _ = reflected_inertia(params, SubmovementParams(0.0, 0.0))
    expected = 4 * params.wheel_mass * (params.b / 2 + params.c) ** 2
    assert math.isclose(refl_xx, expected, rel_tol=1e-12)


def test_reflection_zz_is_sum(params, rng):
    for _ in range(20):
        steering = SubmovementParams(*rng.uniform(-3, 3, 2))
        refl_xx, refl_yy, refl_zz = reflected_inertia(params, steering)
        assert math.isclose(refl_zz, refl_xx + refl_yy, rel_tol=1e-12)


def test_reflection_matches_parallel_axis_sum(params, rng):
    # Independent oracle: sum m (y^2+z^2) and m (x^2+z^2) over the wheel
    # centers directly.
    for _ in range(10):
        steering = SubmovementParams(*rng.uniform(-3, 3, 2))
        refl_xx, refl_yy, _ = reflected_inertia(params, steering)
        centers = wheel_centers(params, steering)
        j_xx = sum(params.wheel_mass * (c[1] ** 2 + c[2] ** 2) for c in centers)
        j_yy = sum(params.wheel_mass * (c[0] ** 2 + c[2] ** 2) for c in centers)
        assert abs(refl_xx - j_xx) < 1e-12
        assert abs(refl_yy - j_yy) < 1e-12


def test_steer_points_symmetry(params):
    pts = steer_points(params)
    np.testing.assert_allclose(pts.sum(axis=0), np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(pts[0], -pts[2], atol=1e-15)
    np.testing.assert_allclose(pts[1], -pts[3], atol=1e-15)


def test_wheel_centers_cancel_in_pairs(params, rng):
    # Symmetric steering keeps the system mass center on the base center.
    for _ in range(20):
        steering = SubmovementParams(*rng.uniform(-3, 3, 2))
        centers = wheel_centers(params, steering)
        np.testing.assert_allclose(centers.sum(axis=0), np.zeros(3), atol=1e-12)


# --- angular acceleration ----------------------------------------------------

def test_equilibrium_is_stationary(params):
    state = body_state()
    acc = angular_acceleration(state, ISO, ZERO, params)
    np.testing.assert_allclose(acc, np.zeros(3), atol=1e-15)


def test_isotropic_opposing_torques_roll_only(params):
    acc = angular_acceleration(body_state(), ISO, (-1.0, 1.0, 0.0), params)
    refl_xx, _, _ = reflected_inertia(params, ISO)
    j_roll = params.j_bxx + refl_xx + 2 * SQRT2 * params.j_wxx
    assert math.isclose(acc[0], 2 * SQRT2 / j_roll, rel_tol=1e-12)
    assert abs(acc[1]) < 1e-15
    assert abs(acc[2]) < 1e-15


def test_pure_steering_torque_yaw_rate(params):
    acc = angular_acceleration(body_state(), ISO, (0.0, 0.0, 1.0), params)
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
    state = body_state([0, 0, 2], [0, 0, 0], quat_from_euler(0.4, -0.3, 0.2), [0, 0, 0])
    acc, loads = oracle_newton_euler(state, ISO, ZERO, params)
    np.testing.assert_allclose(acc, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(loads.f_b, np.zeros((4, 3)), atol=1e-15)


def test_gravity_moment_cancellation_by_symmetry(params, rng):
    # The moment of a common per-wheel load about the base center is
    # (sum r_i) x u = 0 for symmetric steering.
    for _ in range(10):
        steering = SubmovementParams(*rng.uniform(-3, 3, 2))
        centers = wheel_centers(params, steering)
        u = rng.normal(0, 9.81, 3)
        moment = np.cross(centers, u[None, :]).sum(axis=0)
        np.testing.assert_allclose(moment, np.zeros(3), atol=1e-12)


def test_effective_inertia_positive_over_configs(params, rng):
    for _ in range(200):
        steering = SubmovementParams(*rng.uniform(-3.2, 3.2, 2))
        inertia = effective_inertia(params, steering)
        assert (inertia > 0).all()


# --- conservation ------------------------------------------------------------

def run_torque_free(params, steering, omega0, duration, dt):
    state = body_state([0, 0, 100.0], [0, 0, 0], quat_from_euler(0.1, 0.2, -0.3), omega0)
    steps = int(round(duration / dt))
    inertia = effective_inertia(params, steering)
    states = [state]
    for _ in range(steps):
        state = step_rk4(state, ZERO, steering, params, dt)
        states.append(state)
    return states, inertia


def angular_momentum_world(state, inertia):
    return quat_to_matrix(state[6:10]) @ (inertia * np.array(state[10:13]))


def test_torque_free_conservation(params):
    steering = SubmovementParams(0.55, 0.2)
    states, inertia = run_torque_free(params, steering, [0.9, -1.3, 0.7], 1.0, 1e-3)
    h0 = angular_momentum_world(states[0], inertia)
    omega0 = np.array(states[0][10:13])
    ke0 = 0.5 * float(omega0 @ (inertia * omega0))
    for state in states[::50]:
        h = angular_momentum_world(state, inertia)
        omega = np.array(state[10:13])
        ke = 0.5 * float(omega @ (inertia * omega))
        assert np.abs(h - h0).max() / np.linalg.norm(h0) < 1e-9
        assert abs(ke - ke0) / ke0 < 1e-8


# --- translation and wheel spin ----------------------------------------------

def test_rest_state_falls_straight(params):
    # One step from rest: the base drops under gravity alone, without
    # turning or drifting sideways.
    dt = 1e-3
    state = step_rk4(body_state(), ZERO, ISO, params, dt)
    assert math.isclose(state[5], -params.g * dt, rel_tol=1e-14)
    assert math.isclose(state[2], -0.5 * params.g * dt**2, rel_tol=1e-14)
    assert state[0] == state[1] == state[3] == state[4] == 0.0
    assert state[6:10] == [1.0, 0.0, 0.0, 0.0]
    assert state[10:13] == [0.0, 0.0, 0.0]


def test_vertical_acceleration_independent_of_torque(params, rng):
    # Whatever the command and the tumble, a step changes the velocity by
    # gravity's increment alone.
    dt = 1e-3
    for _ in range(20):
        state, steering, cmd = random_symmetric_setup(rng)
        stepped = step_rk4(state, cmd, steering, params, dt)
        assert math.isclose(
            stepped[5] - state[5], -params.g * dt, rel_tol=1e-12
        )
        assert stepped[3] == state[3] and stepped[4] == state[4]


def test_wheel_speed_integrates_drive_torque(params):
    # With the base pinned by a huge inertia, wheel speed is a pure
    # integrator of tau / j_wyy.
    heavy = dataclasses.replace(params, j_bxx=1e9, j_byy=1e9, j_bzz=1e9)
    state = body_state((0, 0, 50))
    dt, steps = 1e-3, 200
    for _ in range(steps):
        state = step_rk4(state, (2.0, -1.0, 0.0), ISO, heavy, dt)
    expected = np.array([2.0, -1.0, -2.0, 1.0]) * (dt * steps) / heavy.j_wyy
    np.testing.assert_allclose(state[13:17], expected, rtol=1e-9, atol=1e-12)


def test_wheel_acceleration_formula(params, rng):
    # Each wheel's spin rate changes at tau_i / j_wyy minus the base's
    # angular acceleration along its spin axis; over a short step the
    # wheel speeds change at that rate to first order in dt.
    dt = 1e-7
    for _ in range(20):
        state, steering, cmd = random_symmetric_setup(rng)
        t1, t2, _ = cmd
        spin_axes = -_drive_torque_columns(steering)
        expected = (
            np.array([t1, t2, -t1, -t2]) / params.j_wyy
            - spin_axes @ angular_acceleration(state, steering, cmd, params)
        )
        stepped = step_rk4(state, cmd, steering, params, dt)
        rate = (np.array(stepped[13:17]) - np.array(state[13:17])) / dt
        np.testing.assert_allclose(rate, expected, rtol=1e-6, atol=1e-4)


# --- scalar kernel against the array formulation ------------------------------

def reference_derivative(y, steering, cmd, params):
    """The flight derivative in array form, operation for operation as
    the scalar kernel must reproduce it."""
    inertia = effective_inertia(params, steering)
    t1, t2, t_delta = cmd
    pair = np.array([t1, t2, t_delta])
    torque = torque_jacobian(steering).full @ pair
    omega = y[10:13]
    omega_dot = (torque - np.cross(omega, inertia * omega)) / inertia
    quat_dot = 0.5 * quat_multiply(y[6:10], np.array([0.0, *omega]))
    spin_axes = -_drive_torque_columns(steering)
    wheel_accel = np.array([t1, t2, -t1, -t2]) / params.j_wyy - spin_axes @ omega_dot
    return np.concatenate(
        [y[3:6], [0.0, 0.0, -params.g], quat_dot, omega_dot, wheel_accel]
    )


def reference_rk4(y0, steering, cmd, params, dt):
    def deriv(y):
        return reference_derivative(y, steering, cmd, params)

    k1 = deriv(y0)
    k2 = deriv(y0 + 0.5 * dt * k1)
    k3 = deriv(y0 + 0.5 * dt * k2)
    k4 = deriv(y0 + dt * k3)
    y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    norm = float(np.linalg.norm(y1[6:10]))
    if not (np.isfinite(y1).all() and 1e-12 <= norm < math.inf):
        raise FloatingPointError("RK4 step left the finite range")
    y1[6:10] = y1[6:10] / norm
    return y1


def reference_tick(y, steering, cmd, params, dt, steps, stop_at_ground):
    """``steps`` reference RK4 steps, as ``FlightKernel.advance_lanes``
    must take them for one lane: (state, taken), stopping before the
    first step that ends with a wheel on the ground, or ("diverged",
    index of the step)."""
    centers = wheel_centers(params, steering)
    for i in range(steps):
        try:
            y1 = reference_rk4(y, steering, cmd, params, dt)
        except FloatingPointError:
            return "diverged", i
        if stop_at_ground and lowest_contact(
            y1[2], y1[6:10], centers, params.wheel_radius
        ) <= 0.0:
            return y, i
        y = y1
    return y, steps


def test_kernel_torque_map_is_the_allocation_jacobian(params):
    # The kernel maps a command through the Jacobian the controller
    # allocates with, built from (alpha, beta) as given: beta = 10 deg
    # reaches it unrounded.
    sub = SubmovementParams(math.radians(45.0), math.radians(10.0))
    assert FlightKernel(sub, params).full.tobytes() == torque_jacobian(sub).full.tobytes()


def test_derivative_matches_array_formulation_bitwise(params, rng):
    # The closed-form angular acceleration is the reference derivative's
    # omega_dot, bit for bit.
    for _ in range(50):
        state, steering, cmd = random_symmetric_setup(rng)
        expected = reference_derivative(np.array(state), steering, cmd, params)
        got = angular_acceleration(state, steering, cmd, params)
        assert got.tobytes() == expected[10:13].tobytes()


def test_rk4_matches_array_formulation_bitwise(params, rng):
    # A tumbling base under a held command, long enough for any rounding
    # difference to surface.
    for _ in range(5):
        state, steering, cmd = random_symmetric_setup(rng)
        y = np.array(state)
        for _ in range(200):
            state = step_rk4(state, cmd, steering, params, 1e-3)
            y = reference_rk4(y, steering, cmd, params, 1e-3)
            assert state == y.tolist()


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(-1.5, 1.5),
    beta=st.floats(-1.5, 1.5),
    torques=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.floats(-2.0, 2.0)),
    quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(c * c for c in q) > 0.01
    ),
    rates=st.tuples(*[st.floats(-30.0, 30.0)] * 3),
    height=st.floats(0.0, 1.0),
    velocity=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-20.0, -0.5)),
    wheels=st.tuples(*[st.floats(-150.0, 150.0)] * 4),
    dt=st.floats(1e-5, 5e-3),
    # sampled_from draws evenly; integers() favours the ends of its range.
    steps=st.sampled_from(range(1, 11)),
    stop_at_ground=st.booleans(),
    event=st.sampled_from([None, "touchdown", "base", "wheels"]),
    event_step=st.sampled_from(range(10)),
)
# Touches down in the fourth of ten steps.
@example(alpha=0.7, beta=0.0, torques=(1.0, -2.0, 0.5), quat=(1.0, 0.1, 0.0, 0.0),
         rates=(0.5, 0.0, 0.0), height=0.25, velocity=(0.0, 0.0, -10.0),
         wheels=(1.0, 2.0, 3.0, 4.0), dt=1e-3, steps=10, stop_at_ground=True,
         event="touchdown", event_step=3)
# The base diverges in the second of ten steps.
@example(alpha=0.3, beta=0.1, torques=(0.0, 0.0, 0.0), quat=(1.0, 0.0, 0.0, 0.0),
         rates=(0.3, -0.7, 0.2), height=1.0, velocity=(0.0, 0.0, -1.0),
         wheels=(0.0, 0.0, 0.0, 0.0), dt=1e-4, steps=10, stop_at_ground=True,
         event="base", event_step=2)
# Wheel 1 overflows in the sixth of ten steps while the base stays finite.
@example(alpha=0.7, beta=0.0, torques=(8.0, 8.0, 0.0), quat=(1.0, 0.0, 0.0, 0.0),
         rates=(0.0, 0.0, 0.0), height=1.0, velocity=(0.0, 0.0, -1.0),
         wheels=(0.0, 0.0, 0.0, 0.0), dt=5e-4, steps=10, stop_at_ground=False,
         event="wheels", event_step=5)
# At rest under the zero command for ten steps: the first step turns each
# -0.0 into 0.0, so it does not hold the attitude bit for bit though it
# compares equal.
@example(alpha=0.7, beta=0.0, torques=(0.0, 0.0, 0.0), quat=(1.0, 0.0, -0.0, 0.0),
         rates=(0.0, -0.0, 0.0), height=1.0, velocity=(0.0, 0.0, -1.0),
         wheels=(1.0, 2.0, 3.0, 4.0), dt=1e-4, steps=10, stop_at_ground=True,
         event=None, event_step=0)
# At rest with no -0.0: the first step holds the attitude, and the later
# ones repeat it up to a touchdown in step 7.
@example(alpha=0.7, beta=0.0, torques=(0.0, 0.0, 0.0), quat=(1.0, 0.0, 0.0, 0.0),
         rates=(0.0, 0.0, 0.0), height=0.1716, velocity=(0.5, -0.0, -1.0),
         wheels=(1.0, 2.0, 3.0, 4.0), dt=1e-3, steps=10, stop_at_ground=True,
         event=None, event_step=0)
# Zero rates under a torque: the first step spins the body up, so the
# attitude is not held.
@example(alpha=0.7, beta=0.0, torques=(1.0, -2.0, 0.5), quat=(1.0, 0.0, 0.0, 0.0),
         rates=(0.0, 0.0, 0.0), height=1.0, velocity=(0.0, 0.0, -1.0),
         wheels=(1.0, 2.0, 3.0, 4.0), dt=1e-4, steps=10, stop_at_ground=True,
         event=None, event_step=0)
# Touchdown in the only step hands back the release velocity, -0.0
# included.
@example(alpha=0.0, beta=0.0, torques=(0.0, 0.0, 0.0), quat=(0.0, 0.0, 0.0, 1.0),
         rates=(0.0, 0.0, 0.0), height=0.0, velocity=(0.0, -0.0, -1.0),
         wheels=(0.0, 0.0, 0.0, 0.0), dt=0.00390625, steps=1, stop_at_ground=True,
         event=None, event_step=0)
def test_tick_matches_reference_steps_bitwise(
    alpha, beta, torques, quat, rates, height, velocity, wheels, dt, steps,
    stop_at_ground, event, event_step,
):
    # One kernel call over a control tick against the array-formulation RK4
    # stepped one step at a time: the same bits at the end of the tick,
    # the same touchdown step with the same pre-step state, and the same
    # failing step when the base or the wheels diverge within the tick.
    # ``event`` aims a touchdown or a divergence at about ``event_step``.
    params = RobotParams()
    steering = SubmovementParams(alpha, beta)
    omega = list(rates)
    wheels = list(wheels)
    t1, t2, t_delta = torques
    k = event_step % steps
    if event == "touchdown":
        # Clearance of about k + 0.5 steps of fall.
        stop_at_ground = True
        centers = wheel_centers(params, steering)
        start = lowest_contact(0.0, np.array(quat), centers, params.wheel_radius)
        height = (k + 0.5) * -velocity[2] * dt - start
    elif event == "base":
        # Each of the first three stages squares the rates once they pass
        # 1 / dt, so a step takes 10^L rad/s to about 10^(8 L), and the
        # gyroscopic term overflows past 10^154.
        floor = -math.log10(dt)
        omega = [r * 10.0 ** (floor + (154.0 - floor) / 8.0**k) for r in omega]
    elif event == "wheels":
        # With j_wyy = 1e-300 each step adds about dt * tau_1 / j_wyy to
        # wheel 1, which starts k + 0.5 such steps below the float limit.
        params = dataclasses.replace(params, j_wyy=1e-300)
        headroom = (k + 0.5) * dt * abs(t1) / params.j_wyy
        wheels[0] = math.copysign(sys.float_info.max - headroom, t1)
    kernel = FlightKernel(steering, params)
    kernel.set_command(t1, t2, t_delta)
    y = [0.0, 0.0, height, *velocity, *quat, *omega, *wheels]
    with np.errstate(over="ignore", invalid="ignore"):
        expected, taken = reference_tick(
            np.array(y), steering, torques, params, dt, steps, stop_at_ground
        )
        [(state, kernel_taken, failure)] = kernel.advance_lanes(
            [y], dt, steps, stop_at_ground
        )
    assert kernel_taken == taken
    if isinstance(expected, str):
        assert state is None and failure is not None
        return
    assert failure is None
    assert np.array(state).tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(-1.5, 1.5),
    torques=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.floats(-2.0, 2.0)),
    quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(c * c for c in q) > 0.01
    ),
    rates=st.tuples(*[st.floats(-30.0, 30.0)] * 3),
    lanes=st.lists(
        st.tuples(
            st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-20.0, -0.5)),
            # The step in which the lane touches down; 10 and up: none.
            st.sampled_from(range(14)),
        ),
        min_size=1, max_size=4,
    ),
    dt=st.floats(1e-5, 5e-3),
    steps=st.sampled_from(range(1, 11)),
    stop_at_ground=st.booleans(),
    event=st.sampled_from([None, "base", "wheels"]),
    event_step=st.sampled_from(range(10)),
)
# Lanes that touch down in steps 2 and 6 and one that lives through the
# tick.
@example(alpha=0.7, torques=(1.0, -2.0, 0.5), quat=(1.0, 0.1, 0.0, 0.0),
         rates=(0.5, 0.0, 0.0),
         lanes=[((0.0, 0.0, -10.0), 6), ((0.0, 0.0, -10.0), 2),
                ((0.0, 1.0, -3.0), 12)],
         dt=1e-3, steps=10, stop_at_ground=True, event=None, event_step=0)
# The wheels overflow in step 5, after one lane touched down in step 3
# and before another would in step 7.
@example(alpha=0.7, torques=(8.0, 8.0, 0.0), quat=(1.0, 0.0, 0.0, 0.0),
         rates=(0.0, 0.0, 0.0),
         lanes=[((0.0, 0.0, -10.0), 7), ((0.0, 0.0, -10.0), 3)],
         dt=5e-4, steps=10, stop_at_ground=True, event="wheels", event_step=5)
# The wheels overflow in step 5, the step in which one lane touches down.
@example(alpha=0.7, torques=(8.0, 8.0, 0.0), quat=(1.0, 0.0, 0.0, 0.0),
         rates=(0.0, 0.0, 0.0),
         lanes=[((0.0, 0.0, -10.0), 5), ((0.0, 0.0, -10.0), 12)],
         dt=5e-4, steps=10, stop_at_ground=True, event="wheels", event_step=5)
# The tumbling base brings the one lane's wheel down in step 2 and
# diverges in step 6, which the attitude is integrated through.
@example(alpha=0.7, torques=(0.0, 0.0, 0.0), quat=(1.0, 0.0, 0.0, 0.0),
         rates=(2.08, 1.04, -3.12), lanes=[((0.0, 0.0, -20.0), 8)],
         dt=2e-3, steps=10, stop_at_ground=True, event="base", event_step=9)
# A held attitude under -0.0 and nonzero horizontal velocities: one lane
# touches down in step 1 with its release velocity, one in step 5, and
# one lives through the tick.
@example(alpha=0.7, torques=(0.0, 0.0, 0.0), quat=(1.0, 0.0, 0.0, 0.0),
         rates=(0.0, 0.0, 0.0),
         lanes=[((-0.0, 1.5, -10.0), 0), ((1.25, -0.0, -3.0), 4),
                ((-2.0, -0.75, -0.5), 12)],
         dt=1e-3, steps=10, stop_at_ground=True, event=None, event_step=0)
def test_lanes_match_lone_runs_bitwise(
    alpha, torques, quat, rates, lanes, dt, steps, stop_at_ground, event, event_step,
):
    # States that share attitude, rates and wheel speeds, advanced as
    # lanes, give each lane what the array-formulation RK4 gives it alone:
    # the same bits, the same touchdown step and the same failing step,
    # with the message that advancing the lane alone gives.
    params = RobotParams()
    steering = SubmovementParams(alpha, 0.0)
    omega = list(rates)
    wheels = [1.0, 2.0, 3.0, 4.0]
    t1, t2, t_delta = torques
    k = event_step % steps
    if event == "base":
        # As in test_tick_matches_reference_steps_bitwise.
        floor = -math.log10(dt)
        omega = [r * 10.0 ** (floor + (154.0 - floor) / 8.0**k) for r in omega]
    elif event == "wheels":
        params = dataclasses.replace(params, j_wyy=1e-300)
        headroom = (k + 0.5) * dt * abs(t1) / params.j_wyy
        wheels[0] = math.copysign(sys.float_info.max - headroom, t1)
    centers = wheel_centers(params, steering)
    start = lowest_contact(0.0, np.array(quat), centers, params.wheel_radius)
    ys = []
    for velocity, touch in lanes:
        # Clearance of about touch + 0.5 steps of fall.
        height = (touch + 0.5) * -velocity[2] * dt - start
        ys.append([0.0, 0.0, height, *velocity, *quat, *omega, *wheels])
    kernel = FlightKernel(steering, params)
    kernel.set_command(t1, t2, t_delta)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = []
        for y in ys:
            state, taken = reference_tick(
                np.array(y), steering, torques, params, dt, steps, stop_at_ground
            )
            if isinstance(state, str):
                [(_, _, message)] = kernel.advance_lanes([y], dt, steps, stop_at_ground)
                expected.append((None, taken, message))
            else:
                expected.append((state.tobytes(), taken, None))
        got = [
            (None if state is None else np.array(state).tobytes(), taken, failure)
            for state, taken, failure in kernel.advance_lanes(ys, dt, steps, stop_at_ground)
        ]
    assert got == expected


def test_nonfinite_state_survives_pickling():
    # A divergence in a worker process comes back to the parent pickled.
    error = pickle.loads(pickle.dumps(NonFiniteState("simulation diverged", 0.25)))
    assert isinstance(error, NonFiniteState)
    assert str(error) == "simulation diverged at t=0.250000 s"
    assert error.t == 0.25


# --- contact height ------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(-1.5, 1.5),
    beta=st.floats(-1.5, 1.5),
    quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(c * c for c in q) > 0.01
    ),
    z=st.floats(0.0, 1.0),
)
def test_lowest_contact_matches_the_rotation_matrix(alpha, beta, quat, z):
    # The plain-float height against the rotated wheel centers it stands
    # for, min(z + (R(q) @ centers.T)[2]) - wheel_radius.
    params = RobotParams()
    centers = wheel_centers(params, SubmovementParams(alpha, beta))
    unit = body_state(quat=quat)[6:10]
    reference = float((z + (quat_to_matrix(unit) @ centers.T)[2]).min() - params.wheel_radius)
    got = lowest_contact(z, unit, centers.tolist(), params.wheel_radius)
    assert type(got) is float
    assert abs(got - reference) <= 1e-15


def contact_height_digest(count: int = 5000) -> str:
    """SHA-256 of ``count`` seeded contact heights over random unit
    quaternions, steering and base heights.  The inputs are formed in
    plain floats, so they are the same bits on every BLAS kernel."""
    params = RobotParams()
    rng = np.random.default_rng(24)
    values = []
    for w, x, y, z, alpha, beta, height in rng.uniform(-1.0, 1.0, (count, 7)).tolist():
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        centers = wheel_centers(params, SubmovementParams(1.5 * alpha, 1.5 * beta))
        values.append(lowest_contact(
            height, (w / norm, x / norm, y / norm, z / norm), centers, params.wheel_radius,
        ))
    return hashlib.sha256(struct.pack(f"{count}d", *values)).hexdigest()


def openblas_core(library: str) -> str:
    """The name of the kernel set that OpenBLAS ``library`` chose."""
    core = ctypes.CDLL(library).scipy_openblas_get_corename64_
    core.argtypes = []
    core.restype = ctypes.c_char_p
    return core().decode()


def test_contact_height_holds_on_another_blas_kernel():
    # Release placement and touchdown read the contact height, so it must
    # not depend on the kernels OpenBLAS picks for the CPU.  The library
    # is found as the CI workflow finds it.
    found = glob.glob(os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"
    ))
    if len(found) != 1:
        pytest.skip("numpy's bundled OpenBLAS library not found")
    [library] = found
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(swervefall.__file__)))
    script = (
        "import sys\n"
        "from test_dynamics import contact_height_digest, openblas_core\n"
        "print(openblas_core(sys.argv[1]), contact_height_digest())\n"
    )
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join([tests, src]))
    core, digest = subprocess.run(
        [sys.executable, "-c", script, library],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    if core == openblas_core(library):
        pytest.skip(f"OPENBLAS_CORETYPE left OpenBLAS on the {core} kernels")
    assert digest == contact_height_digest()
