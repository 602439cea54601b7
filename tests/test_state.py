import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swervefall import (
    AsymmetricSteering,
    BodyState,
    SteeringState,
    euler_from_quaternion,
    quat_from_euler,
)
from swervefall.state import NormBuffer, quat_multiply, quat_normalize, wrap_angle


def test_identity_quaternion_gives_zero_angles():
    angles = euler_from_quaternion(np.array([1.0, 0.0, 0.0, 0.0]))
    assert angles.phi == angles.theta == angles.psi == 0.0
    assert not angles.gimbal_proximity


def test_pure_yaw_rotation():
    q = quat_from_euler(0.0, 0.0, math.pi / 2)
    angles = euler_from_quaternion(q)
    assert abs(angles.phi) < 1e-15
    assert abs(angles.theta) < 1e-15
    assert math.isclose(angles.psi, math.pi / 2, rel_tol=1e-12)


def test_drop_attitude_round_trips_to_machine_precision():
    phi, theta = math.radians(16.0), math.radians(-23.0)
    angles = euler_from_quaternion(quat_from_euler(phi, theta, 0.0))
    assert abs(angles.phi - phi) < 1e-12
    assert abs(angles.theta - theta) < 1e-12
    assert abs(angles.psi) < 1e-12


@settings(max_examples=200)
@given(
    phi=st.floats(-3.1, 3.1),
    theta=st.floats(-1.45, 1.45),
    psi=st.floats(-3.1, 3.1),
)
def test_euler_quaternion_round_trip_property(phi, theta, psi):
    angles = euler_from_quaternion(quat_from_euler(phi, theta, psi))
    assert abs(wrap_angle(angles.phi - phi)) < 1e-10
    assert abs(angles.theta - theta) < 1e-10
    assert abs(wrap_angle(angles.psi - psi)) < 1e-10


def test_gimbal_proximity_flag():
    q = quat_from_euler(0.3, math.radians(89.5), -0.2)
    assert euler_from_quaternion(q).gimbal_proximity
    q = quat_from_euler(0.3, math.radians(45.0), -0.2)
    assert not euler_from_quaternion(q).gimbal_proximity


def test_quat_multiply_identity():
    q = quat_normalize(np.array([0.9, 0.1, -0.3, 0.2]))
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(quat_multiply(identity, q), q, atol=1e-15)


def test_body_state_normalizes_quaternion():
    state = BodyState([0, 0, 0], [0, 0, 0], [2.0, 0, 0, 0], [0, 0, 0])
    assert abs(np.linalg.norm(state.quat) - 1.0) < 1e-12


def test_body_state_arrays_are_read_only():
    state = BodyState.at_rest()
    with pytest.raises(ValueError):
        state.omega[0] = 1.0


def test_wrap_angle_range():
    for x in (-7.0, -math.pi, 0.0, math.pi - 1e-9, math.pi, 9.0):
        wrapped = wrap_angle(x)
        assert -math.pi <= wrapped < math.pi


def test_steering_state_wraps_and_checks_symmetry():
    s = SteeringState([math.pi, -math.pi, math.pi, -math.pi])
    # pi wraps onto -pi, so all four coincide.
    assert s.is_flight_symmetric()
    asym = SteeringState([0.1, 0.2, 0.3, 0.2])
    assert not asym.is_flight_symmetric()
    with pytest.raises(AsymmetricSteering):
        asym.require_flight_symmetric()


def test_norm_buffer_matches_numpy_norm_bitwise(rng):
    # The buffered dot is numpy's: the settled check's rate norm is
    # np.linalg.norm's, and a unit quaternion is q / np.linalg.norm(q).
    norms = NormBuffer()
    for _ in range(2000):
        v = rng.standard_normal(4) * 10.0 ** rng.uniform(-3.0, 3.0)
        assert norms.norm3(v[:3].tolist()) == float(np.linalg.norm(v[:3]))
        assert norms.unit(v.tolist()) == tuple((v / np.linalg.norm(v)).tolist())
    with pytest.raises(ValueError, match="near-zero"):
        norms.unit((1e-13, 0.0, 0.0, 0.0))
