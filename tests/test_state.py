import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swervefall import quat_from_euler
from swervefall.state import NormBuffer, euler_angles, quat_multiply, wrap_angle


def test_identity_quaternion_gives_zero_angles():
    phi, theta, psi = euler_angles(np.array([1.0, 0.0, 0.0, 0.0]))
    assert phi == theta == psi == 0.0


def test_pure_yaw_rotation():
    q = quat_from_euler(0.0, 0.0, math.pi / 2)
    phi, theta, psi = euler_angles(q)
    assert abs(phi) < 1e-15
    assert abs(theta) < 1e-15
    assert math.isclose(psi, math.pi / 2, rel_tol=1e-12)


def test_drop_attitude_round_trips_to_machine_precision():
    phi, theta = math.radians(16.0), math.radians(-23.0)
    angles = euler_angles(quat_from_euler(phi, theta, 0.0))
    assert abs(angles[0] - phi) < 1e-12
    assert abs(angles[1] - theta) < 1e-12
    assert abs(angles[2]) < 1e-12


@settings(max_examples=200)
@given(
    phi=st.floats(-3.1, 3.1),
    theta=st.floats(-1.45, 1.45),
    psi=st.floats(-3.1, 3.1),
)
def test_euler_quaternion_round_trip_property(phi, theta, psi):
    angles = euler_angles(quat_from_euler(phi, theta, psi))
    assert abs(wrap_angle(angles[0] - phi)) < 1e-10
    assert abs(angles[1] - theta) < 1e-10
    assert abs(wrap_angle(angles[2] - psi)) < 1e-10


def test_quat_multiply_identity():
    q = np.array(NormBuffer().unit([0.9, 0.1, -0.3, 0.2]))
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(quat_multiply(identity, q), q, atol=1e-15)


def test_wrap_angle_range():
    for x in (-7.0, -math.pi, 0.0, math.pi - 1e-9, math.pi, 9.0):
        wrapped = wrap_angle(x)
        assert -math.pi <= wrapped < math.pi


def test_norm_buffer_matches_numpy_norm_bitwise(rng):
    # The buffered dot is numpy's: a unit quaternion is
    # q / np.linalg.norm(q).
    norms = NormBuffer()
    for _ in range(2000):
        v = rng.standard_normal(4) * 10.0 ** rng.uniform(-3.0, 3.0)
        assert norms.unit(v.tolist()) == tuple((v / np.linalg.norm(v)).tolist())
    with pytest.raises(ValueError, match="near-zero"):
        norms.unit((1e-13, 0.0, 0.0, 0.0))
