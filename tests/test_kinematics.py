import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swervefall import (
    AsymmetricSteering,
    BodyTorque,
    SingularConfiguration,
    SteeringState,
    SubmovementParams,
    allocate_body_torque,
    jacobian_determinant,
    manipulability,
    map_wheel_to_body_torque,
    steering_from_submovements,
    submovements_from_steering,
)
from swervefall.kinematics import SINGULARITY_TOL, _lapack_solve, torque_jacobian

SQRT2 = math.sqrt(2.0)
ISO = SubmovementParams(alpha=math.pi / 4, beta=0.0)


# --- submovement coordinates -------------------------------------------------

def test_isotropic_steering_expansion():
    s = steering_from_submovements(ISO)
    np.testing.assert_allclose(
        s.delta, [math.pi / 4, -math.pi / 4, math.pi / 4, -math.pi / 4], atol=1e-15
    )


def test_neutral_steering_expansion():
    s = steering_from_submovements(SubmovementParams(0.0, 0.0))
    np.testing.assert_allclose(s.delta, np.zeros(4), atol=1e-15)


def test_superposed_steering_expansion():
    s = steering_from_submovements(SubmovementParams(math.pi / 4, -math.pi / 4))
    np.testing.assert_allclose(s.delta, [0.0, -math.pi / 2, 0.0, -math.pi / 2], atol=1e-15)


def test_submovements_from_isotropic_steering():
    sub = submovements_from_steering(
        SteeringState([math.pi / 4, -math.pi / 4, math.pi / 4, -math.pi / 4])
    )
    assert math.isclose(sub.alpha, math.pi / 4, rel_tol=1e-12)
    assert abs(sub.beta) < 1e-15


def test_submovements_from_neutral_steering():
    sub = submovements_from_steering(SteeringState([0.0, 0.0, 0.0, 0.0]))
    assert sub.alpha == 0.0 and sub.beta == 0.0


def test_submovements_direct_evaluation():
    sub = submovements_from_steering(SteeringState([0.1, 0.2, 0.1, 0.2]))
    assert math.isclose(sub.alpha, -0.05, abs_tol=1e-15)
    assert math.isclose(sub.beta, 0.15, abs_tol=1e-15)


def test_submovements_reject_asymmetric():
    with pytest.raises(AsymmetricSteering):
        submovements_from_steering(SteeringState([0.1, 0.2, 0.3, 0.2]))


@settings(max_examples=200)
@given(alpha=st.floats(-1.5, 1.5), beta=st.floats(-1.5, 1.5))
def test_submovement_round_trip(alpha, beta):
    sub = submovements_from_steering(
        steering_from_submovements(SubmovementParams(alpha, beta))
    )
    assert abs(sub.alpha - alpha) < 1e-12
    assert abs(sub.beta - beta) < 1e-12


# --- torque jacobian ---------------------------------------------------------

def test_isotropic_rows_match_linearized_forms():
    # roll row gives sqrt(2)(t2 - t1), pitch row sqrt(2)(t1 + t2)
    jac = torque_jacobian(ISO)
    np.testing.assert_allclose(jac.full[0, :2], [-SQRT2, SQRT2], atol=1e-12)
    np.testing.assert_allclose(jac.full[1, :2], [SQRT2, SQRT2], atol=1e-12)


def test_yaw_row_is_constant():
    for alpha, beta in [(0.3, -0.8), (0.0, 0.0), (1.2, 0.4)]:
        jac = torque_jacobian(SubmovementParams(alpha, beta))
        np.testing.assert_allclose(jac.full[2], [0.0, 0.0, 4.0], atol=1e-15)


def test_neutral_config_kills_one_authority_axis():
    # At alpha = 0 the wheel torques act about a single body axis: one
    # row of the 2x2 block vanishes and the configuration is singular.
    jac = torque_jacobian(SubmovementParams(0.0, 0.0))
    row_norms = np.linalg.norm(jac.roll_pitch, axis=1)
    assert min(row_norms) < 1e-15
    assert manipulability(SubmovementParams(0.0, 0.0)).singular


def test_determinant_closed_form_examples():
    assert math.isclose(jacobian_determinant(math.pi / 4), 1.0, rel_tol=1e-15)
    assert abs(jacobian_determinant(0.0)) < 1e-15
    assert math.isclose(
        jacobian_determinant(math.pi / 6), math.sin(math.pi / 3), rel_tol=1e-15
    )


def test_determinant_matches_numeric_block(rng):
    for alpha in rng.uniform(-math.pi, math.pi, 1000):
        beta = float(rng.uniform(-math.pi, math.pi))
        jac = torque_jacobian(SubmovementParams(float(alpha), beta))
        numeric = float(np.linalg.det(jac.direction))
        assert abs(numeric - jacobian_determinant(float(alpha))) < 1e-12


def test_direction_block_relation():
    jac = torque_jacobian(SubmovementParams(0.7, -0.4))
    np.testing.assert_allclose(
        jac.direction, jac.roll_pitch[[1, 0], :] / 2.0, atol=1e-15
    )


def test_beta_rotation_property(rng):
    def rot(angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])

    for _ in range(200):
        alpha = float(rng.uniform(-math.pi, math.pi))
        beta = float(rng.uniform(-math.pi, math.pi))
        block = torque_jacobian(SubmovementParams(alpha, beta)).roll_pitch
        aligned = torque_jacobian(SubmovementParams(alpha, 0.0)).roll_pitch
        np.testing.assert_allclose(block, rot(-beta) @ aligned, atol=1e-12)


# --- manipulability ----------------------------------------------------------

def test_isotropic_configuration_has_equal_authority():
    report = manipulability(ISO)
    assert math.isclose(report.lambda_x_prime, report.lambda_y_prime, rel_tol=1e-12)
    assert not report.singular
    assert math.isclose(report.det, 1.0, rel_tol=1e-12)


def test_neutral_configuration_is_singular():
    report = manipulability(SubmovementParams(0.0, 0.0))
    assert report.singular
    assert min(report.lambda_x_prime, report.lambda_y_prime) < 1e-15


def test_manipulability_flags_what_allocation_refuses(params):
    # One tolerance: at alpha = 1e-8 (|det| = 2e-8) the allocation refuses,
    # so the report says singular too.
    sub = SubmovementParams(1e-8, 0.0)
    assert manipulability(sub).singular
    with pytest.raises(SingularConfiguration):
        allocate_body_torque(BodyTorque(1.0, 0.0, 0.0), torque_jacobian(sub), params)


def test_authority_scales_with_sin_and_cos():
    alpha = math.pi / 3
    report = manipulability(SubmovementParams(alpha, 0.0))
    assert report.lambda_x_prime > report.lambda_y_prime
    assert math.isclose(
        report.lambda_x_prime, 2 * SQRT2 * math.sin(alpha), rel_tol=1e-12
    )
    assert math.isclose(
        report.lambda_y_prime, 2 * SQRT2 * math.cos(alpha), rel_tol=1e-12
    )


def test_axis_angle_reports_beta():
    assert manipulability(SubmovementParams(0.5, 0.31)).axis_angle == 0.31


# --- wheel <-> body torque maps ----------------------------------------------

def test_map_isotropic_equal_torques_is_pure_pitch():
    body = map_wheel_to_body_torque((1.0, 1.0, 0.0), ISO)
    assert abs(body.tau_x) < 1e-12
    assert math.isclose(body.tau_y, 2 * SQRT2, rel_tol=1e-12)
    assert abs(body.tau_z) < 1e-12


def test_map_pure_steering_torque_is_pure_yaw():
    for sub in (ISO, SubmovementParams(0.9, -0.3)):
        body = map_wheel_to_body_torque((0.0, 0.0, 1.0), sub)
        assert body.tau_x == 0.0 and body.tau_y == 0.0
        assert math.isclose(body.tau_z, 4.0, rel_tol=1e-15)


def test_map_zero_command():
    body = map_wheel_to_body_torque((0.0, 0.0, 0.0), ISO)
    assert body.tau_x == body.tau_y == body.tau_z == 0.0


def test_yaw_decoupling_for_random_configs(rng):
    for _ in range(100):
        sub = SubmovementParams(*rng.uniform(-1.5, 1.5, 2))
        t1, t2 = rng.uniform(-5, 5, 2)
        body = map_wheel_to_body_torque((t1, t2, 0.0), sub)
        assert abs(body.tau_z) < 1e-12


def test_allocate_isotropic_pitch_demand(params):
    cmd = allocate_body_torque(
        BodyTorque(0.0, 2 * SQRT2, 0.0), torque_jacobian(ISO), params
    )
    np.testing.assert_allclose(cmd[:4], [1.0, 1.0, -1.0, -1.0], atol=1e-12)
    assert abs(cmd[4]) < 1e-15
    assert cmd[5] == 0


def test_allocate_refuses_singular_configuration(params):
    with pytest.raises(SingularConfiguration):
        allocate_body_torque(
            BodyTorque(1.0, 0.0, 0.0),
            torque_jacobian(SubmovementParams(0.0, 0.0)),
            params,
        )


def test_allocate_clamps_and_flags(params):
    huge = BodyTorque(0.0, 1e4, 1e4)
    cmd = allocate_body_torque(huge, torque_jacobian(ISO), params)
    assert np.abs(cmd[:4]).max() == params.tau_wheel_max
    assert abs(cmd[4]) == params.tau_steer_max
    sat_mask = cmd[5]
    assert sat_mask & 1 and sat_mask & 2 and sat_mask & 16


@pytest.mark.parametrize("sub, demand", [
    (ISO, BodyTorque(math.nan, 0.0, 0.0)),
    (ISO, BodyTorque(math.inf, 0.0, 0.0)),
    (ISO, BodyTorque(0.0, 0.0, -math.inf)),
    # A finite demand near a singular configuration whose solve overflows
    # to NaN, which would clamp to +2.5 against a negative yaw demand.
    (SubmovementParams(7.062966872867286e-07, 0.7341018350053976),
     BodyTorque(9.926261847395556e+307, 9.725301265995554e+307, -7.006349478968817e+307)),
], ids=["nan", "inf", "minus-inf", "overflowing-solve"])
def test_allocate_rejects_non_finite_demand(params, sub, demand):
    # Clamping would turn NaN or inf into full saturation on every channel.
    with pytest.raises(ValueError, match="non-finite"):
        allocate_body_torque(demand, torque_jacobian(sub), params)


def test_allocate_expands_symmetric_pairs(params):
    cmd = allocate_body_torque(
        BodyTorque(1.0, 2.0, 0.4), torque_jacobian(ISO), params
    )
    assert cmd[2] == -cmd[0]
    assert cmd[3] == -cmd[1]


def test_allocate_map_round_trip_grid(params):
    # allocate o map == identity for in-limit commands away from
    # singularities, over a 100 x 100 (alpha, beta) grid.
    alphas = np.linspace(-1.4, 1.4, 100)
    betas = np.linspace(-math.pi, math.pi, 100, endpoint=False)
    base = (0.8, -0.5, 0.3)
    for alpha in alphas:
        if abs(math.sin(2 * alpha)) < 1e-3:
            continue
        for beta in betas:
            sub = SubmovementParams(float(alpha), float(beta))
            body = map_wheel_to_body_torque(base, sub)
            back = allocate_body_torque(body, torque_jacobian(sub), params)
            assert abs(back[0] - base[0]) < 1e-9
            assert abs(back[1] - base[1]) < 1e-9
            assert abs(back[4] - base[2]) < 1e-9


def reference_allocation(demand, jac, limits):
    """allocate_body_torque through np.linalg.solve and the builtins'
    clamps: the reference the direct LAPACK call must reproduce.  Raises
    ValueError where the solve is not finite."""
    tau_1, tau_2, tau_delta = np.linalg.solve(jac.full, list(demand)).tolist()
    if not all(map(math.isfinite, (tau_1, tau_2, tau_delta))):
        raise ValueError("non-finite solve")
    w, s = limits.tau_wheel_max, limits.tau_steer_max
    c1, c2, cd = max(-w, min(w, tau_1)), max(-w, min(w, tau_2)), max(-s, min(s, tau_delta))
    sat_mask = (5 if c1 != tau_1 else 0) | (10 if c2 != tau_2 else 0) | (16 if cd != tau_delta else 0)
    return c1, c2, -c1, -c2, cd, sat_mask


def test_direct_solve_matches_numpy_solve_bitwise(params, rng):
    # Random configurations, a third of them with |sin 2 alpha| just
    # above the allocation's singularity guard, and demands up to 1e308,
    # where the solve can overflow to inf or NaN (as in the first case):
    # the gufunc gives np.linalg.solve's bits, the command and sat_mask
    # are the reference's or both refuse the solve, and no warning is
    # raised.
    cases = [(7.062966872867286e-07, 0.7341018350053976,
              (9.926261847395556e+307, 9.725301265995554e+307, -7.006349478968817e+307))]
    for i in range(1500):
        alpha, beta = rng.uniform(-math.pi, math.pi, 2).tolist()
        if i % 3 == 0:
            near = 0.5 * math.asin(SINGULARITY_TOL * rng.uniform(1.001, 1.5))
            alpha = [near, -near, math.pi / 2 - near, near - math.pi / 2][i % 4]
        exponents = rng.uniform(-3.0, 1.0 if i % 2 else 308.0, 3)
        demand = rng.uniform(-1.0, 1.0, 3) * 10.0 ** exponents
        cases.append((alpha, beta, tuple(demand.tolist())))
    seen = set()
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
        warnings.simplefilter("error")
        for alpha, beta, demand in cases:
            jac = torque_jacobian(SubmovementParams(alpha, beta))
            assert abs(jac.det) >= SINGULARITY_TOL
            expected = np.linalg.solve(jac.full, list(demand))
            got = _lapack_solve(jac.full, demand, signature="dd->d")
            assert got.tobytes() == expected.tobytes()
            try:
                reference = reference_allocation(demand, jac, params)
            except ValueError:
                with pytest.raises(ValueError, match="non-finite"):
                    allocate_body_torque(demand, jac, params)
            else:
                command = allocate_body_torque(demand, jac, params)
                assert (np.array(command[:5]).tobytes()
                        == np.array(reference[:5]).tobytes())
                assert command[5] == reference[5]
            seen.add("nan" if np.isnan(expected).any() else
                     "inf" if np.isinf(expected).any() else
                     "clamped" if reference[5] else "free")
    assert seen == {"nan", "inf", "clamped", "free"}
