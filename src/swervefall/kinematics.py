"""Steering parametrization, torque Jacobians, and torque allocation.

The airborne steering motion decomposes into two coordinated coordinates:
``alpha`` (diagonal pairs opposing) and ``beta`` (pairs together), with

    delta_1 = delta_3 = beta + alpha
    delta_2 = delta_4 = beta - alpha

A steering configuration is always a ``SubmovementParams`` (alpha, beta);
``steering_angles`` expands it to the four wrapped angles where per-wheel
geometry or telemetry needs them.

Under flight symmetry (tau_3 = -tau_1, tau_4 = -tau_2, equal steering
torque tau_delta at every joint) the net base torque is linear in
(tau_1, tau_2, tau_delta):

    [tau_x]   [-2 cos(a+b)   2 cos(a-b)   0] [tau_1  ]
    [tau_y] = [ 2 sin(a+b)   2 sin(a-b)   0] [tau_2  ]
    [tau_z]   [ 0            0            4] [tau_delta]

Row convention note: this library fixes the roll/pitch row assignment to
the form validated by the linearized plant equations at the isotropic
configuration (roll = sqrt(2)(tau_2 - tau_1), pitch = sqrt(2)(tau_1 +
tau_2)); the dynamics oracle is built with the same convention, and the
two are cross-checked in the acceptance suite.

Singularity analysis uses the per-pair normalized direction matrix

    N(a, b) = [[ sin(a+b)  sin(a-b)]
               [-cos(a+b)  cos(a-b)]]

whose determinant is sin(2*alpha): zero at alpha in {0, +-pi/2} where one
authority axis collapses, maximal at the isotropic alpha = +-pi/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

from .params import RobotParams
from .state import SubmovementParams, wrap_angle

# Manipulability reports singular, and allocation refuses, below this
# |det N|; inverting closer to the singularity amplifies wheel torques
# without bound.
SINGULARITY_TOL = 1e-6


class SingularConfiguration(Exception):
    """Torque allocation attempted at (or too near) a singular alpha."""


def steering_angles(sub: SubmovementParams) -> tuple[float, float, float, float]:
    """The four steering angles (delta_1, delta_2, delta_3, delta_4) of
    (alpha, beta), each wrapped to [-pi, pi)."""
    d13 = wrap_angle(sub.beta + sub.alpha)
    d24 = wrap_angle(sub.beta - sub.alpha)
    return d13, d24, d13, d24


@dataclass(frozen=True)
class TorqueJacobian:
    """Configuration-dependent torque maps for one (alpha, beta).

    full: 3x3 map (tau_1, tau_2, tau_delta) -> (tau_x, tau_y, tau_z);
        its upper-left 2x2 block is the roll/pitch map.
    direction: the per-pair normalized direction matrix N with
        det N = sin(2 alpha); relates to that block by a row swap and a
        factor 2 (N = full[[1, 0], :2] / 2).
    det: det N evaluated numerically; allocation refuses near zero.
    """

    alpha: float
    beta: float
    full: np.ndarray
    direction: np.ndarray
    det: float


def _direction_matrix(alpha: float, beta: float) -> np.ndarray:
    return np.array([
        [math.sin(alpha + beta), math.sin(alpha - beta)],
        [-math.cos(alpha + beta), math.cos(alpha - beta)],
    ])


def torque_jacobian(sub: SubmovementParams) -> TorqueJacobian:
    """Build the torque Jacobians at a symmetric steering configuration."""
    a, b = sub.alpha, sub.beta
    full = np.array([
        [-2.0 * math.cos(a + b), 2.0 * math.cos(a - b), 0.0],
        [2.0 * math.sin(a + b), 2.0 * math.sin(a - b), 0.0],
        [0.0, 0.0, 4.0],
    ])
    direction = _direction_matrix(a, b)
    return TorqueJacobian(
        alpha=a,
        beta=b,
        full=full,
        direction=direction,
        det=float(np.linalg.det(direction)),
    )


def jacobian_determinant(alpha: float) -> float:
    """Closed form of det N: sin(2 alpha)."""
    return math.sin(2.0 * alpha)


@dataclass(frozen=True)
class ManipulabilityReport:
    """Authority-ellipsoid geometry at one configuration.

    lambda_x_prime and lambda_y_prime are the body-torque magnitudes
    reachable per unit wheel torque about the two authority axes
    (2*sqrt(2)|sin a| and 2*sqrt(2)|cos a|); axis_angle is the rotation
    beta of those axes.  singular means |det| < SINGULARITY_TOL (1e-6),
    where ``allocate_body_torque`` refuses.
    """

    lambda_x_prime: float
    lambda_y_prime: float
    axis_angle: float
    det: float
    singular: bool


def manipulability(sub: SubmovementParams) -> ManipulabilityReport:
    det = torque_jacobian(sub).det
    # Authority per axis: row norms of the full-scale block at beta = 0;
    # beta only rotates the axes (orthogonal), leaving the magnitudes.
    aligned = 2.0 * _direction_matrix(sub.alpha, 0.0)
    lam_x = float(np.linalg.norm(aligned[0]))
    lam_y = float(np.linalg.norm(aligned[1]))
    return ManipulabilityReport(
        lambda_x_prime=lam_x,
        lambda_y_prime=lam_y,
        axis_angle=sub.beta,
        det=det,
        singular=abs(det) < SINGULARITY_TOL,
    )


def map_wheel_to_body_torque(
    command, sub: SubmovementParams
) -> tuple[float, float, float]:
    """Forward map: the flight command ``(tau_1, tau_2, tau_delta)``,
    wheels 3 and 4 driving -tau_1 and -tau_2, to the net base torque
    (tau_x, tau_y, tau_z) in body axes."""
    body = torque_jacobian(sub).full @ np.array(command, dtype=float)
    return tuple(body.tolist())


def allocate_body_torque(
    demand, jac: TorqueJacobian, limits: RobotParams
) -> tuple[float, float, float, int]:
    """Invert the torque map and clamp each channel to its limit.

    ``demand`` is the body-torque demand (tau_x, tau_y, tau_z), any three
    numbers, such as ``map_wheel_to_body_torque`` returns; ``jac`` is the
    Jacobian of the commanded steering configuration, built once per
    configuration with ``torque_jacobian``.
    Returns the flight command as plain numbers, (tau_1, tau_2,
    tau_delta, sat_mask), wheels 3 and 4 driving -tau_1 and -tau_2.
    Saturation is independent per channel (no direction-preserving
    scaling); ``sat_mask`` marks clamped channels, bits 0-3 the wheels
    and bit 4 steering.  Raises SingularConfiguration
    when |det N| < 1e-6, where the inverse would amplify without bound,
    and ValueError for a non-finite demand or a solve that overflows to
    inf or NaN, which clamping would turn into full saturation.
    """
    tau_x, tau_y, tau_z = demand
    if not (math.isfinite(tau_x) and math.isfinite(tau_y) and math.isfinite(tau_z)):
        raise ValueError(f"non-finite body-torque demand: {[tau_x, tau_y, tau_z]}")
    if abs(jac.det) < SINGULARITY_TOL:
        raise SingularConfiguration(
            f"|det| = {abs(jac.det):.3e} at alpha = {jac.alpha:.6f}"
        )
    # np.linalg.solve's own LAPACK gufunc (dgesv) and its bits, without
    # the wrapper, which costs more than the solve.  The guard above keeps
    # the matrix nonsingular, so the wrapper's singular-matrix error
    # cannot arise, and the gufunc raises the invalid flag only for a
    # singular matrix: an overflow to inf or NaN warns no more than in
    # the wrapper.
    tau_1, tau_2, tau_delta = _lapack_solve(
        jac.full, (tau_x, tau_y, tau_z), signature="dd->d"
    ).tolist()
    if not (math.isfinite(tau_1) and math.isfinite(tau_2) and math.isfinite(tau_delta)):
        raise ValueError(
            f"non-finite body-torque demand: {[tau_x, tau_y, tau_z]} "
            f"allocates to {[tau_1, tau_2, tau_delta]}"
        )

    limit_w = limits.tau_wheel_max
    limit_s = limits.tau_steer_max
    # max(-limit, min(limit, tau)) test for test, as the builtins compare;
    # on every control tick their calls cost more than the comparisons.
    upper_1 = tau_1 if tau_1 < limit_w else limit_w
    upper_2 = tau_2 if tau_2 < limit_w else limit_w
    upper_d = tau_delta if tau_delta < limit_s else limit_s
    clamped_1 = upper_1 if upper_1 > -limit_w else -limit_w
    clamped_2 = upper_2 if upper_2 > -limit_w else -limit_w
    clamped_d = upper_d if upper_d > -limit_s else -limit_s
    sat_mask = (
        (0b00101 if clamped_1 != tau_1 else 0)
        | (0b01010 if clamped_2 != tau_2 else 0)
        | (0b10000 if clamped_d != tau_delta else 0)
    )
    return clamped_1, clamped_2, clamped_d, sat_mask
