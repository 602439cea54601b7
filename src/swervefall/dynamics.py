"""Airborne rigid-body dynamics: closed-form equations and a numerical
assembly oracle that must agree with them.

Model summary (flight phase, steering locked so delta_dot = 0):

    J*(delta) W_dot + W x (J*(delta) W) = T(delta) @ (tau_1, tau_2, tau_d)

with diagonal effective inertia

    Jx* = j_bxx + Jm_xx(delta) + j_wxx * 2 (cos d1 + cos d2)
    Jy* = j_byy + Jm_yy(delta) + j_wxx * 2 (sin d1 - sin d2)
    Jz* = j_bzz

where Jm is the reflection of the wheel masses (parallel-axis, diagonal
part) and the j_wxx terms are the axle-normal wheel inertia reactions at
the flight-symmetric configuration.  The yaw channel books only the base
inertia: steering torque acts as a pure couple 4*tau_d on the base while
the wheel modules' own swing dynamics are outside this model.

The gyroscopic coupling is the exact transport term W x (J* W) of the
model inertia, which makes the torque-free dynamics conserve both the
model angular momentum R(q) J* W and the rotational kinetic energy --
properties the test suite checks over long integrations.

Translation is ballistic: with symmetric steering the wheel mass centers
cancel in pairs about the base center, the system mass center coincides
with it, and internal reactions cannot accelerate it, so a_ob = -g Z.

``oracle_newton_euler`` re-derives the same accelerations without the
closed-form trig: it sums per-wheel geometry numerically (parallel-axis
inertia reflection, per-wheel drive reaction directions, axle reaction
channels through the rolling-direction matrix) and solves the resulting
3x3 linear system in W_dot (the wheel reaction forces and axle torques
both contain W_dot, so the assembly moves those terms into the mass
matrix rather than iterating).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import RobotParams
from .state import BodyState, SteeringState, TorqueCommand

GRAVITY_DIR = np.array([0.0, 0.0, -1.0])

# Wheels 2 and 3 are bracket-mounted pi-rotated; their frame sign is -1.
FRAME_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
# Front wheels +1, rear wheels -1.
FORE_AFT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


class SingularMassMatrix(Exception):
    """Effective inertia lost positive definiteness; indicates a bug or
    grossly unphysical parameters."""


def steer_points(params: RobotParams) -> np.ndarray:
    """Steering-axis locations in the body frame, one row per wheel."""
    a2, b2 = params.a / 2.0, params.b / 2.0
    return np.array([
        [a2, -b2, 0.0],
        [a2, b2, 0.0],
        [-a2, b2, 0.0],
        [-a2, -b2, 0.0],
    ])


def wheel_offsets(params: RobotParams, s: SteeringState) -> np.ndarray:
    """Axle offsets from steering axis to wheel center, per wheel."""
    d = s.delta
    out = np.zeros((4, 3))
    out[:, 0] = params.c * FRAME_SIGNS * np.sin(d)
    out[:, 1] = -params.c * FRAME_SIGNS * np.cos(d)
    return out


def wheel_centers(params: RobotParams, s: SteeringState) -> np.ndarray:
    return steer_points(params) + wheel_offsets(params, s)


@dataclass(frozen=True)
class InertiaReflection:
    """Wheel masses reflected to the base inertia [kg·m²]; functions of
    the symmetric steering angles.  Planar mass layout gives
    j_zz = j_xx + j_yy."""

    j_xx: float
    j_yy: float
    j_zz: float


def reflected_inertia(params: RobotParams, s: SteeringState) -> InertiaReflection:
    """Closed-form reflection of the four wheel masses.

    Requires flight-symmetric steering; the pair structure collapses the
    four-wheel sum onto delta_1 and delta_2.
    """
    s.require_flight_symmetric()
    d1, d2 = float(s.delta[0]), float(s.delta[1])
    m = params.wheel_mass
    a2, b2, c = params.a / 2.0, params.b / 2.0, params.c
    j_xx = 2.0 * m * ((b2 + c * np.cos(d1)) ** 2 + (b2 + c * np.cos(d2)) ** 2)
    j_yy = 2.0 * m * ((a2 + c * np.sin(d1)) ** 2 + (a2 - c * np.sin(d2)) ** 2)
    return InertiaReflection(j_xx=float(j_xx), j_yy=float(j_yy), j_zz=float(j_xx + j_yy))


def _wheel_axle_weights(s: SteeringState) -> tuple[float, float]:
    """Axle-normal inertia reaction weights for the roll and pitch axes."""
    d1, d2 = float(s.delta[0]), float(s.delta[1])
    return 2.0 * (np.cos(d1) + np.cos(d2)), 2.0 * (np.sin(d1) - np.sin(d2))


def effective_inertia(params: RobotParams, s: SteeringState) -> np.ndarray:
    """Diagonal model inertia (Jx*, Jy*, Jz*) at a symmetric configuration."""
    refl = reflected_inertia(params, s)
    w_x, w_y = _wheel_axle_weights(s)
    return np.array([
        params.j_bxx + refl.j_xx + params.j_wxx * w_x,
        params.j_byy + refl.j_yy + params.j_wxx * w_y,
        params.j_bzz,
    ])


def _drive_torque_columns(s: SteeringState) -> np.ndarray:
    """Per-wheel base reaction direction for unit drive torque (rows)."""
    d = s.delta
    cols = np.zeros((4, 3))
    cols[:, 0] = -FRAME_SIGNS * np.cos(d)
    cols[:, 1] = FRAME_SIGNS * np.sin(d)
    return cols


def net_drive_torque(s: SteeringState, cmd: TorqueCommand) -> np.ndarray:
    """Sum of per-wheel drive reactions plus the steering couple."""
    directions = _drive_torque_columns(s)
    total = directions.T @ cmd.tau
    total[2] += 4.0 * cmd.tau_delta
    return total


def angular_acceleration(
    state: BodyState,
    s: SteeringState,
    cmd: TorqueCommand,
    params: RobotParams,
) -> np.ndarray:
    """Closed-form body angular acceleration (Wx_dot, Wy_dot, Wz_dot).

    Assembles the input torque through the (alpha, beta) trig-identity
    Jacobian; the oracle instead sums per-wheel reaction directions in
    the raw steering angles, so agreement between the two exercises the
    angle-addition identities rather than shared code.
    """
    kernel = FlightKernel(s, params)
    kernel.set_command(cmd)
    return np.array(kernel.derivative(state.flat())[10:13])


@dataclass(frozen=True)
class ReactionLoads:
    """Per-wheel loads on the base, for inspection and tests.

    f_b: 4x3 reaction forces at the steering points [N] (ballistic phase:
    the gravity and base-acceleration parts cancel exactly, leaving the
    rotational terms).  tau_x: axle-normal reaction scalars bookkept on
    the roll channel [N·m].  tau_b: 4x3 drive+steer reaction torques.
    """

    f_b: np.ndarray
    tau_x: np.ndarray
    tau_b: np.ndarray


def oracle_newton_euler(
    state: BodyState,
    s: SteeringState,
    cmd: TorqueCommand,
    params: RobotParams,
) -> tuple[np.ndarray, ReactionLoads]:
    """Numerically assembled dynamics; the reference for the closed form.

    Builds the mass matrix and right-hand side from per-wheel vector sums
    and solves the 3x3 system for W_dot.  W_dot-dependent reaction terms
    (wheel forces through the parallel-axis sum, axle reactions through
    the rolling-direction channels) are moved onto the left-hand side.
    """
    s.require_flight_symmetric()
    cmd.require_flight_symmetric()
    omega = state.omega

    centers = wheel_centers(params, s)
    # Parallel-axis reflection of the wheel masses, diagonal part.  The
    # model keeps the reflection diagonal; products of inertia vanish at
    # beta = 0 and are not carried by the diagonal EOMs.
    reflect = np.zeros((3, 3))
    for r in centers:
        reflect += params.wheel_mass * (float(r @ r) * np.eye(3) - np.outer(r, r))
    reflect = np.diag(np.diag(reflect))

    jac_reaction = torque_jacobian_reaction(s)
    axle_x = params.j_wxx * float(jac_reaction[0] @ FRAME_SIGNS)
    axle_y = params.j_wxx * float(jac_reaction[1] @ FORE_AFT_SIGNS)

    mass = np.diag([params.j_bxx, params.j_byy, params.j_bzz]).astype(float)
    mass[:2, :2] += reflect[:2, :2]
    mass[0, 0] += axle_x
    mass[1, 1] += axle_y
    # Yaw books the base alone; the steering couple is external to the
    # wheel-module swing dynamics, which this model does not carry.

    if np.linalg.det(mass) <= 0.0 or mass[0, 0] <= 0.0 or mass[1, 1] <= 0.0:
        raise SingularMassMatrix(f"effective inertia not positive: {np.diag(mass)}")

    torque = net_drive_torque(s, cmd)
    gyro = np.cross(omega, np.diag(mass) * omega)
    omega_dot = np.linalg.solve(mass, torque - gyro)

    # Reaction loads at the solved acceleration.  Gravity and base
    # acceleration enter each wheel force as -m(a_ob + gZ) = 0 in
    # ballistic flight; the symmetric layout also cancels their moments
    # pairwise, which test_dynamics checks explicitly.
    f_b = np.zeros((4, 3))
    for i, r in enumerate(centers):
        f_b[i] = -params.wheel_mass * (
            np.cross(omega_dot, r) + np.cross(omega, np.cross(omega, r))
        )
    tau_x = -params.j_wxx * FRAME_SIGNS * omega_dot[0]
    drive_dirs = _drive_torque_columns(s)
    tau_b = drive_dirs * cmd.tau[:, None]
    tau_b[:, 2] += cmd.tau_delta
    return omega_dot, ReactionLoads(f_b=f_b, tau_x=tau_x, tau_b=tau_b)


def torque_jacobian_reaction(s: SteeringState) -> np.ndarray:
    """Rolling-direction matrix: columns map per-wheel axle-normal
    reaction torques into body axes."""
    d = s.delta
    out = np.zeros((3, 4))
    out[0] = FRAME_SIGNS * np.cos(d)
    out[1] = FRAME_SIGNS * np.sin(d)
    return out


class NonFiniteState(Exception):
    """Integration produced NaN or Inf; carries the offending time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.6f} s")
        self.t = t


class FlightKernel:
    """Flight physics at one locked steering configuration.

    Built once per steering configuration, it holds the effective
    inertia, the full torque Jacobian, the wheel spin axes, gravity and
    the body-frame wheel centers.  ``set_command`` fixes the command held
    over a control tick; ``step`` then advances a flat state of 17 floats
    (r_ob, v_ob, quat, omega, wheel_speed) by one classical RK4 step.

    The scalar arithmetic repeats the array formulation operation for
    operation (``np.cross`` order for the gyroscopic term, the
    ``quat_multiply`` order including its zero products), and the wheel
    term keeps the numpy matrix-vector product, so trajectories match the
    array formulation bit for bit.
    """

    def __init__(self, s: SteeringState, params: RobotParams):
        from .kinematics import submovements_from_steering, torque_jacobian

        self.inertia = effective_inertia(params, s).tolist()
        self.full = torque_jacobian(submovements_from_steering(s)).full
        # Spin axes are the negated drive-reaction directions.
        self.spin_axes = -_drive_torque_columns(s)
        self.accel = (params.g * GRAVITY_DIR).tolist()
        self.centers = wheel_centers(params, s)
        self.j_wyy = params.j_wyy
        # No attitude brings a wheel to the ground while the base is
        # higher than this; the relative margin covers the rounding of
        # the exact contact-height arithmetic.
        reach = float(np.linalg.norm(self.centers, axis=1).max()) + params.wheel_radius
        self.contact_reach = reach * (1.0 + 1e-9)

    def set_command(self, cmd: TorqueCommand) -> None:
        """Hold ``cmd`` for the following steps; required before ``step``."""
        cmd.require_flight_symmetric()
        pair = np.array([cmd.tau[0], cmd.tau[1], cmd.tau_delta])
        self.torque = (self.full @ pair).tolist()
        self.tau_over_j = cmd.tau / self.j_wyy

    def derivative(self, y) -> list[float]:
        """Time derivative of a flat state under the held command.

        Wheel reactions are internal, so translation is pure gravity.
        Wheel spin integrates the drive torque against the spin inertia
        minus the base angular-acceleration component along each spin
        axis; the spin state exists to let the simulator enforce wheel
        speed limits and does not feed back into the base dynamics.
        """
        vx, vy, vz = y[3], y[4], y[5]
        qw, qx, qy, qz = y[6], y[7], y[8], y[9]
        ox, oy, oz = y[10], y[11], y[12]
        ix, iy, iz = self.inertia
        tx, ty, tz = self.torque
        hx, hy, hz = ix * ox, iy * oy, iz * oz
        odx = (tx - (oy * hz - oz * hy)) / ix
        ody = (ty - (oz * hx - ox * hz)) / iy
        odz = (tz - (ox * hy - oy * hx)) / iz
        wheel = self.tau_over_j - self.spin_axes @ np.array([odx, ody, odz])
        return [
            vx, vy, vz, *self.accel,
            0.5 * (qw * 0.0 - qx * ox - qy * oy - qz * oz),
            0.5 * (qw * ox + qx * 0.0 + qy * oz - qz * oy),
            0.5 * (qw * oy - qx * oz + qy * 0.0 + qz * ox),
            0.5 * (qw * oz + qx * oy - qy * ox + qz * 0.0),
            odx, ody, odz, *wheel.tolist(),
        ]

    def step(self, y, dt: float) -> list[float]:
        """One RK4 step of length ``dt``; renormalizes the quaternion.

        Raises NonFiniteState (carrying ``dt``) if any component leaves
        the finite range or the quaternion degenerates.
        """
        half = 0.5 * dt
        k1 = self.derivative(y)
        k2 = self.derivative([a + half * b for a, b in zip(y, k1)])
        k3 = self.derivative([a + half * b for a, b in zip(y, k2)])
        k4 = self.derivative([a + dt * b for a, b in zip(y, k3)])
        sixth = dt / 6.0
        y1 = [
            a + sixth * (p + 2.0 * q + 2.0 * r + w)
            for a, p, q, r, w in zip(y, k1, k2, k3, k4)
        ]
        if not all(map(math.isfinite, y1)):
            raise NonFiniteState("non-finite state after RK4 step", t=dt)
        quat = np.array(y1[6:10])
        quat_norm = float(np.linalg.norm(quat))
        if not math.isfinite(quat_norm) or quat_norm < 1e-12:
            # Divergence can zero the quaternion by cancellation or push
            # its norm past the float range while every component stays
            # finite.
            raise NonFiniteState("quaternion degenerated during RK4 step", t=dt)
        y1[6:10] = (quat / quat_norm).tolist()
        return y1

