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
import struct
from dataclasses import dataclass

import numpy as np

from .kinematics import steering_angles, torque_jacobian
from .params import RobotParams
from .state import NormBuffer, SubmovementParams, quat_to_matrix

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


def wheel_offsets(params: RobotParams, sub: SubmovementParams) -> np.ndarray:
    """Axle offsets from steering axis to wheel center, per wheel."""
    d = np.array(steering_angles(sub))
    out = np.zeros((4, 3))
    out[:, 0] = params.c * FRAME_SIGNS * np.sin(d)
    out[:, 1] = -params.c * FRAME_SIGNS * np.cos(d)
    return out


def wheel_centers(params: RobotParams, sub: SubmovementParams) -> np.ndarray:
    return steer_points(params) + wheel_offsets(params, sub)


@dataclass(frozen=True)
class InertiaReflection:
    """Wheel masses reflected to the base inertia [kg·m²]; functions of
    the steering configuration.  Planar mass layout gives
    j_zz = j_xx + j_yy."""

    j_xx: float
    j_yy: float
    j_zz: float


def reflected_inertia(params: RobotParams, sub: SubmovementParams) -> InertiaReflection:
    """Closed-form reflection of the four wheel masses; the pair structure
    collapses the four-wheel sum onto delta_1 and delta_2."""
    d1, d2, _, _ = steering_angles(sub)
    m = params.wheel_mass
    a2, b2, c = params.a / 2.0, params.b / 2.0, params.c
    j_xx = 2.0 * m * ((b2 + c * np.cos(d1)) ** 2 + (b2 + c * np.cos(d2)) ** 2)
    j_yy = 2.0 * m * ((a2 + c * np.sin(d1)) ** 2 + (a2 - c * np.sin(d2)) ** 2)
    return InertiaReflection(j_xx=float(j_xx), j_yy=float(j_yy), j_zz=float(j_xx + j_yy))


def _wheel_axle_weights(sub: SubmovementParams) -> tuple[float, float]:
    """Axle-normal inertia reaction weights for the roll and pitch axes."""
    d1, d2, _, _ = steering_angles(sub)
    return 2.0 * (np.cos(d1) + np.cos(d2)), 2.0 * (np.sin(d1) - np.sin(d2))


def effective_inertia(params: RobotParams, sub: SubmovementParams) -> np.ndarray:
    """Diagonal model inertia (Jx*, Jy*, Jz*) at a steering configuration."""
    refl = reflected_inertia(params, sub)
    w_x, w_y = _wheel_axle_weights(sub)
    return np.array([
        params.j_bxx + refl.j_xx + params.j_wxx * w_x,
        params.j_byy + refl.j_yy + params.j_wxx * w_y,
        params.j_bzz,
    ])


def _drive_torque_columns(sub: SubmovementParams) -> np.ndarray:
    """Per-wheel base reaction direction for unit drive torque (rows)."""
    d = np.array(steering_angles(sub))
    cols = np.zeros((4, 3))
    cols[:, 0] = -FRAME_SIGNS * np.cos(d)
    cols[:, 1] = FRAME_SIGNS * np.sin(d)
    return cols


def angular_acceleration(
    state, sub: SubmovementParams, command, params: RobotParams
) -> np.ndarray:
    """Closed-form body angular acceleration (Wx_dot, Wy_dot, Wz_dot) of
    the flat body state ``state`` under the flight command ``(tau_1,
    tau_2, tau_delta)``.

    Assembles the input torque through the (alpha, beta) trig-identity
    Jacobian; the oracle instead sums per-wheel reaction directions in
    the raw steering angles, so agreement between the two exercises the
    angle-addition identities rather than shared code.
    """
    kernel = FlightKernel(sub, params)
    kernel.set_command(*command)
    # The last three of ``FlightKernel.advance_lanes``' stage rates.
    ix, iy, iz = kernel.inertia
    tx, ty, tz = kernel.torque
    ox, oy, oz = state[10:13]
    mx, my, mz = ix * ox, iy * oy, iz * oz
    return np.array([
        (tx - (oy * mz - oz * my)) / ix,
        (ty - (oz * mx - ox * mz)) / iy,
        (tz - (ox * my - oy * mx)) / iz,
    ])


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
    state, sub: SubmovementParams, command, params: RobotParams
) -> tuple[np.ndarray, ReactionLoads]:
    """Numerically assembled dynamics of the flat body state ``state``;
    the reference for the closed form.

    Expands the flight command ``(tau_1, tau_2, tau_delta)`` to the four
    wheel torques (tau_1, tau_2, -tau_1, -tau_2), builds the mass matrix
    and right-hand side from per-wheel vector sums and solves the 3x3
    system for W_dot.  W_dot-dependent reaction terms (wheel forces
    through the parallel-axis sum, axle reactions through the
    rolling-direction channels) are moved onto the left-hand side.
    """
    tau_1, tau_2, tau_delta = command
    tau = np.array([tau_1, tau_2, -tau_1, -tau_2], dtype=float)
    omega = np.array(state[10:13], dtype=float)

    centers = wheel_centers(params, sub)
    # Parallel-axis reflection of the wheel masses, diagonal part.  The
    # model keeps the reflection diagonal; products of inertia vanish at
    # beta = 0 and are not carried by the diagonal EOMs.
    reflect = np.zeros((3, 3))
    for r in centers:
        reflect += params.wheel_mass * (float(r @ r) * np.eye(3) - np.outer(r, r))
    reflect = np.diag(np.diag(reflect))

    jac_reaction = torque_jacobian_reaction(sub)
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

    # Per-wheel drive reactions in the raw steering angles, plus the
    # steering couple.
    drive_dirs = _drive_torque_columns(sub)
    torque = drive_dirs.T @ tau
    torque[2] += 4.0 * tau_delta
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
    tau_b = drive_dirs * tau[:, None]
    tau_b[:, 2] += tau_delta
    return omega_dot, ReactionLoads(f_b=f_b, tau_x=tau_x, tau_b=tau_b)


def torque_jacobian_reaction(sub: SubmovementParams) -> np.ndarray:
    """Rolling-direction matrix: columns map per-wheel axle-normal
    reaction torques into body axes."""
    d = np.array(steering_angles(sub))
    out = np.zeros((3, 4))
    out[0] = FRAME_SIGNS * np.cos(d)
    out[1] = FRAME_SIGNS * np.sin(d)
    return out


# The IEEE bits of a step's seven rotation floats (quat, omega).
_ROTATION_BITS = struct.Struct("7d").pack

NONFINITE_STEP = "non-finite state after RK4 step"
DEGENERATE_STEP = "quaternion degenerated during RK4 step"


class NonFiniteState(Exception):
    """Integration produced NaN or Inf; carries the offending time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.6f} s")
        self.message = message
        self.t = t

    def __reduce__(self):
        # Rebuild from the constructor's arguments, so the exception
        # survives the trip back from a worker process.
        return type(self), (self.message, self.t)


def lowest_contact(
    z: float, quat, centers: np.ndarray, wheel_radius: float
) -> float:
    """Height above the ground plane of the lowest wheel contact point of
    a base at height ``z`` and attitude ``quat`` with body-frame wheel
    ``centers``."""
    centers_world_z = z + (quat_to_matrix(quat) @ centers.T)[2]
    return float(centers_world_z.min() - wheel_radius)


class FlightKernel:
    """Flight physics at one locked steering configuration ``sub``.

    Built once per steering configuration, it holds the effective
    inertia, the full torque Jacobian, the wheel spin axes, gravity and
    the body-frame wheel centers.  ``set_command`` fixes the command held
    over a control tick as plain floats; ``advance_lanes`` then takes
    flat states of 17 floats (r_ob, v_ob, quat, omega, wheel_speed) that
    differ only in r_ob and v_ob through all of the tick's classical RK4
    steps in one call: the attitude once, then the wheel speeds, then
    each state's position and velocity along that history.  When the
    tick's first step leaves the attitude as it was, bit for bit, every
    later step is that step again, so a held attitude is integrated
    once per tick.  ``step`` is ``advance_lanes`` for one state and one
    step.

    The scalar arithmetic repeats the array formulation operation for
    operation (``np.cross`` order for the gyroscopic term, the
    ``quat_multiply`` order including its zero products, numpy's dot for
    the quaternion norm, formed on a buffer the kernel owns), and the
    wheel term keeps numpy's matrix-vector product, formed for every
    stage of every step of a call in one stacked product, so trajectories
    match the array formulation bit for bit.  Like the held command, the
    buffer is the kernel's own: a kernel serves one thread.
    """

    def __init__(self, sub: SubmovementParams, params: RobotParams):
        self.inertia = effective_inertia(params, sub).tolist()
        # The Jacobian the controller allocates with.
        self.full = torque_jacobian(sub).full
        # The wheel spin axes, the negated drive-reaction directions, as
        # a stack of one: one matmul then forms the products of any number
        # of RK4 stages, each bit for bit the per-stage
        # ``spin_axes @ omega_dot`` (a flattened ``spin_axes @ od.T`` or
        # an einsum would round differently).
        self._spin_stack = -_drive_torque_columns(sub)[None]
        # Gravity's vertical part; it has no horizontal one, which the
        # lane pass of ``advance_lanes`` relies on.
        self.accel_z = -params.g
        self.centers = wheel_centers(params, sub)
        # The operand of each step's quaternion norm.
        self._norms = NormBuffer()
        self.j_wyy = params.j_wyy
        self.wheel_radius = params.wheel_radius
        self.center_reach = float(np.linalg.norm(self.centers, axis=1).max())
        # No attitude brings a wheel to the ground while the base is
        # higher than this; the relative margin covers the rounding of
        # the exact contact-height arithmetic.
        self.contact_reach = (self.center_reach + params.wheel_radius) * (1.0 + 1e-9)

    def may_touch_ground(self, y) -> bool:
        """False when no wheel of flat state ``y`` can reach the ground, so
        the exact contact height need not be formed.

        The wheel centers lie in the body x-y plane, so none sits lower
        than the base by more than sin(tilt) times the largest center
        distance, sin(tilt) being the length of the body x-y part of the
        world vertical (the third row of R(q)).  Margins as for
        ``contact_reach``.
        """
        z = y[2]
        if z > self.contact_reach:
            return False
        qw, qx, qy, qz = y[6], y[7], y[8], y[9]
        up_x = 2.0 * (qx * qz - qw * qy)
        up_y = 2.0 * (qy * qz + qw * qx)
        sin_tilt = math.sqrt(up_x * up_x + up_y * up_y)
        reach = sin_tilt * self.center_reach + self.wheel_radius
        return z - reach <= 1e-9 * (abs(z) + reach)

    def clearance(self, y) -> float:
        """Height of the lowest wheel contact point of flat state ``y``
        above the ground plane."""
        return lowest_contact(y[2], y[6:10], self.centers, self.wheel_radius)

    def set_command(self, tau_1: float, tau_2: float, tau_delta: float) -> None:
        """Hold the flight-symmetric command (tau_1, tau_2, -tau_1, -tau_2)
        with steering torque ``tau_delta`` for the following steps;
        required before ``advance_lanes`` and ``step``."""
        self.torque = (self.full @ np.array([tau_1, tau_2, tau_delta])).tolist()
        j = self.j_wyy
        self.tau_over_j = [tau_1 / j, tau_2 / j, -tau_1 / j, -tau_2 / j]

    def step(self, y, dt: float) -> list[float]:
        """One RK4 step of length ``dt`` from flat state ``y``:
        ``advance_lanes`` for one lane and one step.  Raises
        NonFiniteState, with ``t`` = 0.0, if any of the 17 stepped values
        leaves the finite range or the quaternion degenerates."""
        [(state, _, failure)] = self.advance_lanes([y], dt, 1)
        if failure is not None or not all(map(math.isfinite, state)):
            raise NonFiniteState(failure or NONFINITE_STEP, t=0.0)
        return state

    def advance_lanes(
        self, ys, dt: float, steps: int, stop_at_ground: bool = False
    ) -> list[tuple[list[float] | None, int, str | None]]:
        """Up to ``steps`` RK4 steps of length ``dt`` for each flat state
        of ``ys``, renormalizing the quaternion after each.

        The states are lanes: they share ``y[6:17]`` (attitude, body
        rates, wheel speeds) and differ at most in position and velocity,
        which feed back into nothing.  Returns one (state, taken,
        failure) per lane, in order, each what the lane alone would give:

        - (state after ``steps`` steps, ``steps``, None);
        - with ``stop_at_ground``, (state, ``taken``, None) when a wheel
          is on or below the ground at the end of step ``taken`` + 1,
          the state being that step's pre-step state;
        - (None, ``taken``, message) when the shared rates or wheel
          speeds leave the finite range or the quaternion degenerates in
          step ``taken`` + 1, the earliest such step.

        Three passes make the tick.  The attitude pass integrates the
        seven rotation states in scalar locals, the four stage
        evaluations written out in the loop, through every step of the
        tick and records them after each, up to the first step whose
        rates leave the finite range or whose quaternion degenerates.  A
        held attitude ends it early: when the first step leaves the seven
        floats bit for bit as they were, every later step is the same
        function of the same operands under the same command, so the pass
        repeats that step's result and stage rates instead of recomputing
        them.  The wheel pass forms the wheel rates of every stage of
        every recorded step in one stacked product (of the one step, when
        held), accumulates the wheel speeds step after step as in a
        step-by-step run, and cuts the history at the first step whose
        wheel speeds leave the finite range.  The lane pass then steps
        each lane's position and velocity along the history, up to its
        first step that ends with a wheel on the ground (the exact
        contact height is formed only where ``may_touch_ground`` allows
        contact) or the end of the history and its failing step, if any,
        with no finiteness test: a lane is a validated release.  Gravity
        has no horizontal part, so each step adds one constant to x and
        to y.
        """
        ix, iy, iz = self.inertia
        tx, ty, tz = self.torque
        quat, quat_square = self._norms.values, self._norms.square4
        half = 0.5 * dt
        sixth = dt / 6.0
        # (qw, qx, qy, qz, ox, oy, oz) at the start of each step and after
        # the last; ``failure`` is the message of the step after them, if
        # that step failed.
        start = tuple(ys[0][6:13])
        attitudes = [start]
        qw, qx, qy, qz, ox, oy, oz = start
        omega_dots = []
        # How often the wheel pass repeats the recorded stage rates:
        # ``steps`` times when the first step holds the attitude.
        repeats = 1
        failure = None
        for step in range(steps):
            # The stage rates (quat_dot, omega_dot) as letters a to g,
            # stage number last, each the ``quat_multiply`` and
            # ``np.cross`` arithmetic at the stage's point (sw, sx, sy, sz,
            # rx, ry, rz) with angular momentum (mx, my, mz).
            mx, my, mz = ix * ox, iy * oy, iz * oz
            a1 = 0.5 * (qw * 0.0 - qx * ox - qy * oy - qz * oz)
            b1 = 0.5 * (qw * ox + qx * 0.0 + qy * oz - qz * oy)
            c1 = 0.5 * (qw * oy - qx * oz + qy * 0.0 + qz * ox)
            d1 = 0.5 * (qw * oz + qx * oy - qy * ox + qz * 0.0)
            e1 = (tx - (oy * mz - oz * my)) / ix
            f1 = (ty - (oz * mx - ox * mz)) / iy
            g1 = (tz - (ox * my - oy * mx)) / iz
            sw, sx, sy, sz = qw + half * a1, qx + half * b1, qy + half * c1, qz + half * d1
            rx, ry, rz = ox + half * e1, oy + half * f1, oz + half * g1
            mx, my, mz = ix * rx, iy * ry, iz * rz
            a2 = 0.5 * (sw * 0.0 - sx * rx - sy * ry - sz * rz)
            b2 = 0.5 * (sw * rx + sx * 0.0 + sy * rz - sz * ry)
            c2 = 0.5 * (sw * ry - sx * rz + sy * 0.0 + sz * rx)
            d2 = 0.5 * (sw * rz + sx * ry - sy * rx + sz * 0.0)
            e2 = (tx - (ry * mz - rz * my)) / ix
            f2 = (ty - (rz * mx - rx * mz)) / iy
            g2 = (tz - (rx * my - ry * mx)) / iz
            sw, sx, sy, sz = qw + half * a2, qx + half * b2, qy + half * c2, qz + half * d2
            rx, ry, rz = ox + half * e2, oy + half * f2, oz + half * g2
            mx, my, mz = ix * rx, iy * ry, iz * rz
            a3 = 0.5 * (sw * 0.0 - sx * rx - sy * ry - sz * rz)
            b3 = 0.5 * (sw * rx + sx * 0.0 + sy * rz - sz * ry)
            c3 = 0.5 * (sw * ry - sx * rz + sy * 0.0 + sz * rx)
            d3 = 0.5 * (sw * rz + sx * ry - sy * rx + sz * 0.0)
            e3 = (tx - (ry * mz - rz * my)) / ix
            f3 = (ty - (rz * mx - rx * mz)) / iy
            g3 = (tz - (rx * my - ry * mx)) / iz
            sw, sx, sy, sz = qw + dt * a3, qx + dt * b3, qy + dt * c3, qz + dt * d3
            rx, ry, rz = ox + dt * e3, oy + dt * f3, oz + dt * g3
            mx, my, mz = ix * rx, iy * ry, iz * rz
            a4 = 0.5 * (sw * 0.0 - sx * rx - sy * ry - sz * rz)
            b4 = 0.5 * (sw * rx + sx * 0.0 + sy * rz - sz * ry)
            c4 = 0.5 * (sw * ry - sx * rz + sy * 0.0 + sz * rx)
            d4 = 0.5 * (sw * rz + sx * ry - sy * rx + sz * 0.0)
            e4 = (tx - (ry * mz - rz * my)) / ix
            f4 = (ty - (rz * mx - rx * mz)) / iy
            g4 = (tz - (rx * my - ry * mx)) / iz
            qw1 = qw + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            qx1 = qx + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            qy1 = qy + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            qz1 = qz + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            ox = ox + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
            oy = oy + sixth * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            oz = oz + sixth * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
            # x * 0.0 is 0.0 exactly when x is finite; the quaternion
            # norm covers the quaternion.
            if (ox * 0.0 + oy * 0.0 + oz * 0.0) != 0.0:
                failure = NONFINITE_STEP
                break
            quat[0], quat[1], quat[2], quat[3] = qw1, qx1, qy1, qz1
            quat_norm = math.sqrt(quat_square())
            if not 1e-12 <= quat_norm < math.inf:
                # Divergence can zero the quaternion by cancellation or
                # push its norm past the float range while every
                # component stays finite.
                failure = DEGENERATE_STEP
                break
            omega_dots += (e1, f1, g1, e2, f2, g2, e3, f3, g3, e4, f4, g4)
            qw, qx, qy, qz = (
                qw1 / quat_norm, qx1 / quat_norm, qy1 / quat_norm, qz1 / quat_norm
            )
            attitude = (qw, qx, qy, qz, ox, oy, oz)
            attitudes.append(attitude)
            # A held attitude: == first, which is fast and refuses NaN,
            # then the bits, which tell -0.0 from 0.0.
            if (
                step == 0
                and steps > 1
                and attitude == start
                and _ROTATION_BITS(*attitude) == _ROTATION_BITS(*start)
            ):
                attitudes += [attitude] * (steps - 1)
                repeats = steps
                break

        # spin_axes @ omega_dot of each stage, stage after stage; each
        # stage's wheel rate is tau / j_wyy minus its product.  ``wheels``
        # holds the wheel speeds at the start of each step and after the
        # last.
        spin = np.matmul(
            self._spin_stack, np.array(omega_dots).reshape(-1, 3, 1)
        ).ravel().tolist() * repeats
        j1, j2, j3, j4 = self.tau_over_j
        wheels = [ys[0][13:17]]
        w1, w2, w3, w4 = wheels[0]
        for i in range(len(spin) // 16):
            # The four wheels' products at stages 1 (p) to 4 (s).
            (p1, p2, p3, p4, q1, q2, q3, q4,
             r1, r2, r3, r4, s1, s2, s3, s4) = spin[16 * i:16 * i + 16]
            w1 = w1 + sixth * ((j1 - p1) + 2.0 * (j1 - q1) + 2.0 * (j1 - r1) + (j1 - s1))
            w2 = w2 + sixth * ((j2 - p2) + 2.0 * (j2 - q2) + 2.0 * (j2 - r2) + (j2 - s2))
            w3 = w3 + sixth * ((j3 - p3) + 2.0 * (j3 - q3) + 2.0 * (j3 - r3) + (j3 - s3))
            w4 = w4 + sixth * ((j4 - p4) + 2.0 * (j4 - q4) + 2.0 * (j4 - r4) + (j4 - s4))
            if (w1 * 0.0 + w2 * 0.0 + w3 * 0.0 + w4 * 0.0) != 0.0:
                # The history ends before step i, which fails.
                del attitudes[i + 1:]
                failure = NONFINITE_STEP
                break
            wheels.append((w1, w2, w3, w4))

        # Gravity is the vertical velocity rate at every stage: its
        # velocity increments at the midpoint stages and the last, and its
        # RK4 sum.
        az = self.accel_z
        hz, fz = half * az, dt * az
        dvz = sixth * (az + 2.0 * az + 2.0 * az + az)
        reach = self.contact_reach
        # The steps in the history; the failing step follows them, if any.
        recorded = len(attitudes) - 1
        results = []
        for y in ys:
            px, py, pz, vx, vy, vz = y[:6]
            # With no horizontal gravity every stage's x velocity is
            # vx + 0.0, which is vx but for -0.0, and so is vx after a
            # step; each step adds its RK4 sum cx to px.  Likewise for y.
            ux, uy = vx + 0.0, vy + 0.0
            cx = sixth * (ux + 2.0 * ux + 2.0 * ux + ux)
            cy = sixth * (uy + 2.0 * uy + 2.0 * uy + uy)
            for i in range(recorded):
                # Stages 2 and 3 share their velocity.
                vz2 = vz + hz
                px1, py1 = px + cx, py + cy
                pz1 = pz + sixth * (vz + 2.0 * vz2 + 2.0 * vz2 + (vz + fz))
                vz1 = vz + dvz
                if stop_at_ground and pz1 <= reach:
                    base = (px1, py1, pz1, ux, uy, vz1, *attitudes[i + 1])
                    if self.may_touch_ground(base) and self.clearance(base) <= 0.0:
                        state = [px, py, pz, vx, vy, vz, *attitudes[i], *wheels[i]]
                        results.append((state, i, None))
                        break
                px, py, pz, vx, vy, vz = px1, py1, pz1, ux, uy, vz1
            else:
                state = [px, py, pz, vx, vy, vz, *attitudes[-1], *wheels[-1]]
                results.append(
                    (state, steps, None) if failure is None else (None, recorded, failure)
                )
        return results
