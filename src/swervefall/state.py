"""State representations: orientation, body state, steering and body torque.

Conventions:
    * Body frame: x forward, y left, z up (right-handed).  World frame has
      Z up; gravity is -Z.
    * Orientation is a unit quaternion (w, x, y, z), body-to-world, and is
      the integrated representation.  Euler angles are a Z-Y-X (yaw-pitch-
      roll) output view only: roll phi about x, pitch theta about y, yaw
      psi about z.  Positive pitch tips the nose down in this frame.
    * Wheels are numbered 1..4 at steering points (+a/2,-b/2), (+a/2,+b/2),
      (-a/2,+b/2), (-a/2,-b/2); diagonal pairs are (1,3) and (2,4).
    * Steering angles delta_i measure deviation from the forward driving
      direction; the brackets of wheels 2 and 3 are mounted pi-rotated, so
      their frame angle is delta_i + pi.

All types but ``NormBuffer``, a run's scratch buffer for numpy's dot,
are frozen value objects; the array-valued ones hold read-only numpy
arrays.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

SYMMETRY_TOL = 1e-9
GIMBAL_PROXIMITY_DEG = 89.0


class AsymmetricSteering(Exception):
    """Steering state violates the flight symmetry d1=d3, d2=d4."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return float((angle + math.pi) % (2.0 * math.pi) - math.pi)


def _frozen(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(shape)
    arr.setflags(write=False)
    return arr


# --- quaternions ------------------------------------------------------------

class NormBuffer:
    """Euclidean norms of three and four floats by numpy's dot, formed on
    a buffer the object owns.

    A float vector's ``np.linalg.norm`` is ``sqrt(x.dot(x))``, and a sum
    of squares in Python can differ from that dot in the last bit; but
    building an array for each vector costs more than the dot itself.
    ``values`` is an ``array('d')`` of four floats that numpy views, and
    ``square4()`` and ``square3()`` are the dot of the view of all four,
    or of the first three, with itself: the same BLAS call on the same
    operands, so the same bits.  Write the vector into ``values``, then
    call.  The buffer is never resized (a live view forbids it).  A run
    builds its own, so runs in concurrent threads never share operands.
    """

    __slots__ = ("values", "square4", "square3")

    def __init__(self) -> None:
        self.values = array("d", bytes(32))
        four = np.frombuffer(self.values)
        three = four[:3]
        self.square4 = partial(four.dot, four)
        self.square3 = partial(three.dot, three)

    def unit(self, q) -> tuple[float, float, float, float]:
        """The quaternion ``q``, four numbers, divided by its norm."""
        values = self.values
        values[0], values[1], values[2], values[3] = q
        norm = math.sqrt(self.square4())
        if norm < 1e-12:
            raise ValueError("cannot normalize near-zero quaternion")
        # Spelled out: a comprehension costs more than four divisions.
        w, x, y, z = values
        return w / norm, x / norm, y / norm, z / norm

    def norm3(self, v) -> float:
        """The norm of three floats ``v``, bit for bit ``np.linalg.norm(v)``."""
        values = self.values
        values[0], values[1], values[2] = v
        return math.sqrt(self.square3())


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return np.array(NormBuffer().unit(q))


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix R such that v_world = R @ v_body."""
    w, x, y, z = NormBuffer().unit(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_euler(phi: float, theta: float, psi: float) -> np.ndarray:
    """Unit quaternion for intrinsic Z-Y-X angles (yaw, pitch, roll)."""
    cphi, sphi = math.cos(phi / 2), math.sin(phi / 2)
    cth, sth = math.cos(theta / 2), math.sin(theta / 2)
    cpsi, spsi = math.cos(psi / 2), math.sin(psi / 2)
    qz = np.array([cpsi, 0.0, 0.0, spsi])
    qy = np.array([cth, 0.0, sth, 0.0])
    qx = np.array([cphi, sphi, 0.0, 0.0])
    return quat_multiply(quat_multiply(qz, qy), qx)


@dataclass(frozen=True)
class EulerAngles:
    """Z-Y-X angles [rad] with a gimbal-proximity warning flag."""

    phi: float
    theta: float
    psi: float
    gimbal_proximity: bool = False


def euler_angles(q) -> tuple[float, float, float]:
    """Z-Y-X angles (phi, theta, psi) as floats; theta is clamped to
    [-pi/2, pi/2]."""
    return unit_euler_angles(*NormBuffer().unit(q))


def unit_euler_angles(w, x, y, z) -> tuple[float, float, float]:
    """``euler_angles`` of the unit quaternion (w, x, y, z)."""
    # max(-1.0, min(1.0, s)) test for test; cheaper than the two calls.
    sin_theta = 2.0 * (w * y - z * x)
    sin_theta = sin_theta if sin_theta < 1.0 else 1.0
    sin_theta = sin_theta if sin_theta > -1.0 else -1.0
    theta = math.asin(sin_theta)
    phi = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    psi = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return phi, theta, psi


def euler_from_quaternion(q: np.ndarray) -> EulerAngles:
    """Extract Z-Y-X angles (see ``euler_angles``).

    Sets ``gimbal_proximity`` when |theta| exceeds 89 deg, where phi and
    psi become ill-conditioned.
    """
    phi, theta, psi = euler_angles(q)
    near_gimbal = abs(theta) > math.radians(GIMBAL_PROXIMITY_DEG)
    return EulerAngles(phi, theta, psi, gimbal_proximity=near_gimbal)


# --- steering and submovement coordinates -----------------------------------

@dataclass(frozen=True)
class SteeringState:
    """Four steering angles delta_1..delta_4 [rad], wrapped to [-pi, pi)."""

    delta: np.ndarray

    def __init__(self, delta) -> None:
        values = [wrap_angle(d) for d in np.asarray(delta, dtype=float).reshape(4)]
        object.__setattr__(self, "delta", _frozen(values, (4,)))

    def is_flight_symmetric(self) -> bool:
        d = self.delta
        return abs(d[0] - d[2]) <= SYMMETRY_TOL and abs(d[1] - d[3]) <= SYMMETRY_TOL

    def require_flight_symmetric(self) -> None:
        if not self.is_flight_symmetric():
            raise AsymmetricSteering(
                f"steering not symmetric: delta={self.delta.tolist()}"
            )


@dataclass(frozen=True)
class SubmovementParams:
    """Coordinated steering coordinates.

    alpha: diagonal pairs rotate in opposing directions; sets the ratio of
    roll vs pitch authority (isotropic at +-pi/4, singular at 0 and +-pi/2).
    beta: both pairs rotate together; rotates the authority axes and is the
    coordinate conjugate to yaw reaction.
    """

    alpha: float
    beta: float


class BodyTorque(NamedTuple):
    """Net torque on the base in body axes [N·m]."""

    tau_x: float
    tau_y: float
    tau_z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.tau_x, self.tau_y, self.tau_z])


@dataclass(frozen=True)
class BodyState:
    """Full kinematic state of the base plus wheel spin rates.

    r_ob, v_ob: position/velocity of the base mass center in world frame.
    quat: body-to-world unit quaternion (w, x, y, z), renormalized on
    construction.  omega: body angular velocity in body axes [rad/s].
    wheel_speed: wheel spin rates about their axles [rad/s].
    """

    r_ob: np.ndarray
    v_ob: np.ndarray
    quat: np.ndarray
    omega: np.ndarray
    wheel_speed: np.ndarray = None  # type: ignore[assignment]

    def __init__(self, r_ob, v_ob, quat, omega, wheel_speed=None) -> None:
        object.__setattr__(self, "r_ob", _frozen(r_ob, (3,)))
        object.__setattr__(self, "v_ob", _frozen(v_ob, (3,)))
        object.__setattr__(self, "quat", _frozen(quat_normalize(quat), (4,)))
        object.__setattr__(self, "omega", _frozen(omega, (3,)))
        if wheel_speed is None:
            wheel_speed = np.zeros(4)
        object.__setattr__(self, "wheel_speed", _frozen(wheel_speed, (4,)))

    @staticmethod
    def from_flat(y) -> "BodyState":
        """Wrap a flat state (r_ob, v_ob, quat, omega, wheel_speed; 17
        floats) whose quaternion the integrator has already normalized.

        The quaternion is stored as given: normalizing it a second time
        could move its last bits.
        """
        flat = _frozen(y, (17,))
        state = BodyState.__new__(BodyState)
        object.__setattr__(state, "r_ob", flat[0:3])
        object.__setattr__(state, "v_ob", flat[3:6])
        object.__setattr__(state, "quat", flat[6:10])
        object.__setattr__(state, "omega", flat[10:13])
        object.__setattr__(state, "wheel_speed", flat[13:17])
        return state

    def flat(self) -> list[float]:
        """The 17 state floats in ``from_flat`` order."""
        return [
            *self.r_ob.tolist(), *self.v_ob.tolist(), *self.quat.tolist(),
            *self.omega.tolist(), *self.wheel_speed.tolist(),
        ]

    @staticmethod
    def at_rest(position=(0.0, 0.0, 0.0)) -> "BodyState":
        return BodyState(position, np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3))

    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.quat)

    def euler(self) -> EulerAngles:
        return euler_from_quaternion(self.quat)
