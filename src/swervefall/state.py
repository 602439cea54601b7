"""State representations: orientation and steering coordinates.

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

A body state is a flat list of 17 floats: r_ob and v_ob, position and
velocity of the base mass center in world axes; quat, the body-to-world
unit quaternion (w, x, y, z); omega, the body rates in body axes
[rad/s]; and wheel_speed, the wheel spin rates about their axles
[rad/s].  A body torque, like a command, is a plain tuple of floats,
(tau_x, tau_y, tau_z) in body axes [N·m].  ``SubmovementParams`` is a
frozen value object, and ``NormBuffer`` a run's scratch buffer for
numpy's dot.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial

import numpy as np


def wrap_angle(angle: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return float((angle + math.pi) % (2.0 * math.pi) - math.pi)


# --- quaternions ------------------------------------------------------------

class NormBuffer:
    """Unit quaternions by numpy's dot, formed on a buffer the object
    owns.

    A float vector's ``np.linalg.norm`` is ``sqrt(x.dot(x))``, and a sum
    of squares in Python can differ from that dot in the last bit; but
    building an array for each vector costs more than the dot itself.
    ``values`` is an ``array('d')`` of four floats that numpy views, and
    ``square4()`` is the dot of the view with itself: the same BLAS call
    on the same operands, so the same bits.  Write the vector into
    ``values``, then call.  The buffer is never resized (a live view
    forbids it).  A run builds its own, so runs in concurrent threads
    never share operands.
    """

    __slots__ = ("values", "square4")

    def __init__(self) -> None:
        self.values = array("d", bytes(32))
        four = np.frombuffer(self.values)
        self.square4 = partial(four.dot, four)

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


# --- steering coordinates ---------------------------------------------------

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
