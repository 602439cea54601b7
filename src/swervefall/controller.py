"""Freefall detection state machine and the PD attitude controller.

The robot idles in GroundTeleop.  When the accelerometer magnitude stays
under a threshold for a full debounce window it is in freefall: the loop
keeps only the time the current run of under-threshold readings began,
a reading at or over the threshold clears it, and detection fires once
that time lies a full window back.  The machine then moves to
FreefallStabilize, where the run swings the steering to the isotropic
alpha = pi/4, beta = 0 (equal roll and pitch authority, no products of
inertia), latches the yaw setpoint, and runs the PD law

    tau_body = K_P (q_desired - q) - K_D q_dot

with angle errors wrapped to [-pi, pi).  The body-torque demand is
allocated to wheel torques by inverting that configuration's Jacobian
and clamping per channel, then held to the wheel-speed limit.  The
derivative term feeds the gyro rates directly instead of differentiated
Euler angles; at small angles the two coincide and the gyro path avoids
differentiation noise.  No transition leaves FreefallStabilize: the run
ends at touchdown.  GroundTeleop and a disabled controller command zero
torque.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .kinematics import allocate_body_torque, torque_jacobian
from .params import RobotParams
from .state import SubmovementParams, wrap_angle

# The steering configuration the freefall swing goes to, and the one
# Jacobian the loop allocates with: |det N| = sin(pi/2) = 1 there.
FLIGHT = SubmovementParams(alpha=math.pi / 4.0, beta=0.0)
FLIGHT_JACOBIAN = torque_jacobian(FLIGHT)

# (tau_1, tau_2, tau_delta, sat_mask) of a silent controller.
ZERO_COMMAND = (0.0, 0.0, 0.0, 0)


class ControllerMode(IntEnum):
    GROUND_TELEOP = 0
    FREEFALL_STABILIZE = 1


def apply_wheel_speed_limit(command, wheel_speed, params: RobotParams):
    """Zero drive torque that would push a wheel past its speed limit.

    Takes and returns the command (tau_1, tau_2, tau_delta, sat_mask),
    given the four wheel speeds.  Wheels 3 and 4 drive -tau_1 and
    -tau_2, so a diagonal pair loses its drive when either wheel has
    reached the limit in the direction it pushes; ``sat_mask`` is kept.
    """
    tau_1, tau_2, tau_delta, sat_mask = command
    w1, w2, w3, w4 = wheel_speed
    limit = params.wheel_speed_max
    if (
        (tau_1 > 0.0 and (w1 >= limit or w3 <= -limit))
        or (tau_1 < 0.0 and (w1 <= -limit or w3 >= limit))
    ):
        tau_1 = 0.0
    if (
        (tau_2 > 0.0 and (w2 >= limit or w4 <= -limit))
        or (tau_2 < 0.0 and (w2 <= -limit or w4 >= limit))
    ):
        tau_2 = 0.0
    return tau_1, tau_2, tau_delta, sat_mask


def pd_attitude(q, q_dot, q_desired, kp, kd) -> tuple[float, float, float]:
    """PD law on wrapped Euler errors.

    ``q``, ``q_dot`` and ``q_desired`` are (roll, pitch, yaw) triples of
    floats, and ``kp`` and ``kd`` the diagonal gains per axis; returns
    the body-torque demand (tau_x, tau_y, tau_z).
    """
    (kp_x, kp_y, kp_z), (kd_x, kd_y, kd_z) = kp, kd
    return (
        kp_x * wrap_angle(q_desired[0] - q[0]) - kd_x * q_dot[0],
        kp_y * wrap_angle(q_desired[1] - q[1]) - kd_y * q_dot[1],
        kp_z * wrap_angle(q_desired[2] - q[2]) - kd_z * q_dot[2],
    )


def linearized_plant(params: RobotParams) -> tuple[float, float, float]:
    """Effective inertias about the flight equilibrium (alpha = pi/4),
    (j_roll, j_pitch, j_yaw): the double-integrator plants 1/(J s^2) per
    axis, in the (roll, pitch, yaw) order of ``ControllerConfig.kp``.

    Matches a central-difference linearization of the nonlinear dynamics
    at that configuration; the reflected wheel mass evaluates there and
    the axle reactions contribute 2*sqrt(2)*j_wxx on roll and pitch.
    """
    m, a2, b2, c = params.wheel_mass, params.a / 2, params.b / 2, params.c
    half = math.sqrt(0.5)
    jm_xx = 4.0 * m * (b2 + c * half) ** 2
    jm_yy = 4.0 * m * (a2 + c * half) ** 2
    axle = 2.0 * math.sqrt(2.0) * params.j_wxx
    return (
        params.j_bxx + jm_xx + axle,
        params.j_byy + jm_yy + axle,
        params.j_bzz,
    )


def closed_loop_poles(inertia: float, kp: float, kd: float) -> np.ndarray:
    """Roots of J s^2 + K_D s + K_P for one axis."""
    return np.roots([inertia, kd, kp])


@dataclass(frozen=True)
class ControllerConfig:
    """Gains, detection thresholds, and loop timing.

    ``kp`` and ``kd`` are the diagonal PD gains per Euler axis (roll,
    pitch, yaw), three floats each; zeroing an axis disables it (the yaw
    channel ships disabled).  ``simulation.validate_run`` checks the
    gains, the detection thresholds and the control period.
    """

    kp: tuple[float, float, float] = (75.0, 75.0, 0.0)
    kd: tuple[float, float, float] = (12.0, 12.0, 0.0)
    freefall_accel_threshold: float = 2.0
    freefall_debounce: float = 0.020
    dt_control: float = 1e-3
    enabled: bool = True


class AttitudeControlLoop:
    """Stateful per-run controller: freefall debounce, mode and latched
    setpoints.

    ``update`` consumes one IMU reading per control tick and returns the
    flight command as plain numbers (see ``allocate_body_torque``).  The
    loop starts in GroundTeleop and switches once, on freefall detection;
    nothing leaves FreefallStabilize, so detection runs only before that
    switch.  Entering FreefallStabilize, where the run swings the
    steering to ``FLIGHT``, latches the yaw setpoint at the current
    heading with zero desired roll and pitch.  The loop allocates only
    in FreefallStabilize, so always with ``FLIGHT_JACOBIAN``.  Setting
    ``mode`` to FreefallStabilize by hand runs the flight branch on the
    current setpoints from the next ``update`` on.
    """

    def __init__(self, config: ControllerConfig, params: RobotParams):
        self.config = config
        self.params = params
        self.mode = ControllerMode.GROUND_TELEOP
        self.q_desired = (0.0, 0.0, 0.0)
        self._below_since: float | None = None

    def update(
        self, t: float, euler, omega, accel: float, wheel_speed
    ) -> tuple[float, float, float, int]:
        """One tick on the IMU reading at time ``t`` (Euler angles and body
        rates as float triples, the accelerometer magnitude) and the four
        wheel speeds.

        A disabled controller returns ``ZERO_COMMAND``.  In GroundTeleop
        the reading only feeds the freefall debounce and the command is
        ``ZERO_COMMAND``; from the tick that detects freefall on, it is
        the PD demand, allocated, clamped and held to the wheel-speed
        limit.  Raises ValueError, as ``allocate_body_torque`` does, when
        the demand or its solve is not finite.
        """
        if not self.config.enabled:
            return ZERO_COMMAND
        if self.mode == ControllerMode.GROUND_TELEOP:
            if not self._detect(t, accel):
                return ZERO_COMMAND
            self.mode = ControllerMode.FREEFALL_STABILIZE
            self.q_desired = (0.0, 0.0, euler[2])
        demand = pd_attitude(
            euler, omega, self.q_desired, self.config.kp, self.config.kd
        )
        command = allocate_body_torque(demand, FLIGHT_JACOBIAN, self.params)
        return apply_wheel_speed_limit(command, wheel_speed, self.params)

    def _detect(self, t: float, magnitude: float) -> bool:
        """Track the under-threshold run and test it against the window."""
        if magnitude >= self.config.freefall_accel_threshold:
            self._below_since = None
            return False
        if self._below_since is None:
            self._below_since = t
        return self._below_since <= t - self.config.freefall_debounce + 1e-12
