"""Freefall detection state machine and the PD attitude controller.

The robot idles in GroundTeleop.  When the accelerometer magnitude stays
under a threshold for a full debounce window it is in freefall: the loop
keeps only the time the current run of under-threshold readings began,
a reading at or over the threshold clears it, and detection fires once
that time lies a full window back.  The machine then moves to
FreefallStabilize, swings the steering to the isotropic
alpha = pi/4 (equal roll and pitch authority), latches the yaw setpoint,
and runs the PD law

    tau_body = K_P (q_desired - q) - K_D q_dot

with angle errors wrapped to [-pi, pi).  The body-torque demand is
allocated to wheel torques by inverting the configuration Jacobian and
clamping per channel.  The derivative term feeds the gyro rates directly
instead of differentiated Euler angles; at small angles the two coincide
and the gyro path avoids differentiation noise.  No transition leaves
FreefallStabilize: the run ends at touchdown.  GroundTeleop always
commands zero torque.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .kinematics import (
    SingularConfiguration,
    allocate_body_torque,
    torque_jacobian,
)
from .params import ConfigError, RobotParams, take_bool, take_float
from .state import SubmovementParams, wrap_angle

FLIGHT_ALPHA = math.pi / 4.0

# (tau_1, tau_2, tau_3, tau_4, tau_delta, sat_mask) of a silent controller.
ZERO_COMMAND = (0.0, 0.0, 0.0, 0.0, 0.0, 0)
# The command of a singular steering configuration: no torque, steering
# saturation flag (bit 4) raised.
SINGULAR_COMMAND = (0.0, 0.0, 0.0, 0.0, 0.0, 0b10000)


@dataclass(frozen=True)
class ControllerGains:
    """Diagonal PD gains per Euler axis (roll, pitch, yaw), each a tuple
    of three floats.

    Entries must be non-negative; zeroing an axis disables it (the yaw
    channel ships disabled).
    """

    kp: tuple[float, float, float]
    kd: tuple[float, float, float]

    def __init__(self, kp, kd) -> None:
        kp = np.asarray(kp, dtype=float).reshape(3)
        kd = np.asarray(kd, dtype=float).reshape(3)
        if (kp < 0).any() or (kd < 0).any():
            raise ConfigError("gains must be non-negative")
        object.__setattr__(self, "kp", tuple(kp.tolist()))
        object.__setattr__(self, "kd", tuple(kd.tolist()))

    @staticmethod
    def default() -> "ControllerGains":
        return ControllerGains(kp=[75.0, 75.0, 0.0], kd=[12.0, 12.0, 0.0])


class ControllerMode(IntEnum):
    GROUND_TELEOP = 0
    FREEFALL_STABILIZE = 1


def pd_attitude(
    q, q_dot, q_desired, gains: ControllerGains
) -> tuple[float, float, float]:
    """PD law on wrapped Euler errors.

    ``q``, ``q_dot`` and ``q_desired`` are (roll, pitch, yaw) triples of
    floats; returns the body-torque demand (tau_x, tau_y, tau_z).
    """
    (kp_x, kp_y, kp_z), (kd_x, kd_y, kd_z) = gains.kp, gains.kd
    return (
        kp_x * wrap_angle(q_desired[0] - q[0]) - kd_x * q_dot[0],
        kp_y * wrap_angle(q_desired[1] - q[1]) - kd_y * q_dot[1],
        kp_z * wrap_angle(q_desired[2] - q[2]) - kd_z * q_dot[2],
    )


@dataclass(frozen=True)
class LinearPlant:
    """Double-integrator inertias 1/(J s^2) per axis at the isotropic
    configuration."""

    j_roll: float
    j_pitch: float
    j_yaw: float

    def as_array(self) -> np.ndarray:
        return np.array([self.j_roll, self.j_pitch, self.j_yaw])


def linearized_plant(params: RobotParams) -> LinearPlant:
    """Effective inertias about the flight equilibrium (alpha = pi/4).

    Matches a central-difference linearization of the nonlinear dynamics
    at that configuration; the reflected wheel mass evaluates there and
    the axle reactions contribute 2*sqrt(2)*j_wxx on roll and pitch.
    """
    m, a2, b2, c = params.wheel_mass, params.a / 2, params.b / 2, params.c
    half = math.sqrt(0.5)
    jm_xx = 4.0 * m * (b2 + c * half) ** 2
    jm_yy = 4.0 * m * (a2 + c * half) ** 2
    axle = 2.0 * math.sqrt(2.0) * params.j_wxx
    return LinearPlant(
        j_roll=params.j_bxx + jm_xx + axle,
        j_pitch=params.j_byy + jm_yy + axle,
        j_yaw=params.j_bzz,
    )


def closed_loop_poles(inertia: float, kp: float, kd: float) -> np.ndarray:
    """Roots of J s^2 + K_D s + K_P for one axis."""
    return np.roots([inertia, kd, kp])


@dataclass(frozen=True)
class ControllerConfig:
    """Gains, detection thresholds, and loop timing."""

    gains: ControllerGains = field(default_factory=ControllerGains.default)
    freefall_accel_threshold: float = 2.0
    freefall_debounce: float = 0.020
    dt_control: float = 1e-3
    enabled: bool = True

    @staticmethod
    def from_entries(entries: dict[str, str]) -> "ControllerConfig":
        base = ControllerConfig()
        kp = [
            take_float(entries, "kp_roll", base.gains.kp[0]),
            take_float(entries, "kp_pitch", base.gains.kp[1]),
            take_float(entries, "kp_yaw", base.gains.kp[2]),
        ]
        kd = [
            take_float(entries, "kd_roll", base.gains.kd[0]),
            take_float(entries, "kd_pitch", base.gains.kd[1]),
            take_float(entries, "kd_yaw", base.gains.kd[2]),
        ]
        return ControllerConfig(
            gains=ControllerGains(kp=kp, kd=kd),
            freefall_accel_threshold=take_float(
                entries, "freefall_accel_threshold", base.freefall_accel_threshold
            ),
            freefall_debounce=take_float(
                entries, "freefall_debounce", base.freefall_debounce
            ),
            dt_control=take_float(entries, "dt_control", base.dt_control),
            enabled=take_bool(entries, "controller_enabled", base.enabled),
        )


class AttitudeControlLoop:
    """Stateful per-run controller: freefall debounce, mode, latched
    setpoints, and the commanded steering configuration.

    ``update`` consumes one IMU reading per control tick and returns the
    torque command as plain numbers (see ``allocate_body_torque``).  The
    loop starts in GroundTeleop and switches once, on freefall detection;
    nothing leaves FreefallStabilize, so detection runs only before that
    switch.  Entering FreefallStabilize swings alpha to pi/4 (beta
    preserved) and latches the yaw setpoint at the current heading with
    zero desired roll and pitch.  The allocation Jacobian is built for
    the current ``sub`` and rebuilt only when ``sub`` changes.  Setting
    ``mode`` to FreefallStabilize by hand runs the flight branch on the
    current ``sub`` and setpoints from the next ``update`` on.
    """

    def __init__(self, config: ControllerConfig, params: RobotParams,
                 initial_sub: SubmovementParams):
        self.config = config
        self.params = params
        self.mode = ControllerMode.GROUND_TELEOP
        self.sub = initial_sub
        self.jacobian = torque_jacobian(initial_sub)
        self.q_desired = (0.0, 0.0, 0.0)
        self._below_since: float | None = None

    def update(
        self, t: float, euler, omega, accel: float
    ) -> tuple[float, float, float, float, float, int]:
        """One tick on the IMU reading at time ``t``: Euler angles and body
        rates as float triples, and the accelerometer magnitude.

        In GroundTeleop the reading only feeds the freefall debounce and
        the command is ``ZERO_COMMAND``; from the tick that detects
        freefall on, it is the PD demand, allocated and clamped, or
        ``SINGULAR_COMMAND`` in a singular steering configuration.
        Raises ValueError, as ``allocate_body_torque`` does, when the
        demand or its solve is not finite.
        """
        if self.mode == ControllerMode.GROUND_TELEOP:
            if not self._detect(t, accel):
                return ZERO_COMMAND
            self.mode = ControllerMode.FREEFALL_STABILIZE
            self.sub = SubmovementParams(alpha=FLIGHT_ALPHA, beta=self.sub.beta)
            self.jacobian = torque_jacobian(self.sub)
            self.q_desired = (0.0, 0.0, euler[2])
        demand = pd_attitude(euler, omega, self.q_desired, self.config.gains)
        try:
            return allocate_body_torque(demand, self.jacobian, self.params)
        except SingularConfiguration:
            return SINGULAR_COMMAND

    def _detect(self, t: float, magnitude: float) -> bool:
        """Track the under-threshold run and test it against the window."""
        if magnitude >= self.config.freefall_accel_threshold:
            self._below_since = None
            return False
        if self._below_since is None:
            self._below_since = t
        return self._below_since <= t - self.config.freefall_debounce + 1e-12
