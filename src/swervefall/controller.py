"""Freefall detection state machine and the PD attitude controller.

The robot idles in GroundTeleop.  When the accelerometer magnitude stays
under a threshold for a full debounce window it is in freefall: the
machine moves to FreefallStabilize, swings the steering to the isotropic
alpha = pi/4 (equal roll and pitch authority), latches the yaw setpoint,
and runs the PD law

    tau_body = K_P (q_desired - q) - K_D q_dot

with angle errors wrapped to (-pi, pi].  The body-torque demand is
allocated to wheel torques by inverting the configuration Jacobian and
clamping per channel.  The derivative term feeds the gyro rates directly
instead of differentiated Euler angles; at small angles the two coincide
and the gyro path avoids differentiation noise.  No transition leaves
FreefallStabilize: the run ends at touchdown.  GroundTeleop always
commands zero torque.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .kinematics import (
    SingularConfiguration,
    TorqueJacobian,
    allocate_body_torque,
    torque_jacobian,
)
from .params import ConfigError, RobotParams, take_bool, take_float
from .simulation import ImuReading
from .state import BodyTorque, SubmovementParams, TorqueCommand, wrap_angle

FLIGHT_ALPHA = math.pi / 4.0


class InsufficientHistory(Exception):
    """Freefall detection asked for a window longer than the history."""


@dataclass(frozen=True)
class ControllerGains:
    """Diagonal PD gains per Euler axis (roll, pitch, yaw).

    Entries must be non-negative; zeroing an axis disables it (the yaw
    channel ships disabled).
    """

    kp: np.ndarray
    kd: np.ndarray

    def __init__(self, kp, kd) -> None:
        kp = np.asarray(kp, dtype=float).reshape(3)
        kd = np.asarray(kd, dtype=float).reshape(3)
        if (kp < 0).any() or (kd < 0).any():
            raise ValueError("gains must be non-negative")
        kp.setflags(write=False)
        kd.setflags(write=False)
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kd", kd)

    @staticmethod
    def default() -> "ControllerGains":
        return ControllerGains(kp=[75.0, 75.0, 0.0], kd=[12.0, 12.0, 0.0])


class ControllerMode(IntEnum):
    GROUND_TELEOP = 0
    FREEFALL_STABILIZE = 1


def detect_freefall(
    history: list[tuple[float, float]] | deque,
    threshold: float,
    debounce: float,
) -> bool:
    """True iff |specific accel| stayed under threshold for the window.

    ``history`` holds (timestamp, accel magnitude) pairs in time order.
    Raises InsufficientHistory when the samples span less than the
    debounce window.
    """
    if not history:
        raise InsufficientHistory("no IMU history")
    t_last = history[-1][0]
    t_first = history[0][0]
    if t_last - t_first < debounce - 1e-12:
        raise InsufficientHistory(
            f"history spans {t_last - t_first:.4f} s < debounce {debounce:.4f} s"
        )
    window_start = t_last - debounce
    for t, magnitude in reversed(history):
        if magnitude >= threshold:
            return False
        if t <= window_start + 1e-12:
            break
    return True


def pd_attitude(
    q: np.ndarray,
    q_dot: np.ndarray,
    q_desired: np.ndarray,
    gains: ControllerGains,
) -> BodyTorque:
    """PD law on wrapped Euler errors; returns the body-torque demand."""
    error = np.array([wrap_angle(d - c) for d, c in zip(q_desired, q)])
    torque = gains.kp * error - gains.kd * np.asarray(q_dot, dtype=float)
    return BodyTorque(tau_x=float(torque[0]), tau_y=float(torque[1]), tau_z=float(torque[2]))


def control_step(
    imu: ImuReading,
    mode: ControllerMode,
    gains: ControllerGains,
    jac: TorqueJacobian,
    params: RobotParams,
    q_desired: np.ndarray | None = None,
) -> TorqueCommand:
    """One controller tick: PD demand, allocation, saturation.

    ``jac`` is the torque Jacobian of the commanded steering
    configuration.  Only FreefallStabilize produces torque.  A singular
    steering configuration zeroes the command and raises the steering
    saturation flag rather than crashing the loop.
    """
    if mode != ControllerMode.FREEFALL_STABILIZE:
        return TorqueCommand.zero()
    if q_desired is None:
        q_desired = np.zeros(3)
    demand = pd_attitude(imu.euler, imu.omega, q_desired, gains)
    try:
        return allocate_body_torque(demand, jac, params)
    except SingularConfiguration:
        return TorqueCommand(
            np.zeros(4), 0.0, saturated=[False, False, False, False, True]
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
        try:
            gains = ControllerGains(kp=kp, kd=kd)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        threshold = take_float(
            entries, "freefall_accel_threshold", base.freefall_accel_threshold
        )
        if threshold <= 0.0:
            raise ConfigError("freefall_accel_threshold must be positive")
        debounce = take_float(entries, "freefall_debounce", base.freefall_debounce)
        if debounce < 0.0:
            raise ConfigError("freefall_debounce must be non-negative")
        return ControllerConfig(
            gains=gains,
            freefall_accel_threshold=threshold,
            freefall_debounce=debounce,
            dt_control=take_float(entries, "dt_control", base.dt_control),
            enabled=take_bool(entries, "controller_enabled", base.enabled),
        )


class AttitudeControlLoop:
    """Stateful per-run controller: IMU history, mode, latched setpoints,
    and the commanded steering configuration.

    ``update`` consumes one IMU reading per control tick and returns the
    torque command.  The loop starts in GroundTeleop and switches once,
    on freefall detection; nothing leaves FreefallStabilize, so detection
    runs only before that switch.  Entering FreefallStabilize swings
    alpha to pi/4 (beta preserved) and latches the yaw setpoint at the
    current heading with zero desired roll and pitch.  The allocation
    Jacobian is built for the current ``sub`` and rebuilt only when
    ``sub`` changes.
    """

    def __init__(self, config: ControllerConfig, params: RobotParams,
                 initial_sub: SubmovementParams):
        self.config = config
        self.params = params
        self.mode = ControllerMode.GROUND_TELEOP
        self.sub = initial_sub
        self.jacobian = torque_jacobian(initial_sub)
        self.q_desired = np.zeros(3)
        self._history: deque[tuple[float, float]] = deque()

    def update(self, imu: ImuReading) -> TorqueCommand:
        if self.mode == ControllerMode.GROUND_TELEOP and self._detect(imu):
            self.mode = ControllerMode.FREEFALL_STABILIZE
            self.sub = SubmovementParams(alpha=FLIGHT_ALPHA, beta=self.sub.beta)
            self.jacobian = torque_jacobian(self.sub)
            self.q_desired = np.array([0.0, 0.0, imu.euler[2]])

        return control_step(
            imu, self.mode, self.config.gains, self.jacobian, self.params,
            q_desired=self.q_desired,
        )

    def _detect(self, imu: ImuReading) -> bool:
        """Record the reading and test the debounce window for freefall."""
        t = imu.timestamp
        self._history.append((t, float(np.linalg.norm(imu.specific_accel))))
        horizon = t - 2.0 * self.config.freefall_debounce
        while len(self._history) > 2 and self._history[0][0] < horizon:
            self._history.popleft()
        try:
            return detect_freefall(
                self._history,
                self.config.freefall_accel_threshold,
                self.config.freefall_debounce,
            )
        except InsufficientHistory:
            return False
