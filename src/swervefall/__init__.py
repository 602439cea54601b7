"""Dynamics and attitude control for a four-wheel independent
drive-and-steer robot in ballistic flight.

The wheels' drive reaction torques steer the base orientation while
airborne; this package models the flight dynamics, the freefall-detection
state machine, and the PD attitude controller, and ships a scenario CLI
with reference drop and ledge configurations.
"""

from .controller import (
    AttitudeControlLoop,
    ControllerConfig,
    ControllerGains,
    ControllerMode,
    LinearPlant,
    linearized_plant,
    pd_attitude,
)
from .dynamics import (
    InertiaReflection,
    ReactionLoads,
    angular_acceleration,
    oracle_newton_euler,
    reflected_inertia,
)
from .kinematics import (
    ManipulabilityReport,
    SingularConfiguration,
    TorqueJacobian,
    allocate_body_torque,
    jacobian_determinant,
    manipulability,
    map_wheel_to_body_torque,
    steering_from_submovements,
    submovements_from_steering,
    torque_jacobian,
)
from .params import ConfigError, RobotParams, validate_params
from .scenario import RunSummary, compare, run_scenario, sweep
from .simulation import (
    NoiseModel,
    NonFiniteState,
    ScenarioConfig,
    Trajectory,
    simulate,
    step_rk4,
)
from .state import (
    AsymmetricSteering,
    BodyState,
    BodyTorque,
    EulerAngles,
    SteeringState,
    SubmovementParams,
    euler_from_quaternion,
    quat_from_euler,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricSteering",
    "AttitudeControlLoop",
    "BodyState",
    "BodyTorque",
    "ConfigError",
    "ControllerConfig",
    "ControllerGains",
    "ControllerMode",
    "EulerAngles",
    "InertiaReflection",
    "LinearPlant",
    "ManipulabilityReport",
    "NoiseModel",
    "NonFiniteState",
    "ReactionLoads",
    "RobotParams",
    "RunSummary",
    "ScenarioConfig",
    "SingularConfiguration",
    "SteeringState",
    "SubmovementParams",
    "TorqueJacobian",
    "Trajectory",
    "allocate_body_torque",
    "angular_acceleration",
    "compare",
    "euler_from_quaternion",
    "jacobian_determinant",
    "linearized_plant",
    "manipulability",
    "map_wheel_to_body_torque",
    "oracle_newton_euler",
    "pd_attitude",
    "quat_from_euler",
    "reflected_inertia",
    "run_scenario",
    "simulate",
    "steering_from_submovements",
    "step_rk4",
    "submovements_from_steering",
    "sweep",
    "torque_jacobian",
    "validate_params",
]
