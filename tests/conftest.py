import numpy as np
import pytest

from swervefall import RobotParams
from swervefall.state import NormBuffer


def body_state(
    r_ob=(0.0, 0.0, 0.0),
    v_ob=(0.0, 0.0, 0.0),
    quat=(1.0, 0.0, 0.0, 0.0),
    omega=(0.0, 0.0, 0.0),
    wheel_speed=(0.0, 0.0, 0.0, 0.0),
) -> list[float]:
    """A flat body state, the 17 floats (r_ob, v_ob, quat, omega,
    wheel_speed), with ``quat`` divided by its norm; by default at rest
    at the origin."""
    return [
        *map(float, r_ob), *map(float, v_ob), *NormBuffer().unit(quat),
        *map(float, omega), *map(float, wheel_speed),
    ]


@pytest.fixture
def params() -> RobotParams:
    return RobotParams()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)
