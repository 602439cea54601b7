import dataclasses
import math

import pytest

from swervefall import ConfigError, RobotParams, validate_params
from swervefall.params import parse_flat_config, take_bool, take_float
from swervefall.scenario import loaded_from_entries


def test_default_params_pass_validation(params):
    assert validate_params(params) == ()


def test_zero_wheel_mass_rejected(params):
    bad = dataclasses.replace(params, wheel_mass=0.0)
    violations = validate_params(bad)
    assert violations
    assert any("wheel_mass must be positive" in v for v in violations)


def test_inertia_feasibility_violation(params):
    bad = dataclasses.replace(params, j_bxx=params.j_byy + params.j_bzz + 0.1)
    violations = validate_params(bad)
    assert violations
    assert any("inertia feasibility" in v for v in violations)


def test_thin_disk_wheel_is_feasible(params):
    # A disk sits exactly on the j_yy = j_xx + j_zz boundary, and the
    # axisymmetric wheel's j_zz is j_xx.
    assert math.isclose(params.j_wyy, 2.0 * params.j_wxx, rel_tol=1e-9)
    assert validate_params(params) == ()
    wider = dataclasses.replace(params, j_wyy=2.0 * params.j_wxx * (1.0 + 1e-9))
    assert validate_params(wider) == (
        "inertia feasibility: j_wyy exceeds j_wxx + j_wxx",
    )


def test_negative_limit_rejected(params):
    bad = dataclasses.replace(params, tau_wheel_max=-1.0)
    assert validate_params(bad)


def test_parse_flat_config_basics():
    entries = parse_flat_config(
        """
        # comment line
        wheel_mass = 10.0
        a = 0.5   # trailing comment
        """
    )
    assert entries == {"wheel_mass": "10.0", "a": "0.5"}


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat_config("a = 1\na = 2\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="expected"):
        parse_flat_config("wheel_mass 10.0\n")


def test_take_float_rejects_garbage():
    with pytest.raises(ConfigError, match="not a number"):
        take_float({"x": "abc"}, "x", 0.0)


def test_take_bool_parses_common_forms():
    assert take_bool({"f": "true"}, "f", False)
    assert not take_bool({"f": "off"}, "f", True)
    with pytest.raises(ConfigError):
        take_bool({"f": "maybe"}, "f", True)


def test_robot_params_from_entries_overrides_and_pops():
    # The loader reads each robot key under its RobotParams field name and
    # consumes it; the others keep their defaults.
    entries = {"wheel_mass": "3.0", "drop_height": "0.5"}
    loaded = loaded_from_entries(entries, name="x")
    assert loaded.params == RobotParams(wheel_mass=3.0)
    assert loaded.scenario.drop_height == 0.5
    assert entries == {}


def test_robot_params_from_entries_validates():
    with pytest.raises(ConfigError, match="wheel_mass"):
        loaded_from_entries({"wheel_mass": "-2"}, name="x")
