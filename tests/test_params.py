import dataclasses
import math

import pytest

from swervefall import ConfigError, RobotParams, validate_params
from swervefall.params import (
    parse_flat_config,
    robot_params_from_entries,
    take_bool,
    take_float,
)
from swervefall.scenario import loaded_from_entries


def test_default_params_pass_validation(params):
    assert validate_params(params) == ()


def test_default_total_mass(params):
    assert math.isclose(params.total_mass, 23.59, rel_tol=1e-12)


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
    # A disk sits exactly on the j_yy = j_xx + j_zz boundary.
    assert math.isclose(params.j_wyy, params.j_wxx + params.j_wzz, rel_tol=1e-9)
    assert validate_params(params) == ()


def test_negative_limit_rejected(params):
    bad = dataclasses.replace(params, tau_wheel_max=-1.0)
    assert validate_params(bad)


def test_parse_flat_config_basics():
    entries = parse_flat_config(
        """
        # comment line
        base_mass = 10.0
        a = 0.5   # trailing comment
        """
    )
    assert entries == {"base_mass": "10.0", "a": "0.5"}


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat_config("a = 1\na = 2\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="expected"):
        parse_flat_config("base_mass 10.0\n")


def test_take_float_rejects_garbage():
    with pytest.raises(ConfigError, match="not a number"):
        take_float({"x": "abc"}, "x", 0.0)


def test_take_bool_parses_common_forms():
    assert take_bool({"f": "true"}, "f", False)
    assert not take_bool({"f": "off"}, "f", True)
    with pytest.raises(ConfigError):
        take_bool({"f": "maybe"}, "f", True)


def test_robot_params_from_entries_overrides_and_pops():
    entries = {"base_mass": "11.0", "drop_height": "0.5"}
    params = robot_params_from_entries(entries)
    assert params.base_mass == 11.0
    assert "base_mass" not in entries
    assert "drop_height" in entries  # non-robot keys left for other consumers


def test_robot_params_from_entries_validates():
    with pytest.raises(ConfigError, match="wheel_mass"):
        loaded_from_entries({"wheel_mass": "-2"}, name="x")
