"""Physical parameters, validation, and the flat key-value config format.

Units are SI throughout (kg, m, s, rad, N·m).  The body frame is
right-handed with x forward, y left, z up; gravity acts along world -Z.

Default inertia values are estimates, not measured quantities: the base is
approximated as a homogeneous box over the chassis footprint, and each wheel
as a solid disk.  Both are configurable and documented in the bundled config
files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or out-of-range config entries."""


# Total platform mass 23.59 kg split as base + 4 wheels.
_DEFAULT_BASE_MASS = 12.39
_DEFAULT_WHEEL_MASS = 2.8

# Homogeneous-box estimate over a 0.42 x 0.36 m footprint, 0.24 m tall.
_DEFAULT_J_BXX = 0.1933
_DEFAULT_J_BYY = 0.2416
_DEFAULT_J_BZZ = 0.3159

# Solid-disk estimate for a 2.8 kg hub wheel of radius 0.1651 m.
_DEFAULT_J_WYY = 0.5 * _DEFAULT_WHEEL_MASS * 0.1651**2
_DEFAULT_J_WXX = 0.5 * _DEFAULT_J_WYY


@dataclass(frozen=True)
class RobotParams:
    """Mass, geometry, inertia, and actuator limits of the platform.

    Geometry:
        a: longitudinal spacing between steering axes [m]
        b: lateral spacing between steering axes [m]
        c: steering-axis to wheel-center offset along the wheel axle [m]

    Inertias are diagonal: ``j_b*`` for the base about its mass center in
    body axes, ``j_w*`` for one wheel about its own center in wheel axes
    (``j_wyy`` is the spin axis).
    """

    base_mass: float = _DEFAULT_BASE_MASS
    wheel_mass: float = _DEFAULT_WHEEL_MASS
    a: float = 0.42
    b: float = 0.36
    c: float = 0.05
    j_bxx: float = _DEFAULT_J_BXX
    j_byy: float = _DEFAULT_J_BYY
    j_bzz: float = _DEFAULT_J_BZZ
    j_wxx: float = _DEFAULT_J_WXX
    j_wyy: float = _DEFAULT_J_WYY
    j_wzz: float = _DEFAULT_J_WXX
    tau_wheel_max: float = 10.0
    tau_steer_max: float = 2.5
    wheel_speed_max: float = 120.0
    wheel_radius: float = 0.1651
    g: float = 9.81

    @property
    def total_mass(self) -> float:
        return self.base_mass + 4.0 * self.wheel_mass


# (moment, other, other) triplets for the triangle feasibility check.
_INERTIA_TRIPLES = (
    ("j_bxx", "j_byy", "j_bzz"),
    ("j_byy", "j_bxx", "j_bzz"),
    ("j_bzz", "j_bxx", "j_byy"),
    ("j_wxx", "j_wyy", "j_wzz"),
    ("j_wyy", "j_wxx", "j_wzz"),
    ("j_wzz", "j_wxx", "j_wyy"),
)


def validate_params(params: RobotParams) -> tuple[str, ...]:
    """Check positivity and diagonal-tensor feasibility of all parameters.

    Each principal moment of a physical diagonal inertia tensor must not
    exceed the sum of the other two.  A thin disk sits exactly on that
    boundary, so the comparison allows a small relative slack.  Returns
    the violations; an empty tuple means the parameters are valid.
    """
    violations: list[str] = []
    for field in fields(RobotParams):
        value = getattr(params, field.name)
        if not math.isfinite(value) or value <= 0.0:
            violations.append(f"{field.name} must be positive")
    for moment, first, second in _INERTIA_TRIPLES:
        lhs = getattr(params, moment)
        rhs = getattr(params, first) + getattr(params, second)
        if lhs > rhs * (1.0 + 1e-12):
            violations.append(
                f"inertia feasibility: {moment} exceeds {first} + {second}"
            )
    return tuple(violations)


# --- flat key-value config files -------------------------------------------
#
# Format: one `key = value` per line, `#` starts a comment, blank lines
# ignored.  Keys are flat (no sections).  Angle-valued keys carry a `_deg`
# suffix and are converted to radians by the consumer.  Unknown keys are
# hard errors so typos cannot silently fall back to defaults.

def parse_flat_config(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse flat `key = value` lines into a string mapping."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        entries[key] = value
    return entries


def read_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark some editors write first.
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    return parse_flat_config(text, source=str(path))


def take_float(entries: dict[str, str], key: str, default: float) -> float:
    if key not in entries:
        return default
    raw = entries.pop(key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': not a number: '{raw}'") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': not a finite number: '{raw}'")
    return value


def take_int(entries: dict[str, str], key: str, default: int) -> int:
    if key not in entries:
        return default
    raw = entries.pop(key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': not an integer: '{raw}'") from exc


def take_bool(entries: dict[str, str], key: str, default: bool) -> bool:
    if key not in entries:
        return default
    raw = entries.pop(key).lower()
    if raw in ("true", "1", "yes", "on"):
        return True
    if raw in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key '{key}': not a boolean: '{raw}'")


_ROBOT_KEYS = {f.name for f in fields(RobotParams)}


def robot_params_from_entries(entries: dict[str, str]) -> RobotParams:
    """Consume robot keys from a parsed config, leaving other keys in place."""
    params = RobotParams()
    overrides = {}
    for key in sorted(_ROBOT_KEYS & entries.keys()):
        overrides[key] = take_float(entries, key, getattr(params, key))
    if overrides:
        params = replace(params, **overrides)
    return params
