"""Exit-code contract of the ``swervefall`` commands: every config and
argument list either runs (0) or is refused with a documented code, 2
for a config error and 3 for a diverged simulation.  No input may raise
out of ``cli.main``."""

import contextlib
import dataclasses
import io
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from swervefall.cli import main as cli_main
from swervefall.params import RobotParams, read_config_file
from swervefall.scenario import loaded_from_entries, resolve_config_path


def loader_keys() -> list[str]:
    """Every config key the loader reads.  The robot keys are the
    dataclass fields; every other key is looked up with ``in`` before it
    is taken, so a recording mapping sees it."""
    class Recording(dict):
        def __init__(self):
            super().__init__()
            self.asked = set()

        def __contains__(self, key):
            self.asked.add(key)
            return super().__contains__(key)

    entries = Recording()
    loaded_from_entries(entries, name="defaults")
    return sorted({f.name for f in dataclasses.fields(RobotParams)} | entries.asked)


# drop_controlled at one physics step per control tick: a run is at most
# t_max / dt_physics = 1000 steps unless the example changes those keys,
# and the work budget bounds what they can ask for.
BASE = dict(read_config_file(resolve_config_path("drop_controlled")),
            dt_physics="0.001")
KEYS = loader_keys()
EXTREME_VALUES = [
    "0", "1e-300", "-1e-300", "1e308", "-1e308", "-1", "-0.5",
    str(10**30), str(-10**30), str(10**400),
]
EXTREMES = st.sampled_from(EXTREME_VALUES)
OVERRIDES = st.dictionaries(st.sampled_from(KEYS), EXTREMES, max_size=1)
# A config is BASE with at most one key set to an extreme, or None for a
# path that does not exist.
CONFIGS = st.one_of(OVERRIDES, st.none())
# One key set to a moderate value, where a wrong result hides better than
# at the extremes (alpha_deg = 180 once ran a flipped roll rate with exit
# 0): each numeric BASE value halved, doubled, times ten and negated, and
# each angle key at +-90 and +-180 degrees.
MODERATE_OVERRIDES = [
    {key: repr(factor * float(value))}
    for key, value in BASE.items() if key != "controller_enabled"
    for factor in (0.5, 2.0, 10.0, -1.0)
] + [
    {key: angle}
    for key in KEYS if key.endswith("_deg")
    for angle in ("90", "-90", "180", "-180")
]
SWEEP_VALUES = st.lists(
    st.sampled_from(["0.25", "0.5", "2", "0", "-1", "1e-300", "1e308", "nan"]),
    min_size=1, max_size=3,
).map(",".join)


# A case runs about 2000 physics steps, about 0.1 s; one that runs this
# long hangs, and fails alone instead of holding the suite until the CI
# job's time limit.
CASE_SECONDS = 30


class CaseTimeout(Exception):
    """A case outlived CASE_SECONDS.  Not an OSError, which ``cli.main``
    would report as an output error."""


@contextlib.contextmanager
def wall_time_limit(seconds: int):
    def expire(signum, frame):
        raise CaseTimeout(f"the case ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(command: str, configs: list[dict[str, str] | None],
            *options: str) -> tuple[int, str]:
    """``cli.main`` on ``command``, one config path per entry of
    ``configs`` and ``options``, within CASE_SECONDS of wall time;
    returns the exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, overrides in enumerate(configs):
            path = Path(tmp) / f"fuzz_{i}.cfg"
            if overrides is not None:
                entries = dict(BASE, **overrides)
                path.write_text(
                    "".join(f"{key} = {value}\n" for key, value in entries.items()),
                    encoding="utf-8",
                )
            paths.append(str(path))
        argv = [command, *paths, *options, "-o", str(Path(tmp) / "out")]
        err = io.StringIO()
        with (
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(err),
            wall_time_limit(CASE_SECONDS),
        ):
            code = cli_main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(KEYS), EXTREMES, min_size=1, max_size=2))
@example({"dt_control": "1e308"})
@example({"kd_roll": "1e308", "omega_x": "2"})
@example({"noise_sigma_omega": "1e308"})
@example({"noise_sigma_accel": "1e308"})
@example({"dt_physics": "1e-12"})
@example({"wheel_radius": "1e308"})
def test_run_exit_code_is_documented(overrides):
    code, err = run_cli("run", [overrides])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODERATE_OVERRIDES))
@example({"alpha_deg": "180"})
def test_run_at_moderate_values_exit_code_is_documented(overrides):
    code, err = run_cli("run", [overrides])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@settings(max_examples=30, deadline=None)
@given(OVERRIDES, st.sampled_from(KEYS + ["flux_capacitance"]), SWEEP_VALUES)
@example({}, "drop_height", "0.5,0.5")
@example({"omega_x": "2"}, "kd_roll", "1,1e308,2")
@example({}, "drop_height", "0.5,apple")
@example({}, "drop_height", " ")
@example({}, "roll_deg", "-1,-1e-300")
def test_sweep_exit_code_is_documented(overrides, param, values):
    # Values such as -1e-300 or -1,2 follow --values as its argument.
    code, err = run_cli("sweep", [overrides], "--param", param, "--values", values)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@settings(max_examples=30, deadline=None)
@given(CONFIGS, CONFIGS)
@example({}, {"kd_roll": "1e308", "omega_x": "2"})
@example({}, {"bogus": "1"})
def test_compare_exit_code_is_documented(config_a, config_b):
    code, err = run_cli("compare", [config_a, config_b])
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


def test_negative_effective_inertia_exit_2():
    # At alpha = 180 deg the axle terms outweigh the rest of Jx*: J* is
    # (-3.617, 0.736, 0.316) kg m^2 at release.  The run used to exit 0,
    # and the momentum rescale at the swing flipped the roll rate from 1
    # to -1.0253 rad/s.
    overrides = {"alpha_deg": "180", "j_wxx": "1", "j_wyy": "1", "omega_x": "1"}
    code, err = run_cli("run", [overrides])
    assert code == 2
    assert err.startswith("config error: effective inertia J* = (-3.617, ")


@pytest.mark.parametrize("key, value", [("a", "1e300"), ("b", "1e200"), ("c", "1e160")])
def test_overflowed_effective_inertia_exit_2(key, value):
    # The wheel-mass reflection overflows J* to inf at the flight
    # steering.  The run used to exit 3, "simulation diverged at
    # t=0.000000 s": inf times a zero rate is NaN.
    code, err = run_cli("run", [{key: value}])
    assert code == 2
    assert err.startswith("config error: effective inertia J* = (")
    assert "inf" in err and "is not positive and finite" in err


@pytest.mark.parametrize("key", ["base_mass", "j_wzz"])
def test_retired_robot_keys_exit_2(key):
    # Neither key entered a run: translation is ballistic and yaw books
    # the base alone.
    code, err = run_cli("run", [{key: "1.0"}])
    assert code == 2
    assert err == f"config error: unknown config keys: {key}\n"


def test_disabled_controller_off_flight_beta_exit_2():
    # Only the freefall swing takes beta to 0, and a disabled controller
    # never swings, so this run used to exit 0 with the diagonal model
    # missing J_xy on all 395 rows (delta_1, delta_2 = 55, -35; mode 0).
    overrides = {"controller_enabled": "false", "beta_deg": "10",
                 "omega_x": "1", "t_max": "0.5"}
    code, err = run_cli("run", [overrides])
    assert code == 2
    assert err.startswith("config error: controller_enabled = false needs beta_deg = 0")
    # beta = 0 stays a valid disabled run, as drop_uncontrolled is.
    code, err = run_cli("run", [dict(overrides, beta_deg="0")])
    assert code == 0, err
