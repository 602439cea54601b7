"""Exit-code contract of ``swervefall run``: every config either runs
(0) or is refused with a documented code, 2 for a config error and 3
for a diverged simulation.  No input may raise out of ``cli.main``."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from swervefall.cli import main as cli_main
from swervefall.params import read_config_file
from swervefall.scenario import resolve_config_path, sweepable_parameters

# drop_controlled at one physics step per control tick: a run is at most
# t_max / dt_physics = 1000 steps unless the example changes those keys,
# and the work budget bounds what they can ask for.
BASE = dict(read_config_file(resolve_config_path("drop_controlled")),
            dt_physics="0.001")
KEYS = sorted(sweepable_parameters() | {"seed", "controller_enabled"})
EXTREMES = st.sampled_from([
    "0", "1e-300", "-1e-300", "1e308", "-1e308", "-1", "-0.5",
    str(10**30), str(-10**30), str(10**400),
])


def run_with(overrides: dict[str, str]) -> tuple[int, str]:
    entries = dict(BASE, **overrides)
    text = "".join(f"{key} = {value}\n" for key, value in entries.items())
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.cfg"
        config.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(["run", str(config), "-o", str(Path(tmp) / "out")])
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
    code, err = run_with(overrides)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
