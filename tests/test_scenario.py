import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from swervefall import ConfigError, compare, run_scenario, simulate, sweep
from swervefall.cli import main as cli_main
from swervefall.scenario import (
    CSV_HEADER,
    load_scenario_file,
    resolve_config_path,
)

QUICK = """
drop_height = 0.2
roll_deg = 4.0
pitch_deg = -3.0
t_max = 0.3
dt_physics = 0.001
dt_control = 0.002
controller_enabled = true
seed = 5
"""


def write_config(tmp_path: Path, text: str, name: str = "quick.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_bundled_names_resolve():
    for name in ("drop_controlled", "drop_uncontrolled", "ledge"):
        loaded = load_scenario_file(name)
        assert loaded.name == name
    with pytest.raises(ConfigError):
        resolve_config_path("no_such_scenario")


def test_unknown_key_is_hard_error(tmp_path):
    path = write_config(tmp_path, QUICK + "warp_drive = 9\n")
    with pytest.raises(ConfigError, match="warp_drive"):
        load_scenario_file(path)


def test_bad_timing_is_config_error(tmp_path):
    path = write_config(
        tmp_path, QUICK.replace("dt_physics = 0.001", "dt_physics = 0.0003")
    )
    with pytest.raises(ConfigError, match="integer multiple"):
        load_scenario_file(path)


def test_run_scenario_writes_pinned_csv(tmp_path):
    config = write_config(tmp_path, QUICK)
    summary = run_scenario(config, tmp_path / "out")
    csv_path = tmp_path / "out" / "quick.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # one row per control tick: ticks at 0, dt_control, ... up to touchdown
    loaded = load_scenario_file(config)
    trajectory = simulate(loaded.scenario, loaded.controller, loaded.params)
    assert len(lines) - 1 == len(trajectory.samples)
    tick_times = [float(row.split(",", 1)[0]) for row in lines[1:]]
    dt = loaded.controller.dt_control
    assert all(
        math.isclose(t, i * dt, abs_tol=1e-12) for i, t in enumerate(tick_times)
    )
    first = lines[1].split(",")
    assert len(first) == len(CSV_HEADER.split(","))
    # roll column is in degrees
    assert math.isclose(float(first[1]), 4.0, abs_tol=1e-9)
    # >= 9 significant digits on a non-trivial float cell
    z_cells = [row.split(",")[18] for row in lines[1:]]
    assert any(len(re.sub(r"[-.eE+]", "", cell)) >= 9 for cell in z_cells)
    assert summary.touchdown_time is not None


def test_run_scenario_reproducible_bytes(tmp_path):
    config = write_config(tmp_path, QUICK + "noise_sigma_accel = 0.05\n")
    run_scenario(config, tmp_path / "a")
    run_scenario(config, tmp_path / "b")
    assert (tmp_path / "a" / "quick.csv").read_bytes() == (
        tmp_path / "b" / "quick.csv"
    ).read_bytes()


def test_compare_identical_configs_zero_delta(tmp_path):
    config = write_config(tmp_path, QUICK)
    summary_a, summary_b, report = compare(config, config, tmp_path / "out")
    assert summary_a.touchdown_time == summary_b.touchdown_time
    assert summary_a.euler_touchdown_deg == summary_b.euler_touchdown_deg
    assert any("delta +0.0000" in line for line in report)
    assert any("out of scope" in line for line in report)


def test_compare_controlled_beats_uncontrolled(tmp_path):
    summary_c, summary_u, _ = compare(
        "drop_controlled", "drop_uncontrolled", tmp_path / "out"
    )
    c_roll, c_pitch, _ = summary_c.euler_touchdown_deg
    u_roll, u_pitch, _ = summary_u.euler_touchdown_deg
    assert abs(c_roll) < abs(u_roll)
    assert abs(c_pitch) < abs(u_pitch)


def test_compare_null_case_settles_trivially(tmp_path):
    zero = QUICK.replace("roll_deg = 4.0", "roll_deg = 0.0").replace(
        "pitch_deg = -3.0", "pitch_deg = 0.0"
    )
    config_a = write_config(tmp_path, zero, "null_a.cfg")
    config_b = write_config(
        tmp_path, zero.replace("controller_enabled = true",
                               "controller_enabled = false"),
        "null_b.cfg",
    )
    summary_a, summary_b, _ = compare(config_a, config_b, tmp_path / "out")
    for summary in (summary_a, summary_b):
        phi, theta, _ = summary.euler_touchdown_deg
        assert abs(phi) < 1e-6 and abs(theta) < 1e-6


def test_sweep_single_value_matches_run(tmp_path):
    config = write_config(tmp_path, QUICK)
    [swept] = sweep(config, "tau_wheel_max", [10.0], tmp_path / "s")
    direct = run_scenario(config, tmp_path / "r")
    assert swept.touchdown_time == direct.touchdown_time
    assert swept.peak_tau == direct.peak_tau


def test_sweep_unknown_parameter(tmp_path):
    config = write_config(tmp_path, QUICK)
    with pytest.raises(ConfigError, match="unknown sweep parameter"):
        sweep(config, "flux_capacitance", [1.0], tmp_path / "s")


def test_sweep_writes_aggregate(tmp_path):
    config = write_config(tmp_path, QUICK)
    sweep(config, "tau_wheel_max", [5.0, 10.0], tmp_path / "s")
    aggregate = (tmp_path / "s" / "sweep_tau_wheel_max.csv").read_text().splitlines()
    assert aggregate[0].startswith("parameter,value,touchdown_time")
    assert len(aggregate) == 3


def test_settle_time_monotone_in_torque_limit(tmp_path):
    # Stronger motors never settle later on the reference drop; runs
    # that never settle count as infinitely late.
    summaries = sweep("drop_controlled", "tau_wheel_max",
                      [2.0, 4.0, 8.0, 16.0], tmp_path / "mono")
    settles = [s.settle_time if s.settle_time is not None else math.inf
               for s in summaries]
    assert all(b <= a + 1e-12 for a, b in zip(settles, settles[1:]))


def test_gain_sweep_all_stable(tmp_path):
    summaries = sweep("drop_controlled", "kp_roll",
                      [25.0, 75.0, 150.0], tmp_path / "gains")
    for summary in summaries:
        assert summary.touchdown_time is not None
        assert all(np.isfinite(v) for v in summary.peak_tau)


# --- CLI ----------------------------------------------------------------------

def test_cli_run_ok(tmp_path, capsys):
    code = cli_main(["run", "drop_uncontrolled", "-o", str(tmp_path / "cli")])
    assert code == 0
    out = capsys.readouterr().out
    assert "touchdown_time_s" in out
    assert (tmp_path / "cli" / "drop_uncontrolled.csv").exists()


def test_cli_missing_config_exit_2(tmp_path):
    assert cli_main(["run", "missing.cfg", "-o", str(tmp_path)]) == 2


def test_cli_bad_key_exit_2(tmp_path):
    config = write_config(tmp_path, QUICK + "bogus = 1\n")
    assert cli_main(["run", str(config), "-o", str(tmp_path)]) == 2


def test_cli_bad_sweep_values_exit_2(tmp_path):
    config = write_config(tmp_path, QUICK)
    code = cli_main(["sweep", str(config), "--param", "tau_wheel_max",
                     "--values", "1,apple", "-o", str(tmp_path)])
    assert code == 2


def test_cli_sweep_bad_timing_exit_2(tmp_path, capsys):
    code = cli_main(["sweep", "ledge", "--param", "dt_control",
                     "--values", "0.00015", "-o", str(tmp_path)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_sweep_validates_every_value_before_running(tmp_path, capsys):
    out = tmp_path / "partial"
    code = cli_main(["sweep", "ledge", "--param", "dt_control",
                     "--values", "0.001,0.00015", "-o", str(out)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_broken_pipe_exits_cleanly(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        """A stdout whose reader has gone away, as under ``| head``."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
    try:
        code = cli_main(["run", "drop_uncontrolled", "-o", str(tmp_path / "o")])
    finally:
        os.close(fd)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "o" / "drop_uncontrolled.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("kp_roll", "nan"),
    ("freefall_accel_threshold", "-1"),
    ("freefall_debounce", "-1"),
    ("seed", "-1"),
    ("noise_sigma_accel", "-0.5"),
    ("noise_sigma_euler_deg", "-3"),
])
def test_cli_out_of_range_value_exit_2(tmp_path, capsys, key, value):
    base = QUICK.replace("seed = 5\n", "") + "noise_sigma_accel = 0.05\n"
    text = "".join(line for line in base.splitlines(keepends=True)
                   if not line.startswith(f"{key} ="))
    config = write_config(tmp_path, text + f"{key} = {value}\n")
    assert cli_main(["run", str(config), "-o", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_nonfinite_exit_3(tmp_path):
    # Microscopic inertia with huge gains and a coarse step drives the
    # integration to overflow.
    unstable = """
drop_height = 50.0
roll_deg = 40.0
t_max = 2.0
dt_physics = 0.01
dt_control = 0.01
controller_enabled = true
kp_roll = 1e9
kp_pitch = 1e9
kd_roll = 0.0
kd_pitch = 0.0
j_bxx = 1e-6
j_byy = 1e-6
j_bzz = 1e-6
j_wxx = 1e-9
j_wyy = 1e-9
j_wzz = 1e-9
wheel_mass = 1e-6
base_mass = 1e-3
tau_wheel_max = 1e9
tau_steer_max = 1e9
wheel_speed_max = 1e12
"""
    config = write_config(tmp_path, unstable, "unstable.cfg")
    code = cli_main(["run", str(config), "-o", str(tmp_path / "u")])
    assert code == 3


def test_cli_env_var_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SWERVEFALL_OUTPUT_DIR", str(tmp_path / "envout"))
    code = cli_main(["run", "drop_uncontrolled"])
    assert code == 0
    assert (tmp_path / "envout" / "drop_uncontrolled.csv").exists()
