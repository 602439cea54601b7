import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import swervefall.scenario as scenario
from swervefall import (
    ConfigError,
    ControllerConfig,
    RobotParams,
    ScenarioConfig,
    compare,
    run_scenario,
    simulate,
    sweep,
)
from swervefall.cli import main as cli_main
from swervefall.scenario import (
    load_scenario_file,
    loaded_from_entries,
    resolve_config_path,
)
from swervefall.simulation import CSV_HEADER, SPIN_STEP_EXCEEDED

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


def run_cli_process(args: list[str]) -> subprocess.CompletedProcess:
    """``swervefall`` in a fresh interpreter, so that stderr holds what a
    user sees, numpy's warnings included."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "swervefall.cli", *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


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


@pytest.mark.parametrize("key, value, params, controller", [
    ("j_bxx", "-1.0", RobotParams(j_bxx=-1.0), ControllerConfig()),
    ("j_wzz", "1.0", RobotParams(j_wzz=1.0), ControllerConfig()),
    ("wheel_radius", "1e20", RobotParams(wheel_radius=1e20), ControllerConfig()),
    ("freefall_debounce", "-1.0", RobotParams(),
     ControllerConfig(freefall_debounce=-1.0)),
    ("freefall_accel_threshold", "0.0", RobotParams(),
     ControllerConfig(freefall_accel_threshold=0.0)),
])
def test_simulate_refuses_what_the_loader_refuses(key, value, params, controller):
    # Library simulate runs the loader's checks: the same input fails
    # with the same ConfigError, never with a trajectory.
    with pytest.raises(ConfigError) as loader:
        loaded_from_entries({key: value}, name="x")
    with pytest.raises(ConfigError) as library:
        simulate(ScenarioConfig(t_max=0.3, dt_physics=0.001), controller, params)
    assert str(library.value) == str(loader.value)


def test_byte_order_mark_config_runs_as_without(tmp_path):
    text = QUICK.lstrip()
    plain, marked = tmp_path / "plain" / "quick.cfg", tmp_path / "marked" / "quick.cfg"
    for path in (plain, marked):
        path.parent.mkdir()
    plain.write_text(text, encoding="utf-8")
    # As some Windows editors save it: a UTF-8 byte-order mark first.
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    run_scenario(plain, tmp_path / "out_plain")
    run_scenario(marked, tmp_path / "out_marked")
    expected = (tmp_path / "out_plain" / "quick.csv").read_bytes()
    assert (tmp_path / "out_marked" / "quick.csv").read_bytes() == expected


def test_import_loads_no_pool_or_cli():
    # The pool modules load only in a parallel sweep or compare, and
    # argparse only with the console script: importing the package for a
    # single run pays for neither.
    src = str(Path(scenario.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, swervefall; print(*sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True, env=dict(os.environ, PYTHONPATH=path),
    ).stdout.split()
    assert "swervefall" in loaded
    heavy = {"multiprocessing", "concurrent.futures", "argparse"}
    assert heavy.isdisjoint(loaded)


def test_run_scenario_writes_pinned_csv(tmp_path):
    config = write_config(tmp_path, QUICK)
    summary = run_scenario(config, tmp_path / "out")
    csv_path = tmp_path / "out" / "quick.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # one row per control tick: ticks at 0, dt_control, ... up to touchdown
    loaded = load_scenario_file(config)
    trajectory = simulate(loaded.scenario, loaded.controller, loaded.params)
    assert len(lines) - 1 == len(trajectory.rows)
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
    with pytest.raises(ConfigError, match="unknown config keys: flux_capacitance"):
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


# --- parallel sweep and compare -----------------------------------------------

def use_workers(monkeypatch, count: int) -> None:
    """Run sweep and compare with up to ``count`` worker processes."""
    monkeypatch.setattr(scenario, "_worker_count", lambda groups: min(groups, count))


def output_files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.fixture
def simulating_pids(tmp_path, monkeypatch):
    """Make every group of runs log the id of the process that simulates
    it, and return a function that takes the ids logged so far."""
    log = tmp_path / "pids"
    real_simulate = scenario.simulate_lanes

    def logged_simulate(*args):
        with log.open("a", encoding="utf-8") as out:
            out.write(f"{os.getpid()}\n")
        return real_simulate(*args)

    def take() -> set[int]:
        pids = {int(pid) for pid in log.read_text(encoding="utf-8").split()}
        log.unlink()
        return pids

    # Forked workers inherit the patched module.
    monkeypatch.setattr(scenario, "simulate_lanes", logged_simulate)
    return take


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_pool_binds_each_worker_to_a_cpu_of_its_own(tmp_path, monkeypatch):
    # A scheduler that does not balance load can leave two unbound workers
    # on one CPU while another idles.
    log = tmp_path / "cpus"
    real_simulate = scenario.simulate_lanes

    def logged_simulate(*args):
        with log.open("a", encoding="utf-8") as out:
            out.write(f"{os.getpid()} {' '.join(map(str, os.sched_getaffinity(0)))}\n")
        return real_simulate(*args)

    monkeypatch.setattr(scenario, "simulate_lanes", logged_simulate)
    use_workers(monkeypatch, 2)
    available = os.sched_getaffinity(0)
    sweep(write_config(tmp_path, QUICK), "roll_deg", [0.3, 0.2, 0.25, 0.35], tmp_path / "out")
    # Each worker's CPUs, by process id.
    bound = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, *cpus = map(int, line.split())
        bound[pid] = cpus
    assert all(len(cpus) == 1 and cpus[0] in available for cpus in bound.values())
    assert len({cpus[0] for cpus in bound.values()}) == min(len(bound), len(available))
    assert os.sched_getaffinity(0) == available


def test_parallel_sweep_and_compare_match_serial(tmp_path, monkeypatch, simulating_pids):
    # Every roll_deg value changes the attitude, so each run is a group of
    # its own and the sweep's four groups go to the workers.
    config = write_config(tmp_path, QUICK)
    other = write_config(
        tmp_path,
        QUICK.replace("controller_enabled = true", "controller_enabled = false"),
        "other.cfg",
    )
    results = []
    for count in (1, 2):
        use_workers(monkeypatch, count)
        out = tmp_path / f"workers_{count}"
        swept = sweep(config, "roll_deg", [0.3, 0.2, 0.25, 0.35], out)
        compared = compare(config, other, out)
        results.append((swept, compared, output_files(out)))
        pids = simulating_pids()
        if count == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids
    assert results[0] == results[1]
    names = list(results[0][2])
    assert names == sorted(
        ["delta_quick_vs_other.txt", "other.csv", "quick.csv",
         "sweep_roll_deg.csv"]
        + [f"quick_roll_deg_{v}.csv" for v in ("0.2", "0.25", "0.3", "0.35")]
    )
    aggregate = results[0][2]["sweep_roll_deg.csv"].decode().splitlines()
    assert [row.split(",")[1] for row in aggregate[1:]] == ["0.3", "0.2", "0.25", "0.35"]


def test_sweep_in_a_threaded_process_runs_serially(tmp_path, monkeypatch, simulating_pids):
    # Forking a process that runs other threads could copy a held lock.
    use_workers(monkeypatch, 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        sweep(write_config(tmp_path, QUICK), "roll_deg", [2.0, 3.0], tmp_path / "s")
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert simulating_pids() == {os.getpid()}


def test_cli_sweep_divergence_midway_matches_serial(tmp_path, monkeypatch, capfd):
    # The middle value's PD demand overflows; the runs before it keep
    # their CSVs, nothing after it is written, and no aggregate either.
    config = write_config(tmp_path, QUICK + "omega_x = 2\n")
    seen = []
    for count in (1, 2):
        use_workers(monkeypatch, count)
        out = tmp_path / f"workers_{count}"
        code = cli_main(["sweep", str(config), "--param", "kd_roll",
                         "--values", "1,1e308,2", "-o", str(out)])
        captured = capfd.readouterr()
        seen.append((code, captured.out, captured.err, output_files(out)))
    assert seen[0] == seen[1]
    code, out, err, files = seen[0]
    assert code == 3
    assert out == ""
    assert re.fullmatch(
        r"simulation error: non-finite controller demand at t=\S+ s\n", err
    )
    assert list(files) == ["quick_kd_roll_1.csv"]


# --- runs grouped as lanes of one attitude integration -------------------------

def cli_sweep(config: Path, param: str, values: list[str], out: Path):
    """``swervefall sweep``: (exit code, stdout, stderr, files written)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(["sweep", str(config), "--param", param,
                         "--values", ",".join(values), "-o", str(out)])
    files = output_files(out) if out.exists() else {}
    return code, stdout.getvalue(), stderr.getvalue(), files


def one_value_sweeps(config: Path, param: str, values: list[str], tmp: Path):
    """What a sweep over ``values`` must give, pieced together from one
    one-value sweep per value: their summaries, run CSVs and aggregate
    rows, up to the first value that fails, whose stderr it then gives
    with the run CSVs before it."""
    stdout, files, rows = "", {}, []
    aggregate = f"sweep_{param}.csv"
    for i, value in enumerate(values):
        code, out, err, written = cli_sweep(config, param, [value], tmp / f"one_{i}")
        if code != 0:
            return code, "", err, files
        header, row = written.pop(aggregate).decode().splitlines()
        rows.append(row)
        stdout += out
        files.update(written)
    files[aggregate] = "\n".join([header, *rows, ""]).encode()
    return 0, stdout, "", dict(sorted(files.items()))


def assert_sweep_matches_one_value_sweeps(extra: str, param: str, values: list[str]):
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), QUICK + extra)
        grouped = cli_sweep(config, param, values, Path(tmp) / "grouped")
        assert grouped == one_value_sweeps(config, param, values, Path(tmp))
    return grouped


@pytest.mark.parametrize("extra, param, values, code", [
    # Two lanes end at their t_max before touchdown.
    ("", "t_max", ["0.3", "0.05", "0.1"], 0),
    # A lane that starts on the ground, among unsorted heights.
    ("", "drop_height", ["0.2", "0", "0.35", "0.1"], 0),
    # The PD demand overflows once freefall is detected (about 20 ms),
    # after the two lowest lanes have landed.
    ("kd_roll = 1e308\nomega_x = 2\n", "drop_height", ["0", "0.001", "0.2", "0.05"], 3),
    # Each seed draws its own IMU noise, so each run is a group of its own.
    ("noise_sigma_accel = 0.05\nnoise_sigma_omega = 0.01\n", "seed", ["1", "2"], 0),
], ids=["t_max", "drop_height", "shared_divergence", "seed"])
def test_grouped_sweep_matches_one_value_sweeps(extra, param, values, code):
    grouped = assert_sweep_matches_one_value_sweeps(extra, param, values)
    assert grouped[0] == code


@pytest.mark.parametrize("values", [["1e308", "0.5"], ["0.5", "-2", "1e308", "1"]],
                         ids=["overflow_first", "overflow_later"])
def test_sweep_over_an_overflowing_release_writes_nothing(tmp_path, values):
    # A release velocity whose ballistic path leaves the float range is a
    # config error, first or later in input order, and the sweep refuses
    # it before any run: a lane never diverges on its own.
    config = write_config(tmp_path, QUICK)
    code, out, err, files = cli_sweep(config, "velocity_x", values, tmp_path / "s")
    assert (code, out, files) == (2, "", {})
    assert err.startswith("config error: release translation may leave the float range")


LANE_VALUES = {
    "drop_height": st.floats(0.0, 0.6),
    "velocity_x": st.floats(-3.0, 3.0),
    "velocity_y": st.floats(-3.0, 3.0),
    "velocity_z": st.floats(-5.0, 3.0),
    "t_max": st.floats(0.0, 0.4),
}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    extra=st.sampled_from([
        "",
        "noise_sigma_accel = 0.05\nnoise_sigma_omega = 0.01\n",
        "controller_enabled = false\n",
    ]),
    param_values=st.sampled_from(sorted(LANE_VALUES)).flatmap(
        lambda param: st.tuples(
            st.just(param),
            # "-0" is read as the int 0, so it and "0" are one value.
            st.lists(LANE_VALUES[param].map(lambda v: f"{v:.12g}"),
                     min_size=2, max_size=4, unique_by=float),
        )
    ),
)
@example(extra="", param_values=("velocity_z", ["3", "-5", "0"]))
def test_sweep_over_lane_fields_matches_one_value_sweeps(extra, param_values):
    # Runs that differ only in drop height, release velocity or t_max
    # share one attitude integration; every file and line they give is
    # what one one-value sweep per value gives.
    param, values = param_values
    assert_sweep_matches_one_value_sweeps(extra, param, values)


def test_compare_of_lanes_matches_runs(tmp_path):
    # Two configs that differ only in drop height share one attitude
    # integration; each CSV and summary is its own run's.
    config = write_config(tmp_path, QUICK)
    low = write_config(tmp_path, QUICK.replace("drop_height = 0.2", "drop_height = 0.1"),
                       "low.cfg")
    summaries = compare(config, low, tmp_path / "cmp")[:2]
    assert summaries == (run_scenario(config, tmp_path / "a"),
                         run_scenario(low, tmp_path / "b"))
    assert (tmp_path / "cmp" / "quick.csv").read_bytes() == (
        tmp_path / "a" / "quick.csv").read_bytes()
    assert (tmp_path / "cmp" / "low.csv").read_bytes() == (
        tmp_path / "b" / "low.csv").read_bytes()


def test_cli_sweep_negative_values(tmp_path):
    # A comma list that starts with a minus sign is the --values value,
    # not an option.
    config = write_config(tmp_path, QUICK)
    out = tmp_path / "neg"
    code = cli_main(["sweep", str(config), "--param", "roll_deg",
                     "--values", "-10,-20", "-o", str(out)])
    assert code == 0
    assert list(output_files(out)) == [
        "quick_roll_deg_-10.csv", "quick_roll_deg_-20.csv", "sweep_roll_deg.csv"]


def test_cli_sweep_keeps_long_integer_seeds(tmp_path, capsys):
    # A seed of 13 digits reaches the config as written, not rounded to
    # 12 significant digits, and names its run exactly.
    noisy = QUICK.replace("seed = 5\n", "") + "noise_sigma_omega = 0.01\n"
    config = write_config(tmp_path, noisy)
    out = tmp_path / "seeds"
    code = cli_main(["sweep", str(config), "--param", "seed",
                     "--values", "1234567890123", "-o", str(out)])
    assert code == 0, capsys.readouterr().err
    direct = write_config(tmp_path, noisy + "seed = 1234567890123\n", "direct.cfg")
    run_scenario(direct, tmp_path / "direct")
    assert (out / "quick_seed_1234567890123.csv").read_bytes() == (
        tmp_path / "direct" / "direct.csv").read_bytes()
    assert (out / "sweep_seed.csv").read_text().splitlines()[1].startswith(
        "seed,1234567890123,")


def test_cli_compare_bad_second_config_writes_nothing(tmp_path, capsys):
    config = write_config(tmp_path, QUICK)
    bad = write_config(tmp_path, QUICK + "bogus = 1\n", "bad.cfg")
    out = tmp_path / "cmp"
    assert cli_main(["compare", str(config), str(bad), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "config error: unknown config keys: bogus\n"
    assert not out.exists()


def test_cli_compare_same_name_different_files_exit_2(tmp_path, capsys):
    # Both runs would write same.csv, so the second would replace the
    # first's telemetry.
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    config_a = write_config(tmp_path / "x", QUICK, "same.cfg")
    config_b = write_config(tmp_path / "y", QUICK + "velocity_x = 1\n", "same.cfg")
    out = tmp_path / "cmp"
    assert cli_main(["compare", str(config_a), str(config_b), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: configs '{config_a}' and '{config_b}' share the name 'same'\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--param", "drop_height", "--values", "0.5"],
])
def test_cli_non_utf8_config_exit_2(tmp_path, capsys, command):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"drop_height = 0.5\xff\n")
    out = tmp_path / "out"
    argv = [command[0], str(config), *command[1:], "-o", str(out)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config '{config}': ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["run", "drop_uncontrolled"],
    ["compare", "drop_uncontrolled", "drop_controlled"],
    ["sweep", "ledge", "--param", "drop_height", "--values", "0.5"],
])
def test_cli_unusable_output_dir_exit_2(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")
    assert cli_main([*command, "-o", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert str(afile) in err
    assert err.count("\n") == 1
    assert afile.read_text(encoding="utf-8") == "not a directory\n"


def test_cli_run_makes_output_dir_before_simulating(tmp_path, capsys, monkeypatch):
    def simulate_too_early(*args):
        raise AssertionError("simulated before making the output directory")

    monkeypatch.setattr(scenario, "simulate", simulate_too_early)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")
    assert cli_main(["run", "ledge", "-o", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert err.count("\n") == 1


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


def test_cli_sweep_names_each_value_apart(tmp_path, capsys):
    out = tmp_path / "s"
    code = cli_main(["sweep", "ledge", "--param", "drop_height",
                     "--values", "0.30000001,0.30000002", "-o", str(out)])
    assert code == 0
    names = re.findall(r"^run: (\S+)$", capsys.readouterr().out, re.MULTILINE)
    assert names == ["ledge_drop_height_0.30000001", "ledge_drop_height_0.30000002"]
    first, second = (out / f"{name}.csv" for name in names)
    assert first.read_bytes() != second.read_bytes()


def test_cli_sweep_duplicate_values_exit_2(tmp_path, capsys):
    out = tmp_path / "dup"
    code = cli_main(["sweep", "ledge", "--param", "drop_height",
                     "--values", "0.5,0.5", "-o", str(out)])
    assert code == 2
    assert "duplicate sweep values: 0.5" in capsys.readouterr().err
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
    ("noise_sigma_euler_deg", "180.000001"),
    ("noise_sigma_omega", "1e308"),
    ("noise_sigma_accel", "1e200"),
    ("noise_sigma_accel", "1e308"),
    ("wheel_radius", "1e308"),
    ("wheel_radius", "1e20"),
    ("dt_physics", "1e-12"),
    ("dt_control", "1e308"),
])
def test_cli_out_of_range_value_exit_2(tmp_path, capsys, key, value):
    base = QUICK.replace("seed = 5\n", "") + "noise_sigma_accel = 0.05\n"
    text = "".join(line for line in base.splitlines(keepends=True)
                   if not line.startswith(f"{key} ="))
    config = write_config(tmp_path, text + f"{key} = {value}\n")
    assert cli_main(["run", str(config), "-o", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_nonfinite_exit_3(tmp_path):
    # Microscopic inertia with huge gains and a coarse step spins the body
    # past the step's spin bound; the run ends at the start of the tick
    # (t = 0.03 s) whose step used to overflow.
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
    result = run_cli_process(["run", str(config), "-o", str(tmp_path / "u")])
    assert result.returncode == 3
    assert f"simulation error: {SPIN_STEP_EXCEEDED} at t=0.030000 s" in result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_cli_translation_overflow_exit_2(tmp_path):
    # A finite release velocity whose translation would overflow in the
    # first step is refused when the config loads, before any output and
    # without a numpy warning; it used to diverge at t = 0 (exit 3).
    config = write_config(tmp_path, QUICK + "velocity_x = 1e308\n")
    result = run_cli_process(["run", str(config), "-o", str(tmp_path / "o")])
    assert result.returncode == 2
    assert result.stderr.startswith(
        "config error: release translation may leave the float range by t_max"
    )
    assert "RuntimeWarning" not in result.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra", [
    "kd_roll = 1e308\nomega_x = 2\n",
    # A finite demand of about 1.5e308 per axis whose solve overflows.
    "kp_roll = 0\nkp_pitch = 0\nkd_roll = 1e307\nkd_pitch = 1e307\n"
    "omega_x = -15\nomega_y = -15\n",
], ids=["kd_roll", "allocation_overflow"])
def test_cli_nonfinite_controller_demand_exit_3(tmp_path, capsys, extra):
    # The PD demand, or its allocation, overflows once freefall is
    # detected; the allocator refuses it and the run ends as diverged,
    # not with a traceback or a saturated command.
    config = write_config(tmp_path, QUICK + extra)
    assert cli_main(["run", str(config), "-o", str(tmp_path / "o")]) == 3
    assert re.fullmatch(
        r"simulation error: non-finite controller demand at t=\S+ s\n",
        capsys.readouterr().err,
    )


def test_noise_sigmas_at_their_ceiling_run(tmp_path):
    # The largest sigmas the config accepts give finite readings: the run
    # ends by touchdown, with the accelerometer peak a finite number.
    config = write_config(tmp_path, QUICK + (
        "noise_sigma_euler_deg = 180\n"
        "noise_sigma_omega = 100\n"
        "noise_sigma_accel = 1000\n"
    ))
    summary = run_scenario(config, tmp_path / "o")
    assert summary.touchdown_time is not None
    assert 0.0 < summary.max_specific_accel < math.inf


def test_cli_env_var_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SWERVEFALL_OUTPUT_DIR", str(tmp_path / "envout"))
    code = cli_main(["run", "drop_uncontrolled"])
    assert code == 0
    assert (tmp_path / "envout" / "drop_uncontrolled.csv").exists()
    # An empty directory, from the variable or from -o, means ./out.
    for form, env, args in [("env", "", []), ("option", None, ["-o", ""])]:
        cwd = tmp_path / form
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        if env is None:
            monkeypatch.delenv("SWERVEFALL_OUTPUT_DIR")
        else:
            monkeypatch.setenv("SWERVEFALL_OUTPUT_DIR", env)
        assert cli_main(["run", "drop_uncontrolled", *args]) == 0
        assert sorted(p.relative_to(cwd).as_posix() for p in cwd.rglob("*")) == [
            "out", "out/drop_uncontrolled.csv"]
