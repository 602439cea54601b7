"""Golden telemetry: the bundled scenarios, a noisy clamped run and a
drop_height sweep run as lanes must reproduce their CSVs byte for byte,
and the bundled scenarios their run summaries.  Any change to the
physics, the controller or the CSV format that moves a single bit shows
up here."""

import hashlib
import sys
import threading

import pytest

from swervefall import controller, run_scenario, simulation, sweep
from swervefall.cli import main as cli_main
from swervefall.params import read_config_file
from swervefall.scenario import (
    loaded_from_entries,
    resolve_config_path,
    write_trajectory_csv,
)

GOLDEN_SHA256 = {
    "drop_controlled":
        "b0f1fb3c954fd784a6687d3350422636ee83a63963e764ad68286ccb9345ec8f",
    "drop_uncontrolled":
        "e516add2f8ac0badffe12c01b34736440ee7c1495e7b8fac47ad42b3e6107cce",
    "ledge":
        "ea05de7c5da5ee7669cc878241caf578ab7dd98747e84895b844cc4eadae03ac",
}

# The bundled scenarios' RunSummary reprs, which print every float
# exactly: the touchdown attitude and rates come from the touchdown
# state, which no CSV row holds.
SUMMARY_SHA256 = {
    "drop_controlled":
        "13b1ae2a6ef487a763c1f70f8b216c5d738d5f6572d29c7afdfe59aa56df06ec",
    "drop_uncontrolled":
        "09c68d45e6941595c66bf1fa9d4db00c89c47bb02d4edd74d2bf0eeb6ef61e3b",
    "ledge":
        "dc3642e7661e84f979abc46cfeb8712ac30da645a750f80079873055a7671e3b",
}

# drop_controlled at one physics step per control tick, with IMU noise on
# and a wheel-speed limit low enough that the clamp fires on 214 of the
# 449 ticks: the branches the bundled configs never reach.
NOISY_CLAMPED = {
    "dt_physics": "0.001",
    "noise_sigma_euler_deg": "0.5",
    "noise_sigma_omega": "0.01",
    "noise_sigma_accel": "0.05",
    "seed": "7",
    "wheel_speed_max": "15",
}
NOISY_CLAMPED_SHA256 = (
    "037cc8c864f41c688419a07b4e1daa06bc98a3f36b9068e1eb0da0de303d881b"
)

# A ledge drop_height sweep whose four runs share one attitude
# integration as lanes: the run CSVs and the aggregate.
LANES_SHA256 = {
    "ledge_drop_height_0.3359.csv":
        "1d7036d3b57768af053200ec5ee0db4d188fd4757b280857a812cc7703675706",
    "ledge_drop_height_0.8549.csv":
        "78c61da4c7586905431f3d20fdf557fb8da92cd27c7adeb7ab2cc97af6b1f5f9",
    "ledge_drop_height_1.1985.csv":
        "6280a0a790f67ce6ea0e546777b9be876c2688ebb530188ee54bcd431622c5bf",
    "ledge_drop_height_1.594.csv":
        "8daed18d28814af057a5a4707f3b4ca7f65dffd2425642def29765adc1fd06c6",
    "sweep_drop_height.csv":
        "4605a022d5e66b6ac3baf534f6d2b3c5ba538a7fa8e35eab87ba2712b77bc570",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_bundled_csv_matches_golden_hash(name, tmp_path):
    run_scenario(name, tmp_path)
    data = (tmp_path / f"{name}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(SUMMARY_SHA256))
def test_bundled_summary_matches_golden_hash(name, tmp_path):
    summary = repr(run_scenario(name, tmp_path))
    assert hashlib.sha256(summary.encode()).hexdigest() == SUMMARY_SHA256[name]


def test_bundled_name_beside_a_directory_of_that_name(tmp_path, monkeypatch):
    # ``run ledge -o ledge`` leaves a directory named ledge; the next
    # ``run ledge`` there still runs the bundled scenario.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ledge").mkdir()
    assert cli_main(["run", "ledge", "-o", "out"]) == 0
    data = (tmp_path / "out" / "ledge.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256["ledge"]


def test_drop_height_sweep_matches_golden_hashes(tmp_path):
    # Four ledge drop heights run as lanes of one attitude integration;
    # each lane ends at its own touchdown.
    sweep("ledge", "drop_height", [0.3359, 0.8549, 1.1985, 1.594], tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == LANES_SHA256


def test_noisy_clamped_csv_matches_golden_hash(tmp_path, monkeypatch):
    limit = controller.apply_wheel_speed_limit
    clamped = []

    def counting_limit(command, *args):
        limited = limit(command, *args)
        clamped.append(tuple(limited) != tuple(command))
        return limited

    monkeypatch.setattr(controller, "apply_wheel_speed_limit", counting_limit)
    entries = read_config_file(resolve_config_path("drop_controlled"))
    entries.update(NOISY_CLAMPED)
    loaded = loaded_from_entries(entries, name="noisy_clamped")
    trajectory = simulation.simulate(loaded.scenario, loaded.controller, loaded.params)
    assert (len(trajectory.rows), sum(clamped)) == (449, 214)
    path = tmp_path / "noisy_clamped.csv"
    write_trajectory_csv(trajectory, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == NOISY_CLAMPED_SHA256


def test_concurrent_runs_match_golden_hashes(tmp_path):
    # Two runs in two threads that switch every microsecond: each run's
    # norm buffers are its own, so neither run's CSV moves.
    def controlled():
        run_scenario("drop_controlled", tmp_path / "controlled")
        return (tmp_path / "controlled" / "drop_controlled.csv").read_bytes()

    def noisy():
        entries = read_config_file(resolve_config_path("drop_controlled"))
        entries.update(NOISY_CLAMPED)
        loaded = loaded_from_entries(entries, name="noisy_clamped")
        trajectory = simulation.simulate(loaded.scenario, loaded.controller, loaded.params)
        path = tmp_path / "noisy_clamped.csv"
        write_trajectory_csv(trajectory, path)
        return path.read_bytes()

    csvs = {}
    threads = [
        threading.Thread(target=lambda name=name, job=job: csvs.update({name: job()}))
        for name, job in (("controlled", controlled), ("noisy", noisy))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in csvs.items()} == {
        "controlled": GOLDEN_SHA256["drop_controlled"],
        "noisy": NOISY_CLAMPED_SHA256,
    }
