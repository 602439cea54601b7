"""Golden telemetry: the bundled scenarios, a noisy clamped run and a
drop_height sweep run as lanes must reproduce their CSVs byte for byte,
and the bundled scenarios their run summaries.  Any change to the
physics, the controller or the CSV format that moves a single bit shows
up here.

The digests live in ``golden.json`` beside this file, keyed by workload
and then by file name: ``bundled``, ``coarse_step_noisy`` and
``sweep_drop_height`` as the benchmark names its workloads, plus
``noisy_clamped`` and ``bundled_summaries`` (the sha256 of each bundled
run's ``RunSummary`` repr, keyed by run name), which only these tests
check.  CI runs them on the installed package.

A change that moves a pinned bit is a re-pin, made on purpose:

1. at the parent commit, run the pinned commands into a tree OLD, each
   command's printed summaries saved in the tree (``mkdir OLD``, then
   ``swervefall run ledge -o OLD > OLD/run_ledge.txt`` and likewise for
   the other bundled runs and the pinned drop_height sweep);
2. run the same commands at the change into NEW;
3. run ``python tests/repin.py OLD NEW``, which reports every column's
   deviations and every event and refuses (exit 1) a change past the
   tolerances it states;
4. only where it accepts, write the new digests into ``golden.json``
   and paste its report into CHANGES.md with the argument for the
   change.

docs/model.md (Determinism) states the tolerances and their scale."""

import ast
import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

from swervefall import compare, controller, run_scenario, simulation, sweep
from swervefall.cli import main as cli_main
from swervefall.params import read_config_file
from swervefall.scenario import (
    loaded_from_entries,
    resolve_config_path,
    write_trajectory_csv,
)

TESTS = Path(__file__).resolve().parent
PINS = json.loads((TESTS / "golden.json").read_text(encoding="utf-8"))

GOLDEN_SHA256 = {
    name.removesuffix(".csv"): digest for name, digest in PINS["bundled"].items()
}

# The bundled scenarios' RunSummary reprs, which print every float
# exactly: the touchdown attitude and rates come from the touchdown
# state, which no CSV row holds.
SUMMARY_SHA256 = PINS["bundled_summaries"]

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
NOISY_CLAMPED_SHA256 = PINS["noisy_clamped"]["noisy_clamped.csv"]

# A ledge drop_height sweep whose four runs share one attitude
# integration as lanes: the run CSVs and the aggregate.
LANES_SHA256 = PINS["sweep_drop_height"]


def test_pin_file_matches_benchmark_pins():
    # perfbench/workloads.py keeps its own copy of the workload pins; read
    # its PINNED literal without importing the benchmark, so the two
    # copies cannot drift apart.
    source = (TESTS.parent / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    [pinned] = [
        ast.literal_eval(node.value) for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "PINNED" for target in node.targets)
    ]
    workloads = ("bundled", "coarse_step_noisy", "sweep_drop_height")
    assert pinned == {workload: PINS[workload] for workload in workloads}


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


def test_compare_csvs_match_golden_hashes(tmp_path):
    # compare runs its two configs as two groups, in forked pool workers
    # where this process may use two CPUs.
    compare("drop_controlled", "drop_uncontrolled", tmp_path)
    for name in ("drop_controlled", "drop_uncontrolled"):
        data = (tmp_path / f"{name}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[name]


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
