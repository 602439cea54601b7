"""Acceptance suite: one test per release criterion.

Each criterion prints its own PASS/FAIL line (run with `pytest -s
tests/test_acceptance.py` to see them inline).  Criteria 7 and 8 depend
on the documented default inertia and torque-limit estimates; the others
are parameter-independent.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from swervefall import (
    ControllerConfig,
    RobotParams,
    SubmovementParams,
    angular_acceleration,
    jacobian_determinant,
    linearized_plant,
    manipulability,
    oracle_newton_euler,
    run_scenario,
    step_rk4,
    quat_from_euler,
)
from swervefall.dynamics import effective_inertia
from swervefall.kinematics import torque_jacobian
from swervefall.scenario import load_scenario_file
from swervefall.simulation import CSV_HEADER, simulate
from swervefall.state import euler_angles, quat_to_matrix

from conftest import body_state

_MODULE_T0 = time.time()

ISO = SubmovementParams(math.pi / 4, 0.0)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {title}")


@pytest.fixture(scope="module")
def default_params():
    return RobotParams()


@pytest.fixture(scope="module")
def drop_controlled(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_drop_c")
    loaded = load_scenario_file("drop_controlled")
    trajectory = simulate(loaded.scenario, loaded.controller, loaded.params)
    summary = run_scenario("drop_controlled", out)
    return loaded, trajectory, summary


@pytest.fixture(scope="module")
def drop_uncontrolled():
    loaded = load_scenario_file("drop_uncontrolled")
    trajectory = simulate(loaded.scenario, loaded.controller, loaded.params)
    return loaded, trajectory


@pytest.fixture(scope="module")
def ledge():
    loaded = load_scenario_file("ledge")
    trajectory = simulate(loaded.scenario, loaded.controller, loaded.params)
    return loaded, trajectory


def test_01_oracle_equivalence(default_params):
    with criterion(1, "closed-form dynamics match the assembly oracle "
                      "(1000 random samples, 1e-10 relative, < 10 s)"):
        rng = np.random.default_rng(1)
        t0 = time.time()
        for _ in range(1000):
            steering = SubmovementParams(*rng.uniform(-1.5, 1.5, 2))
            t1, t2 = rng.uniform(-10, 10, 2)
            cmd = (t1, t2, rng.uniform(-2.5, 2.5))
            state = body_state(
                rng.uniform(-2, 2, 3), rng.uniform(-4, 4, 3),
                rng.normal(0, 1, 4), rng.uniform(-4, 4, 3),
                rng.uniform(-40, 40, 4),
            )
            closed = angular_acceleration(state, steering, cmd, default_params)
            oracle, _ = oracle_newton_euler(state, steering, cmd, default_params)
            scale = max(1.0, float(np.abs(oracle).max()))
            assert np.abs(closed - oracle).max() / scale < 1e-10
        assert time.time() - t0 < 10.0


def test_02_jacobian_determinant():
    with criterion(2, "numeric det of the direction block equals sin(2a); "
                      "singularity flags fire at {0, +-pi/2}"):
        rng = np.random.default_rng(2)
        for alpha in rng.uniform(-math.pi, math.pi, 1000):
            sub = SubmovementParams(float(alpha), float(rng.uniform(-math.pi, math.pi)))
            numeric = float(np.linalg.det(torque_jacobian(sub).direction))
            assert abs(numeric - jacobian_determinant(float(alpha))) < 1e-10
        for singular_alpha in (0.0, math.pi / 2, -math.pi / 2):
            assert manipulability(SubmovementParams(singular_alpha, 0.3)).singular
        for regular_alpha in (math.pi / 4, -math.pi / 4, 0.6, -1.2):
            assert not manipulability(SubmovementParams(regular_alpha, 0.3)).singular


def test_03_linearization(default_params):
    with criterion(3, "finite-difference linearization at the isotropic "
                      "equilibrium reproduces the plant inertias (1e-6)"):
        steering = ISO
        state = body_state()
        h = 1e-5
        sensitivity = np.zeros((3, 3))
        for j in range(3):
            for sign in (1.0, -1.0):
                pair = np.zeros(3)
                pair[j] = sign * h
                cmd = (pair[0], pair[1], pair[2])
                sensitivity[:, j] += sign * angular_acceleration(
                    state, steering, cmd, default_params
                )
        sensitivity /= 2 * h
        body_map = sensitivity @ np.linalg.inv(torque_jacobian(ISO).full)
        measured = 1.0 / np.diag(body_map)
        plant = linearized_plant(default_params)
        np.testing.assert_allclose(measured, np.array(plant), rtol=1e-6)
        off_diag = body_map - np.diag(np.diag(body_map))
        assert np.abs(off_diag).max() < 1e-9


def test_04_conservation(default_params):
    with criterion(4, "torque-free tumble conserves angular momentum and "
                      "rotational energy (1 s at 1 ms, 1e-8 relative)"):
        steering = SubmovementParams(0.55, 0.2)
        inertia = effective_inertia(default_params, steering)
        state = body_state(
            [0, 0, 200.0], [0, 0, 0],
            quat_from_euler(0.3, -0.2, 0.5), [1.1, -0.9, 1.4],
        )
        omega = np.array(state[10:13])
        h0 = quat_to_matrix(state[6:10]) @ (inertia * omega)
        ke0 = 0.5 * float(omega @ (inertia * omega))
        cmd = (0.0, 0.0, 0.0)
        for _ in range(1000):
            state = step_rk4(state, cmd, steering, default_params, 1e-3)
        omega = np.array(state[10:13])
        h1 = quat_to_matrix(state[6:10]) @ (inertia * omega)
        ke1 = 0.5 * float(omega @ (inertia * omega))
        assert np.abs(h1 - h0).max() / np.linalg.norm(h0) < 1e-8
        assert abs(ke1 - ke0) / ke0 < 1e-8


def test_05_ballistic_timing(drop_uncontrolled):
    with criterion(5, "0.85 m drop touches down at the ballistic time "
                      "within one physics step (416 ms)"):
        loaded, trajectory = drop_uncontrolled
        expected = math.sqrt(2 * loaded.scenario.drop_height / loaded.params.g)
        assert trajectory.touchdown_time is not None
        assert abs(trajectory.touchdown_time - expected) <= loaded.scenario.dt_physics
        assert round(trajectory.touchdown_time, 3) == 0.416


def test_06_uncontrolled_attitude_frozen(drop_uncontrolled):
    with criterion(6, "uncontrolled drop lands with its release attitude "
                      "(within 0.1 deg)"):
        loaded, trajectory = drop_uncontrolled
        phi, theta, _ = euler_angles(trajectory.touchdown_state[6:10])
        phi0, theta0, _ = loaded.scenario.euler0
        assert abs(math.degrees(phi - phi0)) < 0.1
        assert abs(math.degrees(theta - theta0)) < 0.1


def test_07_controlled_drop(drop_controlled):
    with criterion(7, "controlled drop: |roll|,|pitch| < 2.5 deg at 402 ms "
                      "and the 2-4 wheel pair saturates early"):
        loaded, trajectory, _ = drop_controlled
        col = CSV_HEADER.split(",").index
        row = min(trajectory.rows, key=lambda r: abs(r[col("t")] - 0.402))
        assert abs(row[col("phi")]) < 2.5
        assert abs(row[col("theta")]) < 2.5
        half = 0.5 * math.sqrt(2 * loaded.scenario.drop_height / loaded.params.g)
        early = [r for r in trajectory.rows if r[col("t")] <= half]
        limit = loaded.params.tau_wheel_max
        assert any(abs(r[col("tau_2")]) == limit for r in early)
        assert any(abs(r[col("tau_4")]) == limit for r in early)
        assert all(abs(r[col("tau_1")]) < limit for r in early)


def test_08_ledge_settles_before_impact(ledge):
    with criterion(8, "ledge run settles at 498 ms +- 20% and before "
                      "touchdown"):
        _, trajectory = ledge
        events = {kind: t for t, kind in trajectory.events}
        assert "settled" in events and "touchdown" in events
        assert 0.498 * 0.8 <= events["settled"] <= 0.498 * 1.2
        assert events["settled"] < events["touchdown"]


def test_09_yaw_decoupling(default_params):
    with criterion(9, "wheel torques give zero yaw acceleration; steering "
                      "torque gives 4 tau / j_bzz (1e-12)"):
        steering = ISO
        state = body_state()
        rng = np.random.default_rng(9)
        for _ in range(100):
            t1, t2 = rng.uniform(-10, 10, 2)
            cmd = (t1, t2, 0.0)
            acc = angular_acceleration(state, steering, cmd, default_params)
            assert abs(acc[2]) < 1e-12
        for tau_d in (-2.0, 0.7, 1.9):
            cmd = (0.0, 0.0, tau_d)
            acc = angular_acceleration(state, steering, cmd, default_params)
            assert abs(acc[2] - 4 * tau_d / default_params.j_bzz) < 1e-12


def test_ledge_touchdown_near_ballistic(ledge):
    # Supplementary example check, not a numbered criterion: the ledge
    # touchdown sits near the flat-fall time for 1.2 m.  Levelling the
    # initially tilted body raises the lowest wheel, so touchdown lands
    # slightly past the point-mass value.
    loaded, trajectory = ledge
    ballistic = math.sqrt(2 * loaded.scenario.drop_height / loaded.params.g)
    assert trajectory.touchdown_time is not None
    assert ballistic <= trajectory.touchdown_time <= 1.1 * ballistic


def test_10_determinism(drop_controlled, tmp_path):
    with criterion(10, "seeded reruns produce byte-identical CSV; suite "
                       "stays under the runtime budget"):
        run_scenario("drop_controlled", tmp_path / "a")
        run_scenario("drop_controlled", tmp_path / "b")
        bytes_a = (tmp_path / "a" / "drop_controlled.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "drop_controlled.csv").read_bytes()
        assert bytes_a == bytes_b
        assert time.time() - _MODULE_T0 < 120.0
