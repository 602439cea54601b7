"""Golden telemetry: the bundled scenarios must reproduce their CSVs
byte for byte.  Any change to the physics, the controller or the CSV
format that moves a single bit shows up here."""

import hashlib

import pytest

from swervefall import run_scenario

GOLDEN_SHA256 = {
    "drop_controlled":
        "b0f1fb3c954fd784a6687d3350422636ee83a63963e764ad68286ccb9345ec8f",
    "drop_uncontrolled":
        "e516add2f8ac0badffe12c01b34736440ee7c1495e7b8fac47ad42b3e6107cce",
    "ledge":
        "ea05de7c5da5ee7669cc878241caf578ab7dd98747e84895b844cc4eadae03ac",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_bundled_csv_matches_golden_hash(name, tmp_path):
    run_scenario(name, tmp_path)
    data = (tmp_path / f"{name}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[name]
