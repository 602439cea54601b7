"""Benchmark workloads, their operations and the correctness gate.

An operation is one public call into the package: ``run_scenario`` for
``bundled`` and ``coarse_step_noisy``, ``sweep`` for
``sweep_drop_height``.  The package is reached through module attributes
looked up at call time, so a tracer installed on those attributes sees
the calls.

An operation fails when it raises or when its telemetry is wrong.  On the
default seed every CSV must match the SHA-256 pinned below; ``bundled``
runs the shipped configs, so its hashes hold on every seed.  On every
seed each CSV must be byte-identical to the same operation's CSV from the
first pass, and must parse as finite, time-ordered telemetry that ends in
touchdown.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import inputs

DEFAULT_SEED = 0
DT_CONTROL = 0.001
CSV_COLUMNS = 25

WHY = {
    "bundled": "the three shipped configs as 'swervefall run' runs them; "
               "ten RK4 steps per control tick, so the flight kernel dominates",
    "coarse_step_noisy": "seeded drop_controlled variants at one RK4 step per "
                         "tick with IMU noise on, so the per-tick control, IMU "
                         "and CSV layers carry a larger share",
    "sweep_drop_height": "one sweep over seeded ledge drop heights 0.3-1.8 m; "
                         "ragged flight lengths and the sweep parse/override path",
}
WORKLOADS = tuple(WHY)

# SHA-256 of every telemetry CSV on the default seed.  ``bundled`` hashes
# are the golden outputs of the shipped configs (prefixes b0f1fb3c954fd784,
# e516add2f8ac0bad and ea05de7c5da5ee76); the others were taken when the
# benchmark was added.  A change that alters them must say why.
PINNED = {
    "bundled": {
        "drop_controlled.csv":
            "b0f1fb3c954fd784a6687d3350422636ee83a63963e764ad68286ccb9345ec8f",
        "drop_uncontrolled.csv":
            "e516add2f8ac0badffe12c01b34736440ee7c1495e7b8fac47ad42b3e6107cce",
        "ledge.csv":
            "ea05de7c5da5ee7669cc878241caf578ab7dd98747e84895b844cc4eadae03ac",
    },
    "coarse_step_noisy": {
        "coarse_0.csv":
            "a68977a977997584f28bad119d0755d2ff771fe1c7b09b1222a8d12079eaa806",
        "coarse_1.csv":
            "5c6b7050a18063b3d480adb92eab92d80f79265c31a0ee8b97f2b3cf54d3cce8",
        "coarse_2.csv":
            "9a63f0983e24293b3fd75b2874f2b11c766726cb0ea4f1a315960f7f187519ee",
        "coarse_3.csv":
            "ecf6528927eaedc9efc1a4fab2431493fd6225e2287600ea3fbe9e6ef0b00b06",
        "coarse_4.csv":
            "9e782ea0ac9131f20dd50b944cf4afab608bc3920be13715ab85bcbcd97d36e5",
        "coarse_5.csv":
            "d4604c4a831db62d50099590dc6e1bdf6ce62aeb43322d41a04c03931a8ff2ec",
        "coarse_6.csv":
            "0f9a64b37a0e5a988da8e6667025e59efc662c9a534d59734c89173464a11416",
        "coarse_7.csv":
            "db4b6cff8cb7b9cdfad83be6a169ea5946c7c6c938ec6e35d4ae432bb52f7459",
    },
    "sweep_drop_height": {
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
    },
}


@dataclass
class Op:
    """One operation: ``call`` runs it and returns its run summaries."""

    label: str
    call: Callable[[], list]
    csvs: list[Path]
    aggregate: Path | None = None


@dataclass
class Workload:
    ops: list[Op]
    setup_refs: list[str]
    scenario: ModuleType

    def load(self) -> None:
        """Load the workload's configs, as set-up does."""
        for ref in self.setup_refs:
            self.scenario.load_scenario_file(ref)


def build(name: str, seed: int, scenario: ModuleType, in_dir: Path,
          out_dir: Path) -> Workload:
    """Generate the workload's inputs and return its operations."""
    files = inputs.write_inputs(name, seed, in_dir)
    if name == "bundled":
        refs = list(scenario.BUNDLED_SCENARIOS)
    elif name == "coarse_step_noisy":
        refs = [str(path) for path in files]
    elif name == "sweep_drop_height":
        values = inputs.read_sweep_values(files[0])
        csvs = [out_dir / f"{inputs.SWEEP_BASE}_{inputs.SWEEP_PARAM}_{v:g}.csv"
                for v in values]

        def call():
            return scenario.sweep(inputs.SWEEP_BASE, inputs.SWEEP_PARAM,
                                  values, out_dir)

        op = Op("sweep", call, csvs, out_dir / f"sweep_{inputs.SWEEP_PARAM}.csv")
        return Workload([op], [inputs.SWEEP_BASE], scenario)
    else:
        raise ValueError(f"unknown workload '{name}'")

    def run_one(ref):
        return lambda: [scenario.run_scenario(ref, out_dir)]

    ops = [Op(Path(ref).stem, run_one(ref), [out_dir / f"{Path(ref).stem}.csv"])
           for ref in refs]
    return Workload(ops, refs, scenario)


def flight_seconds(summaries: list) -> float:
    return sum(s.touchdown_time for s in summaries)


def check_telemetry(data: bytes, summary) -> list[str]:
    """Structural checks of one telemetry CSV against its run summary."""
    lines = data.decode("utf-8", "replace").splitlines()
    if len(lines) < 2 or len(lines[0].split(",")) != CSV_COLUMNS:
        return ["CSV has no header or no rows"]
    last_t = -math.inf
    for row in lines[1:]:
        cells = row.split(",")
        if len(cells) != CSV_COLUMNS:
            return [f"row with {len(cells)} cells"]
        try:
            values = [float(c) for c in cells]
        except ValueError:
            return [f"unparseable row after t={last_t}"]
        if not all(math.isfinite(v) for v in values):
            return [f"non-finite value at t={cells[0]}"]
        if values[0] <= last_t:
            return [f"time not increasing at t={cells[0]}"]
        last_t = values[0]
    touchdown = summary.touchdown_time
    if touchdown is None:
        return ["no touchdown before t_max"]
    if not last_t <= touchdown <= last_t + DT_CONTROL + 1e-9:
        return [f"touchdown {touchdown} outside the last tick after t={last_t}"]
    return []


class Gate:
    """Correctness gate: pinned hashes, rerun identity, telemetry checks."""

    def __init__(self, workload: str, seed: int):
        pinned_here = workload == "bundled" or seed == DEFAULT_SEED
        self.pinned = PINNED[workload] if pinned_here else {}
        self.first: dict[str, str] = {}
        self.op_csv_bytes = 0
        self.op_rows = 0

    def check(self, op: Op, summaries: list) -> list[str]:
        errors = []
        if len(summaries) != len(op.csvs):
            return [f"{len(summaries)} summaries for {len(op.csvs)} runs"]
        self.op_csv_bytes = 0
        self.op_rows = 0
        for path, summary in zip(op.csvs, summaries):
            try:
                data = path.read_bytes()
            except OSError as exc:
                errors.append(f"{path.name}: {exc.strerror}")
                continue
            self.op_csv_bytes += len(data)
            self.op_rows += data.count(b"\n") - 1
            errors += [f"{path.name}: {e}" for e in check_telemetry(data, summary)]
            errors += self._compare(path.name, data)
        if op.aggregate is not None and not errors:
            try:
                data = op.aggregate.read_bytes()
            except OSError as exc:
                return [f"{op.aggregate.name}: {exc.strerror}"]
            rows = data.decode("utf-8", "replace").splitlines()[1:]
            tds = [row.split(",")[2:3] for row in rows]
            if tds != [[f"{s.touchdown_time:.12g}"] for s in summaries]:
                errors.append(f"{op.aggregate.name}: touchdown column disagrees")
            errors += self._compare(op.aggregate.name, data)
        return errors

    def _compare(self, name: str, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        errors = []
        if name in self.pinned and self.pinned[name] != digest:
            errors.append(f"{name}: sha256 {digest[:16]} != pinned "
                          f"{self.pinned[name][:16]}")
        if self.first.setdefault(name, digest) != digest:
            errors.append(f"{name}: rerun differs from the first pass")
        return errors

    def missing_pins(self) -> list[str]:
        return sorted(set(self.pinned) - set(self.first))
