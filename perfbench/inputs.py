"""Seeded input generator for the benchmark workloads.

The benchmark hands the simulator only what this module writes: config
files for ``coarse_step_noisy`` and a value list for
``sweep_drop_height``.  The same seed always gives byte-identical files.
``bundled`` uses the shipped configs unchanged and needs no generated
input.

Usage:

    python3 perfbench/inputs.py --workload coarse_step_noisy --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "src" / "swervefall" / "configs"

# Configs per coarse_step_noisy pass.  Heights and attitudes are drawn one
# per stratum so every seed covers the whole range; that keeps the work per
# pass, and so the timings, comparable across seeds.
COARSE_CONFIGS = 8
COARSE_HEIGHT_M = (0.5, 1.1)
COARSE_TILT_DEG = (10.0, 25.0)

# One drop height per stratum across the range, so touchdown times (and
# the lane lengths a vectorized sweep engine must pad) stay ragged.
SWEEP_VALUES = 4
SWEEP_HEIGHT_M = (0.3, 1.8)
SWEEP_BASE = "ledge"
SWEEP_PARAM = "drop_height"

COARSE_OVERRIDES = {
    "dt_physics": "0.001",
    "dt_control": "0.001",
    "noise_sigma_euler_deg": "0.5",
    "noise_sigma_omega": "0.01",
    "noise_sigma_accel": "0.05",
}


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    width = (hi - lo) / n
    return [lo + width * (i + rng.random()) for i in range(n)]


def override_keys(text: str, values: dict[str, str]) -> str:
    """Replace ``key = value`` lines in flat config text; append new keys."""
    pending = dict(values)
    lines = []
    for raw in text.splitlines():
        key = raw.split("#", 1)[0].split("=", 1)[0].strip()
        if "=" in raw.split("#", 1)[0] and key in pending:
            raw = f"{key} = {pending.pop(key)}"
        lines.append(raw)
    lines.extend(f"{key} = {value}" for key, value in pending.items())
    return "\n".join(lines) + "\n"


def coarse_configs(seed: int) -> dict[str, str]:
    """Return {file name: config text} for ``coarse_step_noisy``."""
    rng = random.Random(f"coarse_step_noisy:{seed}")
    shipped = (CONFIG_DIR / "drop_controlled.cfg").read_text(encoding="utf-8")
    # Drop the shipped header comment: it describes the shipped release.
    body = shipped.split("\n\n", 1)[1]
    heights = _strata(rng, *COARSE_HEIGHT_M, COARSE_CONFIGS)
    rolls = _strata(rng, *COARSE_TILT_DEG, COARSE_CONFIGS)
    pitches = _strata(rng, *COARSE_TILT_DEG, COARSE_CONFIGS)
    rng.shuffle(rolls)
    rng.shuffle(pitches)
    files = {}
    for i in range(COARSE_CONFIGS):
        sign_r = rng.choice((-1.0, 1.0))
        sign_p = rng.choice((-1.0, 1.0))
        values = dict(COARSE_OVERRIDES)
        values.update(
            drop_height=f"{heights[i]:.4f}",
            roll_deg=f"{sign_r * rolls[i]:.3f}",
            pitch_deg=f"{sign_p * pitches[i]:.3f}",
            seed=str(rng.randrange(2**31)),
        )
        header = (
            f"# coarse_step_noisy input {i}, workload seed {seed}: the "
            "drop_controlled robot and gains, one RK4 step per control "
            "tick, IMU noise on.\n\n"
        )
        files[f"coarse_{i}.cfg"] = header + override_keys(body, values)
    return files


def sweep_values(seed: int) -> list[float]:
    rng = random.Random(f"sweep_drop_height:{seed}")
    return [round(v, 4) for v in _strata(rng, *SWEEP_HEIGHT_M, SWEEP_VALUES)]


def write_inputs(workload: str, seed: int, out_dir: Path) -> list[Path]:
    """Write the generated inputs of one workload; return the files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "coarse_step_noisy":
        files = coarse_configs(seed)
    elif workload == "sweep_drop_height":
        values = ",".join(f"{v:.4f}" for v in sweep_values(seed))
        files = {"sweep_values.txt": values + "\n"}
    else:
        return []
    written = []
    for name, text in files.items():
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


def read_sweep_values(path: Path) -> list[float]:
    return [float(v) for v in path.read_text(encoding="utf-8").split(",")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write_inputs(args.workload, args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
