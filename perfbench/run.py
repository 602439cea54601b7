"""Host-time benchmark of the swervefall flight simulator.

    python3 perfbench/run.py --workload bundled --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``, never from an installed copy.  Workloads are
described in ``perfbench/README.md``.  One process, one thread: BLAS
thread pools are pinned to 1 before numpy loads.

``--trace 0`` measures the end-to-end metrics with tracing off.  Whole
passes over the workload's operations repeat until ``--seconds`` would
be exceeded, and at least twice, so every run compares its CSVs against
a rerun.

- ``setup_s``: median over fresh interpreters of importing the package
  and loading the workload's configs.
- ``op_wall_s``: median host seconds per operation, over every repeat.
- ``realtime_factor``: simulated flight seconds over host seconds, both
  summed over every operation in the run.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

The sample count and the highest percentile with ten samples beyond it
are printed beside ``op_wall_s``.

``--trace 1`` alternates an untraced pass with a traced pass and reports
per-layer metrics from the traced passes, plus ``trace.overhead``: the
untraced realtime factor over the traced one, median over the pairs.
Each traced pass first loads the workload's configs, so the layers
behind ``setup_s`` are traced on every workload.

Human-readable lines, the environment record and the seed come first;
the last line of standard output is the JSON result.  Outputs, the
generated inputs, ``result.json`` and traced spans go to
``.bench_run/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
MIN_PASSES = 2
SETUP_SAMPLES = 7
TAIL_PERCENTILES = (99.9, 99, 95, 90, 50)
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Timed in a fresh interpreter: argv[1] is the source directory, the rest
# are config references to load.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import swervefall
from swervefall.scenario import load_scenario_file
for ref in sys.argv[2:]:
    load_scenario_file(ref)
elapsed = time.perf_counter() - t0
if not swervefall.__file__.startswith(sys.argv[1]):
    sys.exit("imported swervefall from " + swervefall.__file__)
print(repr(elapsed))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import ``swervefall.scenario`` from this checkout's ``src/``."""
    if not (SRC / "swervefall" / "__init__.py").is_file():
        raise ImportError(f"no swervefall package under {SRC}")
    sys.path.insert(0, str(SRC))
    import swervefall.scenario as scenario

    if not Path(scenario.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"swervefall imported from {scenario.__file__}")
    return scenario


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "processes": "one benchmark process; setup_s samples run one at a "
                     "time in child interpreters, outside the timed passes",
    }


def measure_setup(refs: list[str]) -> list[float]:
    """Seconds for a fresh interpreter to import and load the configs."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *refs],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {done.stderr.strip()}")
        if i > 0:  # the first run also writes the bytecode cache
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class PassResult:
    """Host and simulated seconds of each operation that passed the gate."""

    walls: dict[str, float] = field(default_factory=dict)
    flights: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    csv_bytes: int = 0
    ticks: int = 0

    @property
    def realtime_factor(self) -> float:
        host = sum(self.walls.values())
        return sum(self.flights.values()) / host if host else 0.0


class Runner:
    """Runs passes over a workload's operations through the gate."""

    def __init__(self, workload, gate, tracer=None):
        self.workload = workload
        self.gate = gate
        self.tracer = tracer
        self.op_labels: list[str] = []
        self.passes: list[PassResult] = []

    def run_pass(self) -> PassResult:
        result = PassResult()
        for op in self.workload.ops:
            result.attempted += 1
            if self.tracer is not None:
                self.tracer.op_id = len(self.op_labels)
            self.op_labels.append(op.label)
            t0 = perf_counter()
            try:
                summaries = op.call()
            except Exception:  # a failed operation is counted, not fatal
                print(f"operation {op.label} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                result.failed += 1
                continue
            wall = perf_counter() - t0
            errors = self.gate.check(op, summaries)
            if errors:
                print(f"operation {op.label} wrong: " + "; ".join(errors),
                      file=sys.stderr)
                result.failed += 1
                continue
            result.walls[op.label] = wall
            result.flights[op.label] = workloads.flight_seconds(summaries)
            result.csv_bytes += self.gate.op_csv_bytes
            result.ticks += self.gate.op_rows
        self.passes.append(result)
        return result

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return p, cut[round(p * 10) - 1]
    return None


def measure_untraced(runner: Runner, seconds: float) -> dict:
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        runner.run_pass()
        longest = max(longest, perf_counter() - t0)
        if len(runner.passes) >= MIN_PASSES and perf_counter() - start + longest > seconds:
            break
    walls = [w for p in runner.passes for w in p.walls.values()]
    host = sum(walls)
    flight = sum(f for p in runner.passes for f in p.flights.values())
    return {
        "op_walls": walls,
        "op_labels": [k for p in runner.passes for k in p.walls],
        "op_wall_s": statistics.median(walls) if walls else 0.0,
        "realtime_factor": flight / host if host else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": len(runner.passes),
        "flight_s": flight,
        "host_s": host,
    }


def measure_traced(untraced: Runner, traced: Runner, seconds: float) -> dict:
    import spans

    tracer = traced.tracer
    ranges = []
    overheads = []
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        plain = untraced.run_pass()
        first = len(tracer)
        with tracer:
            tracer.op_id = -1
            traced.workload.load()  # the config-loading layers behind setup_s
            timed = traced.run_pass()
        ranges.append((first, len(tracer)))
        if timed.realtime_factor > 0:
            overheads.append(plain.realtime_factor / timed.realtime_factor)
        longest = max(longest, perf_counter() - t0)
        if perf_counter() - start + longest > seconds:
            break
    stats = spans.layer_stats(tracer, ranges)
    ticks = traced.passes[0].ticks
    consistent = stats["consistent"] and all(
        (p.ticks, p.csv_bytes) == (ticks, traced.passes[0].csv_bytes)
        for p in traced.passes
    )
    metrics = {}
    for name, layer in stats["layers"].items():
        metrics[f"{name}.calls"] = (layer["calls"], "count")
        metrics[f"{name}.us"] = (layer["us"], "us")
        metrics[f"{name}.self_s"] = (layer["self_s"], "s")
    jacobians = stats["layers"]["kinematics.torque_jacobian"]["calls"]
    metrics["kinematics.jacobian_builds_per_tick"] = (
        jacobians / ticks if ticks else 0.0, "1/tick")
    metrics["scenario.csv_bytes"] = (traced.passes[0].csv_bytes, "B")
    metrics["simulation.bisect_rk4_calls"] = (stats["bisect_rk4_calls"], "count")
    metrics["trace.overhead"] = (
        statistics.median(overheads) if overheads else 0.0, "ratio")
    first_pass = {traced.op_labels[op] if op >= 0 else "config loading": calls
                  for op, calls in spans.calls_by_op(tracer, *ranges[0]).items()}
    return {"metrics": metrics, "pairs": len(ranges), "spans": len(tracer),
            "consistent": consistent, "ticks_per_pass": ticks,
            "first_pass_calls_by_op": first_pass}


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    try:
        scenario = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import spans  # loads numpy, so only after the thread pins

    out_root = RUN_DIR / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, scenario,
                               out_root / "inputs", out_root / "out")
    gate = workloads.Gate(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.setup_refs,
        "environment": environment(),
    }
    print(f"workload: {args.workload} (seed {args.seed}): {record['why']}")
    print("environment: " + json.dumps(record["environment"]))

    plain = Runner(workload, gate)
    if args.trace:
        traced = Runner(workload, gate, spans.Tracer())
        result = measure_traced(plain, traced, args.seconds)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
        traced.tracer.save(out_root / "spans.npz")
        correct = failed == 0 and result["consistent"]
        print(f"traced pairs: {result['pairs']}, spans: {result['spans']}, "
              f"control ticks per pass: {result['ticks_per_pass']}, "
              f"calls repeat across passes: {result['consistent']}")
    else:
        setup = measure_setup(workload.setup_refs)
        result = measure_untraced(plain, args.seconds)
        attempted, failed = plain.attempted, plain.failed
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_wall_s": {"value": result["op_wall_s"], "unit": "s"},
            "realtime_factor": {"value": result["realtime_factor"], "unit": "s/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        correct = failed == 0
        tail = tail_percentile(result["op_walls"])
        tail_text = ("no percentile has ten samples beyond it" if tail is None
                     else f"p{tail[0]:g} {tail[1]:.6f} s")
        print(f"setup_s: {metrics['setup_s']['value']:.6f} s "
              f"(median of {len(setup)} fresh interpreters)")
        print(f"op_wall_s: {result['op_wall_s']:.6f} s (median of "
              f"{len(result['op_walls'])} operations over {result['passes']} "
              f"passes; {tail_text})")
        print(f"realtime_factor: {result['realtime_factor']:.6f} s/s "
              f"({result['flight_s']:.6f} simulated s over "
              f"{result['host_s']:.6f} host s)")
        print(f"peak_rss_mb: {result['peak_rss_mb']:.3f} MB")
        result["setup_samples"] = setup
    missing = gate.missing_pins()
    if missing:
        correct = False
        print("pinned outputs never produced: " + ", ".join(missing),
              file=sys.stderr)
    print(f"failed_ops: {failed / attempted:.6f} ratio ({failed} of "
          f"{attempted} operations failed)")
    record.update(attempted=attempted, failed=failed, correct=correct,
                  metrics=metrics, detail={k: v for k, v in result.items()
                                           if k != "metrics"})
    (out_root / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
