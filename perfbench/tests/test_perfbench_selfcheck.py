"""Self-checks of the benchmark's tracing, input generator and gate.

    python3 -m pytest -q perfbench/tests

Tracing must not change what the program computes, must count calls
exactly, and must leave the package as it found it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import swervefall.scenario as scenario  # noqa: E402
import swervefall.simulation as simulation  # noqa: E402


@pytest.fixture
def coarse_op(tmp_path):
    workload = workloads.build("coarse_step_noisy", 0, scenario,
                               tmp_path / "inputs", tmp_path / "out")
    return workload.ops[0]


def traced_call(op):
    tracer = spans.Tracer()
    with tracer:
        op.call()
    return tracer


def test_traced_run_writes_the_same_csv_bytes(coarse_op):
    coarse_op.call()
    plain = coarse_op.csvs[0].read_bytes()
    tracer = traced_call(coarse_op)
    assert len(tracer) > 0
    assert coarse_op.csvs[0].read_bytes() == plain


def test_traced_call_counts_repeat(coarse_op):
    counts = []
    for _ in range(2):
        tracer = traced_call(coarse_op)
        stats = spans.layer_stats(tracer, [(0, len(tracer))])
        counts.append({k: v["calls"] for k, v in stats["layers"].items()})
    assert counts[0] == counts[1]
    assert counts[0]["scenario.load_scenario_file"] == 1
    assert sum(counts[0].values()) > 1


def test_unequal_passes_are_flagged(coarse_op):
    tracer = spans.Tracer()
    with tracer:
        coarse_op.call()
        middle = len(tracer)
        coarse_op.call()
        coarse_op.call()
    stats = spans.layer_stats(tracer, [(0, middle), (middle, len(tracer))])
    assert not stats["consistent"]


def test_tracer_restores_every_patched_attribute():
    modules = [m for key, m in sys.modules.items()
               if key == "swervefall" or key.startswith("swervefall.")]
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]

    def snapshot():
        return [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]

    before = snapshot()
    with spans.Tracer():
        assert snapshot() != before
    assert snapshot() == before


def test_missing_function_reads_zero_calls(monkeypatch):
    monkeypatch.delattr(simulation, "refine_touchdown")
    tracer = spans.Tracer()
    with tracer:
        pass
    stats = spans.layer_stats(tracer, [(0, len(tracer))])
    assert stats["layers"]["simulation.refine_touchdown"] == {
        "calls": 0, "us": 0.0, "self_s": 0.0}


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in ("coarse_step_noisy", "sweep_drop_height"):
        first = [p.read_bytes() for p in inputs.write_inputs(workload, 5, tmp_path / "a")]
        again = [p.read_bytes() for p in inputs.write_inputs(workload, 5, tmp_path / "b")]
        other = [p.read_bytes() for p in inputs.write_inputs(workload, 6, tmp_path / "c")]
        assert first == again
        assert first != other


def test_gate_rejects_changed_bytes(coarse_op):
    gate = workloads.Gate("coarse_step_noisy", seed=12345)
    summaries = coarse_op.call()
    assert gate.check(coarse_op, summaries) == []
    path = coarse_op.csvs[0]
    path.write_bytes(path.read_bytes() + b"\n")
    assert any("rerun differs" in e for e in gate.check(coarse_op, summaries))
