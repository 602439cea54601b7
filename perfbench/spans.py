"""Span tracing of swervefall layers, done from outside the package.

``Tracer.install`` replaces the traced functions with wrappers in every
``swervefall`` module that holds them, because modules call each other
through names imported into their own globals (``simulation.step_rk4``
calls ``simulation.state_derivative``, which is ``dynamics``'s).  The
package looks those names up at call time, so the wrappers see every
call.  ``Tracer.remove`` puts the original objects back.

Each call records one span: name, start, end, parent span and operation
id.  Self time is the span's duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
Spans stay in flat arrays in memory until ``save`` writes them out.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute) of every traced layer boundary.  A dotted attribute
# is a method on a class.  A name the package no longer defines is skipped
# and reads as zero calls.  Every workload calls each of them, so no
# timing reads a constant zero.
TRACED = (
    ("scenario", "load_scenario_file"),
    ("params", "read_config_file"),
    ("params", "parse_flat_config"),
    ("simulation", "simulate"),
    ("simulation", "step_rk4"),
    ("dynamics", "state_derivative"),
    ("kinematics", "torque_jacobian"),
    ("simulation", "contact_height"),
    ("simulation", "refine_touchdown"),
    ("simulation", "imu_sample"),
    ("controller", "AttitudeControlLoop.update"),
    ("kinematics", "allocate_body_torque"),
    ("simulation", "apply_wheel_speed_limit"),
    ("scenario", "write_trajectory_csv"),
    ("scenario", "summarize"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)


class Tracer:
    """Records spans for the traced layers while installed."""

    def __init__(self) -> None:
        self.op_id = -1
        self.name = array("i")
        self.op = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, fn, name_id: int):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.name)
            tracer.name.append(name_id)
            tracer.op.append(tracer.op_id)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.self_time.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[index] = t0
                tracer.end[index] = t1
                tracer.self_time[index] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "swervefall" or key.startswith("swervefall."))
        ]
        for name_id, (module_name, attr) in enumerate(TRACED):
            module = sys.modules.get(f"swervefall.{module_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(method)
                if original is None:
                    continue
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name_id))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, name_id)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def remove(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def save(self, path: Path) -> None:
        """Write every span as numpy arrays plus the span-name table."""
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            self_time=np.frombuffer(self.self_time, dtype=np.float64),
        )


def layer_stats(tracer: Tracer, passes: list[tuple[int, int]]) -> dict[str, dict]:
    """Per-layer statistics over traced passes.

    ``passes`` holds the (first, end) span index range of each traced
    pass.  Every pass runs the same inputs, so call counts must agree
    between passes; ``consistent`` is False when they do not.
    ``calls`` and ``self_s`` are per pass (self time as the median over
    passes); ``us`` is the median duration of one call in microseconds.
    ``bisect_rk4_calls`` counts RK4 steps made inside touchdown bisection.
    """
    names = np.frombuffer(tracer.name, dtype=np.int32)
    parents = np.frombuffer(tracer.parent, dtype=np.int64)
    durations = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    self_times = np.frombuffer(tracer.self_time)
    rk4 = SPAN_NAMES.index("simulation.step_rk4")
    bisect = SPAN_NAMES.index("simulation.refine_touchdown")

    counts = []
    selfs = []
    bisect_counts = []
    for first, end in passes:
        ids = names[first:end]
        counts.append(np.bincount(ids, minlength=len(SPAN_NAMES)))
        selfs.append(np.bincount(ids, weights=self_times[first:end],
                                 minlength=len(SPAN_NAMES)))
        in_rk4 = np.flatnonzero(ids == rk4) + first
        parent_ids = parents[in_rk4]
        bisect_counts.append(int(np.count_nonzero(
            (parent_ids >= 0) & (names[np.maximum(parent_ids, 0)] == bisect)
        )))

    consistent = all((c == counts[0]).all() for c in counts) and len(set(bisect_counts)) == 1
    stats = {}
    for name_id, span in enumerate(SPAN_NAMES):
        mask = names == name_id
        stats[span] = {
            "calls": int(counts[0][name_id]),
            "us": float(np.median(durations[mask]) * 1e6) if mask.any() else 0.0,
            "self_s": statistics.median(float(s[name_id]) for s in selfs),
        }
    return {"layers": stats, "bisect_rk4_calls": bisect_counts[0],
            "consistent": consistent}


def calls_by_op(tracer: Tracer, first: int, end: int) -> dict[int, dict[str, int]]:
    """Calls of each traced layer per operation id, for spans first..end."""
    names = np.frombuffer(tracer.name, dtype=np.int32)[first:end]
    ops = np.frombuffer(tracer.op, dtype=np.int32)[first:end]
    result = {}
    for op in np.unique(ops):
        counts = np.bincount(names[ops == op], minlength=len(SPAN_NAMES))
        result[int(op)] = {SPAN_NAMES[i]: int(c) for i, c in enumerate(counts) if c}
    return result
