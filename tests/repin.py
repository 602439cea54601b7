"""Compare two output trees of swervefall commands before a re-pin.

    python tests/repin.py OLD NEW

OLD and NEW are directories holding what the same swervefall commands
wrote under the old and the new code: telemetry CSVs, sweep aggregates,
compare delta reports, and each command's standard output saved as a
file of the tree (``swervefall run ledge -o OLD > OLD/run_ledge.txt``).
Files are matched by their path in the tree.

The report gives, per telemetry CSV, each column's largest absolute and
relative deviation and the number of rows where it differs, and every
event (freefall_start, settled, touchdown) of the sweep aggregates and
the captured summaries by kind and time.  It ends with ACCEPTED (exit 0)
or with REFUSED and each reason (exit 1).  It refuses:

- a file that one tree has and the other lacks;
- a CSV whose header or row count changed;
- any change in ``t``, ``mode``, ``sat_mask``, ``delta_*`` or a sweep
  aggregate's ``parameter`` and ``value``;
- a value past its column's tolerance: ``TOLERANCE`` in the column's
  unit, or ``REL_TOLERANCE`` of the old value where that is larger, so
  at any magnitude at least ten units of the twelfth printed digit;
- an event that one tree has and the other lacks, a ``freefall_start``
  or ``settled`` time that moves at all, and a touchdown that moves by
  more than ``simulation.BISECTION_TOL``;
- a number of a printed summary or compare report, other than an event
  time, that moves by more than one unit in its last printed digit (the
  touchdown attitude and rates move with the touchdown time), or any
  other word of one that changed;
- any other file that is not byte-identical.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from swervefall.simulation import BISECTION_TOL, CSV_HEADER

TOLERANCE = 1e-9
REL_TOLERANCE = 1e-10

# How each column of a CSV compares: "equal" (the same text), an event
# kind (the time of that event in the row's run; an empty cell is none),
# or the unit that its tolerance is counted in.
UNITS = {"phi": "deg", "theta": "deg", "psi": "deg", "omega": "rad/s",
         "tau": "N*m", "pos": "m", "wheel": "rad/s"}
TELEMETRY = {
    column: "equal" if column in ("t", "mode", "sat_mask") or column.startswith("delta_")
    else UNITS[column.partition("_")[0]]
    for column in CSV_HEADER.split(",")
}
AGGREGATE = {"parameter": "equal", "value": "equal", "touchdown_time": "touchdown",
             "settle_time": "settled", **{f"peak_tau_{i}": "N*m" for i in range(1, 5)}}
CSV_RULES = {",".join(rules): rules for rules in (TELEMETRY, AGGREGATE)}

# Printed summary lines whose number is an event time.
SUMMARY_EVENTS = {"touchdown_time_s:": "touchdown", "settle_time_s:": "settled",
                  "freefall_start_s:": "freefall_start"}
# A bound on a difference of two printed decimals, read back as floats,
# holds within this factor: 0.6133 - 0.6132 is 1.0000000000000009e-04.
SLACK = 1 + 1e-9


def within_tolerance(old: float, new: float) -> bool:
    return abs(new - old) <= max(TOLERANCE, REL_TOLERANCE * abs(old))


def last_digit(text: str) -> float:
    """One unit in the last printed digit of a number's text."""
    mantissa, _, exponent = text.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def printed_alike(old: str, new: str) -> bool:
    """Two printed numbers within one unit of the last digit of either."""
    a, b = number(old), number(new)
    return (a is not None and b is not None
            and abs(b - a) <= max(last_digit(old), last_digit(new)) * SLACK)


def compare_event(where: str, kind: str, old: str, new: str, refusals: list[str]) -> None:
    """Print one event, "" or "none" for an event that did not occur, and
    refuse it where it appeared, vanished or moved past its bound."""
    old, new = (text if number(text) is not None else "none" for text in (old, new))
    print(f"  event {where}: {kind} {old} -> {new}")
    if old == new:
        return
    if "none" in (old, new):
        refusals.append(f"{where}: {kind} {old} -> {new}")
    elif kind != "touchdown":
        refusals.append(f"{where}: {kind} moved {old} -> {new}")
    elif not abs(float(new) - float(old)) <= BISECTION_TOL * SLACK:
        refusals.append(f"{where}: touchdown moved {old} -> {new}, "
                        f"past BISECTION_TOL = {BISECTION_TOL:g} s")


def compare_csv(name: str, rules: dict[str, str], old: list[str], new: list[str],
                refusals: list[str]) -> None:
    if len(old) != len(new):
        refusals.append(f"{name}: {len(old) - 1} -> {len(new) - 1} rows")
    old_rows = [line.split(",") for line in old[1:]]
    new_rows = [line.split(",") for line in new[1:]]
    if any(len(row) != len(rules) for row in old_rows + new_rows):
        refusals.append(f"{name}: a row without {len(rules)} cells")
        return
    print(f"{name}: {len(old) - 1} rows")
    print(f"  {'column':<16}{'unit':<7}{'max_abs':>11}{'max_rel':>11}{'rows':>6}")
    for index, (column, rule) in enumerate(rules.items()):
        pairs = [(a[index], b[index]) for a, b in zip(old_rows, new_rows)]
        if rule in ("touchdown", "settled"):
            for row, (a, b) in zip(old_rows, pairs):
                compare_event(f"{name} {row[0]}={row[1]}", rule, a, b, refusals)
            continue
        differing = [(a, b) for a, b in pairs if a != b]
        if rule == "equal":
            if differing:
                refusals.append(f"{name}: {column} differs in {len(differing)} rows")
            continue
        values = [(float(a), float(b)) for a, b in differing]
        max_abs = max((abs(b - a) for a, b in values), default=0.0)
        max_rel = max((abs(b - a) / abs(a) if a else float("inf") for a, b in values),
                      default=0.0)
        past = sum(not within_tolerance(a, b) for a, b in values)
        if past:
            refusals.append(f"{name}: {column} past its tolerance in {past} rows "
                            f"(largest deviation {max_abs:.3g} {rule})")
        print(f"  {column:<16}{rule:<7}{max_abs:>11.3g}{max_rel:>11.3g}"
              f"{len(differing):>6}")


def compare_summaries(name: str, old: list[str], new: list[str],
                      refusals: list[str]) -> None:
    """Captured ``RunSummary.lines()`` and compare reports, word by word."""
    if len(old) != len(new):
        refusals.append(f"{name}: {len(old)} -> {len(new)} lines")
    run = None
    for old_line, new_line in zip(old, new):
        if old_line.startswith("run: "):
            run = old_line.removeprefix("run: ")
        elif old_line.startswith("comparison: "):
            run = None
        old_words = re.findall(r"[^\s()]+|[()]", old_line)
        new_words = re.findall(r"[^\s()]+|[()]", new_line)
        kind = SUMMARY_EVENTS.get(old_words[0] if old_words else "")
        if kind and run is not None and len(old_words) == len(new_words) == 2:
            compare_event(f"{name} {run}", kind, old_words[1], new_words[1], refusals)
            continue
        # An event time outside a run's summary (a compare report's settle
        # times) must not move at all.
        if len(old_words) != len(new_words) or not all(
            a == b or not kind and printed_alike(a, b) for a, b in zip(old_words, new_words)
        ):
            refusals.append(f"{name}: {old_line.strip()!r} -> {new_line.strip()!r}")


def compare_trees(old: Path, new: Path, refusals: list[str]) -> None:
    print(f"re-pin report: {old} -> {new}")
    print(f"tolerance: {TOLERANCE:g} in each column's unit, or {REL_TOLERANCE:g} "
          f"of the old value where larger; touchdown within BISECTION_TOL = "
          f"{BISECTION_TOL:g} s; freefall_start and settled equal")
    old_files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    for path in sorted(old_files ^ new_files):
        refusals.append(f"{path}: only in {old if path in old_files else new}")
    for path in sorted(old_files & new_files):
        a, b = (root.joinpath(path).read_bytes() for root in (old, new))
        try:
            old_lines, new_lines = a.decode().splitlines(), b.decode().splitlines()
        except UnicodeDecodeError:
            old_lines = new_lines = []
        head = old_lines[0] if old_lines else ""
        if head in CSV_RULES:
            if new_lines[:1] != [head]:
                refusals.append(f"{path}: header changed")
            else:
                compare_csv(str(path), CSV_RULES[head], old_lines, new_lines, refusals)
        elif head.startswith(("run: ", "comparison: ")):
            print(f"{path}: printed summary")
            compare_summaries(str(path), old_lines, new_lines, refusals)
        elif a != b:
            refusals.append(f"{path}: not byte-identical")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    refusals: list[str] = []
    compare_trees(args.old, args.new, refusals)
    if refusals:
        print(f"REFUSED ({len(refusals)}):")
        for reason in refusals:
            print(f"  {reason}")
        return 1
    print("ACCEPTED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
