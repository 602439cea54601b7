"""The re-pin report, ``tests/repin.py``: two trees of one command's
output pass with zero deviations when equal, pass with their deviations
reported when they differ within the stated tolerances, and are refused
when a row, a mode, an event or a value past its tolerance moved."""

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repin
import swervefall
from swervefall.cli import main as cli_main
from swervefall.simulation import CSV_HEADER

COLUMNS = CSV_HEADER.split(",")
DELTA = "delta_drop_controlled_vs_drop_uncontrolled.txt"


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A drop_controlled run, a two-value ledge drop_height sweep and a
    compare, each command's printed summaries saved beside its files."""
    root = tmp_path_factory.mktemp("old")
    commands = {
        "run.txt": ["run", "drop_controlled"],
        "sweep.txt": ["sweep", "ledge", "--param", "drop_height", "--values", "0.4,0.8"],
        "compare.txt": ["compare", "drop_controlled", "drop_uncontrolled"],
    }
    for name, argv in commands.items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli_main([*argv, "-o", str(root)]) == 0
        (root / name).write_text(out.getvalue(), encoding="utf-8")
    return root


def repin_report(old: Path, new: Path, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = repin.main([str(old), str(new)])
    return code, capsys.readouterr().out


def edit_cell(column: str, row: int, change):
    """An edit of a telemetry CSV's text: ``change`` maps the cell of
    ``column`` in data row ``row`` to its new text."""
    def edit(text):
        lines = text.splitlines(keepends=True)
        cells = lines[row].rstrip("\n").split(",")
        cells[COLUMNS.index(column)] = change(cells[COLUMNS.index(column)])
        lines[row] = ",".join(cells) + "\n"
        return "".join(lines)
    return edit


def drop_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def replace(old: str, new: str):
    return lambda text: text.replace(old, new)


def flip_mode(mode):
    return "0" if mode == "1" else "1"


def test_identical_trees_pass_with_zero_deviations(tree, tmp_path, capsys):
    new = tmp_path / "new"
    shutil.copytree(tree, new)
    code, report = repin_report(tree, new, capsys)
    assert code == 0 and report.endswith("ACCEPTED\n")
    deviations = re.findall(r"^  (\w+) +(?:deg|rad/s|N\*m|m) +(\S+) +(\S+) +(\d+)$",
                            report, flags=re.MULTILINE)
    # Four telemetry CSVs of 18 tolerance columns, and an aggregate of 4.
    assert len(deviations) == 4 * 18 + 4
    assert {tuple(values) for _, *values in deviations} == {("0", "0", "0")}
    events = re.findall(r"^  event (.*)$", report, flags=re.MULTILINE)
    assert "sweep.txt ledge_drop_height_0.8: settled 0.442000 -> 0.442000" in events
    assert ("sweep_drop_height.csv drop_height=0.4: touchdown 0.336315625 -> 0.336315625"
            in events)
    assert "run.txt drop_controlled: freefall_start 0.020000 -> 0.020000" in events


@pytest.mark.parametrize("file, edit, accepted", [
    ("drop_controlled.csv", drop_last_row, False),
    ("drop_controlled.csv", edit_cell("mode", 300, flip_mode), False),
    ("drop_controlled.csv", edit_cell("sat_mask", 300, lambda v: str(int(v) ^ 1)), False),
    ("drop_controlled.csv", edit_cell("tau_1", 200, lambda v: repr(float(v) + 1e-6)), False),
    ("drop_controlled.csv", edit_cell("tau_1", 200, lambda v: repr(float(v) + 1e-11)), True),
    # wheel_w2 reads -24.4 rad/s there: 6e-11 of it is past 1e-9 but
    # within 1e-10 of the value.
    ("drop_controlled.csv",
     edit_cell("wheel_w2", 153, lambda v: repr(float(v) * (1 + 6e-11))), True),
    ("run.txt", replace("settle_time_s: 0.395000", "settle_time_s: 0.396000"), False),
    ("run.txt", replace("freefall_start_s: 0.020000", "freefall_start_s: none"), False),
    ("run.txt", replace("touchdown_time_s: 0.450971", "touchdown_time_s: 0.450973"), False),
    ("run.txt", replace("touchdown_time_s: 0.450971", "touchdown_time_s: 0.450972"), True),
    ("run.txt", replace("-0.6132", "-0.6133"), True),
    ("run.txt", replace("-0.6132", "-0.6134"), False),
    ("sweep_drop_height.csv", replace("0.44592265625", "0.44592265725"), True),
    ("sweep_drop_height.csv", replace("0.44592265625", "0.44592465625"), False),
    ("sweep_drop_height.csv", replace(",0.442,", ",,"), False),
    ("ledge_drop_height_0.4.csv", lambda text: text + "\n", False),
    (DELTA, replace("(delta -16.0877)", "(delta -16.0878)"), True),
    (DELTA, replace("0.395000 vs none", "0.395001 vs none"), False),
])
def test_edited_tree_is_judged(tree, tmp_path, capsys, file, edit, accepted):
    new = tmp_path / "new"
    shutil.copytree(tree, new)
    path = new / file
    edited = edit(path.read_text(encoding="utf-8"))
    assert edited != path.read_text(encoding="utf-8")
    path.write_text(edited, encoding="utf-8")
    code, report = repin_report(tree, new, capsys)
    assert (code, report.endswith("ACCEPTED\n")) == ((0, True) if accepted else (1, False))


def test_file_in_one_tree_only_is_refused(tree, tmp_path, capsys):
    new = tmp_path / "new"
    shutil.copytree(tree, new)
    (new / "ledge_drop_height_0.8.csv").unlink()
    code, report = repin_report(tree, new, capsys)
    assert code == 1 and f"ledge_drop_height_0.8.csv: only in {tree}" in report


def test_other_blas_kernel_is_reported_and_accepted(tmp_path, capsys):
    # The pins assume one BLAS kernel set; a run on another moves the last
    # printed digit of a few attitude and torque cells, which a re-pin
    # must report and accept.  OPENBLAS_VERBOSE=2 makes OpenBLAS name the
    # kernels it chose on stderr.
    package = str(Path(swervefall.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))
    cores = []
    for name, forced in (("default", {}), ("haswell", {"OPENBLAS_CORETYPE": "Haswell"})):
        tree = tmp_path / name
        tree.mkdir()
        with (tree / "run.txt").open("w", encoding="utf-8") as out:
            stderr = subprocess.run(
                [sys.executable, "-m", "swervefall.cli", "run", "drop_controlled",
                 "-o", str(tree)],
                stdout=out, stderr=subprocess.PIPE, text=True, timeout=120, check=True,
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_VERBOSE="2", **forced),
            ).stderr
        cores.append(re.findall(r"^Core: (\S+)$", stderr, flags=re.MULTILINE))
    if len(cores[1]) != 1:
        pytest.skip("numpy's BLAS did not name its kernels")
    if cores[0] == cores[1]:
        pytest.skip(f"OPENBLAS_CORETYPE left OpenBLAS on the {cores[0][0]} kernels")
    code, report = repin_report(tmp_path / "default", tmp_path / "haswell", capsys)
    assert code == 0 and report.endswith("ACCEPTED\n")
    assert "drop_controlled.csv: 451 rows" in report
