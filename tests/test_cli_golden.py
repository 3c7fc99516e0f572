"""CLI output on a fixed command set against recorded fixtures.

spectrum, branching and verify schur-weyl, and commands the theory does not
cover (exit 3, nothing on stdout), must reproduce the recorded output byte for
byte; zchar, zexact and total-spin must reproduce every recorded
JSON number to REL_TOL relative and every other field exactly.  The
variational commands (free-energy, phase-scan, curve-c, magnetization) must
reproduce every phase label and other non-number field exactly, every value
to REL_TOL relative, and maximiser coordinates and curve points to COORD_TOL
absolute (the Newton and the bisection stop at 1e-11).  The fixtures
in golden_cli.json were recorded from a trusted version of the package;
re-record them only for an intended output change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import csv
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from orthospin.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")
REL_TOL = 1e-12
COORD_TOL = 1e-9
# JSON keys and CSV columns holding maximiser coordinates or curve points
COORD_KEYS = {"x", "y", "x_star", "y1_star", "y1_up", "y1_down", "J1", "J2"}

EXACT = [
    "spectrum --theta 2 --n 7 --p1 1 --p2 0.5",
    "spectrum --theta 3 --n 5 --p1 -0.7 --p2 1.3",
    "spectrum --theta 2 --n 30 --p1 -1.3 --p2 0.7",
    "branching --theta 2 --n 8",
    "branching --theta 3 --n 6 --p1 0.4 --p2 -1.1",
    "branching --theta 3 --n 14 --p1 -0.9 --p2 1.7",
    "branching --theta 3 --n 4 --oracle",
    "branching --theta 4 --n 4 --oracle",
    "verify schur-weyl --theta 2 --n 30",
    "verify schur-weyl --theta 3 --n 12",
    "verify schur-weyl --theta 4 --n 4 --oracle",
    "free-energy --theta 4 --p1 1 --p2 0.5 --h 0.3",
]
NUMERIC = [
    "zchar --theta 2 --n 40 --p1 1.3 --p2 -0.4 --h 0.3",
    "zchar --theta 2 --n 160 --p1 -1.7 --p2 0.9",
    "zchar --theta 3 --n 20 --p1 -1 --p2 2 --h 1",
    "zchar --theta 3 --n 40 --p1 0.6 --p2 1.9 --h -0.3",
    "zchar --theta 2 --n 12 --p1 1 --p2 0.5 --flavor P --h 0.7",
    "zchar --theta 3 --n 9 --p1 0.5 --p2 -1.5 --flavor P",
    "zexact --theta 2 --n 8 --p1 1 --p2 0.5 --h 0.3",
    "zexact --theta 2 --n 10 --p1 2 --p2 -2 --flavor P",
    "zexact --theta 3 --n 6 --p1 -1.2 --p2 0.8 --flavor P --h 0.5",
    "zexact --theta 4 --n 4 --p1 0.7 --p2 1.1",
    "total-spin --theta 2 --n 6 --p1 1 --p2 0.5 --h 1",
    "total-spin --theta 3 --n 5 --p1 1 --p2 0.5 --h 1",
]
VARIATIONAL = [
    "free-energy --theta 2 --param-mode K --p1 6 --p2 6",
    "free-energy --theta 2 --param-mode K --p1 -6 --p2 6 --h 0.3",
    "free-energy --theta 2 --p1 0.9 --p2 0.9",
    "free-energy --theta 3 --param-mode J --p1 3.25 --p2 1.5",
    "free-energy --theta 3 --param-mode J --p1 -1 --p2 -6 --h 0.5",
    "free-energy --theta 3 --p1 1.2 --p2 -0.7 --h -1",
    "free-energy --theta 4 --p1 3 --p2 1",
    "free-energy --theta 5 --p1 4 --p2 0.5",
    "free-energy --theta 5 --p1 2 --p2 1",
    "phase-scan --theta 2 --p1-min -2 --p1-max 8 --p2-min -2 --p2-max 8 --steps 3",
    "phase-scan --theta 3 --p1-min -2 --p1-max 2.4 --p2-min -3.5 --p2-max 3 --steps 3",
    "phase-scan --theta 4 --param-mode L --p1-min 0 --p1-max 4 --p2-min 0 --p2-max 2 --steps 3",
    "curve-c --resolution 10",
    "magnetization --theta 2 --param-mode K --p1 0 --p2 6",
    "magnetization --theta 2 --param-mode K --p1 6 --p2 0",
    "magnetization --theta 3 --param-mode J --p1 3.25 --p2 1.5",
    "magnetization --theta 3 --param-mode J --p1 -1 --p2 -4",
]


def _run(command: str):
    res = CliRunner().invoke(main, command.split())
    return {"exit_code": res.exit_code, "stdout": res.stdout}


def _recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("command", EXACT)
def test_golden_exact(command):
    assert _run(command) == _recorded()[command]


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


@pytest.mark.parametrize("command", NUMERIC)
def test_golden_numeric(command):
    got, want = _run(command), _recorded()[command]
    assert got["exit_code"] == want["exit_code"] == 0
    got_json, want_json = json.loads(got["stdout"]), json.loads(want["stdout"])
    assert got_json.keys() == want_json.keys()
    bad = {k: (got_json[k], v) for k, v in want_json.items() if not _close(got_json[k], v)}
    assert not bad, bad


def _parse(stdout: str):
    """JSON output as a dict, CSV output as a list of row dicts."""
    if stdout.startswith("{"):
        return json.loads(stdout)
    return list(csv.DictReader(stdout.splitlines()))


def _as_float(v):
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _mismatches(got, want, key=None, path=""):
    """Paths at which got differs from want under the variational rules."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [path]
        return [m for k in want for m in _mismatches(got[k], want[k], k, f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, key, f"{path}[{i}]")]
    if key in COORD_KEYS and isinstance(want, str) and "|" in want:
        return _mismatches(got.split("|"), want.split("|"), key, path)
    g, w = _as_float(got), _as_float(want)
    if g is None or w is None or isinstance(want, bool):
        return [] if got == want else [path]
    if key in COORD_KEYS:
        return [] if abs(g - w) <= COORD_TOL else [path]
    return [] if math.isclose(g, w, rel_tol=REL_TOL, abs_tol=0.0) else [path]


@pytest.mark.parametrize("command", VARIATIONAL)
def test_golden_variational(command):
    got, want = _run(command), _recorded()[command]
    assert got["exit_code"] == want["exit_code"] == 0
    bad = _mismatches(_parse(got["stdout"]), _parse(want["stdout"]))
    assert not bad, (bad, got["stdout"])


if __name__ == "__main__":
    commands = EXACT + NUMERIC + VARIATIONAL
    FIXTURE.write_text(json.dumps({c: _run(c) for c in commands}, indent=1) + "\n")
