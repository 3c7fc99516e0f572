"""CLI output on a fixed command set against recorded fixtures.

spectrum, branching and verify schur-weyl must reproduce the recorded output
byte for byte; zchar, zexact and total-spin must reproduce every recorded
JSON number to REL_TOL relative and every other field exactly.  The fixtures
in golden_cli.json were recorded from a trusted version of the package;
re-record them only for an intended output change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from orthospin.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")
REL_TOL = 1e-12

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


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({c: _run(c) for c in EXACT + NUMERIC}, indent=1) + "\n")
