"""The command-line contract on edge inputs, drawn by hypothesis.

Every command runs over the edge values below: theta and n from -1 to 6,
couplings and fields from zero, small, large, overflowing, subnormal and
non-finite numbers.  Each call must exit 0, 1, 2 or 3 with no exception but
SystemExit; only verify commands exit 1; an exit-0 JSON payload holds no NaN
or Infinity, and an exit-0 CSV no non-finite number; every exit 2 prints a
reason.  zexact and zchar must agree on log Z / n, or refuse alike, except
flavor P at even theta >= 4, which only the dense route covers.  Draws are
derandomized and bounded so that the file stays deterministic and quick;
sizes stay under the dense cap and, for verify homomorphism, whose dense
matrices have no cap, at theta^n <= 256.
"""

import json
import math
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from orthospin.cli import main
from orthospin.spectra import DEFAULT_DENSE_CAP

THETA = st.integers(-1, 6)
N = st.integers(-1, 6)
REAL = st.sampled_from(["0", "1", "-1", "0.5", "-3", "50", "-50", "700", "-700", "1e308",
                        "-1e308", "inf", "-inf", "nan", "1e-320", "2e5"])
FLAVOR = st.sampled_from(["Q", "P"])
MODE = st.sampled_from(["L", "K", "J"])
SMALL = st.integers(-1, 2)  # counts, seeds and steps
JSON_COMMANDS = {"zexact", "zchar", "free-energy", "magnetization", "total-spin", "verify"}


def _in_cap(size, cap=DEFAULT_DENSE_CAP):
    theta, n = size
    return theta < 2 or n < 1 or theta**n <= cap


def command(name, **options):
    """Argument lists of one command, each option drawn from its strategy;
    an option drawn as None is left out, and a bool one is a flag."""

    def args(values):
        out = name.split()
        for key, value in values.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                out.append(flag)
            elif value is not None and value is not False:
                out += [flag, str(value)]
        return out

    return st.fixed_dictionaries(options).map(args)


def sized(name, sizes=st.tuples(THETA, N), **options):
    """command() with (theta, n) drawn together from sizes."""
    return st.tuples(sizes, command(name, **options)).map(
        lambda d: [*d[1], "--theta", str(d[0][0]), "--n", str(d[0][1])])


Z_OPTIONS = dict(p1=REAL, p2=REAL, h=REAL, flavor=FLAVOR)
COMMANDS = {
    "zexact": sized("zexact", **Z_OPTIONS),
    "zchar": sized("zchar", **Z_OPTIONS),
    "spectrum": sized("spectrum", p1=REAL, p2=REAL),
    "branching": sized("branching", oracle=st.booleans(), p1=REAL, p2=REAL),
    "free-energy": command("free-energy", theta=THETA, param_mode=MODE, p1=REAL, p2=REAL, h=REAL),
    "phase-scan": command("phase-scan", theta=THETA, param_mode=st.one_of(st.none(), MODE),
                          p1_min=REAL, p1_max=REAL, p2_min=REAL, p2_max=REAL, steps=SMALL),
    "magnetization": command("magnetization", theta=THETA, p1=REAL, p2=REAL, param_mode=MODE,
                             h=REAL),
    "total-spin": sized("total-spin", p1=REAL, p2=REAL, h=REAL),
    "curve-c": command("curve-c", resolution=st.sampled_from([-1, 0, 1, 9, 10])),
    "verify schur-weyl": sized("verify schur-weyl", oracle=st.booleans()),
    "verify homomorphism": sized("verify homomorphism",
                                 st.tuples(THETA, N).filter(lambda s: _in_cap(s, 256)),
                                 samples=SMALL, flavor=FLAVOR, seed=SMALL),
    "verify appendix-a": command("verify appendix-a", depth=st.integers(-1, 3)),
    "verify unitary": command("verify unitary", theta=THETA),
    "verify oracle": sized("verify oracle", st.tuples(THETA, N).filter(_in_cap),
                           trials=SMALL, seed=SMALL, tol=REAL),
}


def _reject(constant):
    raise ValueError(f"non-finite number {constant} in the JSON output")


def run(args):
    """Invoke the command line and check the contract; the result."""
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exc_info)
    assert res.exit_code in (0, 1, 2, 3), (args, res.output)
    assert res.exit_code != 1 or args[0] == "verify", (args, res.output)
    assert res.exit_code != 2 or re.search(r"Error: \S", res.output), (args, res.output)
    if res.exit_code == 0 and args[0] in JSON_COMMANDS:
        json.loads(res.stdout, parse_constant=_reject)
    elif res.exit_code == 0:
        for field in re.split(r"[,\n|]", res.stdout):
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), (args, field)
    return res


@pytest.mark.parametrize("name", list(COMMANDS))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_contract(name, data):
    run(data.draw(COMMANDS[name], label="args"))


@pytest.mark.parametrize("theta, n", [(3, -1), (0, -1), (2, 0)])
def test_branching_oracle_refuses_bad_sizes(theta, n):
    # the dense extraction checks the size before the cap and theta^n
    res = run(["branching", "--theta", str(theta), "--n", str(n), "--oracle"])
    assert res.exit_code == 2 and "need n >= 1 and theta >= 2" in res.output


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.tuples(st.integers(2, 6), st.integers(1, 6)).filter(_in_cap), REAL, REAL, REAL, FLAVOR)
def test_zexact_and_zchar_agree_or_refuse_alike(size, p1, p2, h, flavor):
    # sizes the models have (test_contract draws the others)
    theta, n = size
    args = ["--theta", str(theta), "--n", str(n), "--p1", p1, "--p2", p2, "--h", h,
            "--flavor", flavor]
    dense, lines = run(["zexact", *args]), run(["zchar", *args])
    if flavor == "P" and theta % 2 == 0 and theta >= 4:
        assert lines.exit_code == 2
    elif dense.exit_code == lines.exit_code == 0:
        a, b = (json.loads(r.stdout)["log_Z_over_n"] for r in (dense, lines))
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), (args, a, b)
    else:
        assert dense.exit_code == lines.exit_code != 0, (args, dense.output, lines.output)
