import json
import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner

from orthospin.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_zexact_trivial():
    res = run("zexact", "--theta", "2", "--n", "2", "--p1", "0", "--p2", "0")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["schema"] == 1
    assert float(payload["Z"]) == 4.0


def test_zexact_zchar_agree():
    a = run("zexact", "--theta", "3", "--n", "3", "--p1", "0.8", "--p2", "-0.4")
    b = run("zchar", "--theta", "3", "--n", "3", "--p1", "0.8", "--p2", "-0.4")
    za = float(json.loads(a.output)["Z"])
    zb = float(json.loads(b.output)["Z"])
    assert abs(za - zb) / za < 1e-12


def test_zchar_theta4_past_the_reduction():
    # theta=4 n=6 has pairs only King's modification rule decides
    args = ("--theta", "4", "--n", "6", "--p1", "0.9", "--p2", "0.6")
    res = run("zchar", *args)
    assert res.exit_code == 0
    za = float(json.loads(run("zexact", *args).output)["Z"])
    assert abs(float(json.loads(res.output)["Z"]) - za) / za < 1e-12


def test_free_energy_at_spin1_criticality():
    res = run(
        "free-energy", "--theta", "3", "--param-mode", "J",
        "--p1", "0", "--p2", "2.7725887",
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    expect = math.log(3.0) + 2.7725887 / 6.0
    assert abs(float(payload["value"]) - expect) < 1e-6


def test_not_proven_exit_code():
    res = run("free-energy", "--theta", "5", "--p1", "1", "--p2", "-1")
    assert res.exit_code == 3
    res = run("free-energy", "--theta", "4", "--p1", "1", "--p2", "0.5", "--h", "0.3")
    assert res.exit_code == 3 and res.stdout == ""


def test_usage_error_exit_code():
    res = run("zexact", "--theta", "2")
    assert res.exit_code == 2


def test_zchar_flavor_p():
    args = ("--theta", "2", "--n", "4", "--p1", "1", "--p2", "0.7", "--flavor", "P")
    za = float(json.loads(run("zexact", *args).output)["Z"])
    zb = float(json.loads(run("zchar", *args).output)["Z"])
    assert abs(za - 58.0048) < 1e-4
    assert abs(za - zb) / za < 1e-12
    odd = ("--theta", "3", "--n", "4", "--p1", "1", "--p2", "0.7", "--h", "0.4")
    zp = float(json.loads(run("zchar", *odd, "--flavor", "P").output)["Z"])
    zq = float(json.loads(run("zchar", *odd).output)["Z"])
    assert zp == zq
    res = run("zchar", "--theta", "4", "--n", "3", "--p1", "1", "--p2", "0.7", "--flavor", "P")
    assert res.exit_code == 2


def test_zexact_rejects_bad_input():
    # a field that does not preserve the signed-singlet form, on both routes
    for cmd in ("zexact", "zchar"):
        res = run(cmd, "--theta", "5", "--n", "3", "--p1", "1", "--p2", "0.7",
                  "--flavor", "P", "--h", "0.5")
        assert res.exit_code == 2, cmd
        assert "pair form" in res.output, cmd
    for cmd in ("zexact", "zchar"):
        res = run(cmd, "--theta", "2", "--n", "3", "--p1", "nan", "--p2", "0.7")
        assert res.exit_code == 2


def test_value_errors_exit_2():
    for args in (
        ("zexact", "--theta", "2", "--n", "0", "--p1", "1", "--p2", "0.5"),
        ("zexact", "--theta", "1", "--n", "3", "--p1", "1", "--p2", "0.5"),
        ("zexact", "--theta", "2", "--n", "13", "--p1", "1", "--p2", "0.5"),
        ("spectrum", "--theta", "2", "--n", "0", "--p1", "1", "--p2", "1"),
        ("total-spin", "--theta", "4", "--n", "3", "--p1", "1", "--p2", "0.5"),
        ("total-spin", "--theta", "2", "--n", "3", "--p1", "nan", "--p2", "0.5"),
    ):
        res = run(*args)
        assert res.exit_code == 2, args
        assert "Traceback" not in res.output


def test_overflow_exits_2():
    # Z past the double range: exit 2 with log Z, no traceback, no Infinity
    for args in (
        ("zchar", "--theta", "2", "--n", "60", "--p1", "60", "--p2", "0"),
        ("zexact", "--theta", "2", "--n", "4", "--p1", "2000", "--p2", "0.5"),
        ("zchar", "--theta", "2", "--n", "100", "--p1", "0", "--p2", "0", "--h", "8"),
    ):
        res = run(*args)
        assert res.exit_code == 2, args
        assert "Traceback" not in res.output and "Infinity" not in res.output
    res = run("zchar", "--theta", "2", "--n", "60", "--p1", "60", "--p2", "0")
    assert "log Z = 1774.11" in res.output


def _mp_log_z(theta, n, L1, L2, h):
    """log Z in 40-digit arithmetic: the lines of enumerate_Pn with the
    closed-form characters 2 cosh(a h) (theta = 2) and
    sinh((a + 1/2) h) / sinh(h / 2) (theta = 3, a the one-row label)."""
    from orthospin.branching import enumerate_Pn
    from orthospin.partitions import column_flip, line_invariants
    from orthospin.tableaux import dim_sn

    mpmath.mp.dps = 40
    h = mpmath.mpf(h)
    total = mpmath.mpf(0)
    for pair, b in enumerate_Pn(n, theta):
        lam = pair.lam
        if theta == 2:
            chi = 2 * mpmath.cosh(lam[0] * h) if len(lam) == 1 else mpmath.mpf(1)
        else:
            a = (column_flip(lam, 3) if len(lam) > 1 else lam).size
            chi = mpmath.sinh((a + mpmath.mpf(1) / 2) * h) / mpmath.sinh(h / 2)
        c_rho, c_lam = line_invariants(pair, theta)
        energy = -((L1 + L2) * c_rho - L2 * c_lam)
        total += chi * b * dim_sn(pair.rho) * mpmath.exp(-mpmath.mpf(energy) / n)
    return mpmath.log(total)


@pytest.mark.parametrize("theta,n,p1,h", [(2, 100, -16, 8), (3, 60, -20, 13)])
def test_zchar_past_the_character_float_range(theta, n, p1, h):
    # the characters overflow a double while Z does not
    res = run("zchar", "--theta", str(theta), "--n", str(n), "--p1", str(p1),
              "--p2", "0", "--h", str(h))
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    log_z = _mp_log_z(theta, n, p1, 0, h)
    assert out["Z"] == pytest.approx(float(mpmath.exp(log_z)), rel=1e-12, abs=0.0)
    assert out["log_Z_over_n"] == pytest.approx(float(log_z / n), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("args", [
    ("verify", "schur-weyl", "--theta", "20", "--n", "3"),
    ("zchar", "--theta", "20", "--n", "4", "--p1", "0.3", "--p2", "0.1", "--h", "1.5"),
])
def test_large_theta_small_n_is_quick(args):
    # a label's determinant has at most |lambda| rows or columns, whatever theta
    start = time.perf_counter()
    res = run(*args)
    assert res.exit_code == 0, res.output
    assert time.perf_counter() - start < 1.0


def test_free_energy_rejects_non_finite():
    for p1 in ("inf", "nan"):
        res = run("free-energy", "--theta", "2", "--p1", p1, "--p2", "0")
        assert res.exit_code == 2
        assert "Traceback" not in res.output


def test_line_commands_reject_non_finite_couplings():
    for value in ("nan", "inf"):
        for args in (
            ("spectrum", "--theta", "2", "--n", "5", "--p1", value, "--p2", "0"),
            ("branching", "--theta", "3", "--n", "6", "--p1", "1", "--p2", value),
        ):
            res = run(*args)
            assert res.exit_code == 2, args
            assert "must be finite" in res.output and "Traceback" not in res.output
            assert "eigenvalue" not in res.output  # no CSV


def test_total_spin_rejects_n_below_one():
    # n is checked before the field h / n is formed
    for n in ("0", "-1"):
        res = run("total-spin", "--theta", "2", "--n", n, "--p1", "1", "--p2", "0", "--h", "1")
        assert res.exit_code == 2, n
        assert "need n >= 1" in res.output and "Traceback" not in res.output


def test_overflowing_couplings_exit_2():
    # finite couplings whose products overflow: exit 2 with a message naming
    # them, never nan or inf, and no numpy RuntimeWarning on the way
    sized = ("--theta", "2", "--n", "4", "--p1", "1e308", "--p2", "1e308")
    for args in (
        ("spectrum", *sized),
        ("branching", *sized),
        ("zchar", *sized),
        ("zexact", *sized),
        ("free-energy", "--theta", "2", "--p1", "1e308", "--p2", "1e308"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run(*args)
        assert res.exit_code == 2, args
        assert "overflow" in res.output, args
        assert "L1=1e+308, L2=1e+308" in res.stderr, args
        assert "RuntimeWarning" not in res.stderr, args
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], args
        for word in ("Traceback", "nan", "inf", "Infinity"):
            assert word not in res.output, (args, word)


def test_spectrum_csv():
    res = run("spectrum", "--theta", "2", "--n", "3", "--p1", "1", "--p2", "1")
    lines = res.output.strip().splitlines()
    assert lines[0] == "lambda,k,rho,eigenvalue,multiplicity"
    assert len(lines) == 4  # three positive lines at n=3, theta=2


def test_branching_csv_deterministic():
    a = run("branching", "--theta", "3", "--n", "4")
    b = run("branching", "--theta", "3", "--n", "4")
    assert a.output == b.output
    assert a.output.splitlines()[0] == "lambda,k,rho,b,d_O,d_Sn,eigenvalue"
    exact = run("branching", "--theta", "4", "--n", "6")
    assert exact.exit_code == 0
    assert exact.output == run("branching", "--theta", "4", "--n", "6", "--oracle").output


def test_verify_oracle():
    res = run("verify", "oracle", "--theta", "2", "--n", "6", "--trials", "20")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["ok"] and payload["max_rel_error"] <= 1e-9


def test_verify_schur_weyl():
    res = run("verify", "schur-weyl", "--theta", "3", "--n", "6")
    assert res.exit_code == 0
    res = run("verify", "schur-weyl", "--theta", "4", "--n", "4", "--oracle")
    assert res.exit_code == 0
    res = run("verify", "schur-weyl", "--theta", "4", "--n", "8")  # past the dense cap
    assert res.exit_code == 0


def test_verify_schur_weyl_checks_every_rho(monkeypatch):
    # one wrong GL(theta) dimension fails the per-rho identity while the
    # total sum still holds
    from orthospin import cli

    real = cli.dim_gl
    monkeypatch.setattr(cli, "dim_gl", lambda rho, theta: real(rho, theta) + (rho.parts == (4, 2)))
    res = run("verify", "schur-weyl", "--theta", "3", "--n", "6")
    assert res.exit_code == 1
    out = json.loads(res.output)
    assert out["multiplicity_sum"] == out["expected"] == 3**6
    assert not out["ok"] and out["failed_rho"] == ["[4,2]"]


def test_verify_homomorphism():
    res = run(
        "verify", "homomorphism", "--theta", "2", "--n", "3", "--samples", "10"
    )
    assert res.exit_code == 0


def test_verify_homomorphism_flavor_p_at_even_theta():
    # P at even theta represents B_n(-theta), with signed diagrams
    res = run("verify", "homomorphism", "--theta", "4", "--n", "3", "--flavor", "P")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"]


def test_verify_unitary():
    res = run("verify", "unitary", "--theta", "3")
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "UNITARY"
    res = run("verify", "unitary", "--theta", "2")
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "OBSTRUCTED"


def test_phase_scan_csv_and_svg(tmp_path):
    csv_path = tmp_path / "scan.csv"
    svg_path = tmp_path / "scan.svg"
    args = [
        "phase-scan", "--theta", "2", "--p1-min", "0", "--p1-max", "6",
        "--p2-min", "0", "--p2-max", "6", "--steps", "4",
        "--out", str(csv_path), "--svg", str(svg_path),
    ]
    res = run(*args)
    assert res.exit_code == 0
    text = csv_path.read_text()
    assert text.splitlines()[0] == "p1,p2,phase,x_star,y1_star,value"
    svg1 = svg_path.read_bytes()
    # the SVG is a pure function of the CSV: re-running reproduces it exactly
    res = run(*args)
    assert svg_path.read_bytes() == svg1


def test_magnetization_command():
    res = run("magnetization", "--theta", "2", "--p1", "0", "--p2", "6",
              "--param-mode", "K")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert float(payload["y1_up"]) > 0.5
    assert float(payload["y1_down"]) > 0.5


def test_magnetization_rejects_theta_below_two():
    for theta in ("0", "1"):
        res = run("magnetization", "--theta", theta, "--p1", "1", "--p2", "0")
        assert res.exit_code == 2, theta
        assert "NOT_PROVEN" not in res.output


def test_phase_scan_rejects_a_mode_the_theta_does_not_take():
    # K couplings exist at theta=2 only and J couplings at theta=3 only
    for theta, mode in (("2", "J"), ("3", "K"), ("4", "K")):
        res = run("phase-scan", "--theta", theta, "--param-mode", mode,
                  "--p1-min", "0", "--p1-max", "6", "--p2-min", "0", "--p2-max", "6",
                  "--steps", "2")
        assert res.exit_code == 2, (theta, mode)
        assert "Traceback" not in res.output


def test_low_temperature_maximiser_is_reported():
    # the maximiser x = (1 - 2.06e-9, 2.06e-9) sits next to the simplex corner
    res = run("free-energy", "--theta", "2", "--p1", "20", "--p2", "0")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert len(payload["maximizers"]) == 1
    assert float(payload["maximizers"][0]["x"][1]) == pytest.approx(2.0611537881e-9, rel=1e-9)
    assert payload["value"] > 10.0

    res = run("magnetization", "--theta", "2", "--param-mode", "L", "--p1", "20", "--p2", "0")
    assert res.exit_code == 0
    assert float(json.loads(res.output)["y1_up"]) == pytest.approx(1.0, abs=1e-8)

    res = run("phase-scan", "--theta", "2", "--param-mode", "L", "--p1-min", "20",
              "--p1-max", "20", "--p2-min", "0", "--p2-max", "0", "--steps", "1")
    assert res.exit_code == 0
    row = res.output.splitlines()[1].split(",")
    assert row[3] != "" and float(row[3].split("|")[1]) > 0.0


def test_total_spin_command():
    res = run("total-spin", "--theta", "2", "--n", "4", "--p1", "1", "--p2", "0.5")
    assert res.exit_code == 0
    assert float(json.loads(res.output)["value"]) > 1.0


def test_curve_c_command():
    res = run("curve-c", "--resolution", "10")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "J1,J2"
    # resolution points plus the sampled junction of line and arc
    assert len(lines) == 12
    j1s = [float(l.split(",")[0]) for l in lines[1:]]
    assert j1s == sorted(j1s) and 2.25 in j1s


@pytest.mark.parametrize("args", [
    ("oracle", "--theta", "2", "--n", "4", "--tol", "nan"),
    ("oracle", "--theta", "2", "--n", "4", "--tol", "inf"),
    ("oracle", "--theta", "2", "--n", "4", "--tol", "0"),
    ("oracle", "--theta", "2", "--n", "4", "--tol", "-1e-9"),
    ("oracle", "--theta", "2", "--n", "4", "--trials", "0"),
    ("oracle", "--theta", "2", "--n", "4", "--trials", "-3"),
    ("oracle", "--theta", "2", "--n", "0"),
    ("oracle", "--theta", "1", "--n", "4"),
    ("homomorphism", "--theta", "2", "--n", "3", "--samples", "0"),
    ("homomorphism", "--theta", "2", "--n", "0"),
    ("homomorphism", "--theta", "0", "--n", "3"),
    ("schur-weyl", "--theta", "2", "--n", "0"),
    ("schur-weyl", "--theta", "1", "--n", "3"),
    ("unitary", "--theta", "0"),
    ("unitary", "--theta", "1"),
    ("appendix-a", "--depth", "-1"),
], ids=" ".join)
def test_verify_rejects_vacuous_input(args):
    # each leaves nothing to check, or sets a tolerance no comparison can meet
    res = run("verify", *args)
    assert res.exit_code == 2, (args, res.output)
    assert "Invalid value" in res.output and "Traceback" not in res.output
    assert res.stdout == ""


def test_verify_accepts_the_smallest_valid_input():
    for args in (
        ("oracle", "--theta", "2", "--n", "1", "--trials", "1"),
        ("homomorphism", "--theta", "2", "--n", "1", "--samples", "1"),
    ):
        res = run("verify", *args)
        assert res.exit_code == 0, (args, res.output)


def test_runs_without_test_only_packages():
    # mpmath, scipy, hypothesis and pytest are test dependencies only
    code = textwrap.dedent("""
        import sys
        for name in ("mpmath", "scipy", "hypothesis", "pytest"):
            sys.modules[name] = None  # any import of them raises ImportError
        import orthospin
        from click.testing import CliRunner
        from orthospin.cli import main
        for args in (
            ["zexact", "--theta", "3", "--n", "4", "--p1", "1", "--p2", "0.5", "--h", "0.3"],
            ["verify", "unitary", "--theta", "3"],
        ):
            res = CliRunner().invoke(main, args)
            assert res.exit_code == 0, (args, res.output, res.exception)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
