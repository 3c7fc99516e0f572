"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error (any ValueError,
e.g. non-finite couplings or an exceeded dense cap, and verify options that
leave nothing to check), 3 regime not covered by the theory (NOT_PROVEN).
All floats print with 17 significant digits so identical configs give
byte-identical output; the environment variable ORTHO_SPIN_DENSE_CAP
overrides the dense-matrix cap.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from typing import List, Optional

import click
import numpy as np

from . import appendix, branching, spectra
from .free_energy import (
    NotProvenError,
    classify_phase,
    field_free_energy,
    maximize_phi,
    one_sided_derivatives,
    trace_curve_C,
)
from .group_chars import dim_gl
from .partitions import enumerate_partitions, format_partition

SCHEMA = 1


def f17(x: float) -> str:
    return format(float(x), ".17g")


def _echo_json(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    click.echo(json.dumps(payload, sort_keys=True, default=f17))


def _write_csv(path: Optional[str], header: List[str], rows: List[List[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


class _Main(click.Group):
    """Exit codes of any command: ValueError 2 (usage), NotProvenError 3 (NOT_PROVEN)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        except NotProvenError as exc:
            click.echo(f"NOT_PROVEN: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main() -> None:
    """Exact solver for the orthogonal-invariant spin system on the
    complete graph."""


_common = [
    click.option("--theta", type=int, required=True),
    click.option("--n", type=int, required=True),
    click.option("--p1", type=float, required=True, help="L1 (canonical)"),
    click.option("--p2", type=float, required=True, help="L2 (canonical)"),
    click.option("--h", type=float, default=0.0),
    click.option("--flavor", type=click.Choice(["Q", "P"]), default="Q"),
]


def _add_options(opts):
    def wrap(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return wrap


@main.command()
@_add_options(_common)
def zexact(theta, n, p1, p2, h, flavor):
    """Dense-trace partition function."""
    spec = spectra.HamiltonianSpec(theta, n, p1, p2, h=h, flavor=flavor)
    z = spectra.z_direct(spec)
    _echo_json(
        {"command": "zexact", "n": n, "theta": theta, "L1": p1, "L2": p2,
         "h": h, "Z": z, "log_Z_over_n": math.log(z) / n}
    )


@main.command()
@_add_options(_common)
def zchar(theta, n, p1, p2, h, flavor):
    """Character-decomposition partition function."""
    z = spectra.z_decomposed(n, theta, p1, p2, h=h, flavor=flavor)
    _echo_json(
        {"command": "zchar", "n": n, "theta": theta, "L1": p1, "L2": p2,
         "h": h, "Z": z, "log_Z_over_n": math.log(z) / n}
    )


@main.command()
@click.option("--theta", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--p1", type=float, required=True)
@click.option("--p2", type=float, required=True)
@click.option("--out", type=str, default=None)
def spectrum(theta, n, p1, p2, out):
    """CSV of spectral lines: lambda, k, rho, eigenvalue, multiplicity."""
    lines = spectra.spectral_lines(n, theta, p1, p2)
    rows = [
        [format_partition(l.lam), str(l.k), format_partition(l.rho),
         f17(l.eigenvalue), str(l.multiplicity)]
        for l in lines
    ]
    _write_csv(out, ["lambda", "k", "rho", "eigenvalue", "multiplicity"], rows)


def _line_table(n: int, theta: int, oracle: bool) -> spectra.LineTable:
    """The cached line table, or with --oracle one built from the positive
    lines of the dense spectral extraction (small n only, a check)."""
    if not oracle:
        return spectra.line_table(n, theta)
    return spectra.build_line_table(
        branching.index_pairs(n, branching.spectral_extract_branching(n, theta)), theta)


@main.command("branching")
@click.option("--theta", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--oracle", is_flag=True, default=False)
@click.option("--p1", type=float, default=1.0)
@click.option("--p2", type=float, default=1.0)
@click.option("--out", type=str, default=None)
def branching_cmd(theta, n, oracle, p1, p2, out):
    """CSV of branching data: lambda, k, rho, b, d_O, d_Sn, eigenvalue."""
    table = _line_table(n, theta, oracle)
    energies = spectra.table_eigenvalues(table, p1, p2).tolist()
    rows = [
        [format_partition(pair.lam), str(pair.k), format_partition(pair.rho),
         str(b), str(d_o), str(d_sn), f17(e)]
        for (pair, b, d_o, d_sn), e in zip(table.rows(), energies)
    ]
    _write_csv(out, ["lambda", "k", "rho", "b", "d_O", "d_Sn", "eigenvalue"], rows)


@main.command("free-energy")
@click.option("--theta", type=int, required=True)
@click.option("--param-mode", type=click.Choice(["L", "K", "J"]), default="L")
@click.option("--p1", type=float, required=True)
@click.option("--p2", type=float, required=True)
@click.option("--h", type=float, default=0.0)
def free_energy_cmd(theta, param_mode, p1, p2, h):
    """Variational free energy (canonical value plus shift bookkeeping)."""
    L1, L2, shift = spectra.convert_parameters(param_mode, p1, p2, theta)
    res = maximize_phi(theta, L1, L2, h=h)
    _echo_json(
        {
            "command": "free-energy",
            "theta": theta,
            "mode": param_mode,
            "p1": p1,
            "p2": p2,
            "L1": L1,
            "L2": L2,
            "h": h,
            "value": res.value,
            "shift_per_edge": shift,
            "value_original_units": res.value - shift / 2.0,
            "maximizers": [
                {"x": [f17(v) for v in p.x], "y": [f17(v) for v in p.y]}
                for p in res.points
            ],
        }
    )


@main.command("phase-scan")
@click.option("--theta", type=int, required=True)
@click.option("--param-mode", type=click.Choice(["L", "K", "J"]), default=None)
@click.option("--p1-min", type=float, required=True)
@click.option("--p1-max", type=float, required=True)
@click.option("--p2-min", type=float, required=True)
@click.option("--p2-max", type=float, required=True)
@click.option("--steps", type=int, default=10)
@click.option("--out", type=str, default=None)
@click.option("--svg", type=str, default=None)
def phase_scan(theta, param_mode, p1_min, p1_max, p2_min, p2_max, steps, out, svg):
    """Grid scan emitting CSV (p1, p2, phase, x*, y1*, value) and an
    optional SVG region map (a pure function of the CSV rows)."""
    if steps < 1:
        raise click.UsageError("steps must be positive")
    rows = []
    for i in range(steps):
        p1 = p1_min + (p1_max - p1_min) * i / max(steps - 1, 1)
        for j in range(steps):
            p2 = p2_min + (p2_max - p2_min) * j / max(steps - 1, 1)
            try:
                res = classify_phase(theta, p1, p2, mode=param_mode)
                label = res.label
                point = res.maximizers[0] if res.maximizers else None
                xs = "|".join(f17(v) for v in point.x) if point else ""
                y1 = f17(point.y[0]) if point and point.y else f17(0.0)
                val = f17(res.value)
            except NotProvenError:
                label, xs, y1, val = "NOT_PROVEN", "", "", ""
            rows.append([f17(p1), f17(p2), label, xs, y1, val])
    _write_csv(out, ["p1", "p2", "phase", "x_star", "y1_star", "value"], rows)
    if svg:
        _phase_svg(rows, svg)


_PHASE_COLORS = {
    "Disordered": "#f6c6d0",
    "Ising": "#f2e394",
    "XY": "#9fd8df",
    "Nematic": "#9fd8df",
    "Ferromagnetic": "#f2e394",
    "FourthPhase": "#f4b183",
    "Ordered": "#f2e394",
    "Boundary": "#d0d0d0",
    "NOT_PROVEN": "#ffffff",
}


def _phase_svg(rows: List[List[str]], path: str) -> None:
    """Render the scan as colored cells; depends only on the CSV rows."""
    p1s = sorted({float(r[0]) for r in rows})
    p2s = sorted({float(r[1]) for r in rows})
    cell = 12
    width, height = cell * len(p1s), cell * len(p2s)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]
    for r in rows:
        i = p1s.index(float(r[0]))
        j = p2s.index(float(r[1]))
        color = _PHASE_COLORS.get(r[2], "#888888")
        parts.append(
            f'<rect x="{i * cell}" y="{height - (j + 1) * cell}" '
            f'width="{cell}" height="{cell}" fill="{color}">'
            f"<title>{r[2]}</title></rect>"
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


@main.command()
@click.option("--theta", type=int, required=True)
@click.option("--p1", type=float, required=True)
@click.option("--p2", type=float, required=True)
@click.option("--param-mode", type=click.Choice(["L", "K", "J"]), default="L")
@click.option("--h", type=float, default=1e-6)
def magnetization(theta, p1, p2, param_mode, h):
    """Field free energy and one-sided derivatives at h = 0."""
    L1, L2, _ = spectra.convert_parameters(param_mode, p1, p2, theta)
    up, down = one_sided_derivatives(theta, L1, L2)
    phi_h = field_free_energy(theta, L1, L2, h)
    phi_0 = field_free_energy(theta, L1, L2, 0.0)
    _echo_json(
        {
            "command": "magnetization",
            "theta": theta,
            "L1": L1,
            "L2": L2,
            "h": h,
            "Phi_h": phi_h,
            "Phi_0": phi_0,
            "y1_up": up,
            "y1_down": down,
        }
    )


@main.command("total-spin")
@click.option("--theta", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--p1", type=float, required=True)
@click.option("--p2", type=float, required=True)
@click.option("--h", type=float, default=1.0)
def total_spin(theta, n, p1, p2, h):
    """Finite-n total-spin observable (dense and character routes)."""
    value = spectra.total_spin_observable(n, theta, p1, p2, h)
    _echo_json(
        {"command": "total-spin", "theta": theta, "n": n, "L1": p1, "L2": p2,
         "h": h, "value": value}
    )


@main.command("curve-c")
@click.option("--resolution", type=int, default=40)
@click.option("--out", type=str, default=None)
def curve_c(resolution, out):
    """Trace the spin-1 disordered-region boundary in the J1 >= J2 wedge."""
    pts = trace_curve_C(resolution)
    rows = [[f17(a), f17(b)] for a, b in pts]
    _write_csv(out, ["J1", "J2"], rows)


@main.group()
def verify() -> None:
    """Verification subcommands; exit 1 on failure."""


# verify options reject sizes and counts that leave nothing to check (exit 2)
_THETA = click.IntRange(min=2)
_COUNT = click.IntRange(min=1)


def _positive_finite(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise click.BadParameter(f"{value!r} is not a finite number > 0")
    return value


@verify.command("schur-weyl")
@click.option("--theta", type=_THETA, required=True)
@click.option("--n", type=_COUNT, required=True)
@click.option("--oracle", is_flag=True, default=False)
def verify_schur_weyl(theta, n, oracle):
    """sum of d_O b d_Sn over the lines is theta^n, and for every rho the
    restriction sum of b d_O(lambda) is dim_gl(rho, theta)."""
    total, restricted = 0, dict.fromkeys(enumerate_partitions(n, theta), 0)
    for pair, b, d_o, d_sn in _line_table(n, theta, oracle).rows():
        total += d_o * b * d_sn
        restricted[pair.rho] += b * d_o
    failed = [format_partition(rho) for rho, d in restricted.items() if d != dim_gl(rho, theta)]
    ok = total == theta**n and not failed
    _echo_json({"command": "verify schur-weyl", "theta": theta, "n": n, "multiplicity_sum": total,
                "expected": theta**n, "ok": ok, **({"failed_rho": failed} if failed else {})})
    sys.exit(0 if ok else 1)


@verify.command("homomorphism")
@click.option("--theta", type=_THETA, required=True)
@click.option("--n", type=_COUNT, required=True)
@click.option("--samples", type=_COUNT, default=50)
@click.option("--flavor", type=click.Choice(["Q", "P"]), default="Q")
@click.option("--seed", type=int, default=0)
def verify_homomorphism_cmd(theta, n, samples, flavor, seed):
    from .brauer import verify_homomorphism

    report = verify_homomorphism(n, theta, samples, flavor, seed=seed)
    _echo_json({"command": "verify homomorphism", **report})
    sys.exit(0 if report["ok"] else 1)


@verify.command("appendix-a")
@click.option("--depth", type=click.IntRange(min=0), default=40)
def verify_appendix_a(depth):
    report = appendix.certify_positive(appendix.PAPER_LO, appendix.PAPER_HI, depth)
    winding = appendix.winding_zero_count()
    ok = report.certified and winding.verified == 4
    _echo_json(
        {
            "command": "verify appendix-a",
            "certified": report.certified,
            "leaves": report.leaves,
            "max_depth": report.max_depth_used,
            "winding": winding.verified,
            "winding_estimate_re": winding.estimate.real,
            "winding_estimate_im": winding.estimate.imag,
            "ok": ok,
        }
    )
    sys.exit(0 if ok else 1)


@verify.command("unitary")
@click.option("--theta", type=_THETA, required=True)
def verify_unitary(theta):
    report = appendix.verify_pq_equivalence(theta)
    payload = {
        "command": "verify unitary",
        "theta": theta,
        "status": report.status,
    }
    if report.status == "UNITARY":
        payload["residual_psi"] = report.residual_psi
        payload["residual_conjugation"] = report.residual_conjugation
    else:
        payload["certificate"] = report.certificate
    _echo_json(payload)
    sys.exit(0 if report.status in ("UNITARY", "OBSTRUCTED") else 1)


@verify.command("oracle")
@click.option("--theta", type=_THETA, required=True)
@click.option("--n", type=_COUNT, required=True)
@click.option("--trials", type=_COUNT, default=20)
@click.option("--seed", type=int, default=0)
@click.option("--tol", type=float, default=1e-9, callback=_positive_finite)
def verify_oracle(theta, n, trials, seed, tol):
    """Dense trace vs character decomposition on random couplings."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        L1, L2 = rng.uniform(-2.0, 2.0, size=2)
        zd = spectra.z_direct(spectra.HamiltonianSpec(theta, n, L1, L2))
        zc = spectra.z_decomposed(n, theta, L1, L2)
        worst = max(worst, abs(zd - zc) / zd)
    ok = worst <= tol
    _echo_json(
        {"command": "verify oracle", "theta": theta, "n": n, "trials": trials,
         "max_rel_error": worst, "tol": tol, "ok": ok}
    )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
