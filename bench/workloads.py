"""The four benchmark workloads, built from a seed.

Each workload is a list of operations.  An operation is one timed call into
the public orthospin API (``run``) plus an output check (``check``) that the
runner calls outside the timed interval.  A check returns None when the
output is right and a one-line reason otherwise.  Operations of one ``kind``
do the same work (same function, sizes and cache state; at most the
couplings and fields differ), which lets the runner take medians over them.

The amount of work is fixed by ``--seconds``: a workload repeats its round of
operations ``max(1, round(seconds / round_s))`` times.  Each workload's
``round_s`` is chosen so that at the default ``--seconds`` the kinds recur
across the whole run (the pure-Python workloads' kinds four to twenty
times), which lets the runner take a median or best-of-N per kind, while
one run stays under 40 s on a loaded 2-core x86-64 host.  Every commit measured with the same ``--seconds`` therefore runs the
same operations, and the seed changes only the couplings, fields, grid
offsets and order, never the mix.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from orthospin import branching, spectra
from orthospin.free_energy import SimplexPoint, phi
from orthospin.group_chars import dim_o
from orthospin.spectra import HamiltonianSpec, convert_parameters
from orthospin.tableaux import dim_sn

# The package re-exports the function free_energy under the submodule's name.
free_energy = importlib.import_module("orthospin.free_energy")

REL_TOL = 1e-9  # double-route agreement, as in acceptance criteria 1-2
FIELDS = (-1.0, 0.3, 1.0)
DOMAIN_SLACK = 1e-11
LATTICE_JITTER = 0.05
CURVE_J1_MIN = 2.1


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    ops: List[Op]
    warmup: Optional[Callable[[], None]] = None
    clear_between_rounds: bool = False
    round_len: int = 0
    # Pure-Python work is timed at the reference host speed (hostspeed.py);
    # BLAS-bound work, which the Python kernel does not track, by wall time.
    host_scaled: bool = True


def rounds_for(seconds: float, round_s: float) -> int:
    return max(1, round(seconds / round_s))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _couplings(rng: np.random.Generator):
    L1, L2 = rng.uniform(-2.0, 2.0, size=2)
    return float(L1), float(L2)


def _finite(*values) -> Optional[str]:
    for v in values:
        if not (isinstance(v, float) and math.isfinite(v)):
            return f"non-finite value {v!r}"
    return None


# ---------------------------------------------------------------------------
# dense_oracle

def _double_route(theta: int, n: int, L1: float, L2: float, h: float, flavor: str,
                  kind: str) -> Op:
    def run():
        zd = spectra.z_direct(HamiltonianSpec(theta, n, L1, L2, h=h, flavor=flavor))
        if flavor == "P" and theta == 2:
            # At theta=2 the signed singlet is P = 1 - T, so
            # Z_P(L1, L2) = exp(L2 (n-1)/2) Z_Q(L1 - L2, 0): the character
            # route checks the P model through its Q lines.
            zc = math.exp(L2 * (n - 1) / 2) * spectra.z_decomposed(n, theta, L1 - L2, 0.0, h=h)
        else:
            # For odd theta the P and Q models are unitarily equivalent.
            zc = spectra.z_decomposed(n, theta, L1, L2, h=h)
        return zd, zc

    def check(out):
        zd, zc = out
        bad = _finite(zd, zc)
        if bad:
            return bad
        err = _rel(zd, zc)
        return None if err <= REL_TOL else f"routes disagree: rel err {err:.2e}"

    return Op(kind, run, check)


def _extraction(theta: int, n: int, seed: int, kind: str) -> Op:
    def run():
        return branching.spectral_extract_branching(n, theta, seed=seed)

    def check(pairs):
        total = sum(dim_o(p.lam, theta) * b * dim_sn(p.rho) for p, b in pairs)
        if total != theta**n:
            return f"Schur-Weyl sum {total} != {theta}^{n}"
        return None

    return Op(kind, run, check)


def dense_oracle(seed: int, seconds: float, tiny: bool) -> Workload:
    """Double-route check at the largest dense sizes under the default cap.

    Per size and round, in a fixed order: two h=0 operations, one h=0
    operation with flavour P and one with h drawn from FIELDS; then one
    spectral extraction at each of (theta=4, n=5) and (theta=3, n=6).  The
    first operation to use a cached pair-operator sum (theta, n, flavour)
    pays its assembly and is a kind of its own; the fixed order keeps the
    same operations first whatever the seed.
    """
    rng = np.random.default_rng(seed)
    if tiny:
        sizes, extractions, rounds = ((2, 3), (3, 2)), ((3, 3),), 1
    else:
        sizes = ((2, 8), (2, 10), (2, 11), (3, 5), (3, 6), (3, 7))
        extractions = ((4, 5), (3, 6))
        rounds = rounds_for(seconds, 9.5)
    plan = []
    for _ in range(rounds):
        for theta, n in sizes:
            fields = (0.0, 0.0, 0.0, float(rng.choice(FIELDS)))
            for h, flavor in zip(fields, ("Q", "Q", "P", "Q")):
                plan.append(("double_route", theta, n, flavor, h, _couplings(rng)))
        for theta, n in extractions:
            plan.append(("extract", theta, n, "Q", 0.0, int(rng.integers(2**31))))
    ops: List[Op] = []
    assembled = set()
    for name, theta, n, flavor, h, arg in plan:
        kind = f"{name}.t{theta}.n{n}.{flavor}{'.h' if h else ''}"
        if (theta, n, flavor) not in assembled:
            assembled.add((theta, n, flavor))
            kind += ".first"
        if name == "extract":
            ops.append(_extraction(theta, n, arg, kind))
        else:
            ops.append(_double_route(theta, n, *arg, h, flavor, kind))
    return Workload(ops, round_len=len(ops) // rounds, host_scaled=False)


# ---------------------------------------------------------------------------
# char_cold and char_warm

def _char_op(theta: int, n: int, L1: float, L2: float, h: float, kind: str,
             check_zero: bool = False, check_even: bool = False) -> Op:
    """One z_decomposed call.  Every result must be finite; sampled
    operations also check Z(0,0) = theta^n (check_zero) or Z(h) = Z(-h)
    (check_even).  The extra calls run outside the timing."""

    def run():
        return spectra.z_decomposed(n, theta, L1, L2, h=h)

    def check(z):
        bad = _finite(z)
        if bad:
            return bad
        if check_zero:
            z0 = spectra.z_decomposed(n, theta, 0.0, 0.0)
            if _rel(z0, float(theta**n)) > REL_TOL:
                return f"Z(0,0) = {z0!r} != {theta}^{n}"
        if check_even:
            zm = spectra.z_decomposed(n, theta, L1, L2, h=-h)
            if _rel(z, zm) > REL_TOL:
                return f"Z(h) != Z(-h): rel err {_rel(z, zm):.2e}"
        return None

    return Op(kind, run, check)


def char_cold(seed: int, seconds: float, tiny: bool) -> Workload:
    """Sweeps over the sizes, with the caches emptied before each sweep.

    Per size and sweep: one h=0 operation, which pays the enumeration, then
    one h != 0 operation.  In the first sweep, even-indexed sizes check
    Z(0,0) and odd-indexed sizes check Z(h) = Z(-h).  The sizes stop at
    theta=2 n=140 and theta=3 n=28, where a sweep takes about 2 s, so that
    each size recurs about ten times per run.
    """
    rng = np.random.default_rng(seed)
    if tiny:
        sizes, rounds = ((2, 6), (3, 4)), 1
    else:
        sizes = ((3, 16), (3, 28), (2, 40), (2, 90), (2, 140))
        rounds = rounds_for(seconds, 2.0)
    ops: List[Op] = []
    for r in range(rounds):
        for i, (theta, n) in enumerate(sizes):
            h = float(rng.choice(FIELDS))
            ops.append(_char_op(theta, n, *_couplings(rng), 0.0, f"zchar.t{theta}.n{n}.cold",
                                check_zero=r == 0 and i % 2 == 0))
            ops.append(_char_op(theta, n, *_couplings(rng), h, f"zchar.t{theta}.n{n}.h",
                                check_even=r == 0 and i % 2 == 1))
    return Workload(ops, clear_between_rounds=True, round_len=len(ops) // rounds)


def char_warm(seed: int, seconds: float, tiny: bool) -> Workload:
    """Many couplings at two fixed sizes after an untimed warm-up call per
    size.  Per round: two operations at (2, 160) and four at (3, 40), half
    of them with h != 0, shuffled.  The first operation at each size checks
    Z(0,0); every third h != 0 operation checks Z(h) = Z(-h)."""
    rng = np.random.default_rng(seed)
    if tiny:
        sizes, rounds = ((2, 8, 1), (3, 5, 2)), 1
    else:
        sizes = ((2, 160, 1), (3, 40, 2))
        rounds = rounds_for(seconds, 2.2)
    plan = []
    for _ in range(rounds):
        batch = []
        for theta, n, reps in sizes:
            for _ in range(reps):
                for h in (0.0, float(rng.choice(FIELDS))):
                    batch.append((theta, n, *_couplings(rng), h))
        plan.extend(batch[i] for i in rng.permutation(len(batch)))
    ops: List[Op] = []
    seen = set()
    fields = 0
    for theta, n, L1, L2, h in plan:
        check_zero = (theta, n) not in seen
        seen.add((theta, n))
        check_even = h != 0.0 and fields % 3 == 0
        fields += h != 0.0
        kind = f"zchar.t{theta}.n{n}{'.h' if h else ''}"
        ops.append(_char_op(theta, n, L1, L2, h, kind, check_zero, check_even))

    def warmup():
        # Through z_decomposed itself: lru_cache keys enumerate_Pn(n, theta)
        # and enumerate_Pn(n, theta, oracle=False) apart.
        for theta, n, _ in sizes:
            spectra.z_decomposed(n, theta, 1.0, 0.5)

    return Workload(ops, warmup=warmup, round_len=len(ops) // rounds)


# ---------------------------------------------------------------------------
# variational

def _sym_point(theta: int) -> SimplexPoint:
    return SimplexPoint((1.0 / theta,) * theta, (0.0,) * theta)


def _onto_domain(p: SimplexPoint) -> SimplexPoint:
    """p with x sorted and y_1 clamped to [0, x_1 - x_theta], when that moves
    it by at most DOMAIN_SLACK.

    maximize_phi orders x only to 1e-12 per adjacent pair, so at a
    near-symmetric maximiser x_1 - x_theta can be about -1e-12, which phi's
    own 1e-12 domain check rejects.  Larger deviations are left for phi to
    reject.
    """
    x = tuple(sorted(p.x, reverse=True))
    y1 = min(max(p.y[0], 0.0), x[0] - x[-1]) if x[0] > x[-1] else 0.0
    moved = max(max(abs(a - b) for a, b in zip(x, p.x)), abs(y1 - p.y[0]))
    return SimplexPoint(x, (y1,) + p.y[1:]) if moved <= DOMAIN_SLACK else p


def _maximiser_check(theta: int, L1: float, L2: float, value: float, points) -> Optional[str]:
    bad = _finite(value)
    if bad:
        return bad
    if not points:
        return "no maximiser returned"
    tol = REL_TOL * max(1.0, abs(value))
    for p in points:
        at = phi(theta, L1, L2, _onto_domain(p))
        if abs(at - value) > tol:
            return f"value {value!r} != phi at maximiser {at!r}"
    sym = phi(theta, L1, L2, _sym_point(theta))
    if value < sym - tol:
        return f"value {value!r} below the symmetric point {sym!r}"
    return None


def _phase_op(theta: int, mode: str, p1: float, p2: float, kind: str) -> Op:
    def run():
        return free_energy.classify_phase(theta, p1, p2, mode=mode)

    def check(res):
        L1, L2, _ = convert_parameters(mode, p1, p2, theta)
        return _maximiser_check(theta, L1, L2, res.value, res.maximizers)

    return Op(kind, run, check)


def _maximize_op(theta: int, L1: float, L2: float, kind: str) -> Op:
    def run():
        return free_energy.maximize_phi(theta, L1, L2)

    def check(res):
        return _maximiser_check(theta, L1, L2, res.value, res.points)

    return Op(kind, run, check)


def _curve_c_op(resolution: int, j1_min: float) -> Op:
    """trace_curve_C with criterion 7's straight-piece and secant checks."""

    def run():
        return free_energy.trace_curve_C(resolution, j1_min=j1_min)

    def check(pts):
        line_err = max(abs(b - (2 * a - 3.0)) for a, b in pts if b <= 1.4)
        if line_err > 1e-3:
            return f"straight piece off by {line_err:.2e}"
        slopes = [
            (pts[i + 1][1] - pts[i][1]) / (pts[i + 1][0] - pts[i][0])
            for i in range(len(pts) - 1)
        ]
        if not all(2.0 - 1e-3 <= s <= 3.0 + 1e-3 for s in slopes):
            return "secant slope outside [2, 3]"
        if not all(b >= a - 1e-6 for a, b in zip(slopes, slopes[1:])):
            return "secant slopes decrease"
        return None

    return Op(f"curve_c.r{resolution}.j{j1_min}", run, check)


def _lattice(rng: np.random.Generator, lo: float, hi: float, steps: int):
    """steps points on [lo, hi), evenly spaced and shifted by a seeded offset
    of at most LATTICE_JITTER of a step.

    The cost of a variational operation depends on its point, so a small
    offset keeps each point's cost nearly the same from seed to seed.
    """
    step = (hi - lo) / steps
    u = float(rng.uniform(0.0, LATTICE_JITTER * step))
    return [lo + i * step + u for i in range(steps)]


def variational(seed: int, seconds: float, tiny: bool) -> Workload:
    """Per round: classify_phase on a theta=2 K-grid and a theta=3 J-grid,
    maximize_phi on a theta=4 grid with L2 >= 0, and one
    trace_curve_C(10, j1_min=CURVE_J1_MIN).

    The grids are drawn once per run and repeated every round, so each grid
    point is a kind.  The J-grid is sheared along the straight piece of curve
    C (J2 = 2 J1 - 3 + d), at fixed distances d, so that the same share of
    its points is near-critical; those points make the tail.  Their cost
    changes by 3x along the curve, so the J-grid is the same for every seed
    (the seed moves the K- and L-grids and the order) and the tail does not
    move with the seed.

    Curve C starts at J1 = CURVE_J1_MIN rather than the default 1.9: its
    points below 2.1 cost 2 s more per call, and a call of 2.5 s can recur
    in every round, so the run sees it several times.  Two points of the
    straight piece stay on the curve for criterion 7's check.
    """
    rng = np.random.default_rng(seed)
    steps, rounds = (2, 1) if tiny else (3, rounds_for(seconds, 3.2))
    offsets = (-0.6, -0.05, 0.6) if tiny else (-0.6, -0.2, -0.05, 0.05, 0.2, 0.6)
    k1, k2 = _lattice(rng, -2.0, 8.0, steps), _lattice(rng, -2.0, 8.0, steps)
    j1 = [0.6 + i * 1.6 / steps for i in range(steps)]
    l1, l2 = _lattice(rng, 0.0, 4.0, steps), _lattice(rng, 0.0, 4.0, steps)
    grid = [_phase_op(2, "K", a, b, f"phase.t2.{a:.4f}.{b:.4f}") for a in k1 for b in k2]
    grid += [_phase_op(3, "J", a, 2 * a - 3 + d, f"phase.t3.{a:.4f}.{d}")
             for a in j1 for d in offsets]
    grid += [_maximize_op(4, a, b, f"maximize.t4.{a:.4f}.{b:.4f}") for a in l1 for b in l2]
    grid.append(_curve_c_op(10, CURVE_J1_MIN))
    ops: List[Op] = []
    for _ in range(rounds):
        ops.extend(grid[i] for i in rng.permutation(len(grid)))
    return Workload(ops, round_len=len(grid))


WORKLOADS = {
    "dense_oracle": dense_oracle,
    "char_cold": char_cold,
    "char_warm": char_warm,
    "variational": variational,
}
