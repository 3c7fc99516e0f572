"""Variational free energy, phase classification, critical temperatures,
one-sided field derivatives, and the spin-1 phase-boundary curve.

The variational functional is

    phi(x, y) = (1/2)[(L1+L2) sum x_i^2 - L2 sum y_i^2] - sum x_i log x_i

maximised over the ordered simplex in x with 0 <= y_1 <= x_1 - x_theta and
all other y_i = 0 (theta = 2, 3; for L2 >= 0 the y term never helps, which
extends the formula to every theta).  The inner y maximisation is solved in
closed form; the x problem runs a dense grid scan over the ordered simplex
(its lattice points are the partitions of 1/step into at most theta parts)
followed by Newton refinement on groups of equal coordinates.  The Newton
uses the analytic Hessian of the block-reduced objective, diagonal plus the
curvature of the y term, reaches machine-precision stationarity and keeps
repeated runs bit-identical.  It ends where its direction does not ascend
(an indefinite Hessian next to a saddle), and its final gradient check then
decides.  The coupling-free grid pieces (sum x_i^2, sum x_i log x_i and
x_1 - x_theta) are cached per (theta, step).  Tied maximisers come out with
those at the top value up to rounding first, in descending lexicographic x,
so the first one does not depend on the last bits of the couplings.

The spin-1 boundary curve C runs on the same functional, grid and Newton:
on the theta=3 ordered simplex with y_1 = x_1 - x_3 the wedge functional is
phi_R(J1, J2) = phi(3, L1=J1, L2=J2-J1).  One scan, a grid pass plus one
converged Newton per coarse cell of its 12 best grid points, gives the
signed excess of its best value over the symmetric one and, by the envelope
theorem, the excess's J2-derivative; membership is the sign of the excess,
and the curve is its root in J2, found by a Newton iteration safeguarded by
bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .partitions import partition_tuples
from .spectra import convert_parameters, require_finite

LOG16 = math.log(16.0)
TIE_TOL = 1e-8  # maximize_phi keeps every maximiser this close to the best value
BOUNDARY_TOL = 1e-9  # classify_phase: distance that still counts as on a boundary
REGION_TOL = 1e-9  # in_disordered_region: excess over the symmetric value that leaves
GROUP_TOL = 1e-6  # _group_pattern: coordinates this close form one block


class NotProvenError(Exception):
    """The requested regime is outside what the theory covers."""


@dataclass(frozen=True)
class SimplexPoint:
    x: Tuple[float, ...]
    y: Tuple[float, ...]


@dataclass
class MaximizeResult:
    value: float
    points: List[SimplexPoint]


def phi(theta: int, L1: float, L2: float, point: SimplexPoint) -> float:
    """The variational functional at an explicit (x, y) point."""
    x = point.x
    y = point.y
    if len(x) != theta or len(y) != theta:
        raise ValueError(f"need {theta} coordinates")
    if abs(sum(x) - 1.0) > 1e-9 or any(v < -1e-12 for v in x):
        raise ValueError("x must lie on the simplex")
    if any(x[i] < x[i + 1] - 1e-12 for i in range(theta - 1)):
        raise ValueError("x must be sorted descending")
    r = theta // 2
    if any(abs(y[i]) > 1e-12 for i in range(r, theta)):
        raise ValueError("y_i must vanish for i > floor(theta/2)")
    if theta in (2, 3):
        if not (-1e-12 <= y[0] <= x[0] - x[-1] + 1e-12):
            raise ValueError("need 0 <= y_1 <= x_1 - x_theta")
    ent = -sum(v * math.log(v) for v in x if v > 0.0)
    return 0.5 * ((L1 + L2) * sum(v * v for v in x) - L2 * sum(v * v for v in y)) + ent


def beta_c(theta: int) -> float:
    """Critical coupling: 2 at theta=2, else 2 (theta-1)/(theta-2) log(theta-1)."""
    if theta < 2:
        raise ValueError("theta >= 2 required")
    if theta == 2:
        return 2.0
    return 2.0 * (theta - 1) / (theta - 2) * math.log(theta - 1.0)


def beta_of_xstar(theta: int, x: float) -> float:
    """Coupling at which x is the ordered maximiser:
    (theta-1)/(theta x - 1) * log(x (theta-1)/(1-x)), for x in (1-1/theta, 1)."""
    if not (1.0 - 1.0 / theta < x < 1.0):
        raise ValueError("x must lie in (1 - 1/theta, 1)")
    return (theta - 1.0) / (theta * x - 1.0) * math.log(x * (theta - 1.0) / (1.0 - x))


# ---------------------------------------------------------------------------
# inner y maximisation (closed form)

def _y_bonus(L2: float, habs: float, Y):
    """max of -(L2/2) y^2 + habs*y over y in [0, Y] and its argmax, for a float
    or an array Y; both are 0 where Y <= 0.  Returns (value, argmax)."""
    if L2 > 0.0:
        cap = habs / L2
    else:
        cap = math.inf if (habs > 0.0 or L2 < 0.0) else 0.0
    if isinstance(Y, np.ndarray):
        y = np.clip(Y, 0.0, cap)
    else:
        y = 0.0 if Y <= 0.0 else (Y if Y < cap else cap)
    return -(0.5 * L2) * y * y + habs * y, y


# ---------------------------------------------------------------------------
# simplex optimizer

@lru_cache(maxsize=16)
def _sorted_simplex_grid(theta: int, step: float) -> np.ndarray:
    """Lattice points of the ordered simplex x_1 >= ... >= x_theta >= 0:
    the partitions of m = 1/step into at most theta parts, zero-padded, over m."""
    m = int(round(1.0 / step))
    pad = (0,) * theta
    rows = [(parts + pad)[:theta] for parts in partition_tuples(m, theta)]
    return np.array(rows, dtype=float) / m


@lru_cache(maxsize=16)
def _grid_pieces(theta: int, step: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The coupling-free parts of the objective on the grid: the grid, its
    rows' sum x_i^2 and sum x_i log x_i (0 log 0 = 0), and Y = x_1 - x_theta.
    Read-only, since the cache hands out the same arrays to every caller."""
    xs = _sorted_simplex_grid(theta, step)
    ent = np.where(xs > 0.0, xs * np.log(np.where(xs > 0.0, xs, 1.0)), 0.0)
    pieces = (xs, np.sum(xs * xs, axis=1), np.sum(ent, axis=1), xs[:, 0] - xs[:, -1])
    for arr in pieces:
        arr.flags.writeable = False
    return pieces


def _grid_values(theta: int, step: float, L1: float, L2: float,
                 habs: float) -> Tuple[np.ndarray, np.ndarray]:
    """The grid of step `step` and the objective phi + habs y_1 (y_1 at its
    closed-form optimum) at each of its points."""
    xs, sq, xlogx, Y = _grid_pieces(theta, step)
    bonus, _ = _y_bonus(L2, habs, Y)
    return xs, 0.5 * (L1 + L2) * sq - xlogx + bonus


_GRID_STEP = {2: 1e-3, 3: 1e-3, 4: 0.01, 5: 0.02, 6: 0.025}
# grid step of the curve-C predicate (theta = 3)
_CURVE_C_STEP = 0.004
# cells per unit of the curve-C predicate's starts: its 12 best grid points
# end in 1-4 distinct Newton outcomes, and one converged start per cell of
# width 1/20 (12.5 grid steps) gives the excess of refining all 12 to rounding
# at about a quarter of the Newtons
_CURVE_C_CELLS = 20
# width below which trace_curve_C stops narrowing the bracket of a boundary J2
_CURVE_C_TOL = 1e-11
# Newton stalls short of a maximiser where the Hessian is singular (at the
# symmetric point on J2 = 2 J1 - 3 it stops ~2e-5 away), so refined limits
# closer than this in max-norm count as one maximiser
_MERGE_DIST = 1e-3


def _group_pattern(x: Sequence[float]) -> List[int]:
    """Multiplicities of blocks of coordinates within GROUP_TOL, sorted input."""
    sizes = [1]
    for i in range(1, len(x)):
        if abs(x[i] - x[i - 1]) <= GROUP_TOL:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def _interior(x: Sequence[float]) -> Tuple[float, ...]:
    """x moved off the simplex boundary (coordinates >= 1e-9, renormalised)."""
    x = tuple(max(float(v), 1e-9) for v in x)
    tot = sum(x)
    return tuple(v / tot for v in x)


def _block_value(sizes: Sequence[int], L1: float, L2: float, habs: float,
                 g: Sequence[float], face: bool = False) -> float:
    """The objective at block values g (block j holds sizes[j] equal coordinates),
    followed on the x_theta = 0 face by a fixed zero block."""
    beta = L1 + L2
    bonus, _ = _y_bonus(L2, habs, g[0] - (0.0 if face else g[-1]))
    return sum(n * (0.5 * beta * v * v - v * math.log(v)) for n, v in zip(sizes, g)) + bonus


def _block_derivatives(sizes: Sequence[int], L1: float, L2: float, habs: float, g: Sequence[float],
                       face: bool = False) -> Tuple[List[float], List[List[float]]]:
    """Gradient and Hessian of the objective in the free block values g_1..g_{L-1}.

    The first block value follows from sum_j s_j g_j = 1 (s_j = sizes[j]):
    block 0 holds the largest coordinate, at least 1/theta, so no free value
    is a difference of numbers close to 1.  The Hessian is
    diag(s_j (beta - 1/g_j)) reduced through that constraint, plus the
    curvature -L2 of the y term along Y = g_0 - g_last (g_0 on the face)
    while y_1 sits at its bound Y.
    """
    beta = L1 + L2
    m = len(sizes) - 1
    a = [-n / sizes[0] for n in sizes[1:]]  # d g_0 / d g_j
    w = [a_j - (j == m - 1 and not face) for j, a_j in enumerate(a)]  # dY / d g_j
    Y = g[0] - (0.0 if face else g[-1])
    _, y = _y_bonus(L2, habs, Y)
    dbdY, c = (habs - L2 * Y, -L2) if y >= Y else (0.0, 0.0)
    d1 = [n * (beta * v - math.log(v) - 1.0) for n, v in zip(sizes, g)]
    d2 = [n * (beta - 1.0 / v) for n, v in zip(sizes, g)]
    grad = [d1[j + 1] + a[j] * d1[0] + dbdY * w[j] for j in range(m)]
    hess = [[d2[j + 1] * (j == k) + d2[0] * a[j] * a[k] + c * w[j] * w[k] for k in range(m)]
            for j in range(m)]
    return grad, hess


def _solve(a: List[List[float]], b: List[float]) -> Optional[List[float]]:
    """The solution of a x = b by Gaussian elimination with partial pivoting,
    or None at a zero pivot.  The systems of _grouped_newton have at most
    theta - 1 unknowns, so numpy's call overhead would outweigh the arithmetic."""
    m = len(b)
    rows = [row + [v] for row, v in zip(a, b)]
    for k in range(m):
        p = k
        for i in range(k + 1, m):
            if abs(rows[i][k]) > abs(rows[p][k]):
                p = i
        piv = rows[p]
        if piv[k] == 0.0:
            return None
        rows[p], rows[k] = rows[k], piv
        for row in rows[k + 1:]:
            f = row[k] / piv[k]
            for j in range(k + 1, m + 1):
                row[j] -= f * piv[j]
    x = [0.0] * m
    for k in range(m - 1, -1, -1):
        row = rows[k]
        s = row[m]
        for j in range(k + 1, m):
            s -= row[j] * x[j]
        x[k] = s / row[k]
    return x


def _grouped_newton(L1: float, L2: float, habs: float,
                    x0: Tuple[float, ...]) -> Optional[Tuple[float, Tuple[float, ...]]]:
    """Newton ascent treating blocks of equal coordinates as single variables,
    with the analytic derivatives of _block_derivatives.  The blocks are few,
    so the arithmetic runs on Python floats.

    Exact zero coordinates of x0 stay a fixed zero block: Newton then runs on
    the x_theta = 0 face, where a maximiser whose last coordinate underflows
    (e^-1000) has a limit.  Returns (value, x) at a stationary point of the
    block-reduced objective, or None if the iteration leaves the feasible cone.
    """
    zeros = x0.count(0.0)
    face, sizes = zeros > 0, _group_pattern(x0[:len(x0) - zeros])
    # rounding noise of _block_value, whose terms reach the size of the
    # couplings: next to a maximiser the full Newton step may lower the value
    # by this much (a shortened step, which is no longer quadratically
    # convergent, may not)
    noise = 1e-14 * (1.0 + abs(L1) + abs(L2) + habs)

    def blocks(free: List[float]) -> Optional[List[float]]:
        g = [(1.0 - sum(n * v for n, v in zip(sizes[1:], free))) / sizes[0]] + free
        return g if min(g) > 0.0 else None

    pos = sizes[0]
    free = []
    for n in sizes[1:]:
        free.append(sum(x0[pos:pos + n]) / n)
        pos += n
    g = blocks(free)
    if g is None:
        return None
    val = _block_value(sizes, L1, L2, habs, g, face)
    for _ in range(80):
        # g and val are those of the last accepted iterate, valued once
        grad, hess = _block_derivatives(sizes, L1, L2, habs, g, face)
        if not grad or max(map(abs, grad)) < 1e-11:
            break
        step = _solve(hess, grad)
        if step is None:
            return None
        if sum(gj * sj for gj, sj in zip(grad, step)) >= 0.0:
            # the update free - scale*step does not ascend (the Hessian is
            # indefinite): halving would only creep along within the rounding
            # slack, so the gradient check below decides
            break
        scale = 1.0
        for _ in range(30):
            cand = [f - scale * d for f, d in zip(free, step)]
            gc = blocks(cand)
            slack = noise if scale == 1.0 else 1e-15
            if gc is not None:
                vc = _block_value(sizes, L1, L2, habs, gc, face)
                if vc >= val - slack:
                    free, g, val = cand, gc, vc
                    break
            scale *= 0.5
        else:
            break
    else:  # out of iterations: grad is still that of the iterate before g
        grad, _ = _block_derivatives(sizes, L1, L2, habs, g, face)
    if grad and max(map(abs, grad)) > 1e-9:
        return None
    xs = tuple(v for n, v in zip(sizes, g) for _ in range(n))
    if any(b - a > 1e-12 for a, b in zip(xs, xs[1:])):
        return None
    return val, xs + (0.0,) * zeros


def maximize_phi(theta: int, L1: float, L2: float, h: float = 0.0) -> MaximizeResult:
    """Global maximum of phi (+ |h| y_1 when h != 0) over the ordered simplex.

    The full (L1, L2) plane and every h are available for theta in {2, 3};
    for larger theta only L2 >= 0 at h = 0 is covered, and L2 < 0 or h != 0
    raises NotProvenError.  All maximisers within TIE_TOL of the best value
    are returned, one for each group of refined limits within _MERGE_DIST of
    one another; when no Newton limit comes within TIE_TOL of the best grid
    value, the best grid point is returned, so the list is never empty.
    """
    if theta < 2:
        raise ValueError("theta >= 2 required")
    require_finite(L1=L1, L2=L2, h=h)
    if theta not in (2, 3) and (L2 < 0.0 or h != 0.0):
        raise NotProvenError(f"free energy unknown for theta={theta}, L2={L2}, h={h}")
    habs = abs(h)
    grid, vals = _grid_values(theta, _GRID_STEP.get(theta, 0.05), L1, L2, habs)
    best = float(np.max(vals))
    if not math.isfinite(best):
        raise ValueError(f"L1={L1!r}, L2={L2!r}, h={h!r} overflow phi on the grid")
    best_x = tuple(float(v) for v in grid[int(np.argmax(vals))])
    top = np.nonzero(vals >= best - 1e-4)[0]
    ranked = top[np.argsort(-vals[top])]
    # keep the best-ranked start per coarse grid cell of width 1/100 (flat
    # near-critical basins otherwise flood the refiner with duplicates)
    _, first = np.unique(np.rint(100.0 * grid[ranked]), axis=0, return_index=True)
    starts = [tuple(grid[i]) for i in ranked[np.sort(first)[:48]]]
    # canonical starts keep both transition branches in play near beta_c
    sym = tuple([1.0 / theta] * theta)
    starts.append(sym)
    for t in (0.45, 0.6, 0.75, 0.9, 0.97):
        starts.append(tuple([t] + [(1.0 - t) / (theta - 1)] * (theta - 1)))
    if theta > 2:
        for t in (0.55, 0.75, 0.99):
            starts.append(tuple([t, 1.0 - t] + [0.0] * (theta - 2)))

    refined: List[Tuple[float, Tuple[float, ...]]] = []
    seen = set()
    for x0 in starts:
        x0 = _interior(x0)
        key = tuple(round(v, 5) for v in x0)
        if key in seen:
            continue
        seen.add(key)
        refined.append(_grouped_newton(L1, L2, habs, x0))
    if best_x[-1] == 0.0:
        # as it is, too: x_theta = e^-1000 at L2 = -1000 underflows, and only
        # the Newton on the x_theta = 0 face has a limit there
        refined.append(_grouped_newton(L1, L2, habs, best_x))
    refined = [res for res in refined if res is not None]
    top = max([best] + [v for v, _ in refined])
    ties = [(v, xs) for v, xs in refined if v >= top - TIE_TOL]
    if not ties:
        # no Newton limit reaches the grid: a block underflows (x_2 = e^-1000
        # at L1 = 1000), so the best grid point stands in for the maximiser
        ties = [(best, best_x)]
    # one limit per _MERGE_DIST neighbourhood: one that attains the top value
    # up to rounding, then the fewest distinct coordinates (a Newton limit on
    # k blocks has exactly k), then the highest value.  At small h the
    # symmetric point is such a neighbour of the maximiser, a little lower.
    low = top - 1e-12 * max(1.0, abs(top))
    kept: List[Tuple[float, Tuple[float, ...]]] = []
    for val, xs in sorted(ties, key=lambda t: (t[0] < low, len(set(t[1])), -t[0])):
        if all(max(abs(a - b) for a, b in zip(xs, q)) > _MERGE_DIST for _, q in kept):
            kept.append((val, xs))
    # the limits at the top value up to rounding first, in descending
    # lexicographic x (their values differ by rounding only, so ordering them
    # by value would let the last bits pick the first maximiser), then the
    # rest by value
    points: List[SimplexPoint] = []
    for _, xs in sorted(kept, key=lambda t: (t[0] < low, -t[0] if t[0] < low else 0.0,
                                             [-v for v in t[1]])):
        _, y = _y_bonus(L2, habs, xs[0] - xs[-1])
        ys = (y,) + (0.0,) * (theta - 1)
        points.append(SimplexPoint(xs, ys))
    return MaximizeResult(top, points)


# ---------------------------------------------------------------------------
# free energy and derivatives

def free_energy(theta: int, p1: float, p2: float, mode: str = "L",
                h: float = 0.0, apply_shift: bool = False) -> float:
    """Maximal phi value; with apply_shift=True the per-site constant from
    the parameter transformation is subtracted, giving the free energy of
    the original model in its own units."""
    L1, L2, shift = convert_parameters(mode, p1, p2, theta)
    value = maximize_phi(theta, L1, L2, h=h).value
    if apply_shift:
        value -= shift / 2.0
    return value


def field_free_energy(theta: int, L1: float, L2: float, h: float) -> float:
    """max over the domain of [phi + |h| y_1], theta in {2, 3}."""
    if theta > 3:  # theta < 2 is bad input, which maximize_phi rejects
        raise NotProvenError("field free energy proved for theta in {2,3}")
    return maximize_phi(theta, L1, L2, h=h).value


def one_sided_derivatives(theta: int, L1: float, L2: float) -> Tuple[float, float]:
    """(right, left) derivative of the field free energy at h = 0:
    the extreme values of y_1 over the maximiser set of phi."""
    if theta > 3:  # theta < 2 is bad input, which maximize_phi rejects
        raise NotProvenError("field derivatives proved for theta in {2,3}")
    res = maximize_phi(theta, L1, L2)
    if L2 > 0.0:
        return (0.0, 0.0)
    if L2 < 0.0:
        ys = [p.x[0] - p.x[-1] for p in res.points]
        return (float(max(ys)), float(min(ys)))
    ymax = max(p.x[0] - p.x[-1] for p in res.points)
    return (float(ymax), 0.0)


# ---------------------------------------------------------------------------
# phase classification

@dataclass
class PhaseResult:
    label: str
    conjectured: bool
    value: float
    maximizers: List[SimplexPoint]
    note: str


def classify_phase(theta: int, p1: float, p2: float,
                   mode: Optional[str] = None) -> PhaseResult:
    """Phase label per the finite-temperature diagrams.

    (p1, p2) are read in the parameter mode of convert_parameters; the
    default is K (XXZ couplings) at theta=2, J (bilinear-biquadratic) at
    theta=3 and L (canonical) otherwise, and a mode the theta does not take
    raises ValueError.  theta >= 4 with L2 >= 0 distinguishes Disordered from
    Ordered across beta_c; L2 < 0 there raises NotProvenError.  Couplings
    within BOUNDARY_TOL of a phase boundary are labelled Boundary.
    """
    if mode is None:
        mode = {2: "K", 3: "J"}.get(theta, "L")
    L1, L2, _ = convert_parameters(mode, p1, p2, theta)
    res = maximize_phi(theta, L1, L2)
    label, conjectured, note = _phase_label(theta, L1, L2, res.value)
    return PhaseResult(label, conjectured, res.value, res.points, note)


def _phase_label(theta: int, L1: float, L2: float, value: float) -> Tuple[str, bool, str]:
    """(label, conjectured, note) at canonical couplings with maximal phi value.

    theta=2 reads the diagram in XXZ couplings K1 = 2(L1+L2), K2 = 2(L1-L2),
    theta=3 in bilinear-biquadratic couplings J1 = L1, J2 = L1+L2.
    """
    if theta == 2:
        K1, K2 = 2.0 * (L1 + L2), 2.0 * (L1 - L2)
        near1 = abs(K1 - 4.0) <= BOUNDARY_TOL
        near2 = abs(K2 - 4.0) <= BOUNDARY_TOL
        neareq = abs(K1 - K2) <= BOUNDARY_TOL and K1 >= 4.0
        if (near1 and K2 <= 4.0) or (near2 and K1 <= 4.0) or neareq:
            return "Boundary", False, ""
        if K1 <= 4.0 and K2 <= 4.0:
            return "Disordered", False, ""
        return ("Ising" if K2 > K1 else "XY"), False, ""
    if theta == 3:
        J1, J2 = L1, L1 + L2
        if J2 >= J1:
            if abs(J2 - LOG16) <= BOUNDARY_TOL and J1 <= LOG16:
                return "Boundary", False, ""
            return ("Nematic" if J2 > LOG16 else "Disordered"), False, ""
        sym_val = phi(3, L1, L2, SimplexPoint((1 / 3, 1 / 3, 1 / 3), (0.0, 0.0, 0.0)))
        if value <= sym_val + BOUNDARY_TOL:
            return "Disordered", False, ""
        if abs(J1) <= BOUNDARY_TOL and J2 <= -3.0:
            note = "NOT_PROVEN: behaviour on the half-line J1=0, J2<=-3 is open"
            return "Boundary", True, note
        return ("Ferromagnetic" if J1 > 0.0 else "FourthPhase"), True, ""
    b, bc = L1 + L2, beta_c(theta)
    if abs(b - bc) <= BOUNDARY_TOL:
        return "Boundary", False, ""
    return ("Disordered" if b < bc else "Ordered"), False, ""


def quadratic_alpha(J1: float, J2: float) -> float:
    """Asymptotic maximiser location of the large-coupling quadratic:
    1 in the ferromagnetic wedge, J2/(J1+J2) clamped to [1/2, 1] in the
    fourth-phase wedge."""
    if J1 > 0.0 and J1 > J2:
        return 1.0
    if J1 < 0.0 and 2 * J1 - J2 > 0.0:
        return min(max(J2 / (J1 + J2), 0.5), 1.0)
    if J1 <= 0.0 and abs(2 * J1 - J2) == 0.0:
        return 2.0 / 3.0
    raise ValueError("outside the ferromagnetic and fourth-phase wedges")


# ---------------------------------------------------------------------------
# the spin-1 boundary curve

def _region_excess(J1: float, J2: float) -> Tuple[float, float]:
    """(excess, d excess / dJ2) of the best value of phi over R at (J1, J2).

    excess is the best grid or refined value of the wedge functional
    phi(3, L1=J1, L2=J2-J1) minus (symmetric value + REGION_TOL): the
    predicate scans the grid of step _CURVE_C_STEP and takes its 12 best
    points in rank order into cells of width 1 / _CURVE_C_CELLS.  It refines
    each with the Newton of maximize_phi unless an earlier start of its cell
    has already returned a limit, so a start that ends at a saddle (None)
    leaves its cell to the next one.  phi_R is affine in J2 at fixed
    x, so by the envelope theorem the slope is its J2-derivative at the point
    x that attains the best value, (sum x_i^2 - (x_1 - x_3)^2) / 2, less 1/6
    for the symmetric value.
    """
    require_finite(J1=J1, J2=J2)
    if J2 > J1:
        raise ValueError(f"the wedge J1 >= J2 is required, got J1={J1!r}, J2={J2!r}")
    L1, L2 = J1, J2 - J1
    bar = phi(3, L1, L2, SimplexPoint((1 / 3, 1 / 3, 1 / 3), (0.0, 0.0, 0.0))) + REGION_TOL
    grid, vals = _grid_values(3, _CURVE_C_STEP, L1, L2, 0.0)
    top = np.argpartition(vals, -12)[-12:]
    order = top[np.argsort(-vals[top])]
    best, x = float(vals[order[0]]), tuple(grid[order[0]])
    converged = set()
    for i, cell in zip(order, map(tuple, np.rint(_CURVE_C_CELLS * grid[order]))):
        if cell in converged:
            continue
        res = _grouped_newton(L1, L2, 0.0, _interior(grid[i]))
        if res is not None:
            converged.add(cell)
            if res[0] > best:
                best, x = res
    slope = 0.5 * (sum(v * v for v in x) - (x[0] - x[2]) ** 2) - 1.0 / 6.0
    return best - bar, slope


def in_disordered_region(J1: float, J2: float) -> bool:
    """Is the symmetric point the global maximiser of phi over R at (J1, J2)?

    R is the theta=3 ordered simplex with y_1 = x_1 - x_3.  In the wedge
    J1 >= J2 the inner y maximisation of phi(3, L1=J1, L2=J2-J1) puts y_1
    there, so the predicate scans that phi on the grid of step
    _CURVE_C_STEP and refines the 12 best grid points with the Newton of
    maximize_phi, one converged start per coarse cell (_region_excess).  It
    answers False when a grid or refined value exceeds the symmetric value
    by more than REGION_TOL (_region_excess is positive).
    Couplings outside the wedge or not finite raise ValueError.
    """
    return _region_excess(J1, J2)[0] <= 0.0


def trace_curve_C(resolution: int = 40,
                  j1_min: float = 1.9) -> List[Tuple[float, float]]:
    """Boundary of the spin-1 disordered region inside the wedge J1 >= J2.

    For each J1 on a grid the boundary J2 is the root of _region_excess along
    the vertical (moving straight down eventually leaves the region, so
    membership along that ray is monotone).  A Newton iteration safeguarded
    in the style of rtsafe finds it, from the bottom of the bracket: it takes
    the Newton step J2 - excess / slope from the last point when that lands
    strictly inside the bracket and is at most half the step before last,
    and bisects otherwise; once the step is below the tolerance it probes
    0.4 of the tolerance either side of the predicted root.  Every bracket
    end is certified by the sign of the excess, as the predicate decides, and
    the returned J2 is the midpoint of a bracket narrower than 1e-11.  The polyline follows
    the straight piece J2 = 2 J1 - 3 below (9/4, 3/2) and the convex arc
    joining (9/4, 3/2) to (log 16, log 16).
    """
    if resolution < 10:
        raise ValueError("resolution >= 10 required")
    require_finite(j1_min=j1_min)
    j1_max = LOG16 - 2e-3
    if j1_min >= j1_max:
        raise ValueError(f"j1_min must lie below {j1_max!r}, where curve C ends; got {j1_min!r}")
    grid = [j1_min + (j1_max - j1_min) * i / (resolution - 1) for i in range(resolution)]
    # always sample the junction of the straight piece and the arc
    if j1_min < 2.25 < j1_max:
        grid.append(2.25)
    out: List[Tuple[float, float]] = []
    for J1 in sorted(grid):
        hi = min(J1, LOG16) - 1e-9  # inside the region
        lo = 2 * J1 - 3.0 - 0.5  # comfortably outside
        if _region_excess(J1, hi)[0] > 0.0:
            raise RuntimeError(f"bracket broken at J1={J1}: top not inside")
        J2 = lo
        excess, slope = _region_excess(J1, lo)
        if excess <= 0.0:
            raise RuntimeError(f"bracket broken at J1={J1}: bottom not outside")
        last = before = hi - lo  # sizes of the last step and of the one before it
        for _ in range(100):
            step = excess / slope if slope != 0.0 else math.inf
            if abs(step) < _CURVE_C_TOL:
                # the root is within the tolerance: bracket it closely
                probes = [J2 - step - 0.4 * _CURVE_C_TOL, J2 - step + 0.4 * _CURVE_C_TOL]
            elif abs(step) <= 0.5 * before:
                probes = [J2 - step]
            else:
                probes = []
            probes = [p for p in probes if lo < p < hi]
            if not probes:
                step, probes = 0.5 * (hi - lo), [0.5 * (lo + hi)]
            before, last = last, abs(step)
            for probe in probes:
                if lo < probe < hi:  # the first probe may have moved an end
                    J2 = probe
                    excess, slope = _region_excess(J1, J2)
                    if excess > 0.0:
                        lo = J2
                    else:
                        hi = J2
            if hi - lo < _CURVE_C_TOL:
                break
        else:
            raise RuntimeError(f"no boundary J2 within {_CURVE_C_TOL} at J1={J1} after 100 steps")
        out.append((J1, 0.5 * (lo + hi)))
    return out
