"""Computer-assisted certifications: rigorous positivity of the stationarity
profile w(z) on an explicit dyadic interval, zero counting near z = 1 by the
argument principle, and the explicit unitary intertwining the projector and
signed-singlet representations (with the parity obstruction when the local
dimension is even).

The certified function is

    w(z) = 3/2 + log(z)(1+5z)/(4(1-z)) + log( -z log(z) / D(z) ),
    D(z) = 3(1-z) + (1+z) log(z),

positive on (r, 1) where r is the unique interior zero of D.  Interval
evaluation uses both the naive enclosure and a mean-value form (midpoint
value plus derivative enclosure times radius), whichever is tighter, since
w has a fourth-order zero at 1 and naive enclosures are hopeless there.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np

from .intervals import DomainError, Interval, ilog, intersect

PAPER_LO = Fraction(81714053, 2**30)
PAPER_HI = Fraction(1013243800, 2**30)
ROOT_TOL = 1e-12  # width of the enclosure of bracket_inner_root


def _w(z, log):
    """w(z), evaluated with log: ilog on an Interval, cmath.log on a complex.
    The operation order is the interval enclosure's (it rounds outward after
    every operation)."""
    lz = log(z)
    one_minus = 1 - z
    t1 = lz * (1 + 5 * z) / (4 * one_minus)
    den = 3 * one_minus + (1 + z) * lz
    return 1.5 + t1 + log(-(z * lz) / den)


def _w_prime(z, log):
    """w'(z) = (1+5z)/(4z(1-z)) + 3 log(z)/(2(1-z)^2) + (1+log z)/(z log z)
    - (log z + 1/z - 2)/D(z), evaluated as _w."""
    lz = log(z)
    one_minus = 1 - z
    part1 = (1 + 5 * z) / (4 * z * one_minus)
    part2 = 3 * lz / (2 * one_minus * one_minus)
    part3 = (1 + lz) / (z * lz)
    den = 3 * one_minus + (1 + z) * lz
    part4 = (lz + 1 / z - 2) / den
    return part1 + part2 + part3 - part4


def w_of_z(z: Interval) -> Interval:
    """Enclosure of w over z; raises DomainError when a sub-expression's
    denominator contains 0 or a logarithm argument touches <= 0."""
    if z.lo <= 0.0 or z.hi >= 1.0:
        raise DomainError(f"w defined on (0,1) only, got {z}")
    return _w(z, ilog)


def w_prime_of_z(z: Interval) -> Interval:
    """Enclosure of w'(z) over z."""
    if z.lo <= 0.0 or z.hi >= 1.0:
        raise DomainError(f"w' defined on (0,1) only, got {z}")
    return _w_prime(z, ilog)


def w_enclosure(z: Interval) -> Interval:
    """Naive enclosure intersected with the mean-value form."""
    naive = w_of_z(z)
    try:
        mid = Interval.point(z.mid)
        centered = w_of_z(mid) + w_prime_of_z(z) * (z - mid)
        return intersect(naive, centered)
    except DomainError:
        return naive


@dataclass
class CertReport:
    certified: bool
    leaves: int
    max_depth_used: int
    witness: Optional[Interval] = None


def certify_positive(
    a: Fraction | float,
    b: Fraction | float,
    max_depth: int = 40,
    fn: Callable[[Interval], Interval] = w_enclosure,
) -> CertReport:
    """Adaptive bisection proof that fn > 0 on [a, b].

    Splits until every leaf's enclosure has positive lower bound; DomainError
    on a leaf forces a split.  Fails with the offending witness interval when
    the depth budget is exhausted.
    """
    ia = a if isinstance(a, Interval) else Interval.point(a)
    ib = b if isinstance(b, Interval) else Interval.point(b)
    root = Interval(ia.lo, ib.hi)
    stack: List[Tuple[Interval, int]] = [(root, 0)]
    leaves = 0
    max_used = 0
    while stack:
        iv, depth = stack.pop()
        max_used = max(max_used, depth)
        try:
            enc = fn(iv)
            ok = enc.lo > 0.0
        except DomainError:
            ok = False
        if ok:
            leaves += 1
            continue
        if depth >= max_depth:
            return CertReport(False, leaves, max_used, witness=iv)
        left, right = iv.split()
        stack.append((left, depth + 1))
        stack.append((right, depth + 1))
    return CertReport(True, leaves, max_used)


def bracket_inner_root() -> Interval:
    """Enclose the unique interior zero r of D(z) = 3(1-z) + (1+z) log z
    in an interval of width at most ROOT_TOL."""

    def d(z: float) -> float:
        return 3.0 * (1.0 - z) + (1.0 + z) * math.log(z)

    lo, hi = 1e-6, 0.5
    if not (d(lo) < 0.0 < d(hi)):
        raise RuntimeError("root bracket invalid")
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if d(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# argument-principle zero count

_w_complex = functools.partial(_w, log=cmath.log)
_w_prime_complex = functools.partial(_w_prime, log=cmath.log)


@dataclass
class WindingResult:
    estimate: complex
    verified: Optional[int]
    nodes: int


def winding_zero_count(
    center: complex = 1.0,
    radius: float = 1.0 / 16.0,
    h: float = 0.15,
    nquad: int = 91,
    fn: Optional[Callable[[complex], complex]] = None,
    dfn: Optional[Callable[[complex], complex]] = None,
    snap_tol: float = 1e-3,
) -> WindingResult:
    """Zeros of fn inside the circle, by double-exponential quadrature of
    f'/(2 pi i f) along the contour, snapped to the nearest integer when the
    estimate is within snap_tol.

    The angular integral over [0, 2 pi] is mapped to [-1, 1] and integrated
    with tanh-sinh nodes x_k = tanh((pi/2) sinh(kh)), k = -nquad..nquad.
    """
    if fn is None:
        fn, dfn = _w_complex, _w_prime_complex
    if dfn is None:
        raise ValueError("dfn required when fn is given")
    total = 0.0 + 0.0j
    for k in range(-nquad, nquad + 1):
        t = k * h
        sh = math.sinh(t)
        if 0.5 * math.pi * abs(sh) > 350.0:
            continue  # weight underflows to zero
        x = math.tanh(0.5 * math.pi * sh)
        wgt = h * 0.5 * math.pi * math.cosh(t) / math.cosh(0.5 * math.pi * sh) ** 2
        theta = math.pi * (x + 1.0)
        z = center + radius * cmath.exp(1j * theta)
        fz = fn(z)
        if abs(fz) < 1e-12:
            raise ArithmeticError(f"contour touches a zero of f at {z}")
        total += wgt * (dfn(z) / fz) * radius * cmath.exp(1j * theta)
    # dz = i R e^{i theta} d theta, d theta = pi dx, and with the 1/(2 pi i)
    # prefactor the estimate is half the mapped integral
    estimate = total / 2.0
    nearest = round(estimate.real)
    verified = nearest if abs(estimate - nearest) <= snap_tol else None
    return WindingResult(estimate, verified, 2 * nquad + 1)


# ---------------------------------------------------------------------------
# the Q <-> P unitary

G1 = np.array([[-1.0, 1j], [-1.0, -1j]]) / math.sqrt(2.0)
G2 = np.array([[-1.0, 1j], [1.0, 1j]]) / math.sqrt(2.0)


def _target_m(theta: int) -> np.ndarray:
    """Antidiagonal sign matrix with entries (-1)^(S-i), S = (theta-1)/2."""
    if theta % 2 == 0:
        raise ValueError("target sign matrix is real only for odd theta")
    s = (theta - 1) // 2
    m = np.zeros((theta, theta))
    for i in range(theta):
        m[i, theta - 1 - i] = (-1.0) ** ((s - i) % 2)
    return m


def construct_psi(theta: int) -> np.ndarray:
    """Unitary psi with psi psi^T equal to the antidiagonal sign matrix.

    Built from nested 2x2 blocks chosen from {g1, g2} (with central entry 1),
    found by exhaustive search over the block choices and validated by the
    psi psi^T residual.
    """
    if theta % 2 == 0:
        raise ValueError("construction exists for odd theta only")
    m = _target_m(theta)
    npairs = (theta - 1) // 2
    for mask in range(2**npairs):
        psi = np.zeros((theta, theta), dtype=complex)
        psi[npairs, npairs] = 1.0
        for p in range(npairs):
            g = G1 if (mask >> p) & 1 == 0 else G2
            i, j = p, theta - 1 - p
            psi[i, i], psi[i, j] = g[0, 0], g[0, 1]
            psi[j, i], psi[j, j] = g[1, 0], g[1, 1]
        if np.max(np.abs(psi @ psi.T - m)) <= 1e-14:
            return psi
    raise RuntimeError("no block assignment matched the sign matrix")


@dataclass
class PQReport:
    status: str  # "UNITARY" or "OBSTRUCTED"
    theta: int
    residual_psi: float = math.nan
    residual_conjugation: float = math.nan
    certificate: str = ""


def verify_pq_equivalence(theta: int) -> PQReport:
    """For odd theta: construct psi and check the two-site conjugation
    psi2^{-1} Q psi2 = P.  For even theta: report the obstruction (the
    required sign matrix is antisymmetric while psi psi^T is always
    symmetric)."""
    from .brauer import pair_p_matrix, pair_q_matrix

    if theta % 2 == 0:
        return PQReport(
            status="OBSTRUCTED",
            theta=theta,
            certificate=(
                "required psi psi^T is antisymmetric and non-zero for even "
                "theta, but psi psi^T is symmetric for every matrix psi"
            ),
        )
    psi = construct_psi(theta)
    r1 = float(np.max(np.abs(psi @ psi.T - _target_m(theta))))
    psi2 = np.kron(psi, psi)
    q = pair_q_matrix(theta)
    p = pair_p_matrix(theta)
    # psi (x) psi conjugates the projector into the signed singlet (and
    # commutes with transpositions, being a g^(x)2 with g in GL)
    r2 = float(np.max(np.abs(psi2 @ q @ np.conj(psi2.T) - p)))
    status = "UNITARY" if max(r1, r2) <= 1e-12 else "FAILED"
    return PQReport(status=status, theta=theta, residual_psi=r1, residual_conjugation=r2)
