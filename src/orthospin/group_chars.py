"""Dimensions and characters of O(theta), SO(theta) and GL(theta).

Dimensions come from Weyl's product formulas, evaluated in exact rational
arithmetic.  Characters of O(theta) at group elements exp(h W), W skew
symmetric, at x = h w_1:

* theta = 2, 3 in closed form: 2 cosh(a x) for the one-row label (a) at
  theta = 2 (1 for the empty and (1,1) labels), and the spin-a character
  sinh((a + 1/2) x) / sinh(x / 2) at theta = 3, where every label is a
  one-row label (a) or its column flip;
* theta >= 4 by the orthogonal Jacobi-Trudi determinant
      chi_lam = det( h_{lam_i - i + j} - h_{lam_i - i - j} )
  in complete homogeneous symmetric functions of the theta eigenvalues of
  the group element (at h = 0 it reduces to exact integer arithmetic,
  giving a dimension check independent of the Weyl products);
* King's tableau sum for the SO(2r+1) character is the cross-check of both
  at odd theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .partitions import Partition, admissible_lambda, column_flip, first_two_columns


@dataclass(frozen=True)
class FieldDirection:
    """Positive half of the spectrum of a skew-symmetric field matrix W.

    weights holds w_1 >= ... >= w_r >= 0 with r = floor(theta/2); the full
    spectrum of W is the weights, their negatives, and 0 when theta is odd.
    """

    theta: int
    weights: Tuple[float, ...]

    def __post_init__(self):
        r = self.theta // 2
        if len(self.weights) != r:
            raise ValueError(f"need {r} weights for theta={self.theta}")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if any(self.weights[i] < self.weights[i + 1] for i in range(r - 1)):
            raise ValueError("weights must be sorted descending")

    @classmethod
    def default(cls, theta: int) -> "FieldDirection":
        r = theta // 2
        return cls(theta, (1.0,) + (0.0,) * (r - 1) if r else ())


def _check_rows(lam: Partition, r: int, theta: int) -> None:
    if len(lam) > r:
        raise ValueError(f"{lam!r} has more than {r} parts; invalid for SO({theta})")


def dim_so(lam: Partition, theta: int) -> int:
    """Weyl dimension of the SO(theta) irreducible with highest weight lam.

    theta odd:  l_i = lam_i + r - i + 1/2, m_i = r - i + 1/2 and an extra
    product of l_i/m_i; theta even: l_i = lam_i + r - i, m_i = r - i.
    """
    r = theta // 2
    _check_rows(lam, r, theta)
    if r == 0:
        return 1
    if theta % 2 == 1:
        # l_i = lam_i + r - i + 1/2, m_i = r - i + 1/2 (1-based i), doubled
        l = [2 * lam[i] + 2 * (r - i) - 1 for i in range(r)]
        m = [2 * (r - i) - 1 for i in range(r)]
    else:
        # l_i = lam_i + r - i, m_i = r - i (1-based i)
        l = [lam[i] + (r - i - 1) for i in range(r)]
        m = [(r - i - 1) for i in range(r)]
    d = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            d *= Fraction(l[i] ** 2 - l[j] ** 2, m[i] ** 2 - m[j] ** 2)
    if theta % 2 == 1:
        for i in range(r):
            d *= Fraction(l[i], m[i])
    if d.denominator != 1 or d <= 0:
        raise ArithmeticError(f"Weyl product not a positive integer: {d}")
    return int(d)


def dim_o(lam: Partition, theta: int) -> int:
    """Dimension of the O(theta) irreducible labelled lam.

    Requires the first two columns of lam to sum to at most theta.  If the
    first column exceeds theta/2 the label is column-flipped first; for even
    theta with exactly theta/2 nonzero rows the restriction to SO(theta)
    splits into two pieces of equal dimension.
    """
    t1, t2 = first_two_columns(lam)
    if t1 + t2 > theta:
        raise ValueError(f"{lam!r} not an O({theta}) label")
    if 2 * t1 > theta:
        lam = column_flip(lam, theta)
    r = theta // 2
    if theta % 2 == 0 and len(lam) == r and r > 0:
        return 2 * dim_so(lam, theta)
    return dim_so(lam, theta)


def dim_gl(rho: Partition, theta: int) -> int:
    """Weyl dimension of the polynomial GL(theta) irreducible labelled rho."""
    if len(rho) > theta:
        raise ValueError(f"{rho!r} has more than theta={theta} parts")
    d = Fraction(1)
    for i in range(theta):
        for j in range(i + 1, theta):
            d *= Fraction(rho[i] - rho[j] + j - i, j - i)
    if d.denominator != 1:
        raise ArithmeticError(f"GL Weyl product not an integer: {d}")
    return int(d)


# ---------------------------------------------------------------------------
# characters at exp(h W)

def _group_eigenvalues(theta: int, h: float, direction: FieldDirection):
    """Eigenvalue multiset of exp(h W): exp(+-h w_i), plus 1 when theta odd."""
    vals: List[float] = []
    for w in direction.weights:
        vals.append(math.exp(h * w))
        vals.append(math.exp(-h * w))
    if theta % 2 == 1:
        vals.append(1.0)
    return vals


def _complete_homogeneous(values: Sequence, kmax: int) -> list:
    """h_0..h_kmax of the given values; exact when the values are ints."""
    one = 1 if all(isinstance(v, int) for v in values) else 1.0
    h = [one] + [0 * one] * kmax
    for x in values:
        for k in range(1, kmax + 1):
            h[k] = h[k] + x * h[k - 1]
    return h


def _det(mat: List[List]) -> object:
    """Determinant by Gaussian elimination; exact for integer input."""
    m = len(mat)
    if m == 0:
        return 1
    exact = all(isinstance(x, int) for row in mat for x in row)
    if exact:
        a = [[Fraction(x) for x in row] for row in mat]
    else:
        a = [[float(x) for x in row] for row in mat]
    det = Fraction(1) if exact else 1.0
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return 0 if exact else 0.0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, m):
            f = a[r][col] / inv
            for c in range(col, m):
                a[r][c] = a[r][c] - f * a[col][c]
    if exact:
        if det.denominator != 1:
            raise ArithmeticError("exact determinant not an integer")
        return int(det)
    return det


def ortho_char_det(lam: Partition, eigenvalues: Sequence) -> object:
    """Universal orthogonal character det(h_{lam_i-i+j} - h_{lam_i-i-j})
    evaluated at the given group-element eigenvalues.

    Equals the irreducible O(theta) character when the first two columns of
    lam sum to at most theta (theta = number of eigenvalues).
    """
    m = len(lam)
    if m == 0:
        return 1 if all(isinstance(v, int) for v in eigenvalues) else 1.0
    kmax = lam[0] + m
    h = _complete_homogeneous(eigenvalues, kmax)

    def hk(k: int):
        if k < 0:
            return 0
        return h[k]

    mat = [
        [hk(lam[i] - (i + 1) + (j + 1)) - hk(lam[i] - (i + 1) - (j + 1)) for j in range(m)]
        for i in range(m)
    ]
    return _det(mat)


def char_o_field(lam: Partition, theta: int, h: float,
                 direction: Optional[FieldDirection] = None) -> float:
    """Character of the O(theta) irreducible lam at exp(h W).

    W is encoded by its positive spectrum half (direction); the default has
    w = (1, 0, ...).  Closed forms at theta = 2, 3 (module docstring), the
    orthogonal Jacobi-Trudi determinant for theta >= 4.
    """
    if not admissible_lambda(lam, theta):
        raise ValueError(f"{lam!r} not an O({theta}) label")
    if direction is None:
        direction = FieldDirection.default(theta)
    if direction.theta != theta:
        raise ValueError("direction/theta mismatch")
    if theta == 2:
        if lam.parts == () or lam.parts == (1, 1):
            return 1.0
        a = lam[0]
        w1 = direction.weights[0]
        return math.exp(h * a * w1) + math.exp(-h * a * w1)
    if theta == 3:
        a = (column_flip(lam, 3) if len(lam) > 1 else lam).size
        x = abs(h * direction.weights[0])
        if x == 0.0:
            return float(2 * a + 1)
        # sinh((a + 1/2) x) / sinh(x / 2), which overflows only with its value
        return math.exp(a * x) * math.expm1(-(2 * a + 1) * x) / math.expm1(-x)
    if h == 0.0:
        return float(ortho_char_det(lam, [1] * theta))
    return float(ortho_char_det(lam, _group_eigenvalues(theta, h, direction)))


def char_so_tableau_sum(lam: Partition, theta: int, h: float,
                        direction: Optional[FieldDirection] = None) -> float:
    """Orthogonal-tableau sum for the SO(theta) character, theta odd.

    Sums exp(h * sum_i w_i (m_i - m_ibar)) over tableaux of shape lam in the
    alphabet 1 < 1bar < ... < r < rbar < inf (King/Sundaram model): rows
    weakly increase with at most one inf per row, columns strictly increase
    except that inf may repeat down a column, and the entries of row i are
    at least i.  Cross-checks the determinant route.
    """
    if theta % 2 != 1:
        raise ValueError("orthogonal tableau sum implemented for odd theta only")
    r = theta // 2
    if len(lam) > r:
        raise ValueError(f"{lam!r} has more than r={r} rows")
    if direction is None:
        direction = FieldDirection.default(theta)
    weights = direction.weights
    inf_sym = 2 * r  # symbols 0..2r-1 are 1,1bar,...,r,rbar
    rows = lam.parts
    total = 0.0
    grid: dict = {}

    def weight_exp(sym: int) -> float:
        if sym == inf_sym:
            return 0.0
        i, barred = divmod(sym, 2)
        return -h * weights[i] if barred else h * weights[i]

    cells = [(i, j) for i in range(len(rows)) for j in range(rows[i])]

    def fill(idx: int, acc_exp: float) -> None:
        nonlocal total
        if idx == len(cells):
            total += math.exp(acc_exp)
            return
        i, j = cells[idx]
        left = grid.get((i, j - 1), -1)
        above = grid.get((i - 1, j), -1)
        lo = max(left, above + 1, 2 * i)
        for sym in range(lo, inf_sym):
            grid[(i, j)] = sym
            fill(idx + 1, acc_exp + weight_exp(sym))
            del grid[(i, j)]
        # the inf letter: repeats down columns but at most once per row
        if left != inf_sym and inf_sym >= 2 * i:
            grid[(i, j)] = inf_sym
            fill(idx + 1, acc_exp)
            del grid[(i, j)]

    fill(0, 0.0)
    return total


def char_ratio_o(lam: Partition, theta: int, h_over_n: float) -> float:
    """Normalized character ratio chi_lam(exp(tW))/dim at t = h/n, for theta
    in {2, 3}: cosh(t lam_1), and sinh(t (a + 1/2)) / sinh(t/2) / (2a + 1)
    for the one-row label (a) of lam at theta = 3."""
    if theta not in (2, 3):
        raise ValueError("char_ratio_o defined for theta in {2, 3}")
    return char_o_field(lam, theta, h_over_n) / dim_o(lam, theta)
