"""Dimensions and characters of O(theta), SO(theta) and GL(theta).

Dimensions come from Weyl's product formulas, evaluated in exact integer
arithmetic.  Characters of O(theta) are taken at exp(hW), where W (the
field matrix default_w of spectra) has the eigenvalues 1, -1 and theta - 2
zeros, by one rule at every theta:

* the weight multiplicities c_m (m = -M..M) of W on the irreducible lam are
  the integer coefficients in q = e^h of the orthogonal Jacobi-Trudi
  determinant (K. Koike and I. Terada, J. Algebra 107 (1987) 466)
      chi_lam = det( h_{lam_i - i + j} - h_{lam_i - i - j} )          (l(lam) square)
              = det( e_{lam'_i - i + j} + e_{lam'_i - i - j + 2} ) / 2  (lam_1 square)
  with h_k and e_k the complete and elementary symmetric polynomials in the
  theta eigenvalues q, 1/q, 1, ..., 1, built for all the labels of a line
  table at once.  A label with more than theta // 2 rows is column-flipped
  first (chi_{lam*} = det(g) chi_lam, and det exp(hW) = 1); each label takes
  the form whose Laplace expansion is cheaper (m 2^(m-1) products at size
  m, of entries with 2 (lam_1 + l(lam)) - 1 coefficients in the h-form and 3
  in the e-form), and its weights must sum to the Weyl dimension.  A batch
  of labels of one form and size is expanded in int64 when a bound on every
  product and sum of the expansion fits, in Python ints otherwise;
* chi_lam(exp(hW)) = sum_m c_m e^{mh} is evaluated as
      log chi = M |h| + log sum_j c_{M-j} e^{-j |h|},
  a sum of positive terms that neither cancels nor overflows.

King's tableau sum for the SO(2r+1) character cross-checks the weights at
odd theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .partitions import Partition, column_flip, first_two_columns, transpose


def _positive_quotient(num: int, den: int, what: str) -> int:
    """num / den, which must be a positive integer (ArithmeticError otherwise)."""
    q, rest = divmod(num, den)
    if rest or q <= 0:
        raise ArithmeticError(f"{what} not a positive integer: {num}/{den}")
    return q


def dim_so(lam: Partition, theta: int) -> int:
    """Weyl dimension of the SO(theta) irreducible with highest weight lam.

    theta odd:  l_i = lam_i + r - i + 1/2, m_i = r - i + 1/2 and an extra
    product of l_i/m_i; theta even: l_i = lam_i + r - i, m_i = r - i.
    """
    r, odd = divmod(theta, 2)
    if len(lam) > r:
        raise ValueError(f"{lam!r} has more than {r} parts; invalid for SO({theta})")
    # l_i and m_i for 0-based i, doubled at odd theta
    l = [(1 + odd) * (lam[i] + r - i - 1) + odd for i in range(r)]
    m = [(1 + odd) * (r - i - 1) + odd for i in range(r)]
    num = den = 1
    for i in range(r):
        for j in range(i + 1, r):
            num *= l[i] ** 2 - l[j] ** 2
            den *= m[i] ** 2 - m[j] ** 2
        if odd:
            num *= l[i]
            den *= m[i]
    return _positive_quotient(num, den, "Weyl product")


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
    num = den = 1
    for i in range(theta):
        for j in range(i + 1, theta):
            num *= rho[i] - rho[j] + j - i
            den *= j - i
    return _positive_quotient(num, den, "GL Weyl product")


# ---------------------------------------------------------------------------
# characters at exp(h W)

def _parity_sums(theta: int, kmax: int) -> np.ndarray:
    """P[s] for s = 0..kmax, the coefficient of q^m in h_k(q, 1/q, 1^(theta-2))
    at s = k - |m| (and 0 for s < 0), as Python ints.

    A monomial whose (q, 1/q) part has degree j >= |m|, j = m mod 2, holds
    q^m once, and the theta - 2 ones take the remaining degree i = k - j in
    C(i + theta - 3, theta - 3) ways, the (theta - 2)-fold prefix sums of
    the unit sequence; P sums those counts over i = s, s - 2, ..., 0 or 1.
    """
    ways = np.zeros(kmax + 1, dtype=object)
    ways[0] = 1
    for _ in range(theta - 2):
        ways = np.cumsum(ways)
    for parity in (0, 1):
        ways[parity::2] = np.cumsum(ways[parity::2])
    return ways


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product of two batches of polynomials (coefficient rows),
    one shifted product per coefficient of the narrower."""
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=a.dtype)
    for k in range(a.shape[1]):
        out[:, k:k + b.shape[1]] += a[:, k:k + 1] * b
    return out


def _det(mat: np.ndarray) -> np.ndarray:
    """Determinants of a batch (L, m, m, w) of polynomial matrices, m >= 1:
    (L, m (w - 1) + 1) coefficients.  Laplace expansion from the last row
    up, each minor on a set of columns formed once: m 2^(m-1) products."""
    m = mat.shape[1]
    minors = {(j,): mat[:, m - 1, j] for j in range(m)}
    for r in range(m - 2, -1, -1):
        minors = {cols: sum((-1) ** p * _convolve(mat[:, r, j], minors[cols[:p] + cols[p + 1:]])
                            for p, j in enumerate(cols))
                  for cols in combinations(range(m), m - r)}
    return minors[tuple(range(m))]


def _machine(table: np.ndarray) -> np.ndarray:
    """A table of Python ints as int64 when the sum or difference of any two
    entries fits, else unchanged."""
    return table.astype(np.int64) if np.abs(table).max() < 2**61 else table


def _exact_dtype(mat: np.ndarray) -> np.ndarray:
    """mat (L, m, m, w), int64 or Python ints, as int64 when no coefficient of
    any product or partial sum that _det forms on it, nor the sum of a
    determinant's coefficients, can pass 2^62; as Python ints otherwise.
    The sums of |coefficients| multiply under products and add under sums,
    so the rows' sums (at least 1) multiply to a bound on all of them."""
    if mat.dtype == object:
        return mat
    rows = np.abs(mat).sum(axis=(2, 3), dtype=float)
    if np.all(np.prod(np.maximum(rows, 1.0), axis=1) < 2.0**61):  # slack for rounding
        return mat
    return mat.astype(object)


@dataclass(frozen=True)
class WeightTable:
    """The weight multiplicities of W on a list of O(theta) labels.

    dims holds the Weyl dimensions (exact ints), log_dims their logs and top
    the highest weight M of each label; the nonzero multiplicities are
    stacked: entry i gives label row[i] the weight top[row[i]] - depth[i]
    with multiplicity mult[i] (integers, held as floats for the
    evaluation).  depth[i] is stored as depths[depth_index[i]], with depths
    the distinct depths, so that e^{-j|h|} is taken once per depth.
    """

    dims: Tuple[int, ...]
    log_dims: np.ndarray
    top: np.ndarray
    row: np.ndarray
    depths: np.ndarray
    depth_index: np.ndarray
    mult: np.ndarray

    def __post_init__(self):
        for a in (self.log_dims, self.top, self.row, self.depths, self.depth_index, self.mult):
            a.setflags(write=False)  # tables are cached and shared

    @property
    def depth(self) -> np.ndarray:
        return self.depths[self.depth_index]

    def scaled_chars(self, h: float) -> np.ndarray:
        """chi_lam(exp(hW)) e^{-M|h|} = sum_j c_{M-j} e^{-j|h|} per label."""
        terms = self.mult * np.exp(-abs(h) * self.depths)[self.depth_index]
        return np.bincount(self.row, terms, minlength=len(self.top))

    def log_chars(self, h: float) -> np.ndarray:
        """log chi_lam(exp(hW)) per label, finite at every finite h; the log
        of the Weyl dimension at h = 0."""
        if h == 0.0:
            return self.log_dims
        return abs(h) * self.top + np.log(self.scaled_chars(h))


def weight_table(lams: Sequence[Partition], theta: int) -> WeightTable:
    """The weight multiplicities of W on the O(theta) labels lams: the
    coefficients in q of the orthogonal Jacobi-Trudi determinant (module
    docstring), exact: in int64 for a batch whose bound fits (_exact_dtype),
    in Python ints otherwise.  Labels are batched by form and size, the
    empty label as (0).  ValueError for a label that is not an O(theta)
    label, ArithmeticError when a label's weights do not sum to its dimension.
    """
    dims = tuple(dim_o(lam, theta) for lam in lams)
    parts: List[Tuple[int, ...]] = []
    groups: Dict[Tuple[bool, int], List[int]] = {}
    for i, lam in enumerate(lams):
        lam = column_flip(lam, theta) if len(lam) > theta // 2 else lam
        length, first = len(lam), lam[0]  # the form whose expansion takes fewer products
        dual = first * 2**first * 3 < length * 2**length * (2 * (first + length) - 1)
        parts.append(transpose(lam).parts if dual else lam.parts or (0,))
        groups.setdefault((dual, len(parts[-1])), []).append(i)
    kmax = max(p[0] + len(p) - 1 for p in parts)  # the largest index of an h_k or e_k
    pad = kmax + 2 * max(len(p) for p in parts) + 1  # both tables read 0 below index 0
    h_coeffs = _machine(np.concatenate([np.zeros(pad, dtype=object), _parity_sums(theta, kmax)]))
    # e_a(q, 1/q, 1^(theta-2)) = C(a) + C(a-2) + (q + 1/q) C(a-1), C(i) = C(theta-2, i)
    c = np.zeros(pad + kmax + 3, dtype=object)
    c[pad + 2:] = [math.comb(theta - 2, i) for i in range(kmax + 1)]
    e_coeffs = _machine(np.stack([c[1:-1], c[2:] + c[:-2], c[1:-1]], axis=1))
    top, row, depth, mult = np.zeros(len(lams)), [], [], []
    for (dual, size), batch in groups.items():
        batch = np.array(batch)
        cols = np.arange(size)
        start = (pad + np.array([parts[i] for i in batch]) - cols)[:, :, None]
        if dual:
            poly = _det(_exact_dtype(e_coeffs[start + cols] + e_coeffs[start - cols])) // 2
        else:
            k = max(parts[i][0] for i in batch) + size - 1  # the widest label of the batch
            offsets = np.abs(np.arange(-k, k + 1))
            poly = _det(_exact_dtype(h_coeffs[(start + cols)[..., None] - offsets]
                                     - h_coeffs[(start - cols - 2)[..., None] - offsets]))
        for i, total in zip(batch.tolist(), poly.sum(axis=1).tolist()):
            if total != dims[i]:
                raise ArithmeticError(f"weights of {lams[i]!r} sum to {total}, not {dims[i]}")
        lead = (poly != 0).argmax(axis=1)
        top[batch] = (poly.shape[1] - 1) // 2 - lead
        at, col = np.nonzero(poly != 0)
        row.append(batch[at])
        depth.append(col - lead[at])
        mult.append(poly[at, col])
    depths, depth_index = np.unique(np.concatenate(depth), return_inverse=True)
    return WeightTable(
        dims, np.log(np.array(dims, dtype=float)), top,
        row=np.concatenate(row),
        depths=depths.astype(float),
        depth_index=depth_index,
        mult=np.concatenate(mult).astype(float),
    )


def char_o_field(lam: Partition, theta: int, h: float) -> float:
    """Character of the O(theta) irreducible lam at exp(hW); OverflowError
    past the double range, where WeightTable.log_chars still holds."""
    table = weight_table([lam], theta)
    return math.exp(abs(h) * table.top[0]) * float(table.scaled_chars(h)[0])


def char_so_tableau_sum(lam: Partition, theta: int, h: float) -> float:
    """Orthogonal-tableau sum for the SO(theta) character, theta odd.

    Sums exp(h (m_1 - m_1bar)) over tableaux of shape lam in the
    alphabet 1 < 1bar < ... < r < rbar < inf (King/Sundaram model): rows
    weakly increase with at most one inf per row, columns strictly increase
    except that inf may repeat down a column, and the entries of row i are
    at least i.  Cross-checks the weight tables.
    """
    if theta % 2 != 1:
        raise ValueError("orthogonal tableau sum implemented for odd theta only")
    r = theta // 2
    if len(lam) > r:
        raise ValueError(f"{lam!r} has more than r={r} rows")
    inf_sym = 2 * r  # symbols 0..2r-1 are 1,1bar,...,r,rbar
    rows = lam.parts
    total = 0.0
    grid: dict = {}

    weight = {0: h, 1: -h}  # the letters 1 and 1bar; the rest weigh 0
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
            fill(idx + 1, acc_exp + weight.get(sym, 0.0))
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
