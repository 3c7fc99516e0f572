"""Symmetric-group dimensions, Littlewood-Richardson coefficients, and the
cell-module branching numbers obtained by summing LR coefficients over even
partitions.

Everything here is exact integer arithmetic.  The LR coefficient is computed
by direct enumeration of column-strict skew fillings with the lattice-word
check, which is simple enough to trust but slows quickly past ~20 boxes.
cell_branching needs no LR tableaux for a one-column lam (Pieri) or a rho of
at most two rows (the GL(2) Clebsch-Gordan rule).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

from .partitions import Partition, enumerate_even_partitions


def dim_sn(rho: Partition) -> int:
    """Number of standard Young tableaux of shape rho, by Frobenius' formula
    n! prod_{i<j} (l_i - l_j) / prod_i l_i! on the shifted rows
    l_i = rho_i + p - 1 - i of a p-row rho (i 0-based), in O(p^2) products."""
    p = len(rho.parts)
    shifted = [row + p - 1 - i for i, row in enumerate(rho.parts)]
    num = math.factorial(rho.size)
    for i, a in enumerate(shifted):
        for b in shifted[i + 1:]:
            num *= a - b
    return num // math.prod(math.factorial(a) for a in shifted)


@lru_cache(maxsize=None)
def _lr_count(rho_parts: Tuple[int, ...], lam_parts: Tuple[int, ...],
              pi_parts: Tuple[int, ...]) -> int:
    """Count LR skew tableaux of shape rho/lam and weight pi.

    Cells are filled in reverse reading order (rows top to bottom, within a
    row right to left) so the lattice-word condition can be enforced
    incrementally: after each placement the running count of v never exceeds
    that of v-1.
    """
    rho = Partition(rho_parts)
    lam = Partition(lam_parts)
    pi = Partition(pi_parts)
    cells = [
        (r, c)
        for r in range(len(rho))
        for c in range(rho[r] - 1, lam[r] - 1, -1)
    ]
    nvals = len(pi)
    counts = [0] * (nvals + 1)
    grid = {}
    total = 0

    def place(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        right = grid.get((r, c + 1))
        above = grid.get((r - 1, c))
        hi = right if right is not None else nvals
        for v in range(1, hi + 1):
            if counts[v] >= pi[v - 1]:
                continue
            if v >= 2 and counts[v] + 1 > counts[v - 1]:
                continue
            if above is not None and above >= v:
                continue
            counts[v] += 1
            grid[(r, c)] = v
            place(idx + 1)
            del grid[(r, c)]
            counts[v] -= 1

    place(0)
    return total


def lr_coefficient(lam: Partition, pi: Partition, rho: Partition) -> int:
    """Littlewood-Richardson coefficient c_{lam,pi}^{rho}.

    Zero whenever sizes mismatch or lam is not contained in rho; no error
    cases.
    """
    if lam.size + pi.size != rho.size:
        return 0
    if not rho.contains(lam):
        return 0
    if len(pi) > len(rho):
        return 0
    if pi.size == 0:
        return 1 if lam.parts == rho.parts else 0
    return _lr_count(rho.parts, lam.parts, pi.parts)


def cell_branching(lam: Partition, rho: Partition) -> int:
    """Multiplicity of rho in the symmetric-group restriction of the Brauer
    cell module labelled lam: the sum of c_{lam,pi}^{rho} over even pi.

    Depends only on the skew diagram rho/lam; independent of the Brauer
    parameter.  Returns 0 when |rho| < |lam| (lam cannot fit inside rho).
    A one-column lam = (1^j) gives 1 exactly when rho has j odd rows: by
    Pieri, rho/pi is then a vertical strip, and the only even pi it leaves
    rounds every row of rho down to even.  When rho has at most two rows, so
    do lam and pi, and the GL(2) Clebsch-Gordan rule gives c_{lam,pi}^{rho}
    = [|a - b| <= d <= a + b] for the row differences a, b, d of lam, pi,
    rho; the even pi = (2p, 2q) of size m have b = m, m - 4, ... >= 0.
    """
    m = rho.size - lam.size
    if m < 0:
        return 0
    if m % 2 != 0:
        raise ValueError(
            f"|rho| - |lam| must be even, got {rho.size} - {lam.size}"
        )
    if all(p == 1 for p in lam.parts):
        return int(sum(r % 2 for r in rho.parts) == len(lam))
    if not rho.contains(lam):
        return 0
    if len(rho) <= 2:
        a, d = lam[0] - lam[1], rho[0] - rho[1]
        return sum(abs(a - d) <= b <= a + d for b in range(m % 4, m + 1, 4))
    total = 0
    for pi in enumerate_even_partitions(m, len(rho)):
        total += lr_coefficient(lam, pi, rho)
    return total
