"""Brauer-algebra / symmetric-group branching coefficients b^{n,theta}.

By Brauer-Schur-Weyl duality b(lambda, k, rho) is the multiplicity of the
O(theta) irreducible lambda in the GL(theta) irreducible rho.  One exact
route gives it at every theta: the restriction of rho on rho less its
theta-th row (a column_flip of the labels when that row is odd).
positive_lines reads it into index arrays (a LineIndex, which enumerate_Pn
lists as pairs), b_coefficient per pair through the Counter of
_restriction.  The restriction takes one of three rules:

* theta = 3: Elliott's SU(3) > SO(3) rule (J. P. Elliott, Proc. R. Soc. A
  245 (1958) 128) on the row differences of rho, with the spin L of SO(3)
  read as the O(3) label (L) or its column_flip by the parity of |rho|;
* a one-row rho = (a), every stripped rho at theta = 2: the harmonic [m]
  over m <= a with m = a (mod 2);
* otherwise Littlewood's sum with King's modification rule (R. C. King,
  J. Phys. A 8 (1975) 429; K. Koike and I. Terada, J. Algebra 107 (1987)
  466).

The first two take integer arrays of row differences, so positive_lines
calls each once for all the rho of a size and finds the labels by
arithmetic; at theta >= 4 it restricts one rho at a time.

The dense spectral extraction is a check; it reads the eigenspace of each
line off the joint integer spectrum of sum T and sum B
(spectra.joint_spectrum).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .partitions import (
    LambdaRhoPair,
    Partition,
    admissible_lambda,
    column_flip,
    enumerate_lambda_rho,
    enumerate_partitions,
    line_invariants,
    partitions_inside,
    _trusted,
    _trusted_pair,
)
from .tableaux import cell_branching, dim_sn


class UnresolvedExtractionError(RuntimeError):
    """Raised when the dense spectrum does not determine every b."""


def _validate_pair(pair: LambdaRhoPair, theta: int) -> None:
    if pair.k < 0:
        raise ValueError(f"{pair!r} has negative defect")
    if not admissible_lambda(pair.lam, theta):
        raise ValueError(f"{pair!r}: lambda columns exceed theta={theta}")
    if len(pair.rho) > theta:
        raise ValueError(f"{pair!r}: rho has more than theta={theta} rows")


def _strip_row(rho: Partition, theta: int) -> Tuple[int, Partition]:
    """(rho_theta, rho with rho_theta removed from every row); the rows
    longer than rho_theta are a prefix of rho."""
    rt = rho[theta - 1]
    return rt, _trusted(tuple(r - rt for r in rho.parts if r > rt)) if rt else rho


def reduce_by_recurrence(pair: LambdaRhoPair, theta: int) -> LambdaRhoPair:
    """Strip rho_theta from every row of rho; flip lambda if rho_theta is odd.

    The branching coefficient is invariant under this reduction.  The result
    can have negative defect (lambda larger than rho), in which case the
    coefficient is zero.
    """
    rt, new_rho = _strip_row(pair.rho, theta)
    if rt == 0:
        return pair
    lam = pair.lam if rt % 2 == 0 else column_flip(pair.lam, theta)
    diff = new_rho.size - lam.size
    if diff % 2 != 0:
        raise ArithmeticError("parity broken by recurrence reduction")
    return LambdaRhoPair(lam, diff // 2, new_rho)


def is_positive_closed_form(pair: LambdaRhoPair, theta: int) -> bool:
    """Exact positivity predicate for theta = 2, 3.

    theta=2: positive iff lambda_1 <= rho_1 - rho_2, except lambda empty
    (both rows of rho must be even) and lambda = (1,1) (both rows odd).
    theta=3: positive iff lambda_1 <= rho_1 - rho_3, with the one-column
    labels following the odd-parts rule and the one-row / hook labels
    excluded when the stated row-parity degeneracies occur.
    """
    if theta not in (2, 3):
        raise ValueError("closed-form positivity available for theta in {2,3}")
    _validate_pair(pair, theta)
    lam, rho = pair.lam, pair.rho
    if theta == 2:
        if lam.parts == ():
            return rho[0] % 2 == 0 and rho[1] % 2 == 0
        if lam.parts == (1, 1):
            return rho[0] % 2 == 1 and rho[1] % 2 == 1
        return lam[0] <= rho[0] - rho[1]

    if all(p == 1 for p in lam.parts):
        return sum(r % 2 for r in rho.parts) == len(lam)
    if lam[0] > rho[0] - rho[2]:
        return False
    if len(lam) == 1:
        if rho[1] == rho[2] and rho[2] % 2 == 1:
            return False
        if rho[0] == rho[1] and rho[1] % 2 == 1:
            return False
        return True
    if len(lam) == 2 and lam[1] == 1:
        if rho[1] == rho[2] and rho[2] % 2 == 0:
            return False
        if rho[0] == rho[1] and rho[1] % 2 == 0:
            return False
        return True
    raise AssertionError(f"unexpected theta=3 label {lam!r}")


def _modify(mu: Partition, theta: int) -> Tuple[int, Partition]:
    """King's rule [mu] = sign [label] for O(theta), sign 0 when [mu] = 0.

    While mu is not admissible, remove the boundary strip of length
    h = 2 len(mu) - theta from the foot of the first column: in beta-numbers
    beta_i = mu_i + len(mu) - 1 - i, h must be a beta and becomes 0.  A strip
    over r rows gives the sign (-1)^(h-r) and one column_flip twist.
    """
    sign, twist = 1, False
    while not admissible_lambda(mu, theta):
        p, h = len(mu), 2 * len(mu) - theta
        beta = [m + p - 1 - i for i, m in enumerate(mu.parts)]
        if h not in beta:
            return 0, mu
        sign, twist = sign * (-1) ** (h - 1 - sum(0 < x < h for x in beta)), not twist
        mu = Partition([y - (p - 1 - i) for i, y in enumerate(x for x in beta if x != h)])
    return sign, column_flip(mu, theta) if twist else mu


def _littlewood_king(rho: Partition, theta: int) -> Counter:
    """Littlewood's sum over mu of btilde(mu, rho) [mu], King's rule on each
    [mu]; the restriction at theta >= 4 (and of a two-row rho at theta = 2)."""
    out: Counter = Counter()
    for mu in partitions_inside(rho, rho.size % 2):
        sign, label = _modify(mu, theta)
        if sign:
            out[label] += sign * cell_branching(mu, rho)
    return out


@lru_cache(maxsize=None)
def _one_row(m: int) -> Partition:
    return _trusted((m,) if m else ())


@lru_cache(maxsize=None)
def _one_row_label(m: int, twisted: bool, theta: int) -> Partition:
    """The O(theta) label (m), or its column_flip when twisted."""
    return column_flip(_one_row(m), theta) if twisted else _one_row(m)


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(owner, position) of counts[i] entries per i: owner i at positions
    0, ..., counts[i] - 1."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _harmonic(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GL(theta) -> O(theta) on the one-row rho = (a[i]), at every theta:
    the harmonic [m] once for m = a, a - 2, ... >= 0.  (owner, m, mult)
    per [m], with owner the i of its rho."""
    owner, pos = _ragged(a // 2 + 1)
    return owner, a[owner] % 2 + 2 * pos, np.ones(len(owner), dtype=np.int64)


def _elliott(l: np.ndarray, m: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GL(3) -> SO(3) by Elliott's rule on the row differences (l[i], m[i])
    of each rho.  With B = max(l, m) and s = min(l, m), each K = s, s - 2,
    ... >= 0 gives the SO(3) spins L = K, ..., K + B when K > 0 and L = B,
    B - 2, ... >= 0 when K = 0.  The multiplicity of L counts the K of the
    parity of s in [max(1, L - B), min(s, L)], plus one for K = 0.
    (owner, spin, mult) per spin of positive multiplicity, with owner the i
    of its rho.  -I in O(3) acts on rho as (-1)^|rho| and on (L) as
    (-1)^L, so the O(3) label is (L) or, for the other parity, its
    column_flip (the det twist)."""
    big, s = np.maximum(l, m), np.minimum(l, m)
    owner, spin = _ragged(big + s + 1)
    big, s = big[owner], s[owner]
    lo, hi = np.maximum(1, spin - big), np.minimum(s, spin)
    mult = np.maximum(0, (hi - s) // 2 - (lo - 1 - s) // 2)
    mult += (s % 2 == 0) & (spin <= big) & ((big - spin) % 2 == 0)
    keep = mult > 0
    return owner[keep], spin[keep], mult[keep]


@lru_cache(maxsize=None)
def _restriction(rho: Partition, theta: int) -> Counter:
    """Multiplicity of each O(theta) label in the GL(theta) irreducible rho:
    Elliott's rule at theta = 3, the harmonic sum of a one-row rho, and
    _littlewood_king otherwise (see the module docstring)."""
    if theta == 3:
        _, spins, mults = _elliott(np.array([rho[0] - rho[1]]), np.array([rho[1] - rho[2]]))
        return Counter({_one_row_label(spin, (spin - rho.size) % 2 == 1, 3): mult
                        for spin, mult in zip(spins.tolist(), mults.tolist())})
    if len(rho) == 1:
        _, ms, _ = _harmonic(np.array([rho[0]]))
        return Counter({_one_row(m): 1 for m in ms.tolist()})
    return _littlewood_king(rho, theta)


def b_coefficient(pair: LambdaRhoPair, theta: int) -> int:
    """Exact branching coefficient at every theta: the multiplicity of the
    reduced lambda in the restriction of the reduced rho (0 when the reduced
    defect is negative, since lambda is then absent)."""
    _validate_pair(pair, theta)
    reduced = reduce_by_recurrence(pair, theta)
    return _restriction(reduced.rho, theta)[reduced.lam]


@dataclass(frozen=True)
class LineIndex:
    """The positive lines (lambda, k, rho) of size n as index arrays.

    Line i has rho = rhos[rho_index[i]], lambda = lams[lam_index[i]],
    k = (n - |lambda|) / 2 and branching coefficient b[i].  The lines run by
    rho in the order of rhos and, inside a rho, by (|lambda|, parts)
    descending; lams is sorted that way, so lam_index increases inside
    each rho.
    """

    n: int
    rhos: Tuple[Partition, ...]
    lams: Tuple[Partition, ...]
    rho_index: np.ndarray
    lam_index: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for a in (self.rho_index, self.lam_index, self.b):
            a.setflags(write=False)  # the index is cached and shared

    def pairs(self) -> Iterator[Tuple[LambdaRhoPair, int]]:
        """(pair, b) per line, built on demand as unchecked pairs: every
        label was checked against n."""
        ks = [(self.n - lam.size) // 2 for lam in self.lams]
        for r, l, b in zip(self.rho_index.tolist(), self.lam_index.tolist(), self.b.tolist()):
            yield _trusted_pair(self.lams[l], ks[l], self.rhos[r]), b


def _index_lines(n: int, rhos: Sequence[Partition], labels: Sequence[Partition],
                 rho_index, lam_index, b) -> LineIndex:
    """The LineIndex of lines given by indices into rhos and labels: every
    label is checked against n and ranked once, then one lexsort orders the
    lines.  ValueError when n - |lambda| is odd or negative."""
    sizes = [lam.size for lam in labels]
    for lam, size in zip(labels, sizes):
        if size > n or (n - size) % 2:
            raise ValueError(f"size mismatch: |lam|={size} for {lam!r} at n={n}")
    order = sorted(range(len(labels)), key=lambda i: (sizes[i], labels[i].parts), reverse=True)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    lam_index = rank[np.asarray(lam_index, dtype=np.intp)]
    rho_index = np.asarray(rho_index, dtype=np.intp)
    perm = np.lexsort((lam_index, rho_index))
    return LineIndex(n, tuple(rhos), tuple(labels[i] for i in order), rho_index[perm],
                     lam_index[perm], np.asarray(b, dtype=np.int64)[perm])


def _closed_form_lines(n: int, theta: int, rhos: Sequence[Partition]
                       ) -> Tuple[np.ndarray, List[Partition], np.ndarray, np.ndarray]:
    """(rho_index, labels, lam_index, b) of the positive lines at theta = 2, 3
    from one rule call over all rho.  Stripping the theta-th row keeps the
    row differences the rules read, so only its parity is left to apply:
    * theta = 3: Elliott's twist on the stripped rho, of size n - 3 rho_3,
      and the flip-back for odd rho_3 combine to (-1)^(L - n), so
      spin L is the label (L) when L = n (mod 2) and its column_flip
      otherwise;
    * theta = 2: the harmonic [m] of the stripped (rho_1 - rho_2) is the
      label (m) for m >= 1, which column_flip fixes, and at m = 0 the label
      () or, for odd rho_2, its flip (1, 1).
    A label's id is the rank of its key 2 m + twisted."""
    rows = np.array([rho.parts + (0,) * (theta - len(rho)) for rho in rhos], dtype=np.int64)
    if theta == 3:
        owner, m, b = _elliott(rows[:, 0] - rows[:, 1], rows[:, 1] - rows[:, 2])
        twisted = (m - n) % 2 == 1
    else:
        owner, m, b = _harmonic(rows[:, 0] - rows[:, 1])
        twisted = (m == 0) & (rows[owner, 1] % 2 == 1)
    keys, lam_index = np.unique(2 * m + twisted, return_inverse=True)
    labels = [_one_row_label(key // 2, key % 2 == 1, theta) for key in keys.tolist()]
    return owner, labels, lam_index, b


@lru_cache(maxsize=None)
def positive_lines(n: int, theta: int) -> LineIndex:
    """The lines with positive branching coefficient.  At theta = 2, 3 one
    vectorised rule call covers every rho (_closed_form_lines); at theta >=
    4 one restriction per rho, read on the stripped rho and flipped back
    when rho_theta is odd.  A label gets its id once per flip parity, keyed
    by its parts, so no pair is built per line and no line's Partition is
    hashed to index it."""
    if n < 1 or theta < 2:
        raise ValueError("need n >= 1 and theta >= 2")
    rhos = enumerate_partitions(n, theta)
    if theta <= 3:
        rho_index, labels, lam_index, b = _closed_form_lines(n, theta, rhos)
        return _index_lines(n, rhos, labels, rho_index, lam_index, b)
    labels: List[Partition] = []
    label_id: Dict[Tuple[int, ...], int] = {}
    ids: Tuple[Dict[Tuple[int, ...], int], ...] = ({}, {})  # by the parity of rho_theta
    rho_index: List[int] = []
    lam_index: List[int] = []
    b: List[int] = []
    for r, rho in enumerate(rhos):
        rt, stripped = _strip_row(rho, theta)
        seen = ids[rt % 2]
        for lam, mult in _restriction(stripped, theta).items():
            if mult > 0:
                i = seen.get(lam.parts)
                if i is None:
                    label = column_flip(lam, theta) if rt % 2 else lam
                    i = seen[lam.parts] = label_id.setdefault(label.parts, len(labels))
                    if i == len(labels):
                        labels.append(label)
                lam_index.append(i)
                b.append(mult)
        rho_index += [r] * (len(b) - len(rho_index))
    return _index_lines(n, rhos, labels, rho_index, lam_index, b)


def _first_seen(keys: Iterable) -> Tuple[tuple, List[int]]:
    """(the distinct keys in order of first appearance, each key's index
    into them)."""
    index_of: Dict = {}
    index = [index_of.setdefault(key, len(index_of)) for key in keys]
    return tuple(index_of), index


def index_pairs(n: int, pn: Sequence[Tuple[LambdaRhoPair, int]]) -> LineIndex:
    """The LineIndex of the lines of pn with b > 0, pairs of size n such as
    the dense spectral extraction's.  Hashes every pair's lambda and rho:
    for small n.  ValueError when a rho does not have n boxes."""
    pn = [(pair, b) for pair, b in pn if b > 0]
    rhos, rho_index = _first_seen(pair.rho for pair, _ in pn)
    for rho in rhos:
        if rho.size != n:
            raise ValueError(f"size mismatch: |rho|={rho.size} for {rho!r} at n={n}")
    lams, lam_index = _first_seen(pair.lam for pair, _ in pn)
    return _index_lines(n, rhos, lams, rho_index, lam_index, [b for _, b in pn])


@lru_cache(maxsize=None)
def enumerate_Pn(n: int, theta: int) -> Tuple[Tuple[LambdaRhoPair, int], ...]:
    """All pairs with positive branching coefficient and their multiplicities,
    in the order of enumerate_lambda_rho: the lines of positive_lines."""
    return tuple(positive_lines(n, theta).pairs())


# ---------------------------------------------------------------------------
# spectral extraction oracle

def spectral_extract_branching(n: int, theta: int,
                               seed: int = 0) -> List[Tuple[LambdaRhoPair, int]]:
    """Read b off the dense joint integer spectrum of sum T and sum B.

    On the line (lambda, k, rho), sum T acts as c(rho) and sum B as c(rho)
    - c(lambda) + k(theta - 1), so spectra.joint_spectrum(theta, n, "Q")
    gives, as exact integers, the dimension of the joint eigenspace of
    every pair (t, b): the multiplicity of each decoded pair times the
    number of charges its block stands for.  The candidates sharing the
    invariants (t, b) of partitions.line_invariants form one group, and
    each group is solved by one rule: the b with 0 <= b <= btilde (the
    cell-module bound) whose sum of b d_O d_Sn is the group's dimension.
    joint_spectrum's lattice, commute and trace checks guard the decode.
    Raises UnresolvedExtractionError when a decoded pair lies on no
    candidate's line, when a group has no solution or more than one, or
    when the multiplicities do not sum to theta^n.  seed is not read; it
    stays for callers that pass one.
    """
    from . import spectra
    from .group_chars import dim_o

    spectra._check_cap(theta, n)
    joint = spectra.joint_spectrum(theta, n, "Q")
    candidates = enumerate_lambda_rho(n, theta)
    weights = [dim_o(p.lam, theta) * dim_sn(p.rho) for p in candidates]
    btilde = [cell_branching(p.lam, p.rho) for p in candidates]

    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, p in enumerate(candidates):
        c_rho, c_lam = line_invariants(p, theta)
        groups.setdefault((c_rho, c_rho - c_lam), []).append(i)
    copies = np.array([len(q) for q in joint.charges])
    dims: Counter = Counter()
    for t, b, m in zip(joint.t.astype(np.int64).tolist(), joint.b.astype(np.int64).tolist(),
                       (joint.mult * copies[joint.block]).tolist()):
        if (t, b) not in groups:
            raise UnresolvedExtractionError(
                f"joint eigenvalue (sum T, sum B) = ({t}, {b}) lies on no predicted line")
        dims[t, b] += m

    result: Dict[int, int] = {}
    for key, members in groups.items():
        sols = [combo for combo in itertools.product(*(range(btilde[i] + 1) for i in members))
                if sum(b * weights[i] for b, i in zip(combo, members)) == dims[key]]
        if len(sols) != 1:
            raise UnresolvedExtractionError(
                f"eigenspace of dimension {dims[key]} on {[candidates[i] for i in members]}: "
                f"{len(sols)} solutions within the cell bounds"
            )
        result.update(zip(members, sols[0]))

    total = sum(result[i] * weights[i] for i in range(len(candidates)))
    if total != theta**n:
        raise UnresolvedExtractionError(
            f"multiplicities sum to {total}, expected {theta**n}"
        )
    return [(candidates[i], result[i]) for i in range(len(candidates))]
