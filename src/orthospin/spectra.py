"""Hamiltonian assembly, exact spectra via the (lambda, rho) decomposition,
dense-trace oracles, magnetised partition functions, total-spin observables,
and explicit ground-state vectors.

Conventions
-----------
* H = -sum_{x<y} (L1 T_{x,y} + L2 B_{x,y}) - h sum_x W_x, with B the Q
  projector or the signed-singlet P depending on the flavor; the sum runs
  over unordered pairs, each edge once (this is what makes the sum of
  transpositions act with the content eigenvalue).
* The partition function traces exp(-H/n).  The magnetisation coupling is
  per site and is NOT divided by n: the magnetised trace is
  tr[exp(-H0/n) * exp(h sum_x W_x)], matching the character-sum form in
  which the orthogonal character is evaluated at exp(h W).
* Reported eigenvalues are eigenvalues of H; the division by n happens only
  inside partition functions.

Dense route
-----------
The dense trace never builds a theta^n x theta^n matrix.  In a one-site
basis where the pair vector reads sum_i s_i |i, theta-1-i> (the torus
basis), sum T and sum B are block-diagonal in the net charges
q_i = #i - #(theta-1-i), i < theta//2: place permutations keep the digit
counts, and a bar trades one charge-free pair (i, theta-1-i) for another.
The field W = default_w(theta) has torus weights y = (1, 0, ..., 0) where
it preserves the flavor's pair form (W^T J + J W = 0), so sum_x W_x acts
on the sector of charges q as the scalar q_1; it breaks the signed-singlet
form at odd theta >= 5, and require_field refuses a field for flavor P
there on both routes.  The global flip
F (digit i -> theta-1-i on every site) lies in O(theta), so it commutes
with sum T and sum B and maps sector q onto -q: flip_reduce keeps one block
per +-q pair and splits q = 0 into its F-even and F-odd halves.  The
blocks come from index arithmetic on the base-theta digits of the basis
states, and the same assembler gives the standard-basis operators (one
sector) used by build_hamiltonian and the ground-state checks.  The torus
blocks depend on the flavor only through the loop weight delta of
brauer.specialise, and are keyed by (n, delta): at odd theta both pair
vectors are symmetric and P is B_n(theta) like Q, so P reads Q's blocks and
cache entries; at even theta P's form is symplectic, delta = -theta, and
its sum B takes the signs (-1)^i.  sum T, the same for both flavors, is
assembled once per size.

sum T and sum B commute, and their joint eigenvalues are integers: c(rho)
and c(rho) - c(lambda) + k(theta - 1) on the line (lambda, k, rho).
joint_spectrum solves K sum T + sum B once per reduced block and size, with
K = 2 C(n,2) theta + 1 larger than twice the norm of sum B, and decodes each
rounded eigenvalue into its pair (t, b); it raises ValueError, and never
yields a Z, when an eigenvalue lies off the integer lattice, when a
Freivalds probe finds that the blocks do not commute, or when the decoded
t or b do not sum to the block's trace.  z_direct then needs no eigensolve:
log Z is one log-sum over the distinct (t, b) of every block of
log(multiplicity) + (L1 t + L2 b)/n plus the block's field weight, the log
of the sum of exp(h sum_k y_k q_k) over the charges it stands for.
branching.spectral_extract_branching reads the same decode: the integer
multiplicities of the pairs (t, b), counted once per charge of their block,
are the dimensions of the line eigenspaces.

Character route
---------------
z_decomposed sums over the positive lines (lambda, k, rho) of
branching.positive_lines, whose b is exact at every theta.  They arrive
as index arrays (a LineIndex): the distinct rho and lambda, and per line
its rho index, lambda index and b, with k = (n - |lambda|) / 2; no pair
is built per line and no line's lambda or rho is hashed to index it.
One cached LineTable per (n, theta) holds what does not depend on the
couplings: that LineIndex, the weight table of its lambda
(group_chars.weight_table: d_O = dim_o(lambda) and the integer weight
multiplicities of W = default_w(theta)), log(b d_Sn), formed once per
distinct (rho, b), and the line invariants (c(rho), c(lambda) +
k(1 - theta)) of partitions.line_invariants, which line_eigenvalue, the
one copy of the line formula, turns into eigenvalues.  d_Sn and the content sums are
formed once per distinct rho and lambda and spread over the lines by the
index arrays.  A call evaluates every log-character in one vectorised
step (log d_O at h = 0), finite at every finite h, and takes a numpy
log-sum-exp over the lines.  spectral_lines and the command line's
branching and schur-weyl output build (pair, b, d_O, d_Sn) per line on
demand from the same table (LineTable.rows); their --oracle check
converts the positive lines of the dense spectral extraction to a
LineIndex (branching.index_pairs) for the same builder, uncached.
z_direct also sums its blocks in the log domain.  Both raise ValueError,
stating log Z, when Z is not a positive finite double (exit 2 on the
command line) rather than returning inf, and name the couplings when they
overflow log Z or a dense block.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import branching
from .brauer import pair_form, perfect_matchings, specialise
from .group_chars import WeightTable, weight_table
from .partitions import LambdaRhoPair, Partition, content_sum, require_size
from .tableaux import dim_sn

DEFAULT_DENSE_CAP = 4096
TOTAL_SPIN_TOL = 1e-9  # total_spin_observable: route gap over max(1, |value|)
LATTICE_TOL = 1e-6  # joint_spectrum: distance of an eigenvalue from the integers
COMMUTE_TOL = 1e-12  # joint_spectrum: |T(Bv) - B(Tv)| over |T| |B| |v|
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def dense_cap() -> int:
    return int(os.environ.get("ORTHO_SPIN_DENSE_CAP", DEFAULT_DENSE_CAP))


def _check_cap(theta: int, n: int) -> None:
    if theta**n > dense_cap():
        raise ValueError(
            f"dense space {theta}^{n} exceeds cap {dense_cap()} "
            "(override with ORTHO_SPIN_DENSE_CAP)"
        )


def default_w(theta: int) -> np.ndarray:
    """Skew-symmetric W with spectrum {1,-1} (theta=2), {1,0,-1} (theta=3),
    and {1,0,...,0,-1} for larger theta (block embedding of the theta=2 W)."""
    if theta == 2:
        return np.array([[0.0, 1j], [-1j, 0.0]])
    if theta == 3:
        s = 1.0 / math.sqrt(2.0)
        return np.array(
            [[0.0, -1j * s, 0.0], [1j * s, 0.0, -1j * s], [0.0, 1j * s, 0.0]]
        )
    w = np.zeros((theta, theta), dtype=complex)
    w[0, theta - 1] = 1j
    w[theta - 1, 0] = -1j
    return w


def require_finite(**values: float) -> None:
    """ValueError naming the first coupling that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_field(theta: int, flavor: str, h: float) -> None:
    """ValueError for a field (h != 0) on flavor P at odd theta >= 5.

    There the corner-block W = default_w(theta) does not preserve the
    symmetric signed-singlet form, so sum_x W_x does not commute with H0;
    W preserves flavor Q's form at every theta and flavor P's at theta = 3
    and at even theta."""
    if h and flavor == "P" and theta % 2 and theta >= 5:
        raise ValueError(
            f"the field W = default_w({theta}) does not preserve the flavor-P pair "
            f"form at theta={theta}, so sum_x W_x does not commute with H0"
        )


@dataclass
class HamiltonianSpec:
    theta: int
    n: int
    L1: float
    L2: float
    h: float = 0.0
    flavor: str = "Q"

    def __post_init__(self):
        require_size(self.theta, self.n)
        specialise(self.theta, self.flavor)
        require_finite(L1=self.L1, L2=self.L2, h=self.h)


@dataclass(frozen=True)
class SpectralLine:
    lam: Partition
    k: int
    rho: Partition
    eigenvalue: float
    multiplicity: int


def line_eigenvalue(c_rho, c_lam, L1: float, L2: float):
    """-((L1+L2) c(rho) - L2 (c(lambda) + k(1-theta))), the eigenvalue of H on
    the line (lambda, k, rho), from its invariants (c_rho, c_lam) as given by
    partitions.line_invariants; scalars or numpy arrays.  The couplings
    must be finite."""
    require_finite(L1=L1, L2=L2)
    return -((L1 + L2) * c_rho - L2 * c_lam)


# ---------------------------------------------------------------------------
# dense operators (see "Dense route" in the module docstring)

@dataclass(frozen=True)
class SectorBasis:
    """Product basis of (C^theta)^n grouped into charge sectors."""

    theta: int
    n: int
    digits: np.ndarray   # (N, n) base-theta digits, site 1 most significant
    sector: np.ndarray   # (N,) sector of each state
    local: np.ndarray    # (N,) position of each state inside its sector
    sizes: np.ndarray    # (S,) sector dimensions
    charges: np.ndarray  # (S, theta//2) net charges; (1, 0) when unkeyed

    def blocks(self, rows: np.ndarray, cols: np.ndarray,
               vals: Optional[np.ndarray] = None) -> List[np.ndarray]:
        """Sum matrix entries, given by global state indices, into one dense
        block per sector.  No entry may connect two sectors."""
        offsets = np.concatenate(([0], np.cumsum(self.sizes**2)))
        s = self.sector[cols]
        flat = offsets[s] + self.local[rows] * self.sizes[s] + self.local[cols]
        weights = np.ones(flat.shape) if vals is None else vals
        buf = np.bincount(flat.ravel(), weights.ravel(), minlength=offsets[-1])
        buf.setflags(write=False)  # the blocks are cached and shared
        return [buf[offsets[k]:offsets[k + 1]].reshape(m, m)
                for k, m in enumerate(self.sizes)]

    def permutation_sum(self, sigmas: Sequence[Sequence[int]]) -> List[np.ndarray]:
        """Blocks of the sum of place permutations; sigma moves the digit at
        site x to site sigma[x] (0-based)."""
        powers = self.theta ** (self.n - 1 - np.asarray(sigmas, dtype=np.int64).reshape(-1, self.n))
        rows = self.digits @ powers.T
        cols = np.broadcast_to(np.arange(len(self.digits))[:, None], rows.shape)
        return self.blocks(rows, cols)


@lru_cache(maxsize=32)
def sector_basis(theta: int, n: int, keyed: bool = True) -> SectorBasis:
    """The theta^n product states, keyed by net charge (or one sector)."""
    _check_cap(theta, n)
    N = theta**n
    idx = np.arange(N)
    digits = (idx[:, None] // theta ** np.arange(n - 1, -1, -1)) % theta
    if keyed:
        counts = np.stack([np.count_nonzero(digits == a, axis=1) for a in range(theta)], 1)
        r = theta // 2
        q = counts[:, :r] - counts[:, ::-1][:, :r]
        charges, sector = np.unique(q, axis=0, return_inverse=True)
        sector = sector.reshape(N)
    else:
        charges, sector = np.zeros((1, 0), dtype=np.int64), np.zeros(N, dtype=np.int64)
    sizes = np.bincount(sector)
    local = np.empty(N, dtype=np.int64)
    local[np.argsort(sector, kind="stable")] = idx - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return SectorBasis(theta, n, digits, sector, local, sizes, charges)


def _transposition_sum(basis: SectorBasis) -> List[np.ndarray]:
    """Blocks of sum T_{x,y} over x < y; the same for both flavors."""
    x, y = np.triu_indices(basis.n, 1)
    swaps = np.tile(np.arange(basis.n), (len(x), 1))
    swaps[np.arange(len(x)), x] = y
    swaps[np.arange(len(x)), y] = x
    return basis.permutation_sum(swaps)


def _bar_sum(basis: SectorBasis, partner: np.ndarray, signs: np.ndarray) -> List[np.ndarray]:
    """Blocks of sum B_{x,y} over x < y, where B = |u><u| for the pair
    vector u = sum_i signs[i] |i, partner[i]>."""
    theta, n, d = basis.theta, basis.n, basis.digits
    x, y = np.triu_indices(n, 1)
    # B_{x,y} maps a state whose digits (a, partner[a]) at (x, y) hold a term
    # of u to sum_b signs[a] signs[b] |..., b, partner[b], ...>
    state, k = np.nonzero(d[:, y] == partner[d[:, x]])
    a = d[state, x[k]]
    px, py = theta ** (n - 1 - x[k, None]), theta ** (n - 1 - y[k, None])
    b = np.arange(theta)
    rows = state[:, None] + (b - a[:, None]) * px + (partner[b] - partner[a, None]) * py
    cols = np.broadcast_to(state[:, None], rows.shape)
    vals = signs[a, None] * signs[b]
    return basis.blocks(rows, cols, vals)


@lru_cache(maxsize=32)
def _plain_transposition_sum(theta: int, n: int) -> np.ndarray:
    """sum T in the standard basis: one assembly per size, shared by both
    flavors."""
    (sum_t,) = _transposition_sum(sector_basis(theta, n, keyed=False))
    return sum_t


@lru_cache(maxsize=32)
def sum_pair_ops(theta: int, n: int, flavor: str) -> Tuple[np.ndarray, np.ndarray]:
    """(sum of T_{x,y}, sum of B_{x,y}) over unordered pairs x < y, in the
    standard basis (one sector)."""
    form = pair_form(theta, flavor)
    partner = np.argmax(np.abs(form), axis=1)
    basis = sector_basis(theta, n, keyed=False)
    (sum_b,) = _bar_sum(basis, partner, form[np.arange(theta), partner])
    return _plain_transposition_sum(theta, n), sum_b


def flip_reduce(basis: SectorBasis,
                blocks: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """(charges, blocks) of an operator that commutes with the global flip F.

    F sends every digit i to theta-1-i, i.e. state s to theta^n - 1 - s, and
    sector q onto -q; np.unique sorts the charges so that sector k and
    S-1-k are partners and the reversal l -> m-1-l is F inside each.  A pair
    keeps the block of its first sector, with charges [q, -q].  The neutral
    sector, present when S is odd, splits into its F-even and F-odd halves on
    the pairs (l, m-1-l), each with charges [0]; at odd theta its middle
    state (every digit theta//2) is F-fixed and joins the even half, its
    cross terms scaled by sqrt 2.  Empty halves are dropped.  A reduced
    block stands for len(charges) copies of its spectrum.
    """
    half = len(blocks) // 2
    charges = [basis.charges[[k, len(blocks) - 1 - k]] for k in range(half)]
    reduced = [np.array(block) for block in blocks[:half]]
    if len(blocks) % 2:
        zero = blocks[half]
        h = len(zero) // 2
        a, b = zero[:h, :h], zero[:h, ::-1][:, :h]  # b[i, j] = zero[i, m-1-j]
        even, odd = a + b, a - b
        if len(zero) % 2:
            root2 = math.sqrt(2.0)
            even = np.block([[even, root2 * zero[:h, h:h + 1]],
                             [root2 * zero[h:h + 1, :h], zero[h:h + 1, h:h + 1]]])
        for part in (even, odd):
            if part.size:
                charges.append(basis.charges[[half]])
                reduced.append(part)
    for block in reduced:
        block.setflags(write=False)  # the blocks are cached and shared
    return charges, reduced


@lru_cache(maxsize=1)
def _reduced_transposition_sum(theta: int, n: int) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """(charges, blocks of sum T) in the torus basis, reduced by the global
    flip: one assembly per size, shared by both flavors when they run back
    to back.  One entry: joint_spectrum caches what it solves, so older
    sizes' blocks would only hold memory."""
    basis = sector_basis(theta, n)
    return flip_reduce(basis, _transposition_sum(basis))


def sector_pair_ops(n: int,
                    delta: int) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
    """(charges, blocks of sum T, blocks of sum B) in the torus basis,
    reduced by the global flip (flip_reduce), for the model of loop weight
    delta (brauer.specialise) on theta = |delta| states per site.

    A unitary change of one-site basis takes the flavor's pair vector to
    u = sum_i s_i |i, theta-1-i>, with s_i = 1 for a symmetric form (delta
    = theta: Q, and P at odd theta) and s_i = (-1)^i for a symplectic one
    (delta = -theta: P at even theta); the spectrum of every block is basis
    independent.  F commutes with place permutations and fixes u, or sends
    it to -u in the symplectic case, so it commutes with both sums.  Sum T
    does not depend on delta: both signs take the same charges and sum T
    blocks, and each call assembles only its sum B.  Uncached: its one
    caller, joint_spectrum, caches what it solves from the blocks.
    """
    theta = abs(delta)
    basis = sector_basis(theta, n)
    signs = (-1.0) ** np.arange(theta) if delta < 0 else np.ones(theta)
    charges, sum_t = _reduced_transposition_sum(theta, n)
    return charges, sum_t, flip_reduce(basis, _bar_sum(basis, np.arange(theta)[::-1], signs))[1]


@dataclass(frozen=True)
class JointSpectrum:
    """The joint eigenvalues (t, b) of sum T and sum B on the reduced blocks
    of sector_pair_ops: each distinct pair of a block once, with block[i]
    the block of pair i, mult[i] its integer multiplicity there and
    log_mult[i] the log of that, formed once; charges[k] are the charges
    block k stands for."""

    charges: List[np.ndarray]
    block: np.ndarray
    t: np.ndarray
    b: np.ndarray
    mult: np.ndarray
    log_mult: np.ndarray

    def __post_init__(self):
        for a in (self.block, self.t, self.b, self.mult, self.log_mult):
            a.setflags(write=False)  # the spectrum is cached and shared


@lru_cache(maxsize=32)
def joint_spectrum(n: int, delta: int) -> JointSpectrum:
    """The joint spectrum of sum T and sum B, one eigensolve per reduced block
    of sector_pair_ops(n, delta).

    Every B_{x,y} has norm theta, so |b| <= bound = C(n,2) theta, and each
    eigenvalue r = K t + b of K sum T + sum B, K = 2 bound + 1, decodes as
    t = floor((r + bound) / K), b = r - K t.  ValueError, naming the block,
    when a fixed-seed Freivalds probe finds T B != B T, when an eigenvalue
    lies more than LATTICE_TOL off the integers, or when the decoded t or b
    do not sum to the trace of the block of sum T or sum B.
    """
    theta = abs(delta)
    charges, blocks_t, blocks_b = sector_pair_ops(n, delta)
    bound = math.comb(n, 2) * theta
    scale = 2 * bound + 1
    probe = np.random.default_rng(0)
    block, pairs, counts = [], [], []
    for k, (t, b) in enumerate(zip(blocks_t, blocks_b)):
        where = f"block {k} of n={n}, delta={delta}"
        v = probe.standard_normal(len(t))
        residual = np.linalg.norm(t @ (b @ v) - b @ (t @ v))
        if not residual <= COMMUTE_TOL * np.linalg.norm(t) * np.linalg.norm(b) * np.linalg.norm(v):
            raise ValueError(f"sum T and sum B do not commute on {where}: "
                             f"Freivalds residual {residual:.3g}")
        r = np.linalg.eigvalsh(scale * t + b)
        lattice = np.rint(r)
        off = float(np.max(np.abs(r - lattice)))
        if not off <= LATTICE_TOL:
            raise ValueError(f"an eigenvalue of {scale} sum T + sum B on {where} "
                             f"lies {off:.3g} off the integer lattice")
        t_k, b_k = np.divmod(lattice.astype(np.int64) + bound, scale)
        b_k -= bound
        if t_k.sum() != np.trace(t) or b_k.sum() != np.trace(b):
            raise ValueError(f"the decoded joint eigenvalues on {where} do not sum "
                             "to the traces of sum T and sum B")
        distinct, count = np.unique(np.stack([t_k, b_k], 1), axis=0, return_counts=True)
        block.append(np.full(len(count), k))
        pairs.append(distinct)
        counts.append(count)
    t_all, b_all = np.concatenate(pairs).T.astype(float)
    mult = np.concatenate(counts)
    return JointSpectrum(charges, np.concatenate(block), t_all, b_all, mult, np.log(mult))


def embed_site(op1: np.ndarray, theta: int, n: int, x: int) -> np.ndarray:
    """Embed a one-site operator at site x (1-based)."""
    N = theta**n
    idx = np.arange(N)
    px = theta ** (n - x)
    dx = (idx // px) % theta
    rest = idx - dx * px
    out = np.zeros((N, N), dtype=op1.dtype)
    for a in range(theta):
        sel = np.nonzero(dx == a)[0]
        for b in range(theta):
            if op1[b, a] != 0:
                out[rest[sel] + b * px, sel] += op1[b, a]
    return out


def sum_field_op(theta: int, n: int) -> np.ndarray:
    """sum_x W_x in the standard basis, W = default_w(theta)."""
    w = default_w(theta)
    N = theta**n
    out = np.zeros((N, N), dtype=complex)
    for x in range(1, n + 1):
        out += embed_site(w, theta, n, x)
    return out


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """H = -sum_{x<y}(L1 T + L2 B) - h sum_x W_x, W = default_w(theta),
    Hermitian."""
    sum_t, sum_b = sum_pair_ops(spec.theta, spec.n, spec.flavor)
    h0 = -(spec.L1 * sum_t + spec.L2 * sum_b)
    if spec.h == 0.0:
        return h0
    return h0.astype(complex) - spec.h * sum_field_op(spec.theta, spec.n)


# ---------------------------------------------------------------------------
# parameter conversions

def convert_parameters(mode: str, p1: float, p2: float,
                       theta: Optional[int] = None) -> Tuple[float, float, float]:
    """Convert (p1, p2) in parameter mode L (canonical L1, L2), K (XXZ K1, K2,
    theta=2 only) or J (bilinear-biquadratic J1, J2, theta=3 only) to
    canonical form; this is the one reader of a mode string.

    Returns (L1, L2, shift) where the original Hamiltonian equals the
    canonical one plus shift * C(n,2) * id; the shift is reported, never
    applied.  Any other mode, and K or J at another theta, raise ValueError.
    """
    if mode == "L":
        return float(p1), float(p2), 0.0
    if mode == "K":
        if theta not in (None, 2):
            raise ValueError("XXZ parameterization requires theta=2")
        return (p1 + p2) / 4.0, (p1 - p2) / 4.0, p1 / 4.0
    if mode == "J":
        if theta not in (None, 3):
            raise ValueError("bilinear-biquadratic parameterization requires theta=3")
        return float(p1), float(p2 - p1), -float(p2)
    raise ValueError(f"unknown parameter mode {mode!r}")


# ---------------------------------------------------------------------------
# spectral lines and partition functions

@dataclass(frozen=True)
class LineTable:
    """The coupling-independent data of the positive lines (lambda, k, rho).

    The lines as index arrays (branching.LineIndex), the weight table of
    their distinct lambda (with their d_O), plus the float arrays the line
    sum reads: log(b d_Sn), c(rho) and c(lambda) + k(1 - theta) per line.
    """

    lines: branching.LineIndex
    weights: WeightTable
    log_weight: np.ndarray
    c_rho: np.ndarray
    c_lam: np.ndarray

    def __post_init__(self):
        for a in (self.log_weight, self.c_rho, self.c_lam):
            a.setflags(write=False)  # the table is cached and shared

    def rows(self) -> Iterator[Tuple[LambdaRhoPair, int, int, int]]:
        """(pair, b, d_O, d_Sn) per line, in enumeration order, built on
        demand."""
        lines, d_o = self.lines, self.weights.dims
        d_sn = [dim_sn(rho) for rho in lines.rhos]
        return ((pair, b, d_o[l], d_sn[r]) for (pair, b), r, l in
                zip(lines.pairs(), lines.rho_index.tolist(), lines.lam_index.tolist()))


def build_line_table(lines: branching.LineIndex, theta: int) -> LineTable:
    """The line table of the lines of a LineIndex, in their order.  The
    weights with d_O, d_Sn and the content sums are computed once per
    distinct lambda and rho, log(b d_Sn) once per distinct (rho, b), and
    the index arrays spread them over the lines."""
    rho_index, lam_index, b = lines.rho_index, lines.lam_index, lines.b
    d_sn = [dim_sn(rho) for rho in lines.rhos]
    base = int(b.max()) + 1
    rho_b, inverse = np.unique(rho_index * base + b, return_inverse=True)
    log_weight = np.array([math.log(bi * d_sn[r])
                           for r, bi in zip(*(a.tolist() for a in np.divmod(rho_b, base)))])
    ks = np.array([(lines.n - lam.size) // 2 for lam in lines.lams], dtype=np.int64)
    c_lam = np.array([content_sum(lam) for lam in lines.lams], dtype=np.int64) + (1 - theta) * ks
    return LineTable(
        lines, weight_table(lines.lams, theta),
        log_weight=log_weight[inverse],
        c_rho=np.array([content_sum(rho) for rho in lines.rhos], dtype=float)[rho_index],
        c_lam=c_lam.astype(float)[lam_index],
    )


@lru_cache(maxsize=32)
def line_table(n: int, theta: int) -> LineTable:
    """The line table of branching.positive_lines(n, theta), built once per
    size."""
    return build_line_table(branching.positive_lines(n, theta), theta)


def table_eigenvalues(table: LineTable, L1: float, L2: float) -> np.ndarray:
    """line_eigenvalue on every line of table; ValueError when a coupling is
    not finite or the couplings overflow an eigenvalue."""
    with np.errstate(over="ignore", invalid="ignore"):
        energies = line_eigenvalue(table.c_rho, table.c_lam, L1, L2)
    if not np.all(np.isfinite(energies)):
        raise ValueError(f"L1={L1!r}, L2={L2!r} overflow the line eigenvalues")
    return energies


def spectral_lines(n: int, theta: int, L1: float, L2: float) -> List[SpectralLine]:
    """One line per (lambda, k, rho) with positive branching coefficient;
    ValueError when a coupling is not finite or an eigenvalue overflows."""
    table = line_table(n, theta)
    energies = table_eigenvalues(table, L1, L2).tolist()
    return [
        SpectralLine(pair.lam, pair.k, pair.rho, e, d_o * b * d_sn)
        for (pair, b, d_o, d_sn), e in zip(table.rows(), energies)
    ]


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) with the largest term factored out."""
    top = float(np.max(a))
    return top + math.log(float(np.sum(np.exp(a - top))))


def _z_from_log(log_z: float, **couplings: float) -> float:
    """exp(log Z); ValueError when Z is not a positive finite double, naming
    the couplings when they overflow log Z to nan."""
    if math.isnan(log_z):
        named = ", ".join(f"{name}={value!r}" for name, value in couplings.items())
        raise ValueError(f"{named} overflow log Z")
    z = math.exp(log_z) if log_z <= _LOG_DOUBLE_MAX else math.inf
    if not 0.0 < z < math.inf:
        raise ValueError(f"Z is outside the double range: log Z = {log_z!r}")
    return z


def z_direct(spec: HamiltonianSpec) -> float:
    """tr[exp(-H0/n) exp(h sum_x W_x)] from the dense joint spectrum, with
    W = default_w(theta).

    The field couples per site (not divided by n).  H0 = -(L1 sum T + L2
    sum B) is read off joint_spectrum, which solves each reduced block of
    the torus basis once per size: a call is one log-sum over the distinct
    (t, b) of every block of log(multiplicity) + (L1 t + L2 b)/n, with no
    eigensolve after the first call per (n, delta), delta from
    brauer.specialise.  On the sector of charges q, exp(h sum_x W_x) is the
    scalar exp(h q_1) (torus weights y = (1, 0, ..., 0)), so every h reuses
    the same spectrum.  A block of a +-q pair of sectors enters with the
    weight log(exp(h q_1) + exp(-h q_1)); the F-even and F-odd halves of
    q = 0 each enter with weight 1.
    ValueError when require_field refuses the field (flavor P at odd theta
    >= 5, as in z_decomposed), when the couplings overflow a block's
    eigenvalues or log Z, or when the joint spectrum fails its checks.
    """
    _check_cap(spec.theta, spec.n)
    require_field(spec.theta, spec.flavor, spec.h)
    delta, _ = specialise(spec.theta, spec.flavor)
    joint = joint_spectrum(spec.n, delta)
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = (spec.L1 * joint.t + spec.L2 * joint.b) / spec.n
        if not np.all(np.isfinite(exponents)):
            raise ValueError(f"L1={spec.L1!r}, L2={spec.L2!r} overflow the dense blocks")
        fields = np.array([_logsumexp(spec.h * q[:, 0]) for q in joint.charges])
        log_z = _logsumexp(fields[joint.block] + joint.log_mult + exponents)
    return _z_from_log(log_z, L1=spec.L1, L2=spec.L2, h=spec.h)


def z_decomposed(n: int, theta: int, L1: float, L2: float, h: float = 0.0,
                 flavor: str = "Q") -> float:
    """Character-sum partition function over the positive branching lines.

    Each line contributes chi_lam(exp(hW)) * b * dim_sn(rho) * exp(-E/n),
    W = default_w(theta), with the character replaced by the plain
    dimension at h = 0; the sum runs in the log domain over
    line_table(n, theta), whose weight table gives every log-character in
    one step.  The lines are those of flavor Q, which is unitarily
    equivalent to P at odd theta; at theta = 2, P = 1 - T gives
    Z_P(L1, L2) = exp(L2 (n-1)/2) Z_Q(L1-L2, 0), and P at even theta >= 4
    has no lines here.  Raises ValueError for an unknown flavor, when a
    coupling is not finite, when require_field refuses the field (flavor P
    at odd theta >= 5, where W breaks P's form and Q's lines do not
    apply; z_direct refuses it too), or when Z is not a positive finite
    double (naming the couplings when they overflow log Z).
    """
    _, signed = specialise(theta, flavor)
    require_finite(L1=L1, L2=L2, h=h)
    require_field(theta, flavor, h)
    couplings = dict(L1=L1, L2=L2, h=h)
    log_shift = 0.0
    if signed:
        if theta != 2:
            raise ValueError("character route covers flavor P only at odd theta and theta=2")
        log_shift, L1, L2 = L2 * (n - 1) / 2, L1 - L2, 0.0
    table = line_table(n, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        exponents = (table.weights.log_chars(h)[table.lines.lam_index] + table.log_weight
                     - line_eigenvalue(table.c_rho, table.c_lam, L1, L2) / n)
        log_z = log_shift + _logsumexp(exponents)
    return _z_from_log(log_z, **couplings)


def total_spin_observable(n: int, theta: int, L1: float, L2: float, h: float,
                          flavor: str = "Q") -> float:
    """<exp((h/n) sum_x W_x)> computed by dense trace and by the
    character-weighted line sum; the two must agree to TOTAL_SPIN_TOL
    (AssertionError otherwise)."""
    if theta not in (2, 3):
        raise ValueError("total spin observable implemented for theta in {2,3}")
    require_size(theta, n)
    dense = (z_direct(HamiltonianSpec(theta, n, L1, L2, h=h / n, flavor=flavor))
             / z_direct(HamiltonianSpec(theta, n, L1, L2, flavor=flavor)))
    decomposed = (z_decomposed(n, theta, L1, L2, h / n, flavor=flavor)
                  / z_decomposed(n, theta, L1, L2, flavor=flavor))
    if abs(dense - decomposed) > TOTAL_SPIN_TOL * max(1.0, abs(dense)):
        raise AssertionError(
            f"total-spin routes disagree: dense={dense!r}, lines={decomposed!r}"
        )
    return dense


def total_spin_limit(theta: int, h: float, y1star: float) -> float:
    """cosh(h y1*) for theta=2 and sinh(h y1*)/(h y1*) for theta=3."""
    if theta == 2:
        return math.cosh(h * y1star)
    if theta == 3:
        x = h * y1star
        if x == 0.0:
            return 1.0
        return math.sinh(x) / x
    raise ValueError("total spin limit defined for theta in {2,3}")


# ---------------------------------------------------------------------------
# ground states

def _pair_vector(theta: int, flavor: str) -> np.ndarray:
    """sum_a |a,a> for flavor Q; the signed singlet sum_i (-1)^i |i,theta-1-i>
    for flavor P, theta odd (a symmetric form, brauer.specialise)."""
    if specialise(theta, flavor)[1]:
        raise ValueError("signed singlet requires odd theta (integer spin labels)")
    return pair_form(theta, flavor).ravel()


def dimer_ground_state(n: int, theta: int, flavor: str = "Q") -> np.ndarray:
    """Sum over all pairings of the vertices of the product of pair vectors."""
    if n % 2 != 0:
        raise ValueError("dimer state needs even n")
    _check_cap(theta, n)
    u = _pair_vector(theta, flavor)
    N = theta**n
    v = np.zeros(N)
    for matching in perfect_matchings(list(range(1, n + 1))):
        # accumulate amplitudes pair by pair over all theta^(n/2) assignments
        amps = {0: 1.0}
        for (x, y) in matching:
            px, py = theta ** (n - x), theta ** (n - y)
            new_amps: dict = {}
            for base, amp in amps.items():
                for a in range(theta):
                    for b in range(theta):
                        c = u[a * theta + b]
                        if c == 0.0:
                            continue
                        key = base + a * px + b * py
                        new_amps[key] = new_amps.get(key, 0.0) + amp * c
            amps = new_amps
        for idx, amp in amps.items():
            v[idx] += amp
    return v


def ising_product_states(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The two theta=2 product states (|1/2> +- i|-1/2>)^(x) n."""
    plus = np.array([1.0, 1j])
    minus = np.array([1.0, -1j])
    vp = np.array([1.0 + 0j])
    vm = np.array([1.0 + 0j])
    for _ in range(n):
        vp = np.kron(vp, plus)
        vm = np.kron(vm, minus)
    return vp, vm
