"""Brauer-algebra diagrams, loop-counted multiplication, and the two tensor
representations (bar -> Q projector, bar -> P signed singlet).

Points of a size-n diagram are the 2n integers +1..+n (top row) and -1..-n
(bottom row).  A diagram is a perfect matching stored canonically as a
sorted tuple of sorted pairs.  multiply(d1, d2) stacks d1 on top of d2
(matrix convention: represent(d1) @ represent(d2) corresponds to d1*d2) and
returns the concatenated diagram together with the number of closed middle
loops; the scalar theta**loops is applied by callers, since theta is a
parameter of the algebra rather than of the diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

Point = int  # +i for top point i, -i for bottom point i (1-based)
HOMOMORPHISM_TOL = 1e-12  # largest entry error verify_homomorphism accepts


def _point_key(p: Point) -> Tuple[int, int]:
    # tops before bottoms, each in index order
    return (0, p) if p > 0 else (1, -p)


@dataclass(frozen=True)
class BrauerDiagram:
    n: int
    edges: Tuple[Tuple[Point, Point], ...]

    def __init__(self, n: int, edges: Sequence[Tuple[Point, Point]]):
        pts = set()
        canon = []
        for a, b in edges:
            if a == b or not (1 <= abs(a) <= n and 1 <= abs(b) <= n):
                raise ValueError(f"bad edge ({a},{b}) for n={n}")
            pair = tuple(sorted((a, b), key=_point_key))
            canon.append(pair)
            pts.update(pair)
        if len(pts) != 2 * n or len(canon) != n:
            raise ValueError("edges do not form a perfect matching")
        canon.sort(key=lambda e: _point_key(e[0]))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))

    def __repr__(self) -> str:
        return f"BrauerDiagram({self.n}, {format_diagram(self)!r})"


def format_diagram(d: BrauerDiagram) -> str:
    """Debug format "1+:3+ 2+:2- 1-:3-"."""

    def fmt(p: Point) -> str:
        return f"{abs(p)}{'+' if p > 0 else '-'}"

    return " ".join(f"{fmt(a)}:{fmt(b)}" for a, b in d.edges)


def identity(n: int) -> BrauerDiagram:
    return BrauerDiagram(n, [(i, -i) for i in range(1, n + 1)])


def transposition(n: int, x: int, y: int) -> BrauerDiagram:
    if not (1 <= x < y <= n):
        raise ValueError(f"need 1 <= x < y <= n, got ({x},{y})")
    edges = [(x, -y), (y, -x)]
    edges += [(i, -i) for i in range(1, n + 1) if i not in (x, y)]
    return BrauerDiagram(n, edges)


def bar(n: int, x: int, y: int) -> BrauerDiagram:
    if not (1 <= x < y <= n):
        raise ValueError(f"need 1 <= x < y <= n, got ({x},{y})")
    edges = [(x, y), (-x, -y)]
    edges += [(i, -i) for i in range(1, n + 1) if i not in (x, y)]
    return BrauerDiagram(n, edges)


def multiply(d1: BrauerDiagram, d2: BrauerDiagram) -> Tuple[BrauerDiagram, int]:
    """Concatenate with d1 on top of d2; middle row removed.

    Middle node m joins d1's bottom point -m with d2's top point +m.  The
    union of both diagrams' edges then falls apart into paths between two
    outer points, the edges of the product, and closed middle loops, the
    components without an outer point.  Returns (product diagram, loops).
    """
    if d1.n != d2.n:
        raise ValueError("size mismatch")
    n = d1.n
    # nodes: d1's top points 0..n-1, d2's bottom points n..2n-1, middle 2n..3n-1
    parent = list(range(3 * n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    mid = 2 * n - 1
    for d, top, bottom in ((d1, -1, mid), (d2, mid, n - 1)):
        for a, b in d.edges:
            ra = find(top + a if a > 0 else bottom - a)
            parent[ra] = find(top + b if b > 0 else bottom - b)
    components: Dict[int, List[Point]] = {}
    for i in range(3 * n):
        outer = components.setdefault(find(i), [])
        if i < 2 * n:
            outer.append(i + 1 if i < n else n - 1 - i)
    edges = [tuple(c) for c in components.values() if c]
    return BrauerDiagram(n, edges), len(components) - len(edges)


def perfect_matchings(items: Sequence[Point]) -> Iterator[List[Tuple[Point, Point]]]:
    """Every pairing of items: the first item with each later one in turn,
    then the pairings of what is left."""
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = list(items[1:i]) + list(items[i + 1 :])
        for sub in perfect_matchings(rest):
            yield [(first, items[i])] + sub


def all_diagrams(n: int) -> Iterator[BrauerDiagram]:
    """All (2n-1)!! perfect matchings on the 2n points."""
    points = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
    for edges in perfect_matchings(points):
        yield BrauerDiagram(n, edges)


def random_diagram(n: int, rng: np.random.Generator) -> BrauerDiagram:
    points = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
    perm = rng.permutation(2 * n)
    shuffled = [points[i] for i in perm]
    edges = [(shuffled[2 * i], shuffled[2 * i + 1]) for i in range(n)]
    return BrauerDiagram(n, edges)


# ---------------------------------------------------------------------------
# tensor-space representations

def pair_t_matrix(theta: int) -> np.ndarray:
    """Transposition operator on C^theta (x) C^theta: T|a,b> = |b,a>."""
    t = np.zeros((theta * theta, theta * theta))
    for a in range(theta):
        for b in range(theta):
            t[b * theta + a, a * theta + b] = 1.0
    return t


def pair_form(theta: int, flavor: str) -> np.ndarray:
    """The bilinear form J of the flavor's pair vector sum_ab J_ab |a,b>:
    the identity for Q, J_{i,theta-1-i} = (-1)^i for P."""
    if flavor == "Q":
        return np.eye(theta)
    return np.fliplr(np.diag((-1.0) ** np.arange(theta)))


def pair_q_matrix(theta: int) -> np.ndarray:
    """<a,a'|Q|b,b'> = delta_{a,a'} delta_{b,b'}: rank-one projector times theta."""
    u = pair_form(theta, "Q").ravel()
    return np.outer(u, u)


def pair_p_matrix(theta: int) -> np.ndarray:
    """<a,a'|P|b,b'> = (-1)^{a-b} delta_{a,-a'} delta_{b,-b'} in spin labels.

    Spin labels run a = S, S-1, ..., -S with S = (theta-1)/2; basis index i
    corresponds to a = S - i, so -a sits at index theta-1-i and the sign
    (-1)^{a-b} becomes (-1)^{i-j} on index pairs.
    """
    u = pair_form(theta, "P").ravel()
    return np.outer(u, u)


def _perm_indices(sigma: Sequence[int], theta: int, n: int) -> np.ndarray:
    """Index map of the place permutation sending bottom slot x to top slot
    sigma(x): out digit at sigma(x) equals in digit at x (1-based sigma)."""
    N = theta**n
    idx = np.arange(N)
    digits = np.empty((N, n), dtype=np.int64)
    rem = idx.copy()
    for pos in range(n - 1, -1, -1):
        digits[:, pos] = rem % theta
        rem //= theta
    out_digits = np.empty_like(digits)
    for x in range(1, n + 1):
        out_digits[:, sigma[x - 1] - 1] = digits[:, x - 1]
    out = np.zeros(N, dtype=np.int64)
    for pos in range(n):
        out = out * theta + out_digits[:, pos]
    return out


def perm_matrix(sigma: Sequence[int], theta: int, n: int) -> np.ndarray:
    out = _perm_indices(sigma, theta, n)
    N = theta**n
    m = np.zeros((N, N))
    m[out, np.arange(N)] = 1.0
    return m


def embed_pair(op2: np.ndarray, theta: int, n: int, x: int, y: int) -> np.ndarray:
    """Embed a two-site operator at sites x < y (1-based) of the n-fold space."""
    N = theta**n
    idx = np.arange(N)
    px, py = theta ** (n - x), theta ** (n - y)
    dx = (idx // px) % theta
    dy = (idx // py) % theta
    rest = idx - dx * px - dy * py
    out = np.zeros((N, N), dtype=op2.dtype)
    for ax in range(theta):
        for ay in range(theta):
            col = op2[:, ax * theta + ay]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            sel = np.nonzero((dx == ax) & (dy == ay))[0]
            if sel.size == 0:
                continue
            for row in nz:
                bx, by = divmod(int(row), theta)
                out[rest[sel] + bx * px + by * py, sel] += col[row]
    return out


def represent(d: BrauerDiagram, theta: int, flavor: str = "Q") -> np.ndarray:
    """Matrix of the diagram on (C^theta)^(x) n.

    The diagram is factored as sigma * E * tau with sigma, tau permutations
    and E a product of bars at positions (1,2), (3,4), ...; only generator
    actions are defined directly, and homomorphism tests certify that the
    result is independent of the factorization.
    """
    if flavor not in ("Q", "P"):
        raise ValueError(f"unknown flavor {flavor!r}")
    n = d.n
    top_bars = [(a, b) for a, b in d.edges if a > 0 and b > 0]
    bottom_bars = [(-a, -b) for a, b in d.edges if a < 0 and b < 0]
    through = [(a, -b) for a, b in d.edges if a > 0 and b < 0]
    k = len(top_bars)

    sigma = [0] * n  # sigma[pos-1] = value
    tau = [0] * n
    for i, (a, b) in enumerate(top_bars):
        sigma[2 * i] = a
        sigma[2 * i + 1] = b
    for i, (c, e) in enumerate(bottom_bars):
        tau[c - 1] = 2 * i + 1
        tau[e - 1] = 2 * i + 2
    for j, (t, u) in enumerate(through):
        sigma[2 * k + j] = t
        tau[u - 1] = 2 * k + j + 1

    bar2 = pair_q_matrix(theta) if flavor == "Q" else pair_p_matrix(theta)
    mat = perm_matrix(sigma, theta, n)
    for i in range(k):
        mat = mat @ embed_pair(bar2, theta, n, 2 * i + 1, 2 * i + 2)
    return mat @ perm_matrix(tau, theta, n)


def verify_homomorphism(
    n: int,
    theta: int,
    samples: int,
    flavor: str = "Q",
    seed: int = 0,
    exhaustive: bool = False,
) -> dict:
    """Check represent(d1) @ represent(d2) == theta**loops * represent(d1 d2)
    to HOMOMORPHISM_TOL in the largest entry.

    Returns a report dict; the first failing pair, if any, is recorded.
    """
    rng = np.random.default_rng(seed)
    if exhaustive:
        diagrams = list(all_diagrams(n))
        pairs = [(d1, d2) for d1 in diagrams for d2 in diagrams]
    else:
        pairs = [
            (random_diagram(n, rng), random_diagram(n, rng)) for _ in range(samples)
        ]
    worst = 0.0
    for d1, d2 in pairs:
        lhs = represent(d1, theta, flavor) @ represent(d2, theta, flavor)
        prod, loops = multiply(d1, d2)
        rhs = float(theta) ** loops * represent(prod, theta, flavor)
        err = float(np.max(np.abs(lhs - rhs)))
        worst = max(worst, err)
        if err > HOMOMORPHISM_TOL:
            return {
                "ok": False,
                "pairs_checked": len(pairs),
                "max_error": err,
                "failing_pair": (format_diagram(d1), format_diagram(d2)),
            }
    return {"ok": True, "pairs_checked": len(pairs), "max_error": worst}
