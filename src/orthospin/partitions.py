"""Integer partitions and Young-diagram combinatorics.

Partitions index everything downstream: symmetric-group irreducibles,
orthogonal / general-linear highest weights, and Brauer-algebra cells.
The canonical storage trims trailing zeros so that structural equality
is partition equality, and enumeration order is reverse lexicographic
so CSV output and test fixtures are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of non-negative integers, zeros trimmed."""

    parts: Tuple[int, ...]

    def __init__(self, parts: Sequence[int] = ()):
        tup = tuple(int(p) for p in parts)
        while tup and tup[-1] == 0:
            tup = tup[:-1]
        if any(p < 0 for p in tup):
            raise ValueError(f"negative part in {tup}")
        if any(tup[i] < tup[i + 1] for i in range(len(tup) - 1)):
            raise ValueError(f"parts not weakly decreasing: {tup}")
        object.__setattr__(self, "parts", tup)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        """Row length, zero-padded beyond the last row."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def __bool__(self) -> bool:
        return bool(self.parts)

    def contains(self, other: "Partition") -> bool:
        """Containment of Young diagrams: other[i] <= self[i] for all i."""
        return all(other[i] <= self[i] for i in range(len(other)))

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


EMPTY = Partition(())


def format_partition(p: Partition) -> str:
    """Textual notation used in CLI output and CSV columns: "[5,5,3,1]"."""
    return "[" + ",".join(str(x) for x in p.parts) + "]"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    text = text.strip()
    if not text:
        return EMPTY
    return Partition(tuple(int(tok) for tok in text.split(",")))


def transpose(p: Partition) -> Partition:
    """Column-length partition (conjugate diagram).

    Built from run lengths: the columns past the end of row m+1 and up to
    the end of row m (1-based) all have length m.  The conjugate of a
    partition is a partition, so the result skips the constructor's checks.
    """
    parts = p.parts
    cols: List[int] = []
    for m in range(len(parts), 0, -1):
        below = parts[m] if m < len(parts) else 0
        cols += [m] * (parts[m - 1] - below)
    return _trusted(tuple(cols))


def _trusted(parts: Tuple[int, ...]) -> Partition:
    """A Partition from parts known to be valid, skipping the checks."""
    out = object.__new__(Partition)
    object.__setattr__(out, "parts", parts)
    return out


def content_sum(p: Partition) -> int:
    """Sum over boxes of (column - row), rows and columns 1-based.

    A box in row i (0-based) at column j (0-based) has content j - i.
    """
    total = 0
    for i, row in enumerate(p.parts):
        total += row * (row - 1) // 2 - i * row
    return total


def first_two_columns(p: Partition) -> Tuple[int, int]:
    """(t1, t2): the lengths of the first two columns of p, zero when absent.

    t1 counts the rows, t2 the rows of length at least two.
    """
    return len(p.parts), sum(1 for row in p.parts if row > 1)


def column_flip(p: Partition, theta: int) -> Partition:
    """Replace the first column length t1 by theta - t1, keep the rest.

    Requires t1 + t2 <= theta so the result is a partition.  The map is
    an involution and implements the determinant twist on orthogonal
    highest weights.  Read on rows: the t2 rows longer than one stay, and
    theta - t1 - t2 rows of length one follow them.
    """
    t1, t2 = first_two_columns(p)
    if t1 + t2 > theta:
        raise ValueError(
            f"column_flip undefined: first two columns {t1}+{t2} exceed theta={theta}"
        )
    return _trusted(p.parts[:t2] + (1,) * (theta - t1 - t2))


def partition_tuples(n: int, max_parts: int) -> Iterator[Tuple[int, ...]]:
    """Parts of every partition of n with at most max_parts parts, reverse
    lexicographic.

    A part below ceil(remaining / slots) would leave more than the later,
    smaller parts can hold, so the recursion never tries one.
    """
    if n < 0 or max_parts < 0:
        raise ValueError("n and max_parts must be non-negative")

    def rec(remaining: int, max_part: int, slots: int, prefix: Tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if slots == 0:
            return
        for part in range(min(remaining, max_part), -(-remaining // slots) - 1, -1):
            yield from rec(remaining - part, part, slots - 1, prefix + (part,))

    return rec(n, n, max_parts, ())


def enumerate_partitions(n: int, max_parts: int) -> List[Partition]:
    """All partitions of n with at most max_parts parts, reverse lexicographic."""
    return [_trusted(parts) for parts in partition_tuples(n, max_parts)]


def partitions_inside(rho: Partition, parity: int) -> Iterator[Partition]:
    """Every partition mu inside rho (mu_i <= rho_i) with |mu| = parity
    (mod 2), rows chosen top down."""

    def rec(i: int, cap: int, size: int, prefix: Tuple[int, ...]):
        if size % 2 == parity:
            yield _trusted(prefix)
        if i < len(rho.parts):
            for part in range(min(cap, rho.parts[i]), 0, -1):
                yield from rec(i + 1, part, size + part, prefix + (part,))

    return rec(0, rho[0], 0, ())


def enumerate_even_partitions(m: int, max_parts: int) -> List[Partition]:
    """All partitions of m with every part even and at most max_parts parts."""
    if m % 2 != 0:
        raise ValueError(f"even partitions require even size, got {m}")
    halves = enumerate_partitions(m // 2, max_parts)
    return [Partition(tuple(2 * x for x in h.parts)) for h in halves]


@dataclass(frozen=True)
class LambdaRhoPair:
    """A pair (lambda, rho) with defect k, lambda.size + 2k = rho.size.

    Enumeration only produces k >= 0; the recurrence reduction may
    produce pairs with k < 0, which carry branching coefficient zero.
    """

    lam: Partition
    k: int
    rho: Partition

    def __post_init__(self):
        if self.lam.size + 2 * self.k != self.rho.size:
            raise ValueError(
                f"size mismatch: |lam|={self.lam.size}, k={self.k}, |rho|={self.rho.size}"
            )

    def __repr__(self) -> str:
        return (
            f"LambdaRhoPair({format_partition(self.lam)}, k={self.k}, "
            f"{format_partition(self.rho)})"
        )


def _trusted_pair(lam: Partition, k: int, rho: Partition) -> LambdaRhoPair:
    """A LambdaRhoPair known to satisfy |lam| + 2k = |rho|, skipping the check."""
    out = object.__new__(LambdaRhoPair)
    object.__setattr__(out, "lam", lam)
    object.__setattr__(out, "k", k)
    object.__setattr__(out, "rho", rho)
    return out


def admissible_lambda(lam: Partition, theta: int) -> bool:
    """First two columns of lambda sum to at most theta."""
    return sum(first_two_columns(lam)) <= theta


def line_invariants(pair: LambdaRhoPair, theta: int) -> Tuple[int, int]:
    """(c(rho), c(lambda) + k(1 - theta)): the two integers that fix the
    eigenvalue of the line (lambda, k, rho) at every coupling."""
    return content_sum(pair.rho), content_sum(pair.lam) + pair.k * (1 - theta)


def enumerate_lambda_rho(n: int, theta: int) -> List[LambdaRhoPair]:
    """All pairs (lambda, k, rho): lambda |- n-2k with first two columns
    summing to <= theta, rho |- n with at most theta rows.
    """
    if n < 1 or theta < 2:
        raise ValueError("need n >= 1 and theta >= 2")
    rhos = enumerate_partitions(n, theta)
    lams: List[Tuple[Partition, int]] = []
    for k in range(n // 2 + 1):
        for lam in enumerate_partitions(n - 2 * k, theta):
            if admissible_lambda(lam, theta):
                lams.append((lam, k))
    return [LambdaRhoPair(lam, k, rho) for rho in rhos for (lam, k) in lams]
