import itertools
import math
import random

from orthospin.partitions import EMPTY, Partition, enumerate_partitions
from orthospin.tableaux import cell_branching, dim_sn, lr_coefficient


def brute_syt_count(shape):
    """Count standard tableaux by filling 1..n in all ways (oracle)."""
    rows = shape.parts
    n = sum(rows)
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    count = 0

    def fill(k, grid):
        nonlocal count
        if k > n:
            count += 1
            return
        for (i, j) in cells:
            if grid.get((i, j)) is not None:
                continue
            if j > 0 and grid.get((i, j - 1)) is None:
                continue
            if i > 0 and grid.get((i - 1, j)) is None:
                continue
            grid[(i, j)] = k
            fill(k + 1, grid)
            del grid[(i, j)]

    fill(1, {})
    return count


def brute_lr(lam, pi, rho):
    """LR coefficient by generating all weight-pi column-strict skew
    fillings and checking the lattice word afterwards (oracle: different
    enumeration order and a non-incremental ballot check)."""
    if lam.size + pi.size != rho.size or not rho.contains(lam):
        return 0
    cells = [
        (r, c) for r in range(len(rho)) for c in range(lam[r], rho[r])
    ]
    nvals = len(pi)
    count = 0
    for values in itertools.product(range(1, nvals + 1), repeat=len(cells)):
        grid = dict(zip(cells, values))
        if any(values.count(v) != pi[v - 1] for v in range(1, nvals + 1)):
            continue
        ok = True
        for (r, c), v in grid.items():
            if (r, c + 1) in grid and grid[(r, c + 1)] < v:
                ok = False
                break
            if (r - 1, c) in grid and grid[(r - 1, c)] >= v:
                ok = False
                break
        if not ok:
            continue
        word = []
        for r in range(len(rho)):
            for c in range(rho[r] - 1, lam[r] - 1, -1):
                word.append(grid[(r, c)])
        counts = [0] * (nvals + 1)
        for v in word:
            counts[v] += 1
            if v >= 2 and counts[v] > counts[v - 1]:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_dim_sn_examples():
    assert dim_sn(Partition([7])) == 1
    assert dim_sn(Partition([2, 1])) == 2
    assert dim_sn(Partition([2, 2])) == 2
    assert dim_sn(EMPTY) == 1


def test_dim_sn_brute_force():
    for n in range(1, 7):
        for rho in enumerate_partitions(n, n):
            assert dim_sn(rho) == brute_syt_count(rho), rho


def test_dim_sn_squares_sum_to_factorial():
    for n in range(1, 11):
        total = sum(dim_sn(r) ** 2 for r in enumerate_partitions(n, n))
        assert total == math.factorial(n)


def test_lr_examples():
    rho = Partition([3, 2])
    assert lr_coefficient(rho, EMPTY, rho) == 1
    assert lr_coefficient(Partition([2]), Partition([1]), Partition([2, 1])) == 1
    assert lr_coefficient(Partition([1]), Partition([2]), Partition([2, 1])) == 1
    assert lr_coefficient(Partition([2]), Partition([2]), Partition([3])) == 0
    assert lr_coefficient(Partition([3]), Partition([1]), Partition([2, 2])) == 0


def test_lr_commutativity_against_oracle():
    rng = random.Random(0)
    shapes = [p for n in range(0, 5) for p in enumerate_partitions(n, 3)]
    for _ in range(60):
        lam = rng.choice(shapes)
        pi = rng.choice(shapes)
        n = lam.size + pi.size
        for rho in enumerate_partitions(n, 4):
            a = lr_coefficient(lam, pi, rho)
            b = lr_coefficient(pi, lam, rho)
            assert a == b == brute_lr(lam, pi, rho), (lam, pi, rho)


def test_cell_branching_examples():
    lam = Partition([3, 1])
    assert cell_branching(lam, lam) == 1
    # (n,k,i) = (6,2,1): the cell coefficient of ((2), (5,1)) is 1, and the
    # second column of (5,1) is short enough that it is the true branching
    # multiplicity as well
    assert cell_branching(Partition([2]), Partition([5, 1])) == 1
    assert cell_branching(Partition([2]), Partition([3, 3])) == 0
    assert cell_branching(Partition([1]), Partition([3, 2])) == 1


def test_cell_branching_zero_and_errors():
    import pytest

    assert cell_branching(Partition([3]), Partition([2, 2, 1])) == 0  # lam not inside
    assert cell_branching(Partition([2, 2]), Partition([2])) == 0  # lam bigger
    with pytest.raises(ValueError):
        cell_branching(Partition([1]), Partition([2, 2]))


def test_cell_branching_one_column_against_lr_sum():
    # the Pieri shortcut for lam = (1^j) against the sum over even pi
    from orthospin.partitions import enumerate_even_partitions

    for n in range(15):
        for rho in enumerate_partitions(n, n):
            for j in range(n % 2, min(n, len(rho)) + 1, 2):
                lam = Partition([1] * j)
                direct = sum(lr_coefficient(lam, pi, rho)
                             for pi in enumerate_even_partitions(n - j, len(rho)))
                assert cell_branching(lam, rho) == direct, (j, rho)


def test_cell_branching_two_rows_against_lr_sum():
    # the Clebsch-Gordan shortcut for two-row rho against the sum over even
    # pi, lam not inside rho included
    from orthospin.partitions import enumerate_even_partitions

    for n in range(25):
        for rho in enumerate_partitions(n, 2):
            for m in range(n % 2, n + 1, 2):
                for lam in enumerate_partitions(m, 2):
                    direct = sum(lr_coefficient(lam, pi, rho)
                                 for pi in enumerate_even_partitions(n - m, 2))
                    assert cell_branching(lam, rho) == direct, (lam, rho)


def _normalized_skew(lam, rho):
    cells = [
        (r, c) for r in range(len(rho)) for c in range(lam[r], rho[r])
    ]
    if not cells:
        return frozenset()
    r0 = min(r for r, _ in cells)
    c0 = min(c for _, c in cells)
    return frozenset((r - r0, c - c0) for r, c in cells)


def test_cell_branching_depends_only_on_skew_shape():
    groups = {}
    for n in range(2, 7):
        for rho in enumerate_partitions(n, 3):
            for m in range(n % 2, n + 1, 2):
                for lam in enumerate_partitions(m, 3):
                    if not rho.contains(lam):
                        continue
                    key = _normalized_skew(lam, rho)
                    groups.setdefault(key, []).append(cell_branching(lam, rho))
    for key, vals in groups.items():
        assert len(set(vals)) == 1, (key, vals)
