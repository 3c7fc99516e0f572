import math

import pytest

from orthospin.group_chars import (
    FieldDirection,
    char_o_field,
    char_ratio_o,
    char_so_tableau_sum,
    dim_gl,
    dim_o,
    dim_so,
    ortho_char_det,
)
from orthospin.group_chars import _group_eigenvalues
from orthospin.partitions import (
    EMPTY,
    Partition,
    admissible_lambda,
    column_flip,
    enumerate_lambda_rho,
    enumerate_partitions,
    transpose,
)
from orthospin.tableaux import dim_sn


def test_dim_so_examples():
    assert dim_so(EMPTY, 3) == 1
    assert dim_so(Partition([2]), 3) == 5
    assert dim_so(Partition([1]), 4) == 4
    assert dim_so(Partition([1]), 5) == 5
    assert dim_so(Partition([1, 1]), 5) == 10


def test_dim_so_errors():
    with pytest.raises(ValueError):
        dim_so(Partition([1, 1]), 3)


def test_dim_o_examples():
    assert dim_o(Partition([1, 1]), 2) == 1
    for a in range(1, 6):
        assert dim_o(Partition([a]), 2) == 2
    assert dim_o(EMPTY, 2) == 1
    assert dim_o(Partition([2, 1]), 3) == dim_so(column_flip(Partition([2, 1]), 3), 3) == 5
    # even theta with exactly theta/2 nonzero rows doubles
    assert dim_o(Partition([1, 1]), 4) == 2 * dim_so(Partition([1, 1]), 4) == 6


def test_dim_o_flip_invariance():
    for theta in (2, 3, 4, 5):
        for n in range(0, 7):
            for lam in enumerate_partitions(n, theta):
                cols = transpose(lam)
                if cols[0] + cols[1] > theta:
                    continue
                assert dim_o(lam, theta) == dim_o(column_flip(lam, theta), theta)


def test_dim_gl_examples():
    for theta in (2, 3, 5):
        assert dim_gl(Partition([1]), theta) == theta
    assert dim_gl(Partition([2]), 2) == 3
    assert dim_gl(Partition([2, 1]), 3) == 8


def test_gl_schur_weyl_dimension_identity():
    for theta in (2, 3, 4):
        for n in range(1, 11):
            total = sum(
                dim_gl(rho, theta) * dim_sn(rho)
                for rho in enumerate_partitions(n, theta)
            )
            assert total == theta**n


def test_char_examples():
    for theta in (2, 3, 5):
        assert char_o_field(EMPTY, theta, 0.7) == pytest.approx(1.0)
    assert char_o_field(Partition([3]), 2, 0.0) == pytest.approx(2.0)
    expect = sum(math.exp(j) for j in range(-2, 3))
    assert char_o_field(Partition([2]), 3, 1.0) == pytest.approx(expect)
    # theta=2 closed forms
    a, h = 4, 0.3
    assert char_o_field(Partition([a]), 2, h) == pytest.approx(
        math.exp(h * a) + math.exp(-h * a)
    )
    assert char_o_field(Partition([1, 1]), 2, h) == pytest.approx(1.0)


def test_char_at_identity_equals_dimension_exactly():
    for theta in (2, 3, 4, 5):
        for n in range(1, 9):
            for pair in enumerate_lambda_rho(n, theta):
                lam = pair.lam
                assert char_o_field(lam, theta, 0.0) == dim_o(lam, theta), (theta, lam)


def test_char_tableau_sum_cross_check():
    for theta in (3, 5):
        r = theta // 2
        direction = FieldDirection(theta, tuple([1.0] + [0.4] * (r - 1)))
        for n in range(0, 6):
            for lam in enumerate_partitions(n, r):
                for h in (0.0, 0.35, 1.2):
                    a = char_so_tableau_sum(lam, theta, h, direction)
                    b = char_o_field(lam, theta, h, direction)
                    assert a == pytest.approx(b, rel=1e-10), (theta, lam, h)


def test_theta3_closed_form_matches_the_determinant():
    # every theta=3 label is a one-row label (a) or its column flip
    labels = [lam for size in range(13) for lam in enumerate_partitions(size, 3)
              if admissible_lambda(lam, 3)]
    assert {(1, 1), (1, 1, 1), (5, 1)} <= {lam.parts for lam in labels}
    for lam in labels:
        assert char_o_field(lam, 3, 0.0) == dim_o(lam, 3)
        for w in (1.0, 0.4):
            direction = FieldDirection(3, (w,))
            for h in (-1.2, 0.35, 1.2):
                det = ortho_char_det(lam, _group_eigenvalues(3, h, direction))
                assert char_o_field(lam, 3, h, direction) == pytest.approx(det, rel=1e-12)


def test_weyl_dimension_bound():
    for theta in (2, 3, 4, 5):
        r = theta // 2
        for n in range(1, 9):
            for lam in enumerate_partitions(n, r):
                assert dim_so(lam, theta) <= (2 * n) ** (6 * r)


def test_char_ratio_examples():
    assert char_ratio_o(Partition([4]), 2, 0.0) == 1.0
    assert char_ratio_o(Partition([4]), 3, 0.0) == 1.0
    assert char_ratio_o(Partition([3]), 2, 0.2) == pytest.approx(math.cosh(0.6))
    # asymptotic: lam_1/n = 0.5, h=1 -> sinh(h/2)/(h/2)
    n = 10**4
    val = char_ratio_o(Partition([n // 2]), 3, 1.0 / n)
    assert abs(val - math.sinh(0.5) / 0.5) < 1e-3
    # consistency with the exact character at moderate size
    lam, t = Partition([6]), 0.05
    exact = char_o_field(lam, 3, t) / dim_o(lam, 3)
    assert char_ratio_o(lam, 3, t) == pytest.approx(exact, rel=1e-12)


def test_char_ratio_theta2_exceptional():
    assert char_ratio_o(EMPTY, 2, 0.7) == 1.0
    assert char_ratio_o(Partition([1, 1]), 2, 0.7) == 1.0
    with pytest.raises(ValueError):
        char_ratio_o(Partition([2]), 4, 0.1)
