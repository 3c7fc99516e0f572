import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthospin.group_chars import (
    char_o_field,
    char_ratio_o,
    char_so_tableau_sum,
    dim_gl,
    dim_o,
    dim_so,
    weight_table,
)
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


def _labels(theta, max_size):
    return [lam for size in range(max_size + 1) for lam in enumerate_partitions(size, theta)
            if admissible_lambda(lam, theta)]


def test_char_tableau_sum_cross_check():
    # the weights against King's tableau sum, past h = 3 where a float
    # Jacobi-Trudi determinant loses digits to cancellation
    for theta, max_size in ((3, 8), (5, 8), (7, 6)):
        for size in range(max_size + 1):
            for lam in enumerate_partitions(size, theta // 2):
                for h in (0.0, 0.35, 1.2, 3.0, 6.0):
                    a = char_so_tableau_sum(lam, theta, h)
                    got = char_o_field(lam, theta, h)
                    assert got == pytest.approx(a, rel=1e-13, abs=0.0), (theta, lam, h)


def test_both_determinant_forms_match_the_tableau_sum():
    # at theta = 9 labels such as (1,1,1,1) or (2,1,1) take the e-form
    # (lam_1 square) and labels such as (5) or (3,2) the h-form
    for size in range(6):
        for lam in enumerate_partitions(size, 4):
            for h in (0.35, 3.0):
                a = char_so_tableau_sum(lam, 9, h)
                assert char_o_field(lam, 9, h) == pytest.approx(a, rel=1e-13, abs=0.0), (lam, h)


def test_theta3_closed_form_matches_the_determinant():
    # every theta=3 label is a one-row label (a) or its column flip, with
    # the spin-a character sinh((a + 1/2) h) / sinh(h / 2)
    labels = _labels(3, 12)
    assert {(1, 1), (1, 1, 1), (5, 1)} <= {lam.parts for lam in labels}
    for lam in labels:
        a = (column_flip(lam, 3) if len(lam) > 1 else lam).size
        assert char_o_field(lam, 3, 0.0) == dim_o(lam, 3) == 2 * a + 1
        for h in (-1.2, 0.35, 1.2, 3.0, 6.0):
            closed = math.sinh((a + 0.5) * h) / math.sinh(h / 2)
            assert char_o_field(lam, 3, h) == pytest.approx(closed, rel=1e-14, abs=0.0), (lam, h)


def test_theta2_closed_form_matches_the_weights():
    for a in range(1, 9):
        for h in (-1.2, 0.35, 1.2, 3.0, 6.0):
            closed = 2.0 * math.cosh(a * h)
            got = char_o_field(Partition([a]), 2, h)
            assert got == pytest.approx(closed, rel=1e-14, abs=0.0), (a, h)


def _check_weights(labels, theta):
    # c_m >= 0, c_m = c_{-m}, and sum c_m = dim_o, for every label
    table = weight_table(labels, theta)
    assert np.all(table.mult > 0)
    assert table.dims == tuple(dim_o(lam, theta) for lam in labels)
    for i, lam in enumerate(labels):
        at = table.row == i
        weights = table.top[i] - table.depth[at]
        mult = table.mult[at]
        assert sorted(zip(weights, mult)) == sorted(zip(-weights, mult)), lam
        assert mult.sum() == dim_o(lam, theta), lam


@pytest.mark.parametrize("theta", [2, 3, 4, 5, 6])
def test_weight_tables_up_to_size_12(theta):
    _check_weights(_labels(theta, 12), theta)


@pytest.mark.parametrize("theta", [12, 20])
def test_weight_tables_at_large_theta(theta):
    _check_weights(_labels(theta, 10), theta)


def _det_dtypes(monkeypatch):
    # the dtypes of the matrices weight_table expands, as a set filled in
    # by later calls
    from orthospin import group_chars

    dtypes = set()
    det = group_chars._det

    def spying(mat):
        dtypes.add(mat.dtype)
        return det(mat)

    monkeypatch.setattr(group_chars, "_det", spying)
    return dtypes


def test_weight_tables_past_int64(monkeypatch):
    # products of the entries pass 2^63 here; Python ints keep them exact
    dtypes = _det_dtypes(monkeypatch)
    _check_weights([Partition([60, 60, 60]), Partition([3, 1]), EMPTY], 6)
    assert np.dtype(object) in dtypes


@pytest.mark.parametrize("theta,n", [(2, 400), (3, 120)])
def test_line_table_weights_in_int64(theta, n, monkeypatch):
    # (m) at theta = 2 has the weights +-m, spin L at theta = 3 the weights
    # -L..L, each once; every determinant of these tables runs in int64
    from orthospin import branching

    dtypes = _det_dtypes(monkeypatch)
    labels = branching.positive_lines(n, theta).lams
    table = weight_table(labels, theta)
    assert dtypes == {np.dtype(np.int64)}
    for i, lam in enumerate(labels):
        if theta == 2:
            spin = lam[0] if lam.parts != (1, 1) else 0
            want = sorted({spin, -spin})
        else:
            spin = (column_flip(lam, 3) if len(lam) > 1 else lam).size
            want = list(range(-spin, spin + 1))
        at = table.row == i
        assert sorted(table.top[i] - table.depth[at]) == want, lam
        assert np.all(table.mult[at] == 1), lam


@pytest.mark.parametrize("theta,n", [(2, 160), (3, 40)])
def test_log_chars_match_the_per_entry_formula(theta, n):
    # one exponential per distinct depth gives the per-entry sum bit for bit
    from orthospin import spectra

    table = spectra.line_table(n, theta).weights
    for h in (-1.0, 0.3, 8.0):
        terms = table.mult * np.exp(-abs(h) * table.depth)
        scaled = np.bincount(table.row, terms, minlength=len(table.top))
        assert np.array_equal(table.log_chars(h), abs(h) * table.top + np.log(scaled))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 16), st.data())
def test_weight_table_property(theta, size, data):
    labels = [lam for lam in enumerate_partitions(size, theta) if admissible_lambda(lam, theta)]
    _check_weights([data.draw(st.sampled_from(labels))], theta)


def test_weights_sum_to_the_weyl_dimension(monkeypatch):
    from orthospin import group_chars

    monkeypatch.setattr(group_chars, "dim_o", lambda lam, theta: 7)
    with pytest.raises(ArithmeticError, match="sum to"):
        weight_table([Partition([2])], 3)


def test_log_chars_past_the_double_range():
    # chi_(a) at theta = 2 is 2 cosh(a h): its log stays finite where the
    # character overflows
    table = weight_table([Partition([100]), Partition([1, 1])], 2)
    assert table.log_chars(8.0) == pytest.approx([800.0, 0.0], rel=1e-15, abs=1e-15)
    with pytest.raises(OverflowError):
        char_o_field(Partition([100]), 2, 8.0)


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
