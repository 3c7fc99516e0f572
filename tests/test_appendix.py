import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from orthospin.appendix import (
    PAPER_HI,
    PAPER_LO,
    bracket_inner_root,
    certify_positive,
    construct_psi,
    verify_pq_equivalence,
    w_enclosure,
    w_of_z,
    w_prime_of_z,
    winding_zero_count,
    _w_complex,
    _w_prime_complex,
)
from orthospin.intervals import DomainError, Interval, iexp, ilog


def mp_w(z):
    """50-digit reference for w(z)."""
    mpmath.mp.dps = 50
    z = mpmath.mpf(z)
    lz = mpmath.log(z)
    den = 3 * (1 - z) + (1 + z) * lz
    return 1.5 + lz * (1 + 5 * z) / (4 * (1 - z)) + mpmath.log(-z * lz / den)


# ---------------------------------------------------------------------------
# interval arithmetic

def test_interval_basics():
    a = Interval(1.0, 2.0)
    b = Interval(-0.5, 0.25)
    assert (a + b).contains(0.75)
    assert (a * b).contains(-1.0)
    assert (a - a).contains(0.0)
    with pytest.raises(DomainError):
        a / b
    with pytest.raises(DomainError):
        ilog(Interval(-1.0, 2.0))
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_interval_point_from_fraction_outward():
    x = Fraction(1, 3)
    iv = Interval.point(x)
    assert iv.lo <= 1 / 3 <= iv.hi and iv.lo < iv.hi


def test_interval_containment_random():
    rng = random.Random(12345)
    mpmath.mp.dps = 50
    n = 10_000
    for _ in range(n):
        a = rng.uniform(-10, 10)
        b = rng.uniform(-10, 10)
        ia, ib = Interval.point(a), Interval.point(b)
        for op, mop in (
            (lambda: ia + ib, lambda: mpmath.mpf(a) + mpmath.mpf(b)),
            (lambda: ia - ib, lambda: mpmath.mpf(a) - mpmath.mpf(b)),
            (lambda: ia * ib, lambda: mpmath.mpf(a) * mpmath.mpf(b)),
        ):
            iv = op()
            exact = mop()
            assert mpmath.mpf(iv.lo) <= exact <= mpmath.mpf(iv.hi)
        if abs(b) > 1e-9:
            iv = ia / ib
            exact = mpmath.mpf(a) / mpmath.mpf(b)
            assert mpmath.mpf(iv.lo) <= exact <= mpmath.mpf(iv.hi)
        if a > 1e-9:
            iv = ilog(Interval.point(a))
            assert mpmath.mpf(iv.lo) <= mpmath.log(a) <= mpmath.mpf(iv.hi)
        if abs(a) < 50:
            iv = iexp(Interval.point(a))
            assert mpmath.mpf(iv.lo) <= mpmath.exp(a) <= mpmath.mpf(iv.hi)


# ---------------------------------------------------------------------------
# w and its certification

def test_w_point_values_vs_high_precision():
    for z in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        iv = w_of_z(Interval.point(z))
        ref = mp_w(z)
        assert mpmath.mpf(iv.lo) <= ref <= mpmath.mpf(iv.hi)
        assert iv.width < 1e-11


def test_w_domain_errors():
    r = bracket_inner_root()
    with pytest.raises(DomainError):
        w_of_z(Interval(r.lo - 1e-3, r.hi + 1e-3))
    with pytest.raises(DomainError):
        w_of_z(Interval(-0.5, 0.5))
    iv = w_of_z(Interval(0.9, 0.9))
    assert iv.lo > 0


def test_w_prime_interval_contains_difference_quotients():
    for z in (0.2, 0.5, 0.85):
        iv = w_prime_of_z(Interval.point(z))
        fd = (mp_w(z + mpmath.mpf(1e-20)) - mp_w(z)) / mpmath.mpf(1e-20)
        assert mpmath.mpf(iv.lo) - 1e-12 <= fd <= mpmath.mpf(iv.hi) + 1e-12


def test_certify_positive_easy_interval():
    rep = certify_positive(Fraction(1, 5), Fraction(3, 10), max_depth=15)
    assert rep.certified


def test_certify_negative_control():
    def f(iv):
        # sign change at 0.25 inside [0.2, 0.3]
        return iv - 0.25

    rep = certify_positive(Fraction(1, 5), Fraction(3, 10), max_depth=12, fn=f)
    assert not rep.certified
    assert rep.witness is not None and rep.witness.contains(0.25)


def test_certify_monotone_in_subdivision():
    pieces = [Interval(0.2 + 0.1 * i, 0.2 + 0.1 * (i + 1)) for i in range(5)]
    for piece in pieces:
        if w_enclosure(piece).lo > 0:
            left, right = piece.split()
            assert w_enclosure(left).lo > 0
            assert w_enclosure(right).lo > 0


def test_inner_root_enclosure():
    r = bracket_inner_root()
    assert r.width <= 1e-12 * 1.01
    assert r.hi < float(PAPER_LO)
    # sign change certified by interval evaluation of the denominator
    def den(z):
        return 3 * (1 - z) + (1 + z) * ilog(z)

    assert den(Interval(r.lo - 1e-6, r.lo - 1e-6 + 1e-12)).hi < 0
    assert den(Interval(r.hi + 1e-6, r.hi + 1e-6 + 1e-12)).lo > 0


def test_certify_paper_interval():
    rep = certify_positive(PAPER_LO, PAPER_HI, max_depth=40)
    assert rep.certified
    assert rep.max_depth_used <= 40


# ---------------------------------------------------------------------------
# winding count

def test_winding_paper_parameters():
    res = winding_zero_count(1.0, 1.0 / 16.0, 0.15, 91)
    assert res.verified == 4
    assert abs(res.estimate - 4) <= 1e-3
    assert abs(res.estimate.imag) <= 1e-3


def test_winding_negative_control():
    res = winding_zero_count(
        1.0, 1.0 / 16.0, 0.15, 91,
        fn=lambda z: (z - 1.0) ** 3,
        dfn=lambda z: 3.0 * (z - 1.0) ** 2,
    )
    assert res.verified == 3


def test_winding_coarse_quadrature():
    res = winding_zero_count(1.0, 1.0 / 16.0, 0.15, 45)
    assert abs(res.estimate - 4) <= 1e-2


def test_w_prime_complex_matches_finite_differences():
    rng = random.Random(3)
    for _ in range(20):
        z = 1.0 + (1 / 16) * cmath.exp(2j * math.pi * rng.random())
        step = 1e-8
        fd = (_w_complex(z + step) - _w_complex(z - step)) / (2 * step)
        assert abs(fd - _w_prime_complex(z)) < 1e-6


# ---------------------------------------------------------------------------
# the Q <-> P unitary

def test_construct_psi_unitary_odd():
    for theta in (3, 5, 7):
        psi = construct_psi(theta)
        assert np.max(np.abs(psi @ np.conj(psi.T) - np.eye(theta))) < 1e-14
        rep = verify_pq_equivalence(theta)
        assert rep.status == "UNITARY"
        assert rep.residual_psi <= 1e-12
        assert rep.residual_conjugation <= 1e-12


def test_obstruction_even():
    for theta in (2, 4):
        rep = verify_pq_equivalence(theta)
        assert rep.status == "OBSTRUCTED"
        assert "antisymmetric" in rep.certificate
