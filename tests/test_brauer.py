import math

import numpy as np
import pytest

from orthospin.brauer import (
    BrauerDiagram,
    all_diagrams,
    bar,
    embed_pair,
    format_diagram,
    identity,
    multiply,
    pair_p_matrix,
    pair_q_matrix,
    pair_t_matrix,
    random_diagram,
    represent,
    transposition,
    verify_homomorphism,
)


def double_factorial(m: int) -> int:
    return math.prod(range(m, 0, -2)) if m > 0 else 1


def test_diagram_counts():
    for n in range(1, 7):
        assert sum(1 for _ in all_diagrams(n)) == double_factorial(2 * n - 1)


def test_canonical_form_and_validation():
    d1 = BrauerDiagram(2, [(1, 2), (-1, -2)])
    d2 = BrauerDiagram(2, [(-2, -1), (2, 1)])
    assert d1 == d2
    with pytest.raises(ValueError):
        BrauerDiagram(2, [(1, 2), (1, -1)])
    with pytest.raises(ValueError):
        BrauerDiagram(2, [(1, 1), (-1, -2)])


def test_multiply_identity_and_relations():
    n = 4
    e = identity(n)
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = random_diagram(n, rng)
        assert multiply(e, d) == (d, 0)
        assert multiply(d, e) == (d, 0)
    b = bar(2, 1, 2)
    assert multiply(b, b) == (b, 1)
    t = transposition(2, 1, 2)
    assert multiply(t, t) == (identity(2), 0)
    assert multiply(t, b) == (b, 0)
    assert multiply(b, t) == (b, 0)


def test_associativity_with_loops():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a, b, c = (random_diagram(n, rng) for _ in range(3))
        ab, l1 = multiply(a, b)
        abc1, l2 = multiply(ab, c)
        bc, m1 = multiply(b, c)
        abc2, m2 = multiply(a, bc)
        assert abc1 == abc2
        assert l1 + l2 == m1 + m2


def test_generator_matrices():
    for theta in (2, 3):
        q = pair_q_matrix(theta)
        t = pair_t_matrix(theta)
        assert np.allclose(q @ q, theta * q)
        assert np.allclose(t @ t, np.eye(theta * theta))
        assert np.allclose(t @ q, q)
        assert np.trace(q) == pytest.approx(theta)
    p = pair_p_matrix(3)
    assert np.allclose(p @ p, 3 * p)
    assert np.trace(p) == pytest.approx(3.0)
    # signed singlet: P multiplies the Q projector structure with signs
    assert p[0 * 3 + 2, 1 * 3 + 1] == -1.0


def test_represent_examples():
    n, theta = 2, 2
    assert np.allclose(represent(identity(n), theta), np.eye(theta**n))
    b = represent(bar(2, 1, 2), 2)
    assert np.linalg.matrix_rank(b) == 1
    assert np.trace(b) == pytest.approx(2.0)
    p = represent(bar(2, 1, 2), 3, flavor="P")
    assert np.trace(p) == pytest.approx(3.0)
    assert np.allclose(p @ p, 3 * p)


def test_represent_matches_embedded_generators():
    for theta in (2, 3):
        n = 3
        for x in range(1, n + 1):
            for y in range(x + 1, n + 1):
                assert np.allclose(
                    represent(transposition(n, x, y), theta),
                    embed_pair(pair_t_matrix(theta), theta, n, x, y),
                )
                assert np.allclose(
                    represent(bar(n, x, y), theta),
                    embed_pair(pair_q_matrix(theta), theta, n, x, y),
                )


def test_homomorphism_exhaustive_n2():
    report = verify_homomorphism(2, 2, 0, flavor="Q", exhaustive=True)
    assert report["ok"] and report["pairs_checked"] == 9


def test_homomorphism_random():
    assert verify_homomorphism(3, 3, 50, flavor="P")["ok"]
    assert verify_homomorphism(3, 2, 50, flavor="Q")["ok"]
    assert verify_homomorphism(4, 2, 30, flavor="Q", seed=5)["ok"]
    assert verify_homomorphism(4, 4, 10, flavor="Q", seed=5)["ok"]


def test_format_diagram():
    d = BrauerDiagram(3, [(1, 3), (2, -2), (-1, -3)])
    assert format_diagram(d) == "1+:3+ 2+:2- 1-:3-"
