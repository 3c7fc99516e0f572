"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin when it succeeds (run with -s to see them)."""

import math
import time

import numpy as np

from orthospin.appendix import (
    PAPER_HI,
    PAPER_LO,
    certify_positive,
    verify_pq_equivalence,
    winding_zero_count,
)
from orthospin.branching import (
    b_coefficient,
    enumerate_Pn,
    is_positive_closed_form,
    spectral_extract_branching,
)
from orthospin.free_energy import (
    LOG16,
    beta_c,
    field_free_energy,
    free_energy,
    maximize_phi,
    one_sided_derivatives,
    trace_curve_C,
)
from orthospin.group_chars import char_ratio_o, dim_o
from orthospin.partitions import (
    EMPTY,
    LambdaRhoPair,
    Partition,
    enumerate_lambda_rho,
    line_invariants,
)
from orthospin.spectra import (
    TOTAL_SPIN_TOL,
    HamiltonianSpec,
    build_hamiltonian,
    convert_parameters,
    dimer_ground_state,
    ising_product_states,
    line_eigenvalue,
    total_spin_observable,
    z_decomposed,
    z_direct,
)
from orthospin.tableaux import dim_sn
from orthospin.brauer import embed_pair, pair_q_matrix, pair_t_matrix


def report(num: int, desc: str, margin: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS - {desc} ({margin})")


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for theta, ns in ((2, range(2, 9)), (3, range(2, 7))):
        for n in ns:
            for _ in range(20):
                L1, L2 = rng.uniform(-2.0, 2.0, size=2)
                zd = z_direct(HamiltonianSpec(theta, n, float(L1), float(L2)))
                zc = z_decomposed(n, theta, float(L1), float(L2))
                worst = max(worst, abs(zd - zc) / zd)
    elapsed = time.time() - t0
    assert worst <= 1e-9
    assert elapsed <= 120.0
    report(1, "partition-function oracle equivalence",
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_magnetised_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for theta, ns in ((2, range(2, 9)), (3, range(2, 7))):
        for n in ns:
            for _ in range(20):
                L1, L2 = rng.uniform(-2.0, 2.0, size=2)
                for h in (-1.0, 0.3, 1.0):
                    zd = z_direct(
                        HamiltonianSpec(theta, n, float(L1), float(L2), h=h)
                    )
                    zc = z_decomposed(n, theta, float(L1), float(L2), h=h)
                    worst = max(worst, abs(zd - zc) / zd)
    assert worst <= 1e-9
    report(2, "magnetised oracle equivalence", f"max rel err {worst:.2e}")


def test_criterion_03_dimension_identity():
    for theta, nmax in ((2, 10), (3, 8)):
        for n in range(1, nmax + 1):
            total = sum(
                dim_o(p.lam, theta) * b * dim_sn(p.rho)
                for p, b in enumerate_Pn(n, theta)
            )
            assert total == theta**n, (theta, n, total)
    for n in range(1, 6):
        total = sum(
            dim_o(p.lam, 4) * b * dim_sn(p.rho)
            for p, b in spectral_extract_branching(n, 4)
        )
        assert total == 4**n, (4, n, total)
    report(3, "Schur-Weyl dimension identity",
           "exact for theta=2 n<=10, theta=3 n<=8, theta=4 n<=5 (oracle)")


def test_criterion_04_branching_closed_forms():
    checked = 0
    for theta in (2, 3):
        for n in range(1, 7):
            oracle = {
                (p.lam.parts, p.k, p.rho.parts): b
                for p, b in spectral_extract_branching(n, theta)
            }
            for pair in enumerate_lambda_rho(n, theta):
                b = oracle[(pair.lam.parts, pair.k, pair.rho.parts)]
                assert (b > 0) == is_positive_closed_form(pair, theta), pair
                if theta == 3:
                    assert b == b_coefficient(pair, 3), pair
                else:
                    assert b == b_coefficient(pair, 2), pair
                checked += 1
    for theta in (2, 3):
        for n in range(1, 13):
            for pair in enumerate_lambda_rho(n, theta):
                b = b_coefficient(pair, theta)
                assert (b > 0) == is_positive_closed_form(pair, theta), pair
    for n in (4, 5):
        for pair, b in spectral_extract_branching(n, 4):
            if all(x == 1 for x in pair.lam.parts):
                odd = sum(1 for x in pair.rho.parts if x % 2 == 1)
                assert b == (1 if odd == len(pair.lam) else 0), pair
    report(4, "branching closed forms vs spectral extraction",
           f"{checked} oracle pairs, recurrence checked to n=12, Okada at theta=4")


def test_criterion_05_critical_temperatures():
    assert beta_c(2) == 2.0
    assert abs(beta_c(3) - 2.7725887222397812) <= 1e-12
    locations = {}
    for theta in (3, 4, 5, 6):
        bc = beta_c(theta)
        jump = 0.2 / theta

        def ordered(l1: float) -> bool:
            res = maximize_phi(theta, l1, 1.0)
            return max(p.x[0] for p in res.points) > 1.0 / theta + jump

        lo, hi = bc - 1.0 - 0.4, bc - 1.0 + 0.4
        assert not ordered(lo) and ordered(hi)
        for _ in range(25):
            mid = 0.5 * (lo + hi)
            if ordered(mid):
                hi = mid
            else:
                lo = mid
        found = 0.5 * (lo + hi) + 1.0
        locations[theta] = abs(found - bc)
        assert locations[theta] <= 1e-3, (theta, found, bc)
    worst = max(locations.values())
    report(5, "critical temperatures and maximizer jumps",
           f"worst jump location error {worst:.2e}")


def test_criterion_06_spin_half_phase_structure():
    # second-difference spike at K1 = 4 along K2 = 0
    k1s = np.arange(3.5, 4.5, 0.005)
    vals = [free_energy(2, float(k), 0.0, mode="K") for k in k1s]
    second = np.abs(np.diff(vals, 2))
    spike_at = float(k1s[1 + int(np.argmax(second))])
    assert abs(spike_at - 4.0) <= 1e-2

    # directional-derivative gap across the first-order line K1 = K2 = 6
    eps = 1e-4
    def across(t: float) -> float:
        return free_energy(2, 6.0 + t, 6.0 - t, mode="K", apply_shift=True)
    gap = (across(2 * eps) - across(eps)) / eps - (across(-eps) - across(-2 * eps)) / eps
    assert abs(gap) > 0.01

    # free energy constant in K1 along K1 in [4.5, 6], K2 = 6
    vals = [
        free_energy(2, float(k), 6.0, mode="K", apply_shift=True)
        for k in np.linspace(4.5, 6.0, 7)
    ]
    spread = max(vals) - min(vals)
    assert spread <= 1e-9
    report(6, "spin-1/2 phase structure",
           f"spike at K1={spike_at:.3f}, slope gap {abs(gap):.3f}, "
           f"Ising-region spread {spread:.1e}")


def test_criterion_07_spin1_curve():
    pts = trace_curve_C(resolution=40, j1_min=1.9)
    d_mid = min(math.hypot(a - 2.25, b - 1.5) for a, b in pts)
    d_end = math.hypot(pts[-1][0] - LOG16, pts[-1][1] - LOG16)
    assert d_mid <= 1e-2 and d_end <= 1e-2
    line_err = max(
        abs(b - (2 * a - 3.0)) for a, b in pts if b <= 1.4
    )
    assert line_err <= 1e-3
    slopes = [
        (pts[i + 1][1] - pts[i][1]) / (pts[i + 1][0] - pts[i][0])
        for i in range(len(pts) - 1)
    ]
    assert all(2.0 - 1e-3 <= s <= 3.0 + 1e-3 for s in slopes)
    assert all(b >= a - 1e-6 for a, b in zip(slopes, slopes[1:]))
    report(7, "spin-1 boundary curve",
           f"endpoints {d_mid:.1e}/{d_end:.1e}, half-line dev {line_err:.1e}, "
           f"slopes [{min(slopes):.3f},{max(slopes):.3f}] non-decreasing")


def test_criterion_08_magnetisation_derivatives():
    expected_signs = {(0.0, 6.0): 1, (6.0, 0.0): 0, (6.0, 6.0): 1}
    worst = 0.0
    for (K1, K2), sign in expected_signs.items():
        L1, L2, _ = convert_parameters("K", K1, K2, 2)
        up, _ = one_sided_derivatives(2, L1, L2)
        assert (up > 1e-8) == bool(sign), (K1, K2, up)
        h = 1e-6
        fd = (field_free_energy(2, L1, L2, h) - field_free_energy(2, L1, L2, 0.0)) / h
        worst = max(worst, abs(fd - up))
    assert worst <= 1e-4
    report(8, "magnetisation one-sided derivatives",
           f"positivity pattern (+,0,+), max FD deviation {worst:.1e}")


def test_criterion_09_total_spin():
    assert TOTAL_SPIN_TOL <= 1e-9
    worst = 0.0
    for theta, nmax in ((2, 6), (3, 6)):
        for n in range(2, nmax + 1):
            # total_spin_observable asserts dense-vs-character <= 1e-9
            total_spin_observable(n, theta, 1.1, 0.6, 1.0)
    n = 10**4
    val = char_ratio_o(Partition([n // 2]), 3, 1.0 / n)
    err = abs(val - math.sinh(0.5) / 0.5)
    assert err <= 1e-3
    report(9, "total-spin observable",
           f"finite-n routes agree to 1e-9; asymptotic ratio err {err:.1e}")


def test_criterion_10_ground_states():
    worst = 0.0
    for theta, n in ((2, 4), (2, 6), (3, 4)):
        v = dimer_ground_state(n, theta)
        H = build_hamiltonian(HamiltonianSpec(theta, n, 1.0, 1.0))
        ground = LambdaRhoPair(EMPTY, n // 2, Partition([n]))
        e = line_eigenvalue(*line_invariants(ground, theta), 1.0, 1.0)
        res = float(np.max(np.abs(H @ v - e * v)) / np.linalg.norm(v))
        worst = max(worst, res)
        assert res <= 1e-10, (theta, n, res)
    n = 4
    q2, t2 = pair_q_matrix(2), pair_t_matrix(2)
    for v in ising_product_states(n):
        for x in range(1, n + 1):
            for y in range(x + 1, n + 1):
                assert np.max(np.abs(embed_pair(q2, 2, n, x, y) @ v)) == 0.0
                assert np.array_equal(embed_pair(t2, 2, n, x, y) @ v, v)
    report(10, "ground states", f"dimer residual {worst:.1e}; product states exact")


def test_criterion_11_appendix_a():
    t0 = time.time()
    rep = certify_positive(PAPER_LO, PAPER_HI, max_depth=40)
    assert rep.certified
    assert rep.max_depth_used <= 40
    wind = winding_zero_count(1.0, 1.0 / 16.0, 0.15, 91)
    assert wind.verified == 4
    assert abs(wind.estimate - 4.0) <= 1e-3
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    report(11, "positivity certification and winding count",
           f"{rep.leaves} leaves, depth {rep.max_depth_used}, "
           f"winding {wind.estimate.real:.9f}, {elapsed:.1f}s")


def test_criterion_12_appendix_b():
    for theta in (3, 5):
        rep = verify_pq_equivalence(theta)
        assert rep.status == "UNITARY"
        assert max(rep.residual_psi, rep.residual_conjugation) <= 1e-12
    for theta in (2, 4):
        assert verify_pq_equivalence(theta).status == "OBSTRUCTED"
    hq = build_hamiltonian(HamiltonianSpec(3, 4, 0.8, 0.5, flavor="Q"))
    hp = build_hamiltonian(HamiltonianSpec(3, 4, 0.8, 0.5, flavor="P"))
    diff = float(np.max(np.abs(np.linalg.eigvalsh(hq) - np.linalg.eigvalsh(hp))))
    assert diff <= 1e-10
    report(12, "projector/singlet equivalence",
           f"odd-theta residuals <= 1e-12, even obstructed, spectra diff {diff:.1e}")


def test_criterion_13_convergence_to_variational_limit():
    L1, L2 = 1.0, 0.0
    limit = maximize_phi(2, L1, L2).value
    errs = []
    for n in (4, 6, 8):
        z = z_direct(HamiltonianSpec(2, n, L1, L2))
        errs.append(abs(math.log(z) / n - limit))
    assert errs[0] > errs[1] > errs[2]
    report(13, "finite-size convergence to the variational limit",
           f"errors {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}")
