import itertools
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orthospin.free_energy as fe
from orthospin.free_energy import (
    LOG16,
    NotProvenError,
    SimplexPoint,
    beta_c,
    beta_of_xstar,
    classify_phase,
    field_free_energy,
    free_energy,
    in_disordered_region,
    maximize_phi,
    one_sided_derivatives,
    phi,
    quadratic_alpha,
    trace_curve_C,
)
from orthospin.spectra import convert_parameters


def test_phi_examples():
    assert phi(2, 0.0, 0.0, SimplexPoint((0.5, 0.5), (0.0, 0.0))) == pytest.approx(
        math.log(2.0)
    )
    v = phi(3, 1.2, 0.7, SimplexPoint((1/3, 1/3, 1/3), (0.0, 0.0, 0.0)))
    assert v == pytest.approx((1.2 + 0.7) / 6.0 + math.log(3.0))
    v = phi(2, 1.0, 0.5, SimplexPoint((1.0, 0.0), (1.0, 0.0)))
    assert v == pytest.approx(0.5 * (1.5 - 0.5))


def test_phi_domain_validation():
    with pytest.raises(ValueError):
        phi(2, 0.0, 0.0, SimplexPoint((0.4, 0.6), (0.0, 0.0)))
    with pytest.raises(ValueError):
        phi(2, 0.0, 0.0, SimplexPoint((0.6, 0.4), (0.5, 0.0)))


def test_beta_c():
    assert beta_c(2) == 2.0
    assert beta_c(3) == pytest.approx(2.7725887222397812, abs=1e-12)
    assert beta_c(3) == pytest.approx(math.log(16.0), abs=0)
    assert beta_c(4) == pytest.approx(3.0 * math.log(3.0))


def test_beta_of_xstar():
    assert beta_of_xstar(2, 0.9) == pytest.approx(1.25 * math.log(9.0))
    # tends to beta_c from above as x drops to 1 - 1/theta
    for theta in (2, 3):
        lim = beta_of_xstar(theta, 1.0 - 1.0 / theta + 1e-7)
        assert abs(lim - beta_c(theta)) < 1e-5
    # strictly increasing
    xs = np.linspace(0.51, 0.99, 25)
    vals = [beta_of_xstar(2, float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        beta_of_xstar(2, 0.5)


def test_subcritical_maximizer_symmetric():
    res = maximize_phi(2, 0.9, 0.9)  # beta = 1.8 < 2
    assert len(res.points) == 1
    assert res.points[0].x == pytest.approx((0.5, 0.5), abs=1e-9)
    assert res.value == pytest.approx(math.log(2.0) + 1.8 / 4.0)


def test_two_maximizers_at_criticality_theta3():
    res = maximize_phi(3, LOG16, 0.0)
    xs = sorted(p.x[0] for p in res.points)
    assert len(xs) == 2
    assert xs[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert xs[1] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert res.value == pytest.approx(math.log(3.0) + LOG16 / 6.0, abs=1e-10)


def test_ising_type_maximizer_has_positive_y():
    # K1 = -6, K2 = 6: deep in the phase where the bar term dominates
    L1, L2, _ = convert_parameters("K", -6.0, 6.0, 2)
    assert L2 < 0
    res = maximize_phi(2, L1, L2)
    p = res.points[0]
    assert p.y[0] == pytest.approx(p.x[0] - p.x[1])
    assert p.y[0] > 0.5


def test_maximizer_shape_for_nonnegative_l2():
    for theta in (2, 3, 4, 5, 6):
        for beta in (0.8 * beta_c(theta), 1.25 * beta_c(theta)):
            res = maximize_phi(theta, beta, 0.0)
            for p in res.points:
                rest = p.x[1:]
                assert max(rest) - min(rest) < 1e-8, (theta, beta, p)
                assert all(v == 0.0 for v in p.y)


def test_not_proven_region():
    with pytest.raises(NotProvenError):
        maximize_phi(4, 1.0, -0.5)
    # the field term is proved for theta in {2, 3} only
    for theta, L1, L2, h in ((4, 1.0, 0.5, 0.3), (5, 3.22, 0.429, -1.0), (5, 0.0, 2.25, -1.0)):
        with pytest.raises(NotProvenError):
            maximize_phi(theta, L1, L2, h=h)


def test_field_routes_reject_theta_below_two():
    # bad input (ValueError, exit 2), not an unproven regime (exit 3)
    for theta in (0, 1):
        with pytest.raises(ValueError, match="theta >= 2"):
            field_free_energy(theta, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="theta >= 2"):
            one_sided_derivatives(theta, 1.0, 0.0)


def test_free_energy_values():
    assert free_energy(2, 0.0, 0.0) == pytest.approx(math.log(2.0))
    v = free_energy(3, 0.0, LOG16, mode="J")
    assert v == pytest.approx(math.log(3.0) + LOG16 / 6.0, abs=1e-9)


def test_ising_region_independent_of_k1():
    vals = [
        free_energy(2, k1, 6.0, mode="K", apply_shift=True)
        for k1 in (4.5, 5.0, 5.5, 6.0)
    ]
    assert max(vals) - min(vals) <= 1e-9


def test_argmax_invariant_under_constant_shift():
    # the shift reported by the conversions moves the value, not the argmax
    for k1, k2 in ((1.0, 6.0), (5.0, 2.0)):
        L1, L2, shift = convert_parameters("K", k1, k2, 2)
        a = maximize_phi(2, L1, L2)
        assert shift != 0.0
        b = free_energy(2, k1, k2, mode="K", apply_shift=True)
        assert b == pytest.approx(a.value - shift / 2.0)


def test_disordered_region_constancy():
    for k1 in (-3.0, 0.0, 3.9):
        for k2 in (-2.0, 1.5, 3.9):
            L1, L2, _ = convert_parameters("K", k1, k2, 2)
            res = maximize_phi(2, L1, L2)
            assert res.points[0].x == pytest.approx((0.5, 0.5), abs=1e-8)
            assert res.value == pytest.approx(math.log(2.0) + (L1 + L2) / 4.0)


def test_field_free_energy_and_derivatives():
    for K1, K2, expect_sign in ((0.0, 6.0, 1), (6.0, 0.0, 0), (6.0, 6.0, 1)):
        L1, L2, _ = convert_parameters("K", K1, K2, 2)
        up, down = one_sided_derivatives(2, L1, L2)
        assert (up > 1e-6) == bool(expect_sign)
        h = 1e-6
        fd = (field_free_energy(2, L1, L2, h) - field_free_energy(2, L1, L2, 0.0)) / h
        assert abs(fd - up) < 1e-4
    assert field_free_energy(2, 0.3, 0.2, 0.0) == pytest.approx(
        maximize_phi(2, 0.3, 0.2).value
    )


def test_transition_detectors_theta2_second_order():
    # second difference of Phi along K2=0 spikes at K1=4
    k1s = np.arange(3.0, 5.0, 0.01)
    vals = []
    for k1 in k1s:
        L1, L2, _ = convert_parameters("K", float(k1), 0.0, 2)
        vals.append(maximize_phi(2, L1, L2).value)
    second = np.abs(np.diff(vals, 2))
    k_at_spike = k1s[1 + int(np.argmax(second))]
    assert abs(k_at_spike - 4.0) <= 1e-2


def test_transition_detectors_first_order_higher_theta():
    # slope of Phi along L2=1 jumps at L1+L2 = beta_c for theta >= 3
    for theta in (3, 4, 5):
        bc = beta_c(theta)
        eps = 5e-3
        def val(l1):
            return maximize_phi(theta, l1, 1.0).value
        left = (val(bc - 1.0 - eps) - val(bc - 1.0 - 3 * eps)) / (2 * eps)
        right = (val(bc - 1.0 + 3 * eps) - val(bc - 1.0 + eps)) / (2 * eps)
        assert right - left > 0.01, theta


def _compositions(theta):
    """Every way to cut theta sorted coordinates into at least two blocks."""
    for cuts in itertools.product((False, True), repeat=theta - 1):
        if any(cuts):
            sizes = [1]
            for cut in cuts:
                if cut:
                    sizes.append(1)
                else:
                    sizes[-1] += 1
            yield sizes


# (L2, |h|) for each regime of the inner y maximisation, given Y = g_0 - g_last:
# y_1 = |h|/L2 inside (0, Y) or clamped at Y, y_1 = 0, L2 = 0 without and
# with a field, L2 < 0 without and with one
Y_REGIMES = {
    "L2>0 interior": lambda Y: (2.0, Y),
    "L2>0 clamped": lambda Y: (0.5, Y),
    "L2>0, no field": lambda Y: (1.0, 0.0),
    "L2=0": lambda Y: (0.0, 0.0),
    "L2=0, h": lambda Y: (0.0, 0.7),
    "L2<0": lambda Y: (-1.3, 0.0),
    "L2<0, h": lambda Y: (-1.3, 0.4),
}


def test_block_derivatives_match_central_differences():
    rng = np.random.default_rng(3)
    eps = 1e-6
    cases = 0
    for theta in (2, 3, 4, 5):
        for sizes in _compositions(theta):
            # face: a fixed zero block follows, and the y bound reads g_0 - 0
            for (regime, couplings), face in itertools.product(Y_REGIMES.items(), (False, True)):
                L1 = float(rng.uniform(-1.0, 3.0))
                # strictly decreasing block values with sum s_j g_j = 1
                g = np.sort(rng.uniform(0.3, 1.0, len(sizes)))[::-1]
                g[0] += 0.8
                g /= np.dot(sizes, g)
                L2, habs = couplings(g[0] - (0.0 if face else g[-1]))

                def blocks(free):
                    return [(1.0 - np.dot(sizes[1:], free)) / sizes[0]] + list(free)

                def value(free):
                    return fe._block_value(sizes, L1, L2, habs, blocks(free), face)

                def derivatives(free):
                    return fe._block_derivatives(sizes, L1, L2, habs, blocks(free), face)

                free = g[1:]
                grad, hess = derivatives(free)
                for j in range(len(free)):
                    e = np.zeros(len(free))
                    e[j] = eps
                    fd = (value(free + e) - value(free - e)) / (2 * eps)
                    assert abs(grad[j] - fd) < 1e-7 * max(1.0, abs(fd)), (sizes, regime, j)
                    col = (np.array(derivatives(free + e)[0])
                           - np.array(derivatives(free - e)[0])) / (2 * eps)
                    assert np.allclose(np.array(hess)[:, j], col, rtol=1e-6, atol=1e-6), (
                        sizes, regime, face, j)
                cases += 1
    assert cases == 2 * 26 * len(Y_REGIMES)


def test_maximize_phi_against_fine_scan_theta2():
    # independent check: the theta=2 problem is one-dimensional after the
    # closed-form inner maximisation; a 1e-6 scan pins the value to ~1e-12
    rng = np.random.default_rng(42)
    t = np.linspace(0.5, 1.0 - 1e-9, 500_001)
    ent = -(t * np.log(t) + (1 - t) * np.log(1 - t))
    ssq = t * t + (1 - t) ** 2
    for _ in range(12):
        L1, L2 = rng.uniform(-2.5, 2.5, size=2)
        y = (2 * t - 1) if L2 < 0 else np.zeros_like(t)
        vals = 0.5 * ((L1 + L2) * ssq - L2 * y * y) + ent
        brute = float(np.max(vals))
        got = maximize_phi(2, float(L1), float(L2)).value
        assert got >= brute - 1e-12
        assert abs(got - brute) < 1e-9, (L1, L2, got, brute)


def test_maximize_phi_against_fine_scan_theta3():
    # two-dimensional scan over the full ordered simplex at step 2e-4
    rng = np.random.default_rng(7)
    m = 5000
    a = np.arange(m + 1)
    x1g, x2g = np.meshgrid(a, a, sparse=False)
    x1 = x1g.ravel() / m
    x2 = x2g.ravel() / m
    x3 = 1.0 - x1 - x2
    mask = (x1 >= x2) & (x2 >= x3) & (x3 >= 0)
    x1, x2, x3 = x1[mask], x2[mask], x3[mask]

    def ent(v):
        return np.where(v > 0, -v * np.log(np.where(v > 0, v, 1.0)), 0.0)

    entropy = ent(x1) + ent(x2) + ent(x3)
    ssq = x1 * x1 + x2 * x2 + x3 * x3
    ysq = (x1 - x3) ** 2
    for _ in range(6):
        L1, L2 = rng.uniform(-2.0, 3.0, size=2)
        y = ysq if L2 < 0 else 0.0
        vals = 0.5 * ((L1 + L2) * ssq - L2 * y) + entropy
        brute = float(np.max(vals))
        got = maximize_phi(3, float(L1), float(L2)).value
        assert got >= brute - 1e-12
        assert abs(got - brute) < 1e-6, (L1, L2, got, brute)


def test_classify_phase_theta2():
    assert classify_phase(2, 0.0, 0.0).label == "Disordered"
    assert classify_phase(2, 0.0, 6.0).label == "Ising"
    assert classify_phase(2, 6.0, 0.0).label == "XY"
    assert classify_phase(2, 6.0, 6.0).label == "Boundary"
    assert classify_phase(2, 4.0, 2.0).label == "Boundary"


def test_classify_phase_theta3():
    assert classify_phase(3, 0.0, 3.0).label == "Nematic"
    assert classify_phase(3, 1.0, 1.0).label == "Disordered"
    res = classify_phase(3, 3.25, 1.5)
    assert res.label == "Ferromagnetic" and res.conjectured
    res = classify_phase(3, -1.0, -6.0)
    assert res.label == "FourthPhase" and res.conjectured
    res = classify_phase(3, 0.0, -6.0)
    assert res.label == "Boundary" and "NOT_PROVEN" in res.note


def test_classify_phase_higher_theta():
    assert classify_phase(4, 1.0, 1.0, mode="L").label == "Disordered"
    assert classify_phase(4, 3.0, 1.0, mode="L").label == "Ordered"
    with pytest.raises(NotProvenError):
        classify_phase(5, 1.0, -1.0, mode="L")


def test_classify_phase_reads_only_the_modes_its_theta_takes():
    # K couplings exist at theta=2 only and J couplings at theta=3 only
    for theta, mode in ((2, "J"), (3, "K"), (4, "J")):
        with pytest.raises(ValueError):
            classify_phase(theta, 1.0, 1.0, mode=mode)
    # canonical input is the same point as its XXZ or BLBQ image
    assert classify_phase(2, 1.5, -0.5, mode="L").label == classify_phase(2, 2.0, 4.0).label
    assert classify_phase(3, 3.25, -1.75, mode="L").label == classify_phase(3, 3.25, 1.5).label


def test_quadratic_alpha():
    assert quadratic_alpha(-1.0, -4.0) == pytest.approx(0.8)
    assert quadratic_alpha(5.0, 1.0) == 1.0
    assert quadratic_alpha(-2.0, -4.0) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        quadratic_alpha(-1.0, 2.0)


def test_in_disordered_region_simple_points():
    assert in_disordered_region(2.0, 1.5)
    assert not in_disordered_region(2.0, 0.5)


def test_symmetric_point_local_max_threshold():
    # the Hessian of the wedge functional at the symmetric point is negative
    # semidefinite exactly up to 2 J1 - J2 = 3
    def hessian(J1, J2):
        x1 = x2 = x3 = 1.0 / 3.0
        h11 = 2 * (2 * J1 - J2) - 1.0 / x1 - 1.0 / x3
        h12 = (2 * J1 - J2) - 1.0 / x3
        h22 = J1 + J2 - 1.0 / x2 - 1.0 / x3
        return np.array([[h11, h12], [h12, h22]])

    for J2 in (-1.0, 0.5, 1.4):
        below = np.linalg.eigvalsh(hessian((J2 + 3.0) / 2.0 - 0.05, J2))
        above = np.linalg.eigvalsh(hessian((J2 + 3.0) / 2.0 + 0.05, J2))
        assert below[-1] < 0
        assert above[-1] > 0
    # and the membership predicate flips across the half-line J2 = 2 J1 - 3
    assert in_disordered_region(2.0, 1.0 + 1e-3)
    assert not in_disordered_region(2.0, 1.0 - 1e-3)


def test_exit_directions_absorbing():
    # once outside the disordered region, moving along mu*(1,2) + nu*(-1,-3)
    # (mu, nu >= 0) stays outside
    start = (2.3, 1.55)  # just outside the arc
    assert not in_disordered_region(*start)
    for v in ((1.0, 2.0), (-1.0, -3.0), (0.0, -1.0)):
        pt = (start[0] + 0.1 * v[0], start[1] + 0.1 * v[1])
        if pt[0] >= pt[1]:
            assert not in_disordered_region(*pt), (v, pt)


def test_in_disordered_region_needs_the_wedge():
    assert in_disordered_region(2.0, 2.0)
    for J1, J2 in ((2.0, 2.0 + 1e-9), (0.0, 1.0), (-1.0, 3.0)):
        with pytest.raises(ValueError):
            in_disordered_region(J1, J2)


@pytest.mark.parametrize("J1, J2", [(math.nan, 1.0), (2.0, math.nan), (math.inf, 1.0),
                                     (2.0, -math.inf)])
def test_in_disordered_region_rejects_non_finite_couplings(J1, J2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            in_disordered_region(J1, J2)


@pytest.mark.parametrize("j1_min", [math.nan, math.inf, 3.0, fe.LOG16 - 2e-3])
def test_trace_curve_c_rejects_j1_min_before_any_scan(monkeypatch, j1_min):
    # nan used to break the bracket ("bottom not outside") and 3.0, past the
    # end of the curve, to leave the top of the bracket outside the region
    def no_scan(J1, J2):
        raise AssertionError(f"scanned at ({J1}, {J2})")

    monkeypatch.setattr(fe, "_region_excess", no_scan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="j1_min"):
            trace_curve_C(10, j1_min=j1_min)


def _bisected_curve_C(resolution, j1_min):
    """Curve C by bisecting in_disordered_region down to a bracket of 1e-11
    on the J1 grid of trace_curve_C (reference)."""
    j1_max = LOG16 - 2e-3
    grid = [j1_min + (j1_max - j1_min) * i / (resolution - 1) for i in range(resolution)]
    if j1_min < 2.25 < j1_max:
        grid.append(2.25)
    out = []
    for J1 in sorted(grid):
        hi = min(J1, LOG16) - 1e-9
        lo = 2 * J1 - 3.0 - 0.5
        assert in_disordered_region(J1, hi) and not in_disordered_region(J1, lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if in_disordered_region(J1, mid):
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-11:
                break
        out.append((J1, 0.5 * (lo + hi)))
    return out


@pytest.mark.parametrize("j1_min", [2.1, 1.9])
def test_curve_c_newton_matches_bisection(j1_min):
    got = trace_curve_C(10, j1_min=j1_min)
    want = _bisected_curve_C(10, j1_min)
    assert [a for a, _ in got] == [a for a, _ in want]
    assert max(abs(b - c) for (_, b), (_, c) in zip(got, want)) <= 1e-10


def test_curve_c_newton_needs_few_evaluations(monkeypatch):
    # bisection down to 1e-11 takes about 39 evaluations per J1
    calls = []
    region_excess = fe._region_excess

    def counted(J1, J2):
        calls.append(J1)
        return region_excess(J1, J2)

    monkeypatch.setattr(fe, "_region_excess", counted)
    pts = trace_curve_C(10, j1_min=2.1)
    assert len(calls) <= 20 * len(pts), len(calls) / len(pts)


def test_region_excess_slope_is_its_j2_derivative():
    # the envelope theorem: d excess / dJ2 at the best point, on the arc, on
    # the straight piece and inside the region
    for J1, J2 in ((2.5, 1.9), (2.1, 1.1), (2.0, 1.5)):
        d = 1e-6
        up, down = fe._region_excess(J1, J2 + d)[0], fe._region_excess(J1, J2 - d)[0]
        assert fe._region_excess(J1, J2)[1] == pytest.approx((up - down) / (2 * d), abs=1e-6)


def _region_excess_all_starts(J1, J2):
    """_region_excess refining every one of the 12 best grid points, however
    many share a Newton limit (reference)."""
    L1, L2 = J1, J2 - J1
    bar = phi(3, L1, L2, SimplexPoint((1 / 3, 1 / 3, 1 / 3), (0.0, 0.0, 0.0))) + fe.REGION_TOL
    grid, vals = fe._grid_values(3, fe._CURVE_C_STEP, L1, L2, 0.0)
    order = np.argsort(vals)[::-1][:12]
    best, x = float(vals[order[0]]), tuple(grid[order[0]])
    for i in order:
        res = fe._grouped_newton(L1, L2, 0.0, fe._interior(grid[i]))
        if res is not None and res[0] > best:
            best, x = res
    slope = 0.5 * (sum(v * v for v in x) - (x[0] - x[2]) ** 2) - 1.0 / 6.0
    return best - bar, slope


def _curve_c_probes():
    """728 wedge points: each J2 of trace_curve_C(40, 1.9) shifted by
    +-{1e-3, 1e-5, 1e-8, 1e-10}, and 400 seeded points with J1 in [-1, 4] and
    J1 - J2 in [0, 5]."""
    probes = [(J1, J2 + s * d) for J1, J2 in trace_curve_C(40, j1_min=1.9)
              for d in (1e-3, 1e-5, 1e-8, 1e-10) for s in (1, -1)]
    rng = np.random.default_rng(31)
    probes += [(float(a), float(a - b)) for a, b in zip(rng.uniform(-1.0, 4.0, 400),
                                                         rng.uniform(0.0, 5.0, 400))]
    return probes


def test_one_start_per_cell_matches_all_starts():
    probes = _curve_c_probes()
    assert len(probes) == 728
    for J1, J2 in probes:
        got, want = fe._region_excess(J1, J2), _region_excess_all_starts(J1, J2)
        assert (got[0] > 0.0) == (want[0] > 0.0), (J1, J2, got, want)
        assert abs(got[0] - want[0]) <= 1e-14, (J1, J2, got, want)
        assert abs(got[1] - want[1]) <= 1e-9, (J1, J2, got, want)


def test_a_cell_whose_best_start_ends_at_a_saddle_falls_through():
    # the best-ranked start of the winning cell ends at a saddle (Newton
    # returns None): skipping the rest of its cell reads excess -1.77e-6 and
    # slope -9.9e-5 here, where every start read together gives -1e-9 and 0
    J1, J2 = 2.3241329672450215, 1.6534938065693194
    L1, L2 = J1, J2 - J1
    grid, vals = fe._grid_values(3, fe._CURVE_C_STEP, L1, L2, 0.0)
    assert fe._grouped_newton(L1, L2, 0.0, fe._interior(grid[np.argmax(vals)])) is None
    got, want = fe._region_excess(J1, J2), _region_excess_all_starts(J1, J2)
    assert abs(got[0] - want[0]) <= 1e-14 and abs(got[1] - want[1]) <= 1e-9, (got, want)
    assert got[0] == pytest.approx(-1e-9, abs=1e-12) and abs(got[1]) <= 1e-9, got


def test_curve_c_refines_few_starts_per_scan(monkeypatch):
    # all 12 best grid points were refined in every scan; they end in 1-4
    # distinct outcomes
    scans, newtons = [], []
    region_excess, grouped_newton = fe._region_excess, fe._grouped_newton

    def counted_scan(J1, J2):
        scans.append((J1, J2))
        return region_excess(J1, J2)

    def counted_newton(*args):
        newtons.append(args)
        return grouped_newton(*args)

    monkeypatch.setattr(fe, "_region_excess", counted_scan)
    monkeypatch.setattr(fe, "_grouped_newton", counted_newton)
    trace_curve_C(10, j1_min=2.1)
    assert len(scans) == 134, len(scans)
    assert len(newtons) <= 4 * len(scans), len(newtons) / len(scans)


def test_newton_values_each_accepted_iterate_once(monkeypatch):
    valued = []
    block_value = fe._block_value

    def counted(sizes, L1, L2, habs, g, face=False):
        valued.append(tuple(g))
        return block_value(sizes, L1, L2, habs, g, face)

    monkeypatch.setattr(fe, "_block_value", counted)
    starts = ((0.5, 0.3, 0.2), (0.7, 0.2, 0.1), (0.9, 0.1, 0.0), (0.4, 0.35, 0.25))
    for (L1, L2, habs), x0 in itertools.product(
            ((2.5, -0.8, 0.0), (3.5, -7.5, 0.0), (1.3, 0.4, 0.7), (2.1, -0.9, 0.0)), starts):
        valued.clear()
        fe._grouped_newton(L1, L2, habs, x0)
        assert valued and len(valued) == len(set(valued)), (L1, L2, habs, x0)


def test_phase_label_agrees_with_the_region_predicate_near_curve_c():
    # classify_phase maximises on the 1e-3 grid of maximize_phi, the region
    # predicate on the 0.004 grid of the curve-C scans
    points = [(J1, J2 + d) for J1, J2 in trace_curve_C(10, j1_min=1.9)
              for d in (-5e-2, -1e-2, -2e-3, 2e-3, 1e-2, 5e-2) if J2 + d <= J1]
    assert len(points) == 64
    for J1, J2 in points:
        disordered = classify_phase(3, J1, J2).label == "Disordered"
        assert disordered == in_disordered_region(J1, J2), (J1, J2)


def test_corner_maximiser_reached_from_its_canonical_start():
    # two blocks below 1e-6 group as one from every start near the corner;
    # only the (0.99, 0.01, 0) canonical start reaches this maximiser
    res = maximize_phi(3, 13.17, -3.91)
    assert res.value == pytest.approx(6.585001945216999, rel=1e-12)
    assert len(res.points) == 1
    want = (0.99999805474283632, 1.9070395015124866e-06, 3.8217662177993389e-08)
    assert max(abs(a - b) for a, b in zip(res.points[0].x, want)) <= 1e-9, res.points


@pytest.mark.parametrize("theta, L1, L2, h", [
    (2, 1.2, 0.7, 0.0), (2, 3.0, -1.0, 0.4), (3, 2.3, -0.7, 0.0), (3, 13.17, -3.91, 0.0),
    (3, 1.0, 0.5, 0.3), (4, beta_c(4), 0.0, 0.0), (5, 1.0, 1.5, 0.0),
])
def test_maximize_phi_starts_one_point_per_cell(monkeypatch, theta, L1, L2, h):
    # the best-ranked grid point of each cell of width 1/100 among those
    # within 1e-4 of the best, at most 48, come first
    grid, vals = fe._grid_values(theta, fe._GRID_STEP.get(theta, 0.05), L1, L2, abs(h))
    top = np.nonzero(vals >= np.max(vals) - 1e-4)[0]
    want, cells = [], set()
    for i in top[np.argsort(-vals[top])]:
        cell = tuple(np.round(grid[i], 2))
        if cell not in cells and len(want) < 48:
            cells.add(cell)
            want.append(fe._interior(tuple(grid[i])))
    starts = []
    grouped_newton = fe._grouped_newton

    def recorded(L1, L2, habs, x0):
        starts.append(x0)
        return grouped_newton(L1, L2, habs, x0)

    monkeypatch.setattr(fe, "_grouped_newton", recorded)
    maximize_phi(theta, L1, L2, h)
    # the canonical starts follow, less those that repeat a grid start
    assert starts[:len(want)] == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_solve_matches_numpy_on_well_conditioned_systems(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (m, m))
    a += np.diag(np.sign(rng.uniform(-1.0, 1.0, m)) * (1.0 + np.abs(a).sum(axis=1)))
    a *= 10.0 ** rng.uniform(-3.0, 3.0)
    b = rng.uniform(-1.0, 1.0, m)
    x = fe._solve(a.tolist(), b.tolist())
    want = np.linalg.solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * (np.linalg.norm(a) * np.linalg.norm(x)
                                                 + np.linalg.norm(b))
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


def test_solve_returns_none_at_a_zero_pivot():
    for a in ([[0.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 3.0]],
              [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]):
        assert fe._solve(a, [1.0] * len(a)) is None, a


def test_one_maximiser_on_the_straight_piece():
    # on J2 = 2 J1 - 3 the Hessian at the symmetric point is singular and
    # Newton stalls ~1e-5 short of it from every nearby start
    for J1 in (1.8, 2.0, 2.2):
        L1, L2, _ = convert_parameters("J", J1, 2 * J1 - 3.0, 3)
        res = maximize_phi(3, L1, L2)
        assert len(res.points) == 1, (J1, res.points)
        assert res.points[0].x == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
        up, down = one_sided_derivatives(3, L1, L2)
        assert abs(up) < 1e-9 and abs(down) < 1e-9, (J1, up, down)


def test_maximiser_near_the_simplex_boundary():
    # x_3 ~ 2e-5 at the maximiser: the best grid points have x_3 = 0, and a
    # Newton from there must stay inside the simplex
    for L1, L2 in ((3.5, -7.5), (2.5, -8.0), (4.0, -5.0)):
        res = maximize_phi(3, L1, L2)
        assert len(res.points) == 1, (L1, L2)
        p = res.points[0]
        assert 0.0 < p.x[2] < 1e-3
        assert phi(3, L1, L2, p) == pytest.approx(res.value, rel=1e-14)
    assert maximize_phi(3, 3.5, -7.5).value == pytest.approx(1.7795609116925921, rel=1e-14)


def _assert_maximisers_attain(theta, L1, L2, h, res):
    assert res.points, (theta, L1, L2, h)
    for p in res.points:
        at = phi(theta, L1, L2, p) + abs(h) * p.y[0]
        assert abs(at - res.value) <= 1e-9 * max(1.0, abs(res.value)), (theta, L1, L2, h, p)


@pytest.mark.parametrize("theta", [2, 3])
@pytest.mark.parametrize("L1, L2, h, corner", [
    (20.0, 0.0, 0.0, 10.0),
    (50.0, 0.0, 0.0, 25.0),
    (1e3, 0.0, 0.0, 500.0),
    (0.0, -50.0, 0.0, 0.0),
    (1.0, 0.0, 30.0, 30.5),
])
def test_low_temperature_maximiser(theta, L1, L2, h, corner):
    # the smallest block is below 1e-8 (e^-1000 underflows at L1 = 1000, where
    # the best grid point, the corner, stands in)
    res = maximize_phi(theta, L1, L2, h)
    _assert_maximisers_attain(theta, L1, L2, h, res)
    assert res.value >= corner
    assert res.points[0].x[-1] < 1e-8


def test_low_temperature_maximiser_is_not_a_lower_stationary_point():
    # a three-block maximiser with x_3 ~ 1e-10 beside the two-block
    # stationary point at 4.50000037
    res = maximize_phi(3, 7.0, -14.0, 1.0)
    assert res.value == pytest.approx(4.500335406476207, rel=1e-12)
    _assert_maximisers_attain(3, 7.0, -14.0, 1.0, res)


@pytest.mark.parametrize("L1, value", [(0.0, 0.019014976191190588),
                                       (5.0, 2.5026386349514779)])
def test_maximiser_on_an_underflowing_face(L1, value):
    # x_3 ~ e^-1000 underflows, so the maximum sits on the x_3 = 0 face:
    # (L1 (1-t)^2 - (1000 - L1) t^2) / 2 - t log t - (1-t) log(1-t) at x = (1-t, t, 0)
    res = maximize_phi(3, L1, -1000.0)
    assert res.value == pytest.approx(value, rel=1e-9)
    (point,) = res.points
    assert point.x[2] == 0.0 and point.y[0] == point.x[0]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
       st.floats(-30.0, 30.0))
def test_maximize_phi_reports_maximisers_attaining_the_value(theta, L1, L2, h):
    _assert_maximisers_attain(theta, L1, L2, h, maximize_phi(theta, L1, L2, h))


def _grid_by_slots(theta, step):
    """The simplex grid built by filling theta slots (reference)."""
    m = int(round(1.0 / step))
    out = []

    def rec(remaining, max_part, slots, prefix):
        if slots == 1:
            if remaining <= max_part:
                out.append(prefix + (remaining,))
            return
        lo = (remaining + slots - 1) // slots
        for v in range(min(remaining, max_part), lo - 1, -1):
            rec(remaining - v, v, slots - 1, prefix + (v,))

    rec(m, m, theta, ())
    return np.array(out, dtype=float) / m


def test_simplex_grid_is_the_partition_lattice():
    for theta, step in ((2, 1e-3), (3, 1e-3), (3, 0.004), (4, 0.01), (5, 0.02)):
        got, want = fe._sorted_simplex_grid(theta, step), _grid_by_slots(theta, step)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (theta, step)


def test_maximize_phi_rejects_non_finite_couplings():
    for args in ((math.inf, 0.0), (0.0, math.nan), (1.0, 0.5, -math.inf)):
        with pytest.raises(ValueError):
            maximize_phi(2, *args)


def test_maximize_phi_rejects_overflowing_couplings():
    # finite couplings that overflow phi: ValueError, not a value of inf
    for theta, args in ((2, (1e308, 1e308)), (3, (1e308, 1e308, 2.0)), (2, (-1e308, -1e308))):
        with pytest.raises(ValueError, match="overflow phi"):
            maximize_phi(theta, *args)


def test_submodule_not_shadowed():
    import orthospin
    import orthospin.free_energy as fe

    assert isinstance(fe, types.ModuleType)
    assert orthospin.free_energy is fe
    assert fe.free_energy is free_energy


def test_newton_stops_where_its_direction_does_not_ascend(monkeypatch):
    # two starts of the curve-C predicate next to a saddle (Hessian
    # eigenvalues ~ (-2.5, +1e-4)) on the straight piece J2 = 2 J1 - 3: the
    # Newton direction there does not ascend, and creeping along it within
    # the rounding slack took all 80 iterations
    calls = []
    block_derivatives = fe._block_derivatives

    def counted(*args, **kwargs):
        calls.append(args)
        return block_derivatives(*args, **kwargs)

    monkeypatch.setattr(fe, "_block_derivatives", counted)
    for L1, L2 in ((2.1, -0.8996093753574219), (2.1745098580266427, -0.8251952791938626)):
        calls.clear()
        assert fe._grouped_newton(L1, L2, 0.0, (0.356, 0.332, 0.312)) is None
        assert len(calls) <= 5, (L1, L2, len(calls))


def _y_star(L2, habs, Y):
    """argmax of -(L2/2) y^2 + habs y over [0, Y]: an end point or the
    stationary point habs / L2."""
    cands = [0.0, Y] + ([habs / L2] if L2 != 0.0 and 0.0 < habs / L2 < Y else [])
    return max(cands, key=lambda y: -(0.5 * L2) * y * y + habs * y)


def test_grid_values_are_phi_plus_the_y_bonus():
    rng = np.random.default_rng(11)
    for theta, step in ((2, 1e-3), (3, 1e-3), (4, 0.01), (3, 0.004)):
        for (L1, L2), habs in itertools.product(((1.3, 0.4), (2.5, -1.7), (-0.8, 2.2)),
                                                (0.0, 0.7)):
            grid, vals = fe._grid_values(theta, step, L1, L2, habs)
            assert grid is fe._sorted_simplex_grid(theta, step)
            for i in rng.choice(len(grid), 50, replace=False):
                x = tuple(float(v) for v in grid[i])
                y = _y_star(L2, habs, x[0] - x[-1])
                want = phi(theta, L1, L2, SimplexPoint(x, (y,) + (0.0,) * (theta - 1))) + habs * y
                assert abs(vals[i] - want) < 1e-12, (theta, step, L1, L2, habs, x)


def test_tied_maximisers_keep_their_order_under_ulp_shifts():
    # at L1 + L2 = beta_c the ordered and symmetric maximisers tie, and
    # their values differ by rounding only: the first maximiser must not
    # depend on the last bits of the couplings
    for theta, L2 in itertools.product((4, 5), (0.0, 0.5)):
        L1 = beta_c(theta) - L2
        firsts = set()
        for k in range(-3, 4):
            shifted = L1
            for _ in range(abs(k)):
                shifted = math.nextafter(shifted, math.copysign(math.inf, k))
            res = maximize_phi(theta, shifted, L2)
            assert len(res.points) == 2, (theta, L2, k)
            firsts.add(round(res.points[0].x[0], 6))
        assert len(firsts) == 1, (theta, L2, firsts)
