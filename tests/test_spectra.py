import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st

from orthospin import branching, partitions, spectra
from orthospin.brauer import (
    embed_pair,
    pair_p_matrix,
    pair_q_matrix,
    pair_t_matrix,
    perfect_matchings,
    specialise,
)
from orthospin.group_chars import char_o_field, dim_o
from orthospin.partitions import EMPTY, LambdaRhoPair, Partition, line_invariants
from orthospin.spectra import (
    HamiltonianSpec,
    build_hamiltonian,
    build_line_table,
    line_table,
    convert_parameters,
    default_w,
    dimer_ground_state,
    ising_product_states,
    joint_spectrum,
    line_eigenvalue,
    pair_form,
    require_field,
    sector_basis,
    sector_pair_ops,
    spectral_lines,
    sum_field_op,
    sum_pair_ops,
    total_spin_limit,
    total_spin_observable,
    z_decomposed,
    z_direct,
)
from orthospin.tableaux import dim_sn


def test_convert_parameters():
    assert convert_parameters("K", 4.0, 4.0, 2) == (2.0, 0.0, 1.0)
    L1, L2, shift = convert_parameters("J", 0.0, math.log(16.0), 3)
    assert (L1, L2) == (0.0, math.log(16.0))
    assert shift == -math.log(16.0)
    assert convert_parameters("L", 0.3, -0.7) == (0.3, -0.7, 0.0)
    with pytest.raises(ValueError):
        convert_parameters("K", 1.0, 1.0, 3)
    # only the CLI's spellings are modes
    for mode in ("CANONICAL", "XXZ", "BLBQ", "l", "k", "j"):
        with pytest.raises(ValueError):
            convert_parameters(mode, 1.0, 1.0)


def test_default_w_matrices():
    for theta in (2, 3, 4):
        w = default_w(theta)
        assert np.allclose(w.T, -w)
        assert np.allclose(w.conj().T, w)
    assert sorted(np.linalg.eigvalsh(default_w(2))) == pytest.approx([-1, 1])
    assert sorted(np.linalg.eigvalsh(default_w(3))) == pytest.approx([-1, 0, 1])


def test_hamiltonian_n2_theta2():
    L1, L2 = 0.8, 0.6
    H = build_hamiltonian(HamiltonianSpec(2, 2, L1, L2))
    eigs = sorted(np.linalg.eigvalsh(H))
    expect = sorted([-L1 - 2 * L2, -L1, -L1, L1])
    assert eigs == pytest.approx(expect)


def test_zero_couplings():
    assert np.allclose(build_hamiltonian(HamiltonianSpec(3, 2, 0.0, 0.0)), 0.0)
    assert z_direct(HamiltonianSpec(2, 2, 0.0, 0.0)) == pytest.approx(4.0)
    assert z_decomposed(3, 3, 0.0, 0.0) == pytest.approx(27.0)


def test_z_example_n2():
    z = z_decomposed(2, 2, 1.0, 1.0)
    expect = math.exp(1.5) + 2 * math.exp(0.5) + math.exp(-0.5)
    assert z == pytest.approx(expect, rel=1e-14)
    assert z_direct(HamiltonianSpec(2, 2, 1.0, 1.0)) == pytest.approx(expect)


def test_spectral_lines_n2():
    lines = {(l.lam.parts, l.rho.parts): l for l in spectral_lines(2, 2, 1.0, 1.0)}
    assert lines[(2,), (2,)].eigenvalue == pytest.approx(-1.0)
    assert lines[(2,), (2,)].multiplicity == 2
    assert lines[(), (2,)].eigenvalue == pytest.approx(-3.0)
    assert lines[(1, 1), (1, 1)].eigenvalue == pytest.approx(1.0)


def test_ground_line_eigenvalue_formula():
    for theta, n in ((2, 6), (3, 4), (5, 4)):
        L1, L2 = 1.3, 0.4
        ground = LambdaRhoPair(EMPTY, n // 2, Partition([n]))
        e = line_eigenvalue(*line_invariants(ground, theta), L1, L2)
        expect = -((L1 + L2) * n * (n - 1) / 2 - L2 * (n / 2) * (1 - theta))
        assert e == pytest.approx(expect)


def test_multiplicity_sum_exact():
    for theta, nmax in ((2, 10), (3, 8)):
        for n in range(1, nmax + 1):
            total = sum(l.multiplicity for l in spectral_lines(n, theta, 1.0, 1.0))
            assert total == theta**n


def _cluster(values, tol):
    out = []
    for v in sorted(values):
        if out and v - out[-1][0] <= tol:
            out[-1][1] += 1
            out[-1][0] = v
        else:
            out.append([v, 1])
    return [(v, c) for v, c in out]


def test_spectrum_equality_lines_vs_dense():
    rng = np.random.default_rng(1)
    for theta, nmax in ((2, 7), (3, 5)):
        for n in range(2, nmax + 1):
            L1, L2 = rng.uniform(0.5, 1.5, size=2)
            dense = np.linalg.eigvalsh(build_hamiltonian(HamiltonianSpec(theta, n, L1, L2)))
            merged = {}
            for l in spectral_lines(n, theta, L1, L2):
                merged[round(l.eigenvalue, 9)] = (
                    merged.get(round(l.eigenvalue, 9), 0) + l.multiplicity
                )
            expect = sorted(merged.items())
            got = _cluster(dense, 1e-9 * max(1.0, float(np.max(np.abs(dense)))))
            assert len(expect) == len(got)
            for (ev, mv), (gv, gc) in zip(expect, got):
                assert abs(ev - gv) < 1e-7
                assert mv == gc


def test_flavor_spectra_agree_for_odd_theta():
    for n in (2, 3, 4):
        hq = build_hamiltonian(HamiltonianSpec(3, n, 0.9, 0.4, flavor="Q"))
        hp = build_hamiltonian(HamiltonianSpec(3, n, 0.9, 0.4, flavor="P"))
        assert np.allclose(
            np.linalg.eigvalsh(hq), np.linalg.eigvalsh(hp), atol=1e-10
        )


def test_flavor_spectra_differ_for_even_theta():
    # the two representations are genuinely inequivalent at even theta
    hq = build_hamiltonian(HamiltonianSpec(2, 2, 0.9, 0.4, flavor="Q"))
    hp = build_hamiltonian(HamiltonianSpec(2, 2, 0.9, 0.4, flavor="P"))
    assert not np.allclose(np.linalg.eigvalsh(hq), np.linalg.eigvalsh(hp))


def test_digit_assembly_matches_embedding_loops():
    # the index-arithmetic assembler against per-pair embedding loops
    for theta, n in ((2, 5), (3, 4), (4, 3), (5, 3)):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for flavor, b2 in (("Q", pair_q_matrix(theta)), ("P", pair_p_matrix(theta))):
            sum_t, sum_b = sum_pair_ops(theta, n, flavor)
            t2 = pair_t_matrix(theta)
            assert np.array_equal(sum_t, sum(embed_pair(t2, theta, n, x, y) for x, y in pairs))
            assert np.array_equal(sum_b, sum(embed_pair(b2, theta, n, x, y) for x, y in pairs))


def test_central_elements_on_eigenspaces():
    # the transposition sum acts with the content of rho, and the
    # transposition-minus-bar sum with c(lambda) + k(1-theta)
    for theta, n in ((2, 4), (2, 5), (3, 3), (3, 4)):
        L1, L2 = 1.1, 0.7
        sum_t, sum_b = sum_pair_ops(theta, n, "Q")
        H = -(L1 * sum_t + L2 * sum_b)
        evals, evecs = np.linalg.eigh(H)
        lines = spectral_lines(n, theta, L1, L2)
        by_e = {}
        for l in lines:
            by_e.setdefault(round(l.eigenvalue, 8), []).append(l)
        for e, ls in by_e.items():
            if len(ls) != 1:
                continue  # mixed eigenspace: central scalars differ per line
            l = ls[0]
            sel = np.abs(evals - l.eigenvalue) < 1e-8
            vecs = evecs[:, sel]
            crho = sum(r * (r - 1) // 2 - i * r for i, r in enumerate(l.rho.parts))
            cbr = sum(r * (r - 1) // 2 - i * r for i, r in enumerate(l.lam.parts))
            cbr += l.k * (1 - theta)
            assert np.max(np.abs(sum_t @ vecs - crho * vecs)) < 1e-8
            assert np.max(np.abs((sum_t - sum_b) @ vecs - cbr * vecs)) < 1e-8


def test_central_element_trace():
    # trace of the transposition sum equals sum over lines of mult * c(rho)
    for theta, n in ((2, 4), (3, 3)):
        sum_t, _ = sum_pair_ops(theta, n, "Q")
        from orthospin.partitions import content_sum

        total = sum(
            l.multiplicity * content_sum(l.rho) for l in spectral_lines(n, theta, 1.0, 1.0)
        )
        assert np.trace(sum_t) == pytest.approx(total)


def test_perfect_matchings_count():
    assert len(list(perfect_matchings(list(range(1, 7))))) == 15
    assert len(list(perfect_matchings([]))) == 1


def test_dimer_ground_state():
    for theta, n, flavor in ((2, 4, "Q"), (2, 6, "Q"), (3, 4, "Q"), (3, 4, "P")):
        v = dimer_ground_state(n, theta, flavor)
        H = build_hamiltonian(HamiltonianSpec(theta, n, 1.0, 1.0, flavor=flavor))
        ground = LambdaRhoPair(EMPTY, n // 2, Partition([n]))
        e = line_eigenvalue(*line_invariants(ground, theta), 1.0, 1.0)
        emin = np.linalg.eigvalsh(H)[0]
        assert emin == pytest.approx(e)
        assert np.max(np.abs(H @ v - e * v)) / np.linalg.norm(v) < 1e-10
    with pytest.raises(ValueError):
        dimer_ground_state(3, 2)


def test_dimer_n2_is_pair_vector():
    v = dimer_ground_state(2, 2, "Q")
    assert list(v) == [1.0, 0.0, 0.0, 1.0]


def test_ising_product_states():
    n = 3
    q2, t2 = pair_q_matrix(2), pair_t_matrix(2)
    for v in ising_product_states(n):
        for x in range(1, n + 1):
            for y in range(x + 1, n + 1):
                assert np.max(np.abs(embed_pair(q2, 2, n, x, y) @ v)) == 0.0
                assert np.array_equal(embed_pair(t2, 2, n, x, y) @ v, v)


def test_total_spin_observable():
    assert total_spin_observable(3, 2, 0.7, 0.4, 0.0) == pytest.approx(1.0)
    # the two internal routes must agree (asserted inside); smoke a few points
    for theta, n in ((2, 5), (3, 4)):
        val = total_spin_observable(n, theta, 1.2, 0.5, 0.8)
        assert val > 0


def test_exact_mode_higher_theta_with_field():
    # at n <= 5 every admissible pair is covered by the cell identity, so
    # the exact route extends to theta = 4, 5; field values also exercise
    # the even-theta character doubling
    rng = np.random.default_rng(5)
    for theta in (4, 5):
        for n in (2, 3, 4):
            for h in (0.0, 0.7, -1.0):
                L1, L2 = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
                zd = z_direct(HamiltonianSpec(theta, n, L1, L2, h=h))
                zc = z_decomposed(n, theta, L1, L2, h=h)
                assert abs(zd - zc) / zd < 1e-12, (theta, n, h)


def test_oracle_mode_theta4_end_to_end():
    # the exact lines at theta=4 (King's sum from n=6) reproduce the dense trace
    for n in (2, 3, 4, 5, 6):
        total = sum(l.multiplicity for l in spectral_lines(n, 4, 1.0, 1.0))
        assert total == 4**n
        zd = z_direct(HamiltonianSpec(4, n, 0.9, 0.6))
        zc = z_decomposed(n, 4, 0.9, 0.6)
        assert abs(zd - zc) / zd < 1e-11


def test_total_spin_limits():
    assert total_spin_limit(2, 2.0, 0.5) == pytest.approx(math.cosh(1.0))
    assert total_spin_limit(3, 1.0, 0.0) == 1.0
    assert total_spin_limit(3, 2.0, 0.5) == pytest.approx(math.sinh(1.0) / 1.0)


def test_dense_cap_enforced(monkeypatch):
    for dense in (lambda: z_direct(HamiltonianSpec(2, 4, 1.0, 1.0)),
                  lambda: branching.spectral_extract_branching(4, 2)):
        dense()  # the cap binds on a cached size too
        monkeypatch.setenv("ORTHO_SPIN_DENSE_CAP", "8")
        with pytest.raises(ValueError, match="exceeds cap 8"):
            dense()
        monkeypatch.delenv("ORTHO_SPIN_DENSE_CAP")
    sum_pair_ops.cache_clear()


def _field_refused(theta, flavor, h):
    """Where both routes refuse a field: flavor P at odd theta >= 5."""
    return h != 0.0 and flavor == "P" and theta % 2 == 1 and theta >= 5


def test_sector_route_matches_full_matrix_exponentials():
    # oracle of the oracle: the sector-block z_direct against
    # tr[expm(-H0/n) expm(h sum_x W_x)] on the full standard-basis space
    rng = np.random.default_rng(11)
    checked = 0
    for theta, ns in ((2, (2, 3, 4, 5)), (3, (2, 3, 4, 5)), (4, (2, 3, 4)), (5, (2, 3, 4)),
                      (6, (2, 3)), (7, (2, 3))):
        for n in ns:
            for flavor in ("Q", "P"):
                L1, L2 = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
                h0 = build_hamiltonian(HamiltonianSpec(theta, n, L1, L2, flavor=flavor))
                boltz = scipy.linalg.expm(-h0 / n)
                for h in (0.0, 0.7, -0.7):
                    spec = HamiltonianSpec(theta, n, L1, L2, h=h, flavor=flavor)
                    if _field_refused(theta, flavor, h):
                        with pytest.raises(ValueError, match="pair form"):
                            z_direct(spec)
                        continue
                    g = scipy.linalg.expm(h * sum_field_op(theta, n))
                    ref = float(np.real(np.sum(boltz * g.T)))
                    assert abs(z_direct(spec) - ref) / ref < 1e-12, (theta, n, flavor, h)
                    checked += 1
    assert checked == 98


def test_field_rule_matches_the_pair_form():
    # require_field refuses exactly where W = default_w(theta) breaks the
    # flavor's pair form, W^T J + J W != 0
    for theta in range(2, 10):
        w = default_w(theta)
        for flavor in ("Q", "P"):
            j = pair_form(theta, flavor)
            preserves = np.allclose(w.T @ j + j @ w, 0.0, atol=1e-12)
            assert preserves == (not _field_refused(theta, flavor, 0.5)), (theta, flavor)
            require_field(theta, flavor, 0.0)
            if preserves:
                require_field(theta, flavor, 0.5)
            else:
                with pytest.raises(ValueError, match="pair form"):
                    require_field(theta, flavor, 0.5)


@pytest.mark.parametrize("theta", range(2, 8))
def test_routes_agree_or_refuse_alike(theta):
    # every theta, flavor and field: both routes give Z to 1e-12, or both
    # raise ValueError; flavor P at even theta >= 4 is dense-only
    rng = np.random.default_rng(theta)
    for n in (1, 2, 3):
        for flavor in ("Q", "P"):
            for h in (0.0, 0.5, -0.7):
                L1, L2 = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
                spec = HamiltonianSpec(theta, n, L1, L2, h=h, flavor=flavor)
                if flavor == "P" and theta % 2 == 0 and theta >= 4:
                    assert z_direct(spec) > 0.0
                    with pytest.raises(ValueError, match="character route covers"):
                        z_decomposed(n, theta, L1, L2, h=h, flavor=flavor)
                elif _field_refused(theta, flavor, h):
                    with pytest.raises(ValueError):
                        z_direct(spec)
                    with pytest.raises(ValueError):
                        z_decomposed(n, theta, L1, L2, h=h, flavor=flavor)
                else:
                    zd = z_direct(spec)
                    zc = z_decomposed(n, theta, L1, L2, h=h, flavor=flavor)
                    assert abs(zd - zc) <= 1e-12 * zd, (n, flavor, h)


def test_field_must_preserve_pair_form():
    # the corner-block W at odd theta >= 5 preserves sum_a |a,a> but not the
    # signed singlet, so sum_x W_x does not commute with the P Hamiltonian:
    # both routes raise the same ValueError
    for theta in (5, 7):
        for n in (2, 3):
            for h in (0.5, -0.3):
                with pytest.raises(ValueError, match="pair form") as dense:
                    z_direct(HamiltonianSpec(theta, n, 1.0, 0.7, h=h, flavor="P"))
                with pytest.raises(ValueError, match="pair form") as lines:
                    z_decomposed(n, theta, 1.0, 0.7, h=h, flavor="P")
                assert str(dense.value) == str(lines.value)
    assert z_direct(HamiltonianSpec(5, 3, 1.0, 0.7, flavor="P")) > 0
    assert z_decomposed(3, 5, 1.0, 0.7, flavor="P") > 0
    assert z_direct(HamiltonianSpec(4, 3, 1.0, 0.7, h=0.5, flavor="P")) > 0


@pytest.mark.parametrize("field", ["L1", "L2", "h"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_couplings(field, value):
    kwargs = {"L1": 1.0, "L2": 0.5, "h": 0.0, field: value}
    with pytest.raises(ValueError):
        HamiltonianSpec(2, 3, **kwargs)


@pytest.mark.parametrize("field", ["L1", "L2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_line_routes_reject_non_finite_couplings(field, value):
    kwargs = {"L1": 1.0, "L2": 0.5, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        spectral_lines(5, 2, **kwargs)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        z_decomposed(10, 2, **kwargs)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        z_decomposed(6, 2, **kwargs, flavor="P")
    with pytest.raises(ValueError, match="h must be finite"):
        z_decomposed(10, 2, 1.0, 0.5, h=value)


def test_line_routes_reject_overflowing_couplings():
    # finite couplings whose eigenvalues overflow: ValueError, not nan/-inf
    with pytest.raises(ValueError, match="overflow the line eigenvalues"):
        spectral_lines(4, 2, 1e308, 1e308)
    with pytest.raises(ValueError, match="overflow the line eigenvalues"):
        spectral_lines(4, 3, -1e308, 1e308)


def test_z_decomposed_rejects_unknown_flavor():
    # Z_P differs from Z_Q at theta=2, so a misspelt "P" must not give Z_Q
    assert z_decomposed(4, 2, 1.0, 0.5, flavor="P") != z_decomposed(4, 2, 1.0, 0.5)
    for flavor in ("p", "q", "", "PQ"):
        with pytest.raises(ValueError, match="unknown flavor"):
            z_decomposed(4, 2, 1.0, 0.5, flavor=flavor)
        with pytest.raises(ValueError, match="unknown flavor"):
            HamiltonianSpec(2, 4, 1.0, 0.5, flavor=flavor)


flip_sizes_st = st.one_of(
    st.tuples(st.just(2), st.integers(1, 8)), st.tuples(st.just(3), st.integers(1, 5)),
    st.tuples(st.just(4), st.integers(1, 4)), st.tuples(st.just(5), st.integers(1, 3)),
)


@settings(max_examples=40, deadline=None)
@given(flip_sizes_st, st.sampled_from("QP"), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_flip_reduced_blocks_carry_the_whole_spectrum(size, flavor, L1, L2):
    # each reduced block stands for its charges: [q, -q] for a pair, [0] for
    # a half of the neutral sector; counted so, the blocks' eigenvalues are
    # the spectrum of H0
    theta, n = size
    charges, blocks_t, blocks_b = sector_pair_ops(n, specialise(theta, flavor)[0])
    for q in charges:
        assert len(q) == 1 and not q.any() or len(q) == 2 and np.array_equal(q[1], -q[0])
    copies = [len(q) for q in charges]
    got = np.concatenate([np.repeat(np.linalg.eigvalsh(-(L1 * t + L2 * b)), c)
                          for c, t, b in zip(copies, blocks_t, blocks_b)])
    want = np.linalg.eigvalsh(build_hamiltonian(HamiltonianSpec(theta, n, L1, L2, flavor=flavor)))
    assert np.allclose(np.sort(got), want, rtol=0.0, atol=1e-10)


def test_z_direct_solves_each_charge_pair_once(monkeypatch):
    # the first z_direct of a size, after a cache clear, solves one block per
    # +-q sector pair and two (F-even, F-odd) for q = 0; later calls, at new
    # couplings and fields, solve no block
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for theta, n, flavor in ((2, 4, "Q"), (2, 7, "P"), (3, 4, "Q"), (3, 5, "P"),
                             (4, 3, "Q"), (4, 4, "P"), (5, 3, "Q")):
        sizes = sector_basis(theta, n).sizes
        joint_spectrum.cache_clear()
        calls.clear()
        z_direct(HamiltonianSpec(theta, n, 0.9, -0.4, flavor=flavor))
        neutral = len(sizes) % 2
        assert len(calls) == len(sizes) // 2 + 2 * neutral, (theta, n, flavor)
        assert sum(calls) == (theta**n + sizes[len(sizes) // 2] * neutral) // 2
        calls.clear()
        z_direct(HamiltonianSpec(theta, n, -1.3, 1.7, h=0.8, flavor=flavor))
        assert calls == [], (theta, n, flavor)
        calls.clear()
        z_direct(HamiltonianSpec(theta, n, 0.2, 0.6, flavor=flavor))
        assert calls == [], (theta, n, flavor)


def test_even_theta_p_shares_the_q_transposition_sum(monkeypatch):
    # sum T does not depend on the flavor: one place-permutation sum per
    # size across Q and P, whichever flavor comes first
    calls = []
    permutation_sum = spectra.SectorBasis.permutation_sum

    def counting(basis, sigmas):
        calls.append((basis.theta, basis.n))
        return permutation_sum(basis, sigmas)

    monkeypatch.setattr(spectra.SectorBasis, "permutation_sum", counting)
    for theta, n, deltas in ((2, 5, (2, -2)), (2, 6, (-2, 2)), (4, 3, (4, -4)), (4, 4, (-4, 4))):
        spectra._reduced_transposition_sum.cache_clear()
        for delta in deltas:
            sector_pair_ops(n, delta)
        p, q = sector_pair_ops(n, -theta), sector_pair_ops(n, theta)
        assert p[1] is q[1] and p[2] is not q[2]
    assert calls == [(2, 5), (2, 6), (4, 3), (4, 4)]


def test_standard_basis_p_shares_the_q_transposition_sum(monkeypatch):
    # sum T does not depend on the flavor: Q then P assemble it once
    for value in vars(spectra).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    calls = []
    transposition_sum = spectra._transposition_sum

    def counting(basis):
        calls.append((basis.theta, basis.n))
        return transposition_sum(basis)

    monkeypatch.setattr(spectra, "_transposition_sum", counting)
    q, p = sum_pair_ops(2, 6, "Q"), sum_pair_ops(2, 6, "P")
    assert calls == [(2, 6)]
    assert p[0] is q[0]


def test_odd_theta_p_shares_the_q_cache_entries():
    # at odd theta both pair vectors are symmetric: P is B_n(theta) like Q,
    # so it reads Q's cached joint spectrum; at even theta P is B_n(-theta),
    # with its own sum B blocks and cache entry
    def same_blocks(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    for theta, n in ((3, 3), (3, 6), (3, 7), (5, 4)):
        assert specialise(theta, "P") == specialise(theta, "Q") == (theta, False)
        joint_spectrum.cache_clear()
        for flavor in "PQ":
            z_direct(HamiltonianSpec(theta, n, 0.9, -0.4, flavor=flavor))
        assert joint_spectrum.cache_info().misses == 1
    for theta in (2, 4):
        assert specialise(theta, "P") == (-theta, True)
        p, q = sector_pair_ops(3, -theta), sector_pair_ops(3, theta)
        assert p[1] is q[1] and not same_blocks(p[2], q[2])
        assert joint_spectrum(3, -theta) is not joint_spectrum(3, theta)


@pytest.mark.parametrize("t, b, reason", [
    ([[1.0, 0.0], [0.0, 2.0]], [[0.25, 0.0], [0.0, 0.0]], "off the integer lattice"),
    ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], "do not commute"),
    ([[0.0, 0.0], [0.0, 0.0]], [[7.0, 0.0], [0.0, 0.0]], "traces"),
])
def test_bad_joint_spectrum_raises(monkeypatch, t, b, reason):
    # blocks with a spectrum off the integers, blocks that do not commute,
    # and a sum B past the decode bound (2 at theta = n = 2): no Z
    def blocks(n, delta):
        return [np.zeros((1, 1), dtype=np.int64)], [np.array(t)], [np.array(b)]

    joint_spectrum.cache_clear()
    monkeypatch.setattr(spectra, "sector_pair_ops", blocks)
    try:
        with pytest.raises(ValueError, match=reason):
            z_direct(HamiltonianSpec(2, 2, 0.9, -0.4))
    finally:
        joint_spectrum.cache_clear()


def _z_by_block_solves(spec):
    """Z as z_direct computed it before the joint spectrum: one eigvalsh of
    (L1 t + L2 b)/n per reduced block and coupling."""
    charges, blocks_t, blocks_b = sector_pair_ops(spec.n, specialise(spec.theta, spec.flavor)[0])
    # torus weights y_1 >= ... >= y_r of W = default_w(theta)
    y = np.sort(np.linalg.eigvalsh(default_w(spec.theta)))[::-1][: spec.theta // 2]
    lse = scipy.special.logsumexp
    return math.exp(lse([lse(spec.h * (q @ y))
                         + lse(np.linalg.eigvalsh((spec.L1 * t + spec.L2 * b) / spec.n))
                         for q, t, b in zip(charges, blocks_t, blocks_b)]))


joint_sizes_st = st.one_of(
    st.tuples(st.just(2), st.integers(1, 10)), st.tuples(st.just(3), st.integers(1, 6)),
    st.tuples(st.just(4), st.integers(1, 5)), st.tuples(st.just(5), st.integers(1, 4)),
    st.tuples(st.integers(6, 9), st.integers(1, 3)),
)


@settings(max_examples=60, deadline=None)
@given(joint_sizes_st, st.sampled_from("QP"), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.sampled_from([0.0, 0.3, -0.7, 1.5]))
def test_z_direct_matches_block_solves(size, flavor, L1, L2, h):
    theta, n = size
    spec = HamiltonianSpec(theta, n, L1, L2, h=h, flavor=flavor)
    if _field_refused(theta, flavor, h):
        with pytest.raises(ValueError, match="pair form"):
            z_direct(spec)
        return
    ref = _z_by_block_solves(spec)
    assert abs(z_direct(spec) - ref) <= 1e-12 * ref


def test_z_direct_rejects_overflowing_couplings():
    # finite couplings that overflow L1 t + L2 b: ValueError, no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for theta, flavor in ((2, "Q"), (3, "P"), (4, "P")):
            for L1, L2 in ((1e308, 1e308), (-1e308, 1e308), (1e308, 0.0)):
                with pytest.raises(ValueError, match="overflow the dense blocks"):
                    z_direct(HamiltonianSpec(theta, 4, L1, L2, h=0.5, flavor=flavor))


def test_z_decomposed_flavor_p():
    # theta=2: P = 1 - T; odd theta: P is unitarily equivalent to Q
    for n in (2, 3, 4, 6):
        for h in (0.0, 0.7):
            zc = z_decomposed(n, 2, 1.0, 0.7, h=h, flavor="P")
            zd = z_direct(HamiltonianSpec(2, n, 1.0, 0.7, h=h, flavor="P"))
            assert abs(zc - zd) / zd < 1e-12
    assert z_decomposed(4, 2, 1.0, 0.7, flavor="P") == pytest.approx(58.0048, abs=1e-4)
    assert z_decomposed(4, 3, 1.0, 0.7, h=0.3, flavor="P") == z_decomposed(4, 3, 1.0, 0.7, h=0.3)
    with pytest.raises(ValueError):
        z_decomposed(3, 4, 1.0, 0.7, flavor="P")


def _z_by_lines(n, theta, L1, L2, h=0.0, oracle=False):
    """Z as a plain float sum over the lines, one term at a time: the
    reference for the table's log-domain sum.  oracle=True takes the lines
    from the dense spectral extraction."""
    total = 0.0
    if oracle:
        pairs = branching.spectral_extract_branching(n, theta)
    else:
        pairs = branching.enumerate_Pn(n, theta)
    for pair, b in pairs:
        if h == 0.0:
            chi = float(dim_o(pair.lam, theta))
        else:
            chi = char_o_field(pair.lam, theta, h)
        e = line_eigenvalue(*line_invariants(pair, theta), L1, L2)
        total += chi * b * dim_sn(pair.rho) * math.exp(-e / n)
    return total


sizes_st = st.one_of(
    st.tuples(st.just(2), st.integers(1, 60)), st.tuples(st.just(3), st.integers(1, 20))
)
couplings_st = st.floats(-2.0, 2.0)
fields_st = st.one_of(st.just(0.0), st.floats(-1.5, 1.5))


@settings(max_examples=60, deadline=None)
@given(sizes_st, couplings_st, couplings_st, fields_st)
def test_table_sum_matches_line_loop(size, L1, L2, h):
    theta, n = size
    ref = _z_by_lines(n, theta, L1, L2, h)
    assert z_decomposed(n, theta, L1, L2, h=h) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("theta,n", [(3, 4), (3, 5), (4, 3), (4, 4), (5, 3)])
def test_oracle_table_sum_matches_line_loop(theta, n):
    for L1, L2, h in ((1.0, 0.5, 0.0), (-1.3, 1.7, 0.4)):
        ref = _z_by_lines(n, theta, L1, L2, h, oracle=True)
        got = z_decomposed(n, theta, L1, L2, h=h)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(sizes_st, couplings_st, couplings_st, st.floats(0.01, 1.5))
def test_character_sum_invariants(size, L1, L2, h):
    theta, n = size
    assert z_decomposed(n, theta, 0.0, 0.0) == pytest.approx(theta**n, rel=1e-12, abs=0.0)
    assert z_decomposed(n, theta, L1, L2, h=h) == pytest.approx(
        z_decomposed(n, theta, L1, L2, h=-h), rel=1e-12, abs=0.0)
    table = line_table(n, theta)
    assert sum(d_o * b * d_sn for _, b, d_o, d_sn in table.rows()) == theta**n


def test_partition_functions_reject_overflow():
    with pytest.raises(ValueError, match="log Z"):
        z_decomposed(60, 2, 60.0, 0.0)
    with pytest.raises(ValueError, match="log Z"):
        z_decomposed(60, 2, -200.0, 0.0)
    with pytest.raises(ValueError, match="log Z"):
        z_direct(HamiltonianSpec(2, 4, 2000.0, 0.5))


def _clear_caches():
    """Empty every functools cache of the orthospin modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("orthospin"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_line_table_builds_no_pairs(monkeypatch):
    # the character route reads the positive lines as index arrays: no
    # LambdaRhoPair is built and enumerate_Pn is not called on the way to Z
    def unreachable(*args, **kwargs):
        raise AssertionError(f"pair or enumerate_Pn reached with {args!r}")

    _clear_caches()
    monkeypatch.setattr(LambdaRhoPair, "__post_init__", unreachable)
    for module in (partitions, branching):
        monkeypatch.setattr(module, "_trusted_pair", unreachable, raising=False)
    monkeypatch.setattr(branching, "enumerate_Pn", unreachable)
    line_table(60, 3)
    assert z_decomposed(60, 3, 0.9, 0.4, h=0.3) > 0.0


@pytest.mark.parametrize("theta,nmax", [(2, 12), (3, 10), (4, 8), (5, 7), (6, 6)])
def test_line_table_matches_pair_converter(theta, nmax):
    # the cached table of positive_lines against the builder fed from
    # enumerate_Pn through index_pairs, the converter of the --oracle path
    for n in range(1, nmax + 1):
        table = line_table(n, theta)
        other = build_line_table(branching.index_pairs(n, branching.enumerate_Pn(n, theta)),
                                 theta)
        for name in ("c_rho", "c_lam", "log_weight"):
            np.testing.assert_array_equal(getattr(table, name), getattr(other, name))
        assert list(table.rows()) == list(other.rows()), (theta, n)
        for field in dataclasses.fields(table.weights):
            np.testing.assert_array_equal(getattr(table.weights, field.name),
                                          getattr(other.weights, field.name))


def test_index_pairs_checks_sizes():
    # every rho must have n boxes, and the size check of the pairs runs
    # once per distinct label: n - |lambda| must be even and non-negative
    lines = branching.enumerate_Pn(4, 2)
    for n in (2, 3, 5, 6):
        with pytest.raises(ValueError, match="size mismatch"):
            branching.index_pairs(n, lines)
    with pytest.raises(ValueError, match="size mismatch"):
        branching._index_lines(3, [Partition([2, 1])], [Partition([2])], [0], [0], [1])
    # lines with b = 0 are dropped
    got = branching.index_pairs(4, lines + ((LambdaRhoPair(EMPTY, 2, Partition([3, 1])), 0),))
    want = branching.positive_lines(4, 2)
    assert (got.n, got.rhos, got.lams) == (want.n, want.rhos, want.lams)
    for name in ("rho_index", "lam_index", "b"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
