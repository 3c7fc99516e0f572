import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthospin import branching
from orthospin.branching import (
    b_coefficient,
    enumerate_Pn,
    is_positive_closed_form,
    reduce_by_recurrence,
    spectral_extract_branching,
)
from orthospin.group_chars import dim_gl, dim_o
from orthospin.partitions import (
    LambdaRhoPair,
    Partition,
    enumerate_lambda_rho,
    enumerate_partitions,
)
from orthospin.tableaux import cell_branching, dim_sn


def mk(lam, k, rho):
    return LambdaRhoPair(Partition(lam), k, Partition(rho))


def test_reduce_identity_when_last_row_empty():
    pair = mk([2], 1, [3, 1])
    assert reduce_by_recurrence(pair, 3) == pair


def test_reduce_examples():
    # odd stripped row flips lambda: (2) -> (2,1) at theta=3
    red = reduce_by_recurrence(mk([2], 4, [4, 3, 3]), 3)
    assert red.lam.parts == (2, 1)
    assert red.rho.parts == (1,)
    # even stripped row keeps lambda
    red = reduce_by_recurrence(mk([2], 2, [4, 2]), 2)
    assert red.lam.parts == (2,)
    assert red.rho.parts == (2,)


def test_b_examples():
    assert b_coefficient(mk([2], 1, [3, 1]), 2) == 1
    assert b_coefficient(mk([], 2, [3, 1]), 2) == 0
    assert b_coefficient(mk([1, 1], 1, [2, 1, 1]), 4) == 1
    assert b_coefficient(mk([], 2, [2, 2]), 2) == 1
    with pytest.raises(ValueError):
        b_coefficient(mk([2, 2], 0, [2, 2]), 2)
    with pytest.raises(ValueError):
        b_coefficient(mk([1], 0, [1, 1, 1]), 2)
    for theta in (2, 3):
        with pytest.raises(ValueError):
            b_coefficient(mk([3], -1, [1]), theta)


def test_enumerate_Pn_sweeps_no_candidates(monkeypatch):
    # one restriction per rho: neither the candidate sweep nor the per-pair
    # lookup runs
    def unreachable(*args):
        raise AssertionError(f"per-candidate route reached with {args!r}")

    monkeypatch.setattr(branching, "enumerate_lambda_rho", unreachable)
    monkeypatch.setattr(branching, "b_coefficient", unreachable)
    monkeypatch.setattr(branching, "positive_lines", branching.positive_lines.__wrapped__)
    for theta, n in ((2, 12), (3, 7), (4, 6)):
        branching.enumerate_Pn.__wrapped__(n, theta)


def test_enumerate_Pn_theta3_needs_no_lr_tableaux(monkeypatch):
    # Elliott's rule decides every restriction at theta=3: no Littlewood sum
    # (partitions_inside) and no cell branching number, so no LR tableau
    calls = {"cell_branching": 0, "partitions_inside": 0}

    def counting(name):
        original = getattr(branching, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(branching, name, counting(name))
    monkeypatch.setattr(branching, "_restriction", branching._restriction.__wrapped__)
    monkeypatch.setattr(branching, "positive_lines", branching.positive_lines.__wrapped__)
    enumerate_Pn.__wrapped__(40, 3)
    assert calls == {"cell_branching": 0, "partitions_inside": 0}
    enumerate_Pn.__wrapped__(6, 4)  # the counters see the theta >= 4 route
    assert calls["cell_branching"] > 0 and calls["partitions_inside"] > 0


def test_closed_form_lines_read_no_restriction(monkeypatch):
    # at theta = 2, 3 one vectorised rule call covers every rho: no
    # per-rho restriction runs
    def unreachable(*args):
        raise AssertionError(f"per-rho restriction reached with {args!r}")

    monkeypatch.setattr(branching, "_restriction", unreachable)
    for theta, n in ((2, 1), (2, 2), (2, 41), (3, 1), (3, 3), (3, 28)):
        assert len(branching.positive_lines.__wrapped__(n, theta).b) > 0


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 150))
def test_closed_form_lines_match_b_coefficient(theta, n):
    # every line's b is the per-pair coefficient, and per rho the lines
    # hold the GL(theta) dimension
    lines = branching.positive_lines(n, theta)
    d_o = [dim_o(lam, theta) for lam in lines.lams]
    totals = [0] * len(lines.rhos)
    for (pair, b), r, l in zip(lines.pairs(), lines.rho_index.tolist(), lines.lam_index.tolist()):
        assert b == b_coefficient(pair, theta), pair
        totals[r] += b * d_o[l]
    assert totals == [dim_gl(rho, theta) for rho in lines.rhos]


# sha256 of repr(enumerate_Pn(n, theta)) as Littlewood's sum with King's
# rule gives it at every theta, theta = 3 included
_ENUMERATION_SHA256 = {
    (2, 60): "4e795b8a95cb146652ccc84e95da1b8a40ff8edfb9528df7a4762a28976835fe",
    (2, 140): "4a2b165f46161e6409dd6219a77bcb3933b6892666a7e3a34f418f007be252da",
    (2, 200): "0b2fc12367691d9a7b6f09fd832ffe738d3dbb17a3758865beee388546adcc32",
    (3, 40): "a0bdc27eb30cf4ec5f083a406a6b3b062a944438333a4f5a29c9e9554c7cf218",
    (3, 41): "88ce7e7a0b1963aa7114327f07c1c314f42d063a046e9d16f78ad131833d966a",
    (3, 80): "f69a78dd8888a72d0458a92d22dea9ea0946ac1b5f6f1a74e441a3bf14973b04",
    (4, 12): "69d9aee2b6218fc07a36aa6aba909496117ec9bdf247801565d947a54770da3d",
    (5, 10): "ebe53738419bc917d522e7c5736e9221615389988025be28456213931770e1c4",
}


@pytest.mark.parametrize("theta,n", sorted(_ENUMERATION_SHA256))
def test_enumerate_Pn_pinned(theta, n):
    digest = hashlib.sha256(repr(enumerate_Pn(n, theta)).encode()).hexdigest()
    assert digest == _ENUMERATION_SHA256[theta, n]


def _elliott_per_rho(rhos):
    # one call of Elliott's rule on the row differences of every rho, read
    # back per rho with the det twist (-1)^(L - |rho|)
    owner, spins, mults = branching._elliott(np.array([rho[0] - rho[1] for rho in rhos]),
                                             np.array([rho[1] - rho[2] for rho in rhos]))
    out = [Counter() for _ in rhos]
    for i, spin, mult in zip(owner.tolist(), spins.tolist(), mults.tolist()):
        out[i][branching._one_row_label(spin, (spin - rhos[i].size) % 2 == 1, 3)] = mult
    return out


def test_elliott_matches_littlewood_king():
    # every stripped rho (at most two rows) up to 44 boxes; the Littlewood
    # sum may carry zero multiplicities, which unary + drops
    rhos = [rho for size in range(45) for rho in enumerate_partitions(size, 2)]
    for rho, restriction in zip(rhos, _elliott_per_rho(rhos)):
        assert restriction == +branching._littlewood_king(rho, 3), rho
    assert len(rhos) == 529


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 150), st.integers(0, 300))
def test_elliott_dimensions(second, size):
    # sum over lambda of b d_O(lambda) is the GL(3) dimension of rho
    rho = Partition([size - min(second, size // 2), min(second, size // 2)])
    total = sum(b * dim_o(lam, 3) for lam, b in _elliott_per_rho([rho])[0].items())
    assert total == dim_gl(rho, 3), rho


@pytest.mark.parametrize("theta,nmax", [(2, 16), (3, 12), (4, 9), (5, 7), (6, 6)])
def test_enumerate_Pn_equals_candidate_sweep(theta, nmax):
    # order included: the CLI CSV lists the lines in this order
    for n in range(1, nmax + 1):
        sweep = tuple((p, b) for p in enumerate_lambda_rho(n, theta)
                      if (b := b_coefficient(p, theta)) > 0)
        assert enumerate_Pn.__wrapped__(n, theta) == sweep, (theta, n)


def test_enumerate_Pn_one_cache_entry_per_size():
    from orthospin import spectra

    enumerate_Pn.cache_clear()
    spectra.line_table.cache_clear()
    enumerate_Pn(30, 3)
    spectra.line_table(30, 3)
    assert enumerate_Pn.cache_info().misses == 1


def test_line_table_one_cache_entry_per_size():
    from click.testing import CliRunner

    from orthospin import spectra
    from orthospin.cli import main

    spectra.line_table.cache_clear()
    spectra.z_decomposed(20, 3, 0.9, 0.6)
    spectra.spectral_lines(20, 3, 0.9, 0.6)
    res = CliRunner().invoke(main, ["branching", "--theta", "3", "--n", "20"])
    assert res.exit_code == 0
    assert spectra.line_table.cache_info().misses == 1


def test_positivity_closed_form_examples():
    # theta=3 exception 1: one-row lambda, rho_1 = rho_2 odd
    assert not is_positive_closed_form(mk([2], 2, [3, 3]), 3)
    # theta=3 exception 2: hook lambda, rho_2 = rho_3 even
    assert not is_positive_closed_form(mk([3, 1], 1, [2, 2, 2]), 3)
    # theta=2: lambda=(1,1) wants both rows odd
    assert is_positive_closed_form(mk([1, 1], 2, [3, 3]), 2)
    assert not is_positive_closed_form(mk([1, 1], 1, [2, 2]), 2)
    with pytest.raises(ValueError):
        is_positive_closed_form(mk([1], 0, [1]), 4)


def test_enumerate_Pn_small():
    table = {(p.lam.parts, p.rho.parts): b for p, b in enumerate_Pn(2, 2)}
    assert table == {((2,), (2,)): 1, ((), (2,)): 1, ((1, 1), (1, 1)): 1}
    pairs = enumerate_Pn(1, 5)
    assert len(pairs) == 1 and pairs[0][0].lam.parts == (1,)
    total = sum(dim_o(p.lam, 2) * b * dim_sn(p.rho) for p, b in enumerate_Pn(4, 2))
    assert total == 16


def test_theta2_values_are_indicators():
    for n in range(1, 11):
        for pair in enumerate_lambda_rho(n, 2):
            b = b_coefficient(pair, 2)
            assert b in (0, 1)
            assert (b == 1) == is_positive_closed_form(pair, 2)


def test_theta3_positivity_matches_reduction_values():
    # to n = 40: every theta=3 restriction is two-row, so it builds no LR
    # tableaux
    for n in range(1, 41):
        lines = dict(enumerate_Pn(n, 3))
        for pair in enumerate_lambda_rho(n, 3):
            b = b_coefficient(pair, 3)
            assert lines.get(pair, 0) == b, pair
            assert (b > 0) == is_positive_closed_form(pair, 3), pair
        assert sum(dim_o(p.lam, 3) * b * dim_sn(p.rho) for p, b in lines.items()) == 3 ** n


def test_b_at_most_cell_branching():
    for theta in (2, 3):
        for n in range(1, 11):
            for pair in enumerate_lambda_rho(n, theta):
                bt = cell_branching(pair.lam, pair.rho)
                assert b_coefficient(pair, theta) <= bt, pair


def test_b_equals_cell_when_rho_columns_small():
    from orthospin.partitions import transpose

    for theta in (2, 3, 4):
        for n in range(1, 13):
            if theta == 4 and n > 7:
                continue
            for pair in enumerate_lambda_rho(n, theta):
                cols = transpose(pair.rho)
                if cols[0] + cols[1] > theta + 1:
                    continue
                b = b_coefficient(pair, theta)
                assert b == cell_branching(pair.lam, pair.rho), pair


def test_vanishing_rule():
    # b vanishes when the (flipped, if the stripped row is odd) lambda does
    # not fit inside rho minus its theta-th row
    from orthospin.partitions import column_flip

    for theta in (2, 3):
        for n in range(1, 11):
            for pair in enumerate_lambda_rho(n, theta):
                rt = pair.rho[theta - 1]
                lam = pair.lam if rt % 2 == 0 else column_flip(pair.lam, theta)
                if any(
                    lam[j] > max(pair.rho[j] - rt, 0) for j in range(len(lam))
                ):
                    assert b_coefficient(pair, theta) == 0, pair
                # the literal row condition also holds whenever no flip occurs
                if rt % 2 == 0 and any(
                    pair.lam[j] > pair.rho[j] - rt for j in range(theta // 2)
                ):
                    assert b_coefficient(pair, theta) == 0, pair


def test_growth_bounds():
    for n in range(1, 15):
        vals2 = [b_coefficient(p, 2) for p in enumerate_lambda_rho(n, 2)]
        assert max(vals2) <= 1
        vals3 = [b_coefficient(p, 3) for p in enumerate_lambda_rho(n, 3)]
        assert max(vals3) <= n**7


def test_spectral_extraction_matches_closed_forms():
    for theta in (2, 3):
        for n in range(1, 7):
            table = {
                (p.lam.parts, p.k, p.rho.parts): b
                for p, b in spectral_extract_branching(n, theta)
            }
            for pair in enumerate_lambda_rho(n, theta):
                expect = b_coefficient(pair, theta)
                got = table[(pair.lam.parts, pair.k, pair.rho.parts)]
                assert got == expect, (theta, n, pair)
                assert (got > 0) == is_positive_closed_form(pair, theta)


def test_spectral_extraction_given_parameters():
    res = dict(
        ((p.lam.parts, p.rho.parts), b)
        for p, b in spectral_extract_branching(2, 2, seed=7)
    )
    assert res == {((2,), (2,)): 1, ((), (2,)): 1, ((1, 1), (1, 1)): 1,
                   ((1, 1), (2,)): 0, ((2,), (1, 1)): 0, ((), (1, 1)): 0}


@pytest.mark.parametrize("theta,nmax", [(4, 6), (5, 5), (4, 7), (2, 12), (3, 7), (6, 5)])
def test_b_matches_extraction_beyond_theta3(theta, nmax, monkeypatch):
    # the restriction agrees with the dense oracle on every pair
    if theta**nmax > 4096:
        monkeypatch.setenv("ORTHO_SPIN_DENSE_CAP", "20000")
    for n in range(1, nmax + 1):
        for pair, b in spectral_extract_branching(n, theta):
            assert b_coefficient(pair, theta) == b, (theta, n, pair, b)


@pytest.mark.parametrize("t, b, mult, reason", [
    (99, 0, 1, "lies on no predicted line"),
    (0, 5, 144, "2 solutions within the cell bounds"),
    (0, 5, 1, "0 solutions within the cell bounds"),
], ids=["off-every-line", "ambiguous", "unsolvable"])
def test_extraction_refuses_an_undetermined_spectrum(monkeypatch, t, b, mult, reason):
    # at theta=4, n=6 the lines ((2,1,1), 1, (3,2,1)) and ((2), 2, (3,2,1))
    # share (sum T, sum B) = (0, 5) and d_O d_Sn = 144 with cell bound 1:
    # an eigenspace of dimension 144 fits either line, and one of dimension
    # 1 fits neither
    from orthospin import spectra

    def joint(n, delta):
        mult_ = np.array([mult])
        return spectra.JointSpectrum([np.zeros((1, 2), dtype=np.int64)], np.array([0]),
                                     np.array([float(t)]), np.array([float(b)]), mult_,
                                     np.log(mult_))

    monkeypatch.setattr(spectra, "joint_spectrum", joint)
    with pytest.raises(branching.UnresolvedExtractionError, match=reason):
        spectral_extract_branching(6, 4)


def test_extraction_at_a_cached_size_solves_nothing(monkeypatch):
    # the extraction reads the cached joint spectrum: no eigensolve of its own
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve in an extraction at a cached size")

    for theta, n in ((2, 6), (3, 4), (4, 4)):
        first = spectral_extract_branching(n, theta)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", no_eigensolve)
            m.setattr(np.linalg, "eigvalsh", no_eigensolve)
            assert spectral_extract_branching(n, theta) == first


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(4, 16), (5, 12), (6, 10), (7, 9), (8, 8)]), st.data())
def test_restriction_dimensions(size, data):
    # sum over lambda of b d_O(lambda) is the GL(theta) dimension of rho
    theta, nmax = size
    n = data.draw(st.integers(1, nmax))
    totals = {}
    for pair, b in enumerate_Pn(n, theta):
        totals[pair.rho] = totals.get(pair.rho, 0) + b * dim_o(pair.lam, theta)
    for rho in enumerate_partitions(n, theta):
        assert totals.get(rho, 0) == dim_gl(rho, theta), (theta, rho)


@pytest.mark.parametrize("theta,n", [(2, 10), (3, 9), (4, 10), (5, 8), (6, 8)])
def test_modification_sum_matches_reduction(theta, n):
    # the restriction of the unreduced rho (King's sum at theta = 2 too,
    # where rho has two rows) against b_coefficient past the dense cap
    for pair in enumerate_lambda_rho(n, theta):
        assert branching._restriction(pair.rho, theta)[pair.lam] == b_coefficient(pair, theta), pair


def test_undecided_pair_runs_no_extraction(monkeypatch):
    # King's sum decides a pair the one-column rule and the cell identity
    # cannot, with no dense spectral extraction, and the exact lines give
    # the oracle's Z
    from orthospin import spectra

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return spectral_extract_branching(*args, **kwargs)

    monkeypatch.setattr(branching, "spectral_extract_branching", counting)
    branching.enumerate_Pn.cache_clear()
    spectra.line_table.cache_clear()
    pair = mk([6], 0, [2, 2, 2])
    assert b_coefficient(pair, 4) == 0
    z = spectra.z_decomposed(6, 4, 0.9, 0.6)
    assert z == pytest.approx(14744.46169763795, rel=1e-12, abs=0.0)
    assert len(calls) == 0


def test_okada_rule_theta4():
    for n in (4, 5):
        for pair, b in spectral_extract_branching(n, 4):
            if all(p == 1 for p in pair.lam.parts):
                odd = sum(1 for p in pair.rho.parts if p % 2 == 1)
                assert b == (1 if odd == len(pair.lam) else 0), pair


def test_exact_beyond_dense_caps():
    # theta=6, n=10: rho has tall first columns, lambda is not one-column,
    # and 6^10 is far past the dense cap; King's sum decides the pair
    pair = mk([2, 2], 3, [2, 2, 2, 2, 2])
    assert b_coefficient(pair, 6) == 0
    total = sum(dim_o(p.lam, 6) * b * dim_sn(p.rho) for p, b in enumerate_Pn(10, 6))
    assert total == 6**10
