"""Perturbation spectra, the dense perturbation operator, and certification."""

import numpy as np
import pytest

from ccve import builders, lft, spectral, stability
from ccve.core import _checked_slope, assemble_blocks
from ccve.equilibrium import solve_ccve, solve_via_generalized
from ccve.errors import CcveError, DimensionMismatch, NotAFixedPoint
from ccve.spectral import LargestMagnitude
from ccve.stability import (
    certify,
    perturbation_spectrum,
)

from conftest import (PARTNER_GAMES, SQ3, WARM_L, WARM_XI, composite_blocks, h_matrices,
                      match_multisets, partner_composite, perturbation_operator,
                      uniform_pool)

WARM_H1 = -7.0 - 4.0 * SQ3   # bA1 + bB1 L = -15 - 4 L at the stable slope
WARM_H1P = -7.0 + 4.0 * SQ3  # bD1 - L bB1 = 1 + 4 L


class TestHMatrices:
    def test_warmup_hand_values(self, warmup_game):
        blocks = assemble_blocks(warmup_game)
        H1, H1p, H2, H2p = h_matrices(blocks, [[WARM_L]], [[WARM_L]])
        assert H1[0, 0] == pytest.approx(WARM_H1, abs=1e-12)
        assert H1p[0, 0] == pytest.approx(WARM_H1P, abs=1e-12)
        # The symmetric game gives identical blocks for player 2.
        assert H2[0, 0] == pytest.approx(WARM_H1, abs=1e-12)
        assert H2p[0, 0] == pytest.approx(WARM_H1P, abs=1e-12)

    def test_rejects_non_fixed_pair(self, warmup_game):
        blocks = assemble_blocks(warmup_game)
        with pytest.raises(NotAFixedPoint):
            certify(blocks, warmup_game, [[0.0]], [[0.0]])

    def test_blocks_of_another_game_rejected(self, bench_game):
        sol = solve_ccve(bench_game)
        other = builders.random_game(3, 2, recipe="uniform", seed=0)
        with pytest.raises(DimensionMismatch, match="blocks of Dims"):
            certify(assemble_blocks(other), bench_game, sol.L1, sol.L2)

    def test_spectrum_splitting(self, bench_game):
        # spec(boldM1) is the disjoint union of spec(H1) and spec(H1').
        sol = solve_ccve(bench_game)
        blocks = assemble_blocks(bench_game)
        H1, H1p, H2, H2p = h_matrices(blocks, sol.L1, sol.L2)
        full = np.linalg.eigvals(blocks.boldM1)
        both = np.concatenate([np.linalg.eigvals(H1), np.linalg.eigvals(H1p)])
        assert match_multisets(both, full, 1e-8)
        full2 = np.linalg.eigvals(partner_composite(blocks))
        both2 = np.concatenate([np.linalg.eigvals(H2), np.linalg.eigvals(H2p)])
        assert match_multisets(both2, full2, 1e-8)

    @pytest.mark.parametrize("games", PARTNER_GAMES)
    def test_player2_matches_partner_block_forms(self, games):
        # H2 = K^{-1} and H2' = J^{-1} (K = bC1 L2 + bD1, J = bA1 - L2 bC1)
        # against bA2 + bB2 L2 and bD2 - L2 bB2, the blocks of the partner
        # composite formed here. Tolerance: relative Frobenius distance
        # 1e-12 + eps cond(K), resp. eps cond(J), as inverting K or J
        # amplifies its rounding by its condition number. Measured at
        # 200x240 s1 with the numpy oracle: 3.0e-9 for H2 (cond(K) = 2.3e8),
        # 5.0e-11 for H2'.
        eps = np.finfo(float).eps
        for game in games():
            sol = solve_ccve(game)
            blocks = assemble_blocks(game)
            bA1, _, bC1, bD1 = blocks.bold_blocks()
            bA2, bB2, _, bD2 = composite_blocks(blocks, 2)
            L2 = sol.L2
            _, _, H2, H2p = h_matrices(blocks, sol.L1, L2)
            for H, block_form, factor in (
                    (H2, bA2 + bB2 @ L2, bC1 @ L2 + bD1),
                    (H2p, bD2 - L2 @ bB2, bA1 - L2 @ bC1)):
                dist = np.linalg.norm(H - block_form) / np.linalg.norm(block_form)
                assert dist <= 1e-12 + eps * np.linalg.cond(factor)

    def test_h2p_spectrum_reciprocal_to_h1(self, bench_game):
        # H2' is similar to H1^{-T}: the spectra are elementwise reciprocal.
        sol = solve_ccve(bench_game)
        blocks = assemble_blocks(bench_game)
        H1, _, _, H2p = h_matrices(blocks, sol.L1, sol.L2)
        assert match_multisets(
            np.linalg.eigvals(H2p), 1.0 / np.linalg.eigvals(H1), 1e-8
        )

    def test_alternate_form_consistency(self, bench_game):
        sol = solve_ccve(bench_game)
        blocks = assemble_blocks(bench_game)
        H1 = h_matrices(blocks, sol.L1, sol.L2)[0]
        lhs = bench_game.p2.D.T + bench_game.p2.B @ sol.L1
        alt = np.linalg.solve(lhs, bench_game.p1.A + bench_game.p1.B.T @ sol.L1)
        assert np.allclose(alt, H1, atol=1e-10)


class TestPerturbationSpectrum:
    def test_warmup_single_ratio(self, warmup_game):
        blocks = assemble_blocks(warmup_game)
        ratios = perturbation_spectrum(blocks, 1, [[WARM_L]])
        assert ratios.shape == (1,)
        assert abs(ratios[0]) == pytest.approx(WARM_XI, abs=1e-12)

    def test_all_pairwise_ratios(self, bench_game):
        sol = solve_ccve(bench_game)
        blocks = assemble_blocks(bench_game)
        ratios = perturbation_spectrum(blocks, 1, sol.L1)
        d1, d2 = bench_game.dims.d1, bench_game.dims.d2
        assert ratios.shape == (d1 * d2,)
        bm1 = blocks.boldM1
        A1, B1, D1 = bm1[:d1, :d1], bm1[:d1, d1:], bm1[d1:, d1:]
        lam = np.linalg.eigvals(D1 - sol.L1 @ B1)
        mu = np.linalg.eigvals(A1 + B1 @ sol.L1)
        expected = [l / m for l in lam for m in mu]
        assert match_multisets(ratios, expected, 1e-10)

    def test_matches_operator_eigenvalues(self, bench_game):
        sol = solve_ccve(bench_game)
        blocks = assemble_blocks(bench_game)
        for i, L in ((1, sol.L1), (2, sol.L2)):
            ratios = perturbation_spectrum(blocks, i, L)
            op = perturbation_operator(blocks, i, L)
            assert match_multisets(ratios, np.linalg.eigvals(op), 1e-8)

    def test_operator_action_identity(self, bench_game):
        sol = solve_ccve(bench_game)
        blocks = assemble_blocks(bench_game)
        bA, bB, _, bD = blocks.bold_blocks()
        left = bD - sol.L1 @ bB
        right_inv = np.linalg.inv(bA + bB @ sol.L1)
        op = perturbation_operator(blocks, 1, sol.L1)
        rng = np.random.default_rng(14)
        for _ in range(3):
            dL = rng.standard_normal(sol.L1.shape)
            direct = left @ dL @ right_inv
            via_op = (op @ dL.reshape(-1, order="F")).reshape(dL.shape, order="F")
            assert np.allclose(via_op, direct, atol=1e-12)


class TestCertify:
    def test_warmup_stable_certificate(self, warmup_game):
        blocks = assemble_blocks(warmup_game)
        rep = certify(blocks, warmup_game, [[WARM_L]], [[WARM_L]])
        assert rep.stable
        assert not rep.marginal
        assert not rep.internal_inconsistency
        assert rep.xi_max_1 == pytest.approx(WARM_XI, abs=1e-12)

    def test_warmup_unstable_certificate(self, warmup_game):
        blocks = assemble_blocks(warmup_game)
        L = -2.0 - SQ3
        rep = certify(blocks, warmup_game, [[L]], [[L]])
        assert not rep.stable
        assert rep.xi_max_1 == pytest.approx(1.0 / WARM_XI, rel=1e-10)

    @pytest.mark.parametrize("with_spectra", [False, True])
    def test_guards_k_j_and_h1_once_each_in_order(self, monkeypatch, bench_game,
                                                   with_spectra):
        """With or without a solve's spectra, the certificate guards
        K = bC1 L2 + bD1, J = bA1 - L2 bC1 and H1 = bA1 + bB1 L1 once each and
        in this order, so the first of several singular ones decides the
        error."""
        sol = solve_ccve(bench_game)
        blocks = assemble_blocks(bench_game)
        bA, bB, bC, bD = blocks.bold_blocks()
        named = {"K": bC @ sol.L2 + bD, "J": bA - sol.L2 @ bC, "H1": bA + bB @ sol.L1}
        guarded, lu_checked = [], stability._lu_checked

        def spy(a, *args, **kwargs):
            guarded.append(next(k for k, m in named.items() if np.array_equal(a, m)))
            return lu_checked(a, *args, **kwargs)

        monkeypatch.setattr(stability, "_lu_checked", spy)
        spectra = None
        if with_spectra:
            sub = spectral.invariant_subspace(blocks.boldM1, bench_game.dims.d1,
                                              LargestMagnitude)
            spectra = (sub.eigenvalues, sub.complement)
        stability._certify(blocks, bench_game, _checked_slope(bench_game, 1, sol.L1),
                           _checked_slope(bench_game, 2, sol.L2), spectra)
        assert guarded == ["K", "J", "H1"]

    def test_players_agree(self, bench_game):
        sol = solve_ccve(bench_game)
        blocks = assemble_blocks(bench_game)
        rep = certify(blocks, bench_game, sol.L1, sol.L2)
        assert rep.xi_max_1 == pytest.approx(rep.xi_max_2, rel=1e-9)
        assert not rep.internal_inconsistency

    def test_empirical_contraction_matches_certificate(self):
        # A 1e-4 slope perturbation must contract per step at a rate that
        # approaches xi_max_1.
        for g in uniform_pool(3, seed0=300, dmax=4):
            sol = solve_ccve(g)
            blocks = assemble_blocks(g)
            rng = np.random.default_rng(0)
            E = rng.standard_normal(sol.L1.shape)
            E /= np.linalg.norm(E)
            L = sol.L1 + 1e-4 * E
            rate = None
            prev = 1e-4
            for _ in range(60):
                L = lft.composite_step(blocks, 1, L)
                err = np.linalg.norm(L - sol.L1)
                if err < 1e-13 or prev < 1e-13:
                    break
                rate = err / prev
                prev = err
            assert rate is not None
            assert abs(rate - sol.stability.xi_max_1) < 0.05


class TestMarginalBand:
    def test_flags_exposed(self, bench_game):
        sol = solve_ccve(bench_game)
        rep = sol.stability
        assert rep.stable is True
        assert rep.marginal is False
        assert stability.MARGINAL_BAND == 1e-9
        assert stability.FIXED_POINT_TOL == 1e-6


CROSS_CHECK_GAMES = [
    pytest.param([builders.random_game(50, 60, seed=0)], id="paper7ex2-50x60-s0"),
    pytest.param([builders.random_game(100, 120, seed=0)], id="paper7ex2-100x120-s0"),
    pytest.param(uniform_pool(100), id="uniform_pool-100"),
]


@pytest.mark.parametrize("games", CROSS_CHECK_GAMES)
def test_schur_certificate_matches_h_matrix_route(games):
    """A solve's certificate, read off the reordered Schur diagonal, agrees
    with certify's perturbation-spectrum route (the one ``ccve check``
    uses)."""
    compared = 0
    for game in games:
        blocks = assemble_blocks(game)
        for solve in (solve_ccve, solve_via_generalized):
            for selection in ("auto", LargestMagnitude):
                try:
                    sol = solve(game, selection)
                except CcveError:
                    continue
                got = sol.stability
                ref = certify(blocks, game, sol.L1, sol.L2)
                for xi, xi_ref in ((got.xi_max_1, ref.xi_max_1),
                                   (got.xi_max_2, ref.xi_max_2)):
                    assert xi == pytest.approx(xi_ref, rel=1e-10)
                for r, r_ref in ((got.ratios_1, ref.ratios_1),
                                 (got.ratios_2, ref.ratios_2)):
                    assert np.allclose(np.sort(np.abs(r)), np.sort(np.abs(r_ref)),
                                       rtol=0.0, atol=1e-6)
                assert got.stable == ref.stable
                assert got.marginal == ref.marginal
                compared += 1
    assert compared >= len(games)
