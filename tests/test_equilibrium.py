"""Direct equilibrium solves, candidate enumeration, and solution JSON."""

import json
from itertools import combinations

import numpy as np
import pytest

from ccve import analysis, builders, lft, spectral
from ccve.core import QuadraticGame, assemble_blocks, riccati_residual_norms
from ccve.equilibrium import (
    _solve_actions,
    enumerate_fixed_points,
    save_solution,
    solution_to_dict,
    solve_ccve,
    solve_via_generalized,
)
from ccve.errors import (
    EnumerationTooLarge,
    NoStableSelection,
    SingularActionSystem,
    SubspaceNotGraph,
)
from ccve.spectral import Indices, LargestMagnitude, SmallestMagnitude

from conftest import (SQ3, WARM_L, WARM_XI, h_matrices, match_multisets,
                      principal_angles, uniform_pool)

WARM_L_UNSTABLE = -2.0 - SQ3


def decoupled_game():
    """B1 = B2 = 0: boldM1 = diag(8, 4, 0.5) and L1 = 0 is the equilibrium."""
    return QuadraticGame.create(
        2, 1,
        (2.0 * np.eye(2), np.zeros((1, 2)), [[0.5]], np.zeros(2), [0.0]),
        ([[1.0]], np.zeros((2, 1)), np.diag([0.25, 0.5]), [0.0], np.zeros(2)),
    )


class TestSolveActions:
    """The solve's actions from the two conjectures, _solve_actions."""

    def test_scalar_hand_value(self):
        x1, x2 = _solve_actions(np.array([[0.5]]), np.array([0.1]),
                                np.array([[0.5]]), np.array([0.2]))
        # x1 = (L2 ell1 + ell2) / (1 - L2 L1) = 0.25 / 0.75.
        assert x1[0] == pytest.approx(1.0 / 3.0)
        assert x2[0] == pytest.approx(0.5 / 3.0 + 0.1)

    def test_mutual_consistency(self):
        rng = np.random.default_rng(5)
        L1 = 0.3 * rng.standard_normal((3, 2))
        L2 = 0.3 * rng.standard_normal((2, 3))
        ell1, ell2 = rng.standard_normal(3), rng.standard_normal(2)
        x1, x2 = _solve_actions(L1, ell1, L2, ell2)
        assert np.allclose(x2, L1 @ x1 + ell1)
        assert np.allclose(x1, L2 @ x2 + ell2)

    def test_singular_loop_rejected(self):
        with pytest.raises(SingularActionSystem):
            _solve_actions(np.eye(1), np.array([0.1]), np.eye(1), np.array([0.2]))


class TestSolveCcve:
    def test_warmup_closed_form(self, warmup_game):
        sol = solve_ccve(warmup_game)
        assert sol.L1[0, 0] == pytest.approx(WARM_L, abs=1e-12)
        assert sol.L2[0, 0] == pytest.approx(WARM_L, abs=1e-12)
        assert sol.stable
        assert sol.selection_used == "largest"
        assert sol.xi_max[0] == pytest.approx(WARM_XI, abs=1e-10)
        # No linear terms: the equilibrium actions are zero.
        assert np.allclose(sol.x1, 0.0, atol=1e-14)
        assert np.allclose(sol.x2, 0.0, atol=1e-14)

    def test_warmup_smallest_is_unstable(self, warmup_game):
        sol = solve_ccve(warmup_game, SmallestMagnitude)
        assert sol.L1[0, 0] == pytest.approx(WARM_L_UNSTABLE, abs=1e-12)
        assert not sol.stable
        assert sol.xi_max[0] == pytest.approx(1.0 / WARM_XI, rel=1e-10)

    def test_decoupled_game_zero_slopes(self):
        sol = solve_ccve(decoupled_game())
        assert np.allclose(sol.L1, 0.0, atol=1e-14)
        assert np.allclose(sol.L2, 0.0, atol=1e-14)
        assert sol.stable

    def test_bench_game_certificates(self, bench_game):
        sol = solve_ccve(bench_game)
        assert sol.stable
        assert sol.selection_used == "largest"
        assert sol.second_order.pass_
        r1, r2 = riccati_residual_norms(bench_game, sol.L1, sol.L2)
        assert max(r1, r2) < 1e-12
        # Actions are mutual best responses under the conjectures.
        assert np.allclose(lft.best_response(bench_game, 1, sol.L1, sol.ell1), sol.x1,
                           atol=1e-10)
        assert np.allclose(lft.best_response(bench_game, 2, sol.L2, sol.ell2), sol.x2,
                           atol=1e-10)
        assert np.allclose(lft.predict(sol.L1, sol.ell1, sol.x1), sol.x2, atol=1e-10)
        assert np.allclose(lft.predict(sol.L2, sol.ell2, sol.x2), sol.x1, atol=1e-10)

    def test_slope_is_composite_fixed_point(self, bench_game):
        sol = solve_ccve(bench_game)
        blocks = assemble_blocks(bench_game)
        step = lft.composite_step(blocks, 1, sol.L1)
        assert np.allclose(step, sol.L1, atol=1e-12)

    def test_h1_spectrum_is_selected_set(self, bench_game):
        sol = solve_ccve(bench_game)
        blocks = assemble_blocks(bench_game)
        full = np.linalg.eigvals(blocks.boldM1)
        h1p = np.linalg.eigvals(h_matrices(blocks, sol.L1, sol.L2)[1])
        # Selected spectrum plus complement reassembles spec(boldM1).
        assert match_multisets(np.concatenate([sol.H1_spectrum, h1p]), full, 1e-8)

    def test_graph_condition_violation_raises(self):
        # Selecting {8, 0.5} mixes the blocks: Y1 is singular.
        with pytest.raises(SubspaceNotGraph):
            solve_ccve(decoupled_game(), Indices([0, 2]))

    def test_elliptic_scalar_has_no_stable_selection(self):
        g = builders.build_scalar_game(
            builders.ScalarSpec(q1=1.5, r1=0.6, s1=-1.5, q2=1.4, r2=1.8, s2=1.6)
        )
        with pytest.raises(NoStableSelection):
            solve_ccve(g)

    def test_unknown_selection_rejected(self, warmup_game):
        with pytest.raises(ValueError):
            solve_ccve(warmup_game, "best")


class TestGeneralizedRoute:
    def test_matches_direct_route(self, bench_game):
        direct = solve_ccve(bench_game)
        gen = solve_via_generalized(bench_game)
        assert np.allclose(direct.L1, gen.L1, atol=1e-10)
        assert np.allclose(direct.L2, gen.L2, atol=1e-10)
        assert np.allclose(direct.x1, gen.x1, atol=1e-10)
        assert gen.selection_used == direct.selection_used

    def test_matches_on_random_pool(self):
        for g in uniform_pool(5, seed0=100, dmax=5):
            direct = solve_ccve(g)
            gen = solve_via_generalized(g)
            assert np.allclose(direct.L1, gen.L1, atol=1e-8)

    def test_basis_invariance(self, bench_game):
        # The slope depends only on the subspace, not on the basis: the direct
        # and generalized bases differ but span the same graph.
        from ccve import spectral
        blocks = assemble_blocks(bench_game)
        d1 = bench_game.dims.d1
        sub_d = spectral.invariant_subspace(blocks.boldM1, d1, LargestMagnitude)
        sub_g = spectral.generalized_pairs(blocks.M1, blocks.M2.T, d1, LargestMagnitude)
        assert np.max(principal_angles(sub_d.basis, sub_g.basis)) < 1e-10
        L_d = np.linalg.solve(sub_d.basis[:d1].T, sub_d.basis[d1:].T).T
        L_g = np.linalg.solve(sub_g.basis[:d1].T, sub_g.basis[d1:].T).T
        assert np.allclose(L_d, L_g, atol=1e-10)


ROUTES = [pytest.param(solve_ccve, id="direct"),
          pytest.param(solve_via_generalized, id="qz")]
ONE_PASS_GAMES = [
    pytest.param(builders.example1_game(), id="2x3"),
    pytest.param(builders.random_game(50, 60, recipe="paper7ex2", seed=0),
                 id="paper7ex2-50x60-s0"),
]


class TestOnePassPerSolve:
    # The kernels a solve and an enumeration call are counted in full by
    # tests/test_kernel_ledger.py; these pins are on the slope terms.

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("game", ONE_PASS_GAMES)
    def test_each_slope_forms_its_terms_once(self, count_calls, game, route):
        # Two slope terms (L1 and L2) from the two players' cost rows, and
        # no np.block.
        calls = count_calls("_slope_terms", "_cost_rows", "np.block")
        route(game)
        assert (calls["_slope_terms"], calls["_cost_rows"], calls["np.block"]) == (2, 2, 0)

    def test_enumeration_forms_each_candidates_terms_once(self, count_calls,
                                                          bench_game):
        # Each candidate's residuals read the terms of its own solve: two
        # slope terms a candidate (the 4 skipped subsets fail before any),
        # and the norms equal riccati_residual_norms bit for bit.
        calls = count_calls("_slope_terms")
        res = enumerate_fixed_points(bench_game)
        assert (len(res.candidates), calls["_slope_terms"]) == (6, 12)
        for c in res.candidates:
            sol = c.solution
            want = riccati_residual_norms(bench_game, sol.L1, sol.L2)
            assert sol.stability.residuals == want


AGREEMENT_GAMES = [pytest.param(g, id=f"pool{j}")
                   for j, g in enumerate(uniform_pool(100))] + ONE_PASS_GAMES


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("game", AGREEMENT_GAMES)
def test_solve_matches_public_functions(game, route):
    # The solve reads L2, the offsets and the second-order report off its
    # own slope terms; each equals, bit for bit, the public function
    # evaluated at the solved slopes.
    sol = route(game)
    L1, L2 = sol.L1, sol.L2
    assert np.array_equal(L2, lft.lft_cross(game, 1, L1))
    assert np.array_equal(sol.ell2, lft.offset_cross(game, 1, L1))
    assert np.array_equal(sol.ell1, lft.offset_cross(game, 2, L2))
    so, want = sol.second_order, analysis.second_order_check(game, L1, L2)
    assert ((so.min_eig_1, so.min_eig_2, so.pass_, so.m1_posdef, so.m2_posdef)
            == (want.min_eig_1, want.min_eig_2, want.pass_, want.m1_posdef,
                want.m2_posdef))


class TestEnumerate:
    def test_scalar_two_fixed_points(self, warmup_game):
        res = enumerate_fixed_points(warmup_game)
        assert len(res.candidates) == 2
        slopes = sorted(c.solution.L1[0, 0] for c in res.candidates)
        assert slopes[0] == pytest.approx(WARM_L_UNSTABLE, abs=1e-12)
        assert slopes[1] == pytest.approx(WARM_L, abs=1e-12)
        assert sum(c.solution.stable for c in res.candidates) == 1

    def test_bench_game_candidate_census(self, bench_game):
        # C(5, 2) = 10 subsets: 6 yield conjectures, 4 are skipped, and the
        # largest-magnitude pair is the unique stable candidate.
        res = enumerate_fixed_points(bench_game)
        assert len(res.candidates) == 6
        assert len(res.skipped) == 4
        stable = [c for c in res.candidates if c.solution.stable]
        assert len(stable) == 1
        assert stable[0].indices == (0, 1)
        sol = solve_ccve(bench_game)
        assert np.allclose(stable[0].solution.L1, sol.L1, atol=1e-10)

    def test_candidates_are_fixed_points(self, bench_game):
        res = enumerate_fixed_points(bench_game)
        for c in res.candidates:
            assert max(c.solution.stability.residuals) < 1e-8

    def test_decoupled_game_skips_mixed_subsets(self):
        res = enumerate_fixed_points(decoupled_game())
        assert len(res.candidates) == 1
        assert np.allclose(res.candidates[0].solution.L1, 0.0)
        assert sorted(reason for _, reason in res.skipped) == [
            "SubspaceNotGraph", "SubspaceNotGraph",
        ]

    def test_pool_never_raises_or_splits_pairs(self):
        # Every subset is solved on one Schur form of boldM1, so a failing
        # subset is skipped and no subset that splits a pair is solved; the
        # only stable candidate is auto's solution.
        for g in uniform_pool(400, dmax=3):
            res = enumerate_fixed_points(g)
            assert "ConjugatePairSplit" not in [reason for _, reason in res.skipped]
            stable = [c for c in res.candidates if c.solution.stable]
            try:
                L1 = solve_ccve(g).L1
            except NoStableSelection:
                assert stable == []
                continue
            assert len(stable) == 1
            assert np.array_equal(stable[0].solution.L1, L1)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_walks_each_pair_closed_subset_once_in_index_order(self, count_calls,
                                                               seed):
        # uniform 2x5: spec(boldM1) holds one conjugate pair, so 11 of the
        # C(7, 2) = 21 subsets keep it whole. Each is reordered once, and
        # candidates and skipped both list them in index order (skipped was
        # in the order of a walk over the Schur blocks).
        game = builders.random_game(2, 5, recipe="uniform", seed=seed)
        values = spectral._schur(assemble_blocks(game).boldM1)[2]
        values = values[spectral._sort_key(values)]
        assert np.count_nonzero(values.imag) == 2
        closed = [idx for idx in combinations(range(7), 2)
                  if set(values[list(idx)]) == set(np.conj(values[list(idx)]))]
        calls = count_calls()
        res = enumerate_fixed_points(game)
        skipped = [idx for idx, _ in res.skipped]
        assert (len(closed), calls["dtrsen"]) == (11, 11)
        assert sorted([c.indices for c in res.candidates] + skipped) == closed
        assert skipped and skipped == sorted(skipped)

    def test_cap_enforced(self, bench_game):
        with pytest.raises(EnumerationTooLarge):
            enumerate_fixed_points(bench_game, cap=5)

    def test_sorted_by_indices(self, bench_game):
        res = enumerate_fixed_points(bench_game)
        idx = [c.indices for c in res.candidates]
        assert idx == sorted(idx)


class TestSolutionJson:
    def test_dict_layout(self, bench_game):
        sol = solve_ccve(bench_game)
        data = solution_to_dict(sol)
        assert set(data) >= {"L1", "ell1", "L2", "ell2", "x1", "x2", "stable",
                             "xi_max", "second_order", "selection", "spectrum",
                             "stability", "warnings"}
        assert data["stable"] is True
        assert data["selection"] == "largest"
        assert len(data["spectrum"]) == bench_game.dims.d1
        assert all(len(pair) == 2 for pair in data["spectrum"])
        assert data["xi_max"]["player1"] == pytest.approx(sol.stability.xi_max_1)
        assert data["second_order"]["pass"] is True

    def test_save_round_trip(self, tmp_path, bench_game):
        sol = solve_ccve(bench_game)
        path = tmp_path / "solution.json"
        save_solution(sol, path)
        data = json.loads(path.read_text())
        assert np.allclose(np.asarray(data["L1"]), sol.L1)
        assert np.allclose(np.asarray(data["x2"]), sol.x2)
        flags = data["stability"]["flags"]
        assert flags == {"stable": True, "marginal": False,
                         "internal_inconsistency": False}
