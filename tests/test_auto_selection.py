"""Auto mode solves the largest-magnitude selection only.

The certificate max|lambda_comp| / min|mu_sel| < 1 can hold only when the d1
selected eigenvalues are the largest in magnitude, so the smallest-magnitude
selection never certifies stable and auto is the explicit largest solve.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccve import builders, cli
from ccve.core import QuadraticGame, save_game
from ccve.equilibrium import solve_ccve, solve_via_generalized
from ccve.errors import (
    CcveError,
    ConjugatePairSplit,
    NoStableSelection,
    SingularComposite,
)
from ccve.spectral import LargestMagnitude, SmallestMagnitude

from conftest import MARGINAL, random_dense_game

ELLIPTIC = builders.ScalarSpec(q1=1.5, r1=0.6, s1=-1.5, q2=1.4, r2=1.8, s2=1.6)


def singular_composite_game():
    """Decoupled 2x1 game: M1, M2 pass validation (rcond 1e-10, 1e-11), but
    the largest selection gives H1 = diag(1e4, 1e-12), rcond 1e-16."""
    z1, z2 = np.zeros(1), np.zeros(2)
    return QuadraticGame.create(
        2, 1,
        (np.diag([1.0, 1e-5]), np.zeros((1, 2)), [[1e-10]], z2, z1),
        ([[1e3]], np.zeros((2, 1)), np.diag([1e-4, 1e7]), z1, z2),
    )


def _outcome(solve, game, selection):
    try:
        return solve(game, selection)
    except CcveError as exc:
        return exc


def _check_invariant(game):
    for solve in (solve_ccve, solve_via_generalized):
        smallest = _outcome(solve, game, SmallestMagnitude)
        assert isinstance(smallest, CcveError) or not smallest.stable
        largest = _outcome(solve, game, LargestMagnitude)
        auto = _outcome(solve, game, "auto")
        if isinstance(auto, NoStableSelection):
            if isinstance(largest, CcveError):
                assert type(auto.__cause__) is type(largest)
            else:
                assert auto.__cause__ is None and not largest.stable
        elif isinstance(auto, CcveError):
            # Errors other than the six rejections pass through unchanged.
            assert type(auto) is type(largest)
        else:
            assert np.array_equal(auto.L1, largest.L1)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_auto_is_largest_on_uniform_games(d1, d2, seed):
    _check_invariant(builders.random_game(d1, d2, recipe="uniform", seed=seed))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_auto_is_largest_on_dense_games(d1, d2, seed):
    _check_invariant(random_dense_game(np.random.default_rng(seed), d1, d2))


@pytest.mark.parametrize("solve", [solve_ccve, solve_via_generalized])
def test_no_stable_selection_carries_its_cause(solve):
    game = builders.build_scalar_game(ELLIPTIC)
    with pytest.raises(NoStableSelection, match="ConjugatePairSplit") as info:
        solve(game)
    assert isinstance(info.value.__cause__, ConjugatePairSplit)


def test_cli_reports_the_cause(tmp_path, capsys):
    path = tmp_path / "elliptic.json"
    save_game(builders.build_scalar_game(ELLIPTIC), path)
    code = cli.main(["solve", "--game", str(path), "--out", str(tmp_path / "s.json")])
    assert code == cli.EXIT_NOT_CERTIFIED == 2
    err = capsys.readouterr().err
    assert "NoStableSelection" in err and "ConjugatePairSplit" in err


@pytest.mark.parametrize("solve", [solve_ccve, solve_via_generalized])
def test_uncertified_largest_selection_has_no_cause(solve):
    game = builders.build_scalar_game(MARGINAL)
    assert not solve(game, LargestMagnitude).stable
    with pytest.raises(NoStableSelection, match=r"largest-magnitude selection is "
                       r"not certified stable \(xi_max = 1, 1\)") as info:
        solve(game)
    assert info.value.__cause__ is None


def test_cli_reports_an_uncertified_selection(tmp_path, capsys):
    path = tmp_path / "marginal.json"
    save_game(builders.build_scalar_game(MARGINAL), path)
    code = cli.main(["solve", "--game", str(path), "--out", str(tmp_path / "s.json")])
    assert code == cli.EXIT_NOT_CERTIFIED == 2
    err = capsys.readouterr().err
    assert "NoStableSelection" in err and "not certified stable" in err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("solve", [solve_ccve, solve_via_generalized])
def test_singular_composite_is_a_rejection(solve):
    with pytest.raises(NoStableSelection, match="SingularComposite") as info:
        solve(singular_composite_game())
    assert isinstance(info.value.__cause__, SingularComposite)


def test_cli_reports_singular_composite(tmp_path, capsys):
    path = tmp_path / "singular_composite.json"
    save_game(singular_composite_game(), path)
    code = cli.main(["solve", "--game", str(path), "--out", str(tmp_path / "s.json")])
    assert code == cli.EXIT_NOT_CERTIFIED == 2
    err = capsys.readouterr().err
    assert "NoStableSelection" in err and "SingularComposite" in err
