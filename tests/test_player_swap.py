"""The player swap, the row relations.swap, on relations.SWAP_GAMES."""

import pytest

from relations import SOLVES, SWAP_GAMES, check_auto_solve, check_iterate, check_outcomes


@pytest.mark.parametrize("solve", SOLVES)
@pytest.mark.parametrize("gid", SWAP_GAMES)
def test_auto_solve_swaps(gid, solve):
    check_auto_solve("swap", gid, solve)


@pytest.mark.parametrize("gid", SWAP_GAMES)
def test_nash_social_optimum_and_costs_swap(gid):
    check_outcomes("swap", gid)


@pytest.mark.parametrize("mode", ["cross", "composite"])
@pytest.mark.parametrize("gid", SWAP_GAMES)
def test_iteration_swaps(gid, mode):
    check_iterate("swap", gid, mode)
