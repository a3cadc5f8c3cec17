"""The cost scalings, the rows relations.scaling(c1, c2)."""

import pytest

from conftest import METAMORPHIC_GAMES
from relations import SOLVES, check_auto_solve, check_iterate

SCALES = [(2.0, 1.0), (0.25, 8.0), (1024.0, 0.5)]


def row(c1, c2):
    return f"scale-{c1:g}-{c2:g}"


@pytest.mark.parametrize("c1, c2", SCALES)
@pytest.mark.parametrize("solve", SOLVES)
@pytest.mark.parametrize("gid", METAMORPHIC_GAMES)
def test_auto_solve_keeps_its_solution(gid, solve, c1, c2):
    check_auto_solve(row(c1, c2), gid, solve)


@pytest.mark.parametrize("c1, c2", SCALES)
@pytest.mark.parametrize("mode", ["cross", "composite"])
@pytest.mark.parametrize("gid", METAMORPHIC_GAMES)
def test_iteration_keeps_its_steps(gid, mode, c1, c2):
    check_iterate(row(c1, c2), gid, mode)
