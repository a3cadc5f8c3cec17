"""The changes of action coordinates, the rows "diagonal" and "householder"
of relations.ROWS."""

import pytest

from conftest import METAMORPHIC_GAMES
from relations import SOLVES, check_auto_solve, check_iterate

KINDS = ["diagonal", "householder"]


@pytest.mark.parametrize("solve", SOLVES)
@pytest.mark.parametrize("gid", METAMORPHIC_GAMES)
@pytest.mark.parametrize("kind", KINDS)
def test_auto_solve_changes_coordinates(kind, gid, solve):
    check_auto_solve(kind, gid, solve)


@pytest.mark.parametrize("mode", ["cross", "composite"])
@pytest.mark.parametrize("gid", METAMORPHIC_GAMES)
@pytest.mark.parametrize("kind", KINDS)
def test_iteration_changes_coordinates(kind, gid, mode):
    check_iterate(kind, gid, mode)
