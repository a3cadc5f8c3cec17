"""Consistent conjectural variations equilibria in two-player quadratic games."""

from .core import (
    CompositeBlocks,
    Conjecture,
    Dims,
    PlayerCost,
    QuadraticGame,
    assemble_blocks,
    eval_cost,
    load_game,
    riccati_residual,
    riccati_residual_norms,
    save_game,
    validate_game,
)
from .equilibrium import (
    CcveSolution,
    enumerate_fixed_points,
    solve_ccve,
    solve_via_generalized,
)
from .lft import (
    IterationConfig,
    IterationTrace,
    best_response,
    composite_step,
    iterate,
    lft_cross,
    offset_cross,
    predict,
)
from .spectral import Indices, LargestMagnitude, SmallestMagnitude

__version__ = "0.1.0"
