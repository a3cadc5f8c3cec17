"""Consistent conjectural variations equilibria in two-player quadratic games.

Importing the package enters each module in sys.modules and binds it here, but
a module runs only when one of its names is first read (importlib.util.LazyLoader),
and an exported name is read from its module then (PEP 562). So a command runs
only the modules it calls."""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# The exported names, by the module that defines them.
_MODULES = {
    "core": "CompositeBlocks Conjecture Dims PlayerCost QuadraticGame assemble_blocks "
            "eval_cost load_game riccati_residual riccati_residual_norms save_game "
            "validate_game",
    "equilibrium": "CcveSolution enumerate_fixed_points solve_ccve solve_via_generalized",
    "lft": "IterationConfig IterationTrace best_response composite_step iterate "
           "lft_cross offset_cross predict",
    "spectral": "Indices LargestMagnitude SmallestMagnitude",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = [*_EXPORTS, "__version__"]
__version__ = "0.1.0"

# Not cli: `python -m ccve.cli` warns when the module is in sys.modules already.
for _name in ("analysis", "builders", "core", "equilibrium", "errors", "lft", "spectral",
              "stability"):
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del sys, LazyLoader, find_spec, module_from_spec, _name, _spec


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
