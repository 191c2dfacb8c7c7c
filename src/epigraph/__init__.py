"""Value functions for state-constrained jump-diffusion control.

The package computes the minimal cost achievable while keeping a controlled
jump diffusion inside a constraint region, by solving an auxiliary
unconstrained dynamic-programming equation for an expected-shortfall field on
a state × margin grid and reading the constrained value off that field's zero
level set.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# each exported name by the module that defines it; a name imports its module
# on first use (PEP 562), so ``import epigraph.cli`` loads only what a solve
# runs, not the verification battery or the simulator
_EXPORTS = {
    "cli": ("RunConfig", "builtin_config", "main", "parse_config", "run", "serialize_config"),
    "errors": ("EpigraphError",),
    "fields": ("Field", "Grid", "make_grid", "terminal_slice", "time_axis"),
    "levelset": ("UNREACHABLE", "default_epsilon", "required_margin_profile"),
    "model": ("JumpModel", "Problem", "Region", "build_problem", "check_regularity"),
    "problems": ("builtin_grid", "builtin_problem"),
    "simulate": ("MCEstimate", "Policy", "constant_policy", "estimate_cost",
                 "estimate_shortfall", "simulate_pair_path"),
    "solver": ("max_stable_dt", "solve_shortfall", "stable_grid", "step_backward"),
    "verify": ("DiagnosticReport", "dpp_consistency", "lipschitz_profile",
               "slab_identity_residual", "strict_subsolution_residual"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
