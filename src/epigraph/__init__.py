"""Value functions for state-constrained jump-diffusion control.

The package computes the minimal cost achievable while keeping a controlled
jump diffusion inside a constraint region, by solving an auxiliary
unconstrained dynamic-programming equation for an expected-shortfall field on
a state × margin grid and reading the constrained value off that field's zero
level set.
"""

from __future__ import annotations

from .cli import RunConfig, builtin_config, main, parse_config, run, serialize_config
from .errors import EpigraphError
from .fields import Field, Grid, make_grid, terminal_slice, time_axis
from .levelset import UNREACHABLE, LevelSetQuery, default_epsilon, required_margin_profile
from .model import JumpModel, Problem, Region, build_problem, check_regularity
from .problems import builtin_grid, builtin_problem, builtin_scheme
from .simulate import (
    MCEstimate,
    Policy,
    constant_policy,
    estimate_cost,
    estimate_shortfall,
    simulate_pair_path,
)
from .solver import (
    SchemeOptions,
    max_stable_dt,
    solve_shortfall,
    stable_grid,
    step_backward,
)
from .verify import (
    DiagnosticReport,
    dpp_consistency,
    lipschitz_profile,
    slab_identity_residual,
    strict_subsolution_residual,
)

__version__ = "0.1.0"

__all__ = [
    "DiagnosticReport",
    "EpigraphError",
    "Field",
    "Grid",
    "JumpModel",
    "LevelSetQuery",
    "MCEstimate",
    "Policy",
    "Problem",
    "Region",
    "RunConfig",
    "SchemeOptions",
    "UNREACHABLE",
    "build_problem",
    "builtin_config",
    "builtin_grid",
    "builtin_problem",
    "builtin_scheme",
    "check_regularity",
    "constant_policy",
    "default_epsilon",
    "dpp_consistency",
    "estimate_cost",
    "estimate_shortfall",
    "lipschitz_profile",
    "main",
    "make_grid",
    "max_stable_dt",
    "parse_config",
    "required_margin_profile",
    "run",
    "serialize_config",
    "simulate_pair_path",
    "slab_identity_residual",
    "solve_shortfall",
    "stable_grid",
    "step_backward",
    "strict_subsolution_residual",
    "terminal_slice",
    "time_axis",
    "__version__",
]
