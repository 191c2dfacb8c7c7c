"""Built-in demonstration problems with default discretizations.

Each entry pairs a :class:`~epigraph.model.Problem` with the grid it is
meant to be solved on, so tests, the CLI, and demos all run the same
configurations by name.
"""

from __future__ import annotations

import copy
from typing import Any, Callable

import numpy as np

from .model import JumpModel, Problem, Region, build_problem

Array = np.ndarray

BUILTIN_NAMES = ("zero", "frozen-penalty", "deterministic-steering", "jump-variance")


def _drift_is_control(t: float, a: Array, u: Array) -> Array:
    return np.zeros_like(np.atleast_2d(a)) + u


def _constant_diffusion(value: float, dim_noise: int) -> Callable[..., Array]:
    """Every entry of the (n, dim_noise) diffusion matrix equals ``value``."""
    def diffusion(t: float, a: Array, u: Array) -> Array:
        a = np.atleast_2d(a)
        return np.full((*a.shape, dim_noise), value)
    return diffusion


def _zero_terminal(a: Array) -> Array:
    return np.zeros(np.atleast_2d(a).shape[0])


def _square_terminal(a: Array) -> Array:
    a = np.atleast_2d(a)
    return (a * a).sum(axis=1)


def _zero() -> Problem:
    """Free motion, no costs: the shortfall field is identically zero."""
    return build_problem(
        dim_state=1,
        dim_noise=1,
        horizon=1.0,
        drift=_drift_is_control,
        diffusion=_constant_diffusion(0.2, 1),
        terminal_cost=_zero_terminal,
        controls=[-1.0, 0.0, 1.0],
        vectorized=True,
        name="zero",
    )


def _frozen_penalty() -> Problem:
    """Frozen dynamics, constraint region pinned to the origin.

    The only cost is the accrued distance |a|, so the margin-0 field is
    exactly |a|(T-t) and the whole shortfall field is linear in the margin.
    """
    return build_problem(
        dim_state=1,
        dim_noise=1,
        horizon=1.0,
        terminal_cost=_zero_terminal,
        controls=[0.0],
        region=Region(kind="point", center=np.zeros(1)),
        vectorized=True,
        name="frozen-penalty",
    )


def _deterministic_steering() -> Problem:
    """Bounded-velocity steering toward [-1, 1] with quadratic terminal cost.

    The least achievable m(x_T) from state a is (max(|a| - 1, 0))^2, which is
    the oracle curve for the extracted margin profile.
    """
    return build_problem(
        dim_state=1,
        dim_noise=1,
        horizon=1.0,
        drift=_drift_is_control,
        terminal_cost=_square_terminal,
        controls=np.linspace(-1.0, 1.0, 21),
        vectorized=True,
        name="deterministic-steering",
    )


def _jump_variance() -> Problem:
    """Uncontrolled unit diffusion with one compensated jump atom.

    E[x_T^2] from the origin is sigma^2 T + w chi^2 T = 3.0 at T = 1 — the
    Monte Carlo oracle value.
    """
    def jump_size(t: float, a: Array, u: Array, e: float) -> Array:
        return np.full(np.atleast_2d(a).shape, float(e))

    return build_problem(
        dim_state=1,
        dim_noise=1,
        horizon=1.0,
        diffusion=_constant_diffusion(1.0, 1),
        jump_size=jump_size,
        jumps=JumpModel(marks=np.array([1.0]), weights=np.array([2.0])),
        terminal_cost=_square_terminal,
        controls=[0.0],
        vectorized=True,
        name="jump-variance",
    )


_FACTORIES = {
    "zero": _zero,
    "frozen-penalty": _frozen_penalty,
    "deterministic-steering": _deterministic_steering,
    "jump-variance": _jump_variance,
}

# Default discretizations.  The steering domain is padded beyond the reported
# window: one-sided hull stencils pollute a layer near the state boundary, and
# the pad keeps that layer away from the profile nodes that matter.
_GRIDS: dict[str, dict[str, Any]] = {
    "zero": {
        "state": [[-3.0, 3.0, 101]],
        "margin": [0.0, 1.0, 101],
        "time_step": 0.01,
    },
    "frozen-penalty": {
        "state": [[-2.0, 2.0, 81]],
        "margin": [-1.0, 3.0, 81],
        "time_step": 0.05,
    },
    "deterministic-steering": {
        "state": [[-2.1, 2.1, 281]],
        "margin": [0.0, 0.6, 241],
        "time_step": None,
    },
    "jump-variance": {
        "state": [[-6.0, 6.0, 121]],
        "margin": [0.0, 4.0, 81],
        "time_step": None,
    },
}

# Per-problem scheme overrides.  The jump-variance problem pairs a kinked
# terminal surface with strong diffusion, where the eigenvalue hedge has no
# finite supremum; the frozen hedge is the stable choice there, and with no
# running cost the margin rows decouple, so the in-slice jump hedge adds
# nothing either.
_SCHEMES: dict[str, dict[str, Any]] = {
    "jump-variance": {"hedge": "frozen", "jump_hedge": "zero"},
}


def builtin_problem(name: str) -> Problem:
    """The named built-in problem; raises KeyError with the catalog on miss."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown built-in problem {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None


def builtin_grid(name: str) -> dict[str, Any]:
    """Default grid section (state/margin/time_step) for a built-in problem."""
    if name not in _GRIDS:
        raise KeyError(
            f"unknown built-in problem {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    return copy.deepcopy(_GRIDS[name])


def builtin_scheme(name: str) -> dict[str, Any]:
    """Scheme overrides for a built-in problem (empty when defaults apply)."""
    if name not in _GRIDS:
        raise KeyError(
            f"unknown built-in problem {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    return copy.deepcopy(_SCHEMES.get(name, {}))
