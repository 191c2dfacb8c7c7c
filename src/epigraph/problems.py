"""Problem documents: the inline ``problem`` section and the built-in catalog.

A problem is stated as one JSON-shaped document of constant coefficients:
``dim_state``, ``dim_noise``, ``horizon`` (required), ``controls``, ``drift``
(``"control"``, a number, or a per-component list), ``diffusion`` (a number
filling every matrix entry, so with two or more state axes the noise is
correlated, which the sweep refuses), ``running_cost`` (a
number), ``terminal_cost`` (``"zero"``, ``"square"`` for |a|^2, or a number),
``region`` (a kind dict as accepted by :class:`~epigraph.model.Region`, whose
``lo``/``hi``/``center``/``normal`` hold ``dim_state`` numbers, with only
the fields its kind reads),
``jumps`` (``{"marks": [...], "weights": [...]}`` with unit mark shifts), and
``name``.  Every document states an autonomous problem
(:attr:`~epigraph.model.Problem.autonomous`).  The built-in problems are
such documents, each paired with the grid it is meant to be solved on, so
tests, the CLI and demos all run the same configurations by name.
"""

from __future__ import annotations

import copy
from typing import Any, Callable

import numpy as np

from .errors import (
    EpigraphError,
    SchemaViolation,
    fail,
    require_integer,
    require_number,
    require_object,
)
from .model import JumpModel, Problem, Region

Array = np.ndarray

_PROBLEM_KEYS = (
    "dim_state", "dim_noise", "horizon", "controls", "drift", "diffusion",
    "running_cost", "terminal_cost", "region", "jumps", "name",
)
# the fields each region kind of a document reads: a document carries no function
_REGION_FIELDS = {kind: keys for kind, keys in Region.FIELDS.items() if kind != "callable"}
_REGION_KEYS = ("kind", *dict.fromkeys(key for keys in _REGION_FIELDS.values() for key in keys))
_JUMP_KEYS = ("marks", "weights")


# ---------------------------------------------------------------------------
# coefficient callables; each takes an (N, n) state batch
# ---------------------------------------------------------------------------

def _drift_is_control(t: float, a: Array, u: Array) -> Array:
    return np.zeros_like(a) + u


def _constant_drift(row: Array) -> Callable[..., Array]:
    def drift(t: float, a: Array, u: Array) -> Array:
        return np.zeros_like(a) + row
    return drift


def _constant_diffusion(value: float, dim_noise: int) -> Callable[..., Array]:
    """Every entry of the (n, dim_noise) diffusion matrix equals ``value``."""
    def diffusion(t: float, a: Array, u: Array) -> Array:
        return np.full((*a.shape, dim_noise), value)
    return diffusion


def _constant_running(value: float) -> Callable[..., Array]:
    def running(t: float, a: Array, u: Array) -> Array:
        return np.full(a.shape[0], value)
    return running


def _constant_terminal(value: float) -> Callable[[Array], Array]:
    def terminal(a: Array) -> Array:
        return np.full(a.shape[0], value)
    return terminal


def _square_terminal(a: Array) -> Array:
    return (a * a).sum(axis=1)


def _mark_shift(t: float, a: Array, u: Array, e: float) -> Array:
    return np.full(a.shape, float(e))


# ---------------------------------------------------------------------------
# the inline problem section
# ---------------------------------------------------------------------------

def _vector(value: Any, size: int | None, path: str) -> list[float]:
    """A list of ``size`` finite numbers at ``path``; None: of any length."""
    if not isinstance(value, (list, tuple)):
        fail(path, "must be a list of " + ("" if size is None else f"{size} ") + "numbers")
    if size is not None and len(value) != size:
        fail(path, f"needs {size} components, got {len(value)}")
    return [require_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _controls_value(value: Any) -> list[Any]:
    bad = 'must be a non-empty list of numbers (or of per-component lists)'
    if not isinstance(value, (list, tuple)) or not value:
        fail("problem.controls", bad)
    if all(isinstance(u, (int, float)) and not isinstance(u, bool) for u in value):
        return [require_number(u, f"problem.controls[{i}]") for i, u in enumerate(value)]
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, (list, tuple)) or not row:
            fail(f"problem.controls[{i}]", bad)
        out.append(_vector(row, len(out[0]) if out else len(row), f"problem.controls[{i}]"))
    return out


def _drift_value(spec: Any, dim_state: int,
                 width: int) -> tuple[Any, Callable[..., Array] | None]:
    if spec == "control":
        # the drift is the control itself: one component broadcasts
        if width not in (1, dim_state):
            fail("problem.controls", f"needs 1 or {dim_state} components per control "
                                     f'for drift "control", got {width}')
        return "control", _drift_is_control
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        value = require_number(spec, "problem.drift")
        if value == 0.0:
            return 0.0, None
        return value, _constant_drift(np.full(dim_state, value))
    if isinstance(spec, (list, tuple)):
        row = _vector(spec, dim_state, "problem.drift")
        return row, _constant_drift(np.asarray(row))
    fail("problem.drift", 'must be "control", a number, or a list of numbers')


def _terminal_value(spec: Any) -> tuple[Any, Callable[[Array], Array]]:
    if spec == "zero":
        return spec, _constant_terminal(0.0)
    if spec == "square":
        return spec, _square_terminal
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        value = require_number(spec, "problem.terminal_cost", minimum=0.0)
        return value, _constant_terminal(value)
    fail("problem.terminal_cost", 'must be "zero", "square", or a number')


def _region_value(spec: Any, dim_state: int) -> tuple[dict[str, Any], Region | None]:
    if spec is None:
        return {"kind": "all"}, None
    require_object(spec, "problem.region", _REGION_KEYS)
    kind = spec.get("kind", "all")
    if not isinstance(kind, str) or kind not in _REGION_FIELDS:
        fail("problem.region.kind", f"must be one of {tuple(_REGION_FIELDS)}")
    fields = _REGION_FIELDS[kind]
    for key in spec:
        if key not in ("kind", *fields):
            fail(f"problem.region.{key}",
                 f"is not read by kind {kind!r}, which reads {', '.join(fields) or 'no field'}")
    kwargs = dict(spec)
    for key in ("lo", "hi", "center", "normal"):
        if key in spec:
            kwargs[key] = np.array(_vector(spec[key], dim_state, f"problem.region.{key}"))
    for key in ("radius", "offset"):
        if key in spec:
            kwargs[key] = require_number(spec[key], f"problem.region.{key}",
                                         minimum=0.0 if key == "radius" else None)
    try:
        region = Region(**kwargs)
    except (ValueError, TypeError, EpigraphError) as exc:
        raise SchemaViolation(f"problem.region: {exc}") from None
    return copy.deepcopy(dict(spec)), region


def _jumps_value(spec: Any) -> tuple[dict[str, Any] | None, JumpModel | None]:
    if spec is None:
        return None, None
    require_object(spec, "problem.jumps", _JUMP_KEYS, _JUMP_KEYS)
    marks = _vector(spec["marks"], None, "problem.jumps.marks")
    weights = _vector(spec["weights"], len(marks), "problem.jumps.weights")
    try:
        jumps = JumpModel(marks=marks, weights=weights)
    except EpigraphError as exc:
        raise SchemaViolation(f"problem.jumps: {exc}") from None
    return {"marks": marks, "weights": weights}, jumps


def _inline_problem(section: Any) -> tuple[Problem, dict[str, Any]]:
    """Build a problem from an inline ``problem`` document.

    Returns the problem and the normalized document, with every default
    filled in.  Errors name the offending path (``problem.drift[1]``).
    """
    require_object(section, "problem", _PROBLEM_KEYS, ("horizon",))
    dim_state = require_integer(section.get("dim_state", 1), "problem.dim_state", minimum=1)
    dim_noise = require_integer(section.get("dim_noise", 1), "problem.dim_noise", minimum=1)
    horizon = require_number(section["horizon"], "problem.horizon", positive=True)
    controls = _controls_value(section.get("controls", [0.0]))
    width = len(controls[0]) if isinstance(controls[0], list) else 1
    drift_spec, drift = _drift_value(section.get("drift", 0.0), dim_state, width)
    sigma = require_number(section.get("diffusion", 0.0), "problem.diffusion")
    running_value = require_number(section.get("running_cost", 0.0),
                                   "problem.running_cost", minimum=0.0)
    terminal_spec, terminal = _terminal_value(section.get("terminal_cost", "zero"))
    region_spec, region = _region_value(section.get("region"), dim_state)
    jumps_spec, jumps = _jumps_value(section.get("jumps"))
    name = section.get("name", "")
    if not isinstance(name, str):
        fail("problem.name", "must be a string")

    try:
        problem = Problem(
            dim_state=dim_state,
            dim_noise=dim_noise,
            horizon=horizon,
            controls=controls,
            drift=drift,
            diffusion=_constant_diffusion(sigma, dim_noise) if sigma != 0.0 else None,
            running_cost=_constant_running(running_value) if running_value != 0.0 else None,
            terminal_cost=terminal,
            region=region,
            jumps=jumps,
            jump_size=_mark_shift if jumps is not None else None,
            name=name,
            autonomous=True,
        )
    except ValueError as exc:
        raise SchemaViolation(f"problem: {exc}") from None

    normalized = {
        "dim_state": dim_state,
        "dim_noise": dim_noise,
        "horizon": horizon,
        "controls": controls,
        "drift": drift_spec,
        "diffusion": sigma,
        "running_cost": running_value,
        "terminal_cost": terminal_spec,
        "region": region_spec,
        "jumps": jumps_spec,
        "name": name,
    }
    return problem, normalized


def parse_problem(section: Any) -> tuple[Problem, dict[str, Any]]:
    """Build (problem, normalized section) from a ``problem`` section.

    The section is either ``{"builtin": name}``, which normalizes to itself,
    or an inline document.
    """
    if not isinstance(section, dict) or "builtin" not in section:
        return _inline_problem(section)
    require_object(section, "problem", ("builtin",))
    name = section["builtin"]
    if not isinstance(name, str):
        fail("problem.builtin", "must be a string")
    try:
        problem = builtin_problem(name)
    except KeyError as exc:
        raise SchemaViolation(f"problem.builtin: {exc.args[0]}") from None
    return problem, {"builtin": name}


# ---------------------------------------------------------------------------
# the built-in catalog
# ---------------------------------------------------------------------------

# Each built-in is its inline problem document and its stock grid.
_BUILTINS: dict[str, dict[str, Any]] = {
    # Free motion, no costs: the shortfall field is identically zero.
    "zero": {
        "problem": {"name": "zero", "horizon": 1.0, "drift": "control",
                    "diffusion": 0.2, "terminal_cost": "zero",
                    "controls": [-1.0, 0.0, 1.0]},
        "grid": {"state": [[-3.0, 3.0, 101]], "margin": [0.0, 1.0, 101],
                 "time_step": 0.01},
    },
    # Frozen dynamics, region pinned to the origin.  The only cost is the
    # accrued distance |a|, so the margin-0 field is exactly |a|(T - t) and
    # the whole shortfall field is linear in the margin.
    "frozen-penalty": {
        "problem": {"name": "frozen-penalty", "horizon": 1.0, "controls": [0.0],
                    "terminal_cost": "zero",
                    "region": {"kind": "point", "center": [0.0]}},
        "grid": {"state": [[-2.0, 2.0, 81]], "margin": [-1.0, 3.0, 81],
                 "time_step": 0.05},
    },
    # Bounded-velocity steering toward [-1, 1] with quadratic terminal cost.
    # The least achievable m(x_T) from a is max(|a| - 1, 0)^2, the oracle
    # curve for the extracted margin profile.  The domain is padded beyond the
    # reported window: one-sided hull stencils pollute a layer near the state
    # boundary, and the pad keeps that layer away from the profile nodes.
    "deterministic-steering": {
        "problem": {"name": "deterministic-steering", "horizon": 1.0,
                    "drift": "control", "terminal_cost": "square",
                    "controls": np.linspace(-1.0, 1.0, 21).tolist()},
        "grid": {"state": [[-2.1, 2.1, 281]], "margin": [0.0, 0.6, 241],
                 "time_step": None},
    },
    # Uncontrolled unit diffusion with one compensated jump atom: E[x_T^2]
    # from the origin is sigma^2 T + w chi^2 T = 3.0 at T = 1.
    "jump-variance": {
        "problem": {"name": "jump-variance", "horizon": 1.0, "diffusion": 1.0,
                    "jumps": {"marks": [1.0], "weights": [2.0]},
                    "terminal_cost": "square", "controls": [0.0]},
        "grid": {"state": [[-6.0, 6.0, 121]], "margin": [0.0, 4.0, 81],
                 "time_step": None},
    },
}

BUILTIN_NAMES = tuple(_BUILTINS)


def _builtin(name: str) -> dict[str, Any]:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown built-in problem {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None


def builtin_problem(name: str) -> Problem:
    """The named built-in problem; raises KeyError with the catalog on miss."""
    return _inline_problem(_builtin(name)["problem"])[0]


def builtin_grid(name: str) -> dict[str, Any]:
    """Default grid section (state/margin/time_step) for a built-in problem."""
    return copy.deepcopy(_builtin(name)["grid"])
