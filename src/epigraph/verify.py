"""Diagnostics tying a solved field back to the continuous theory.

Each check packages one falsifiable statement about the field of one run —
the negative-margin slab is linear, a perturbed field is a strictly negative
scheme residual, the dynamic programming inequality holds against Monte
Carlo, the margin quotient stays at most 1 — as a
:class:`DiagnosticReport` with a scalar residual, a tolerance, and enough
detail to locate the worst offender.  :func:`run_battery` runs them on one
solve of the run's problem and grid, as ``epigraph verify`` does.  Each
check is one row of its table: the levels it reads, its call, and the
refusal of a grid it cannot run on, which comes before the sweep.  The
acceptance tests pin their values.  The audits that read no solve (the sign
of the eigenvalue form, the remainder identity) are test references.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import IncompatibleGrids, SchemaViolation
from .fields import Field, Grid, write_json
from .model import Problem
from .simulate import _chunked, _estimate, constant_policy
from .solver import _level_steps, solve_shortfall, step_backward

Array = np.ndarray


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticReport:
    """One check's outcome: pass is defined as max_residual <= tolerance.

    The residual and the tolerance are stored as Python floats, whatever
    number type they are given as."""

    name: str
    max_residual: float
    tolerance: float
    details: dict[str, Any] = dataclass_field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "details": self.details,
        }


def write_reports(path: str, reports: Sequence[DiagnosticReport]) -> None:
    payload = {
        "all_pass": all(r.passed for r in reports),
        "reports": [r.as_dict() for r in reports],
    }
    write_json(path, payload)


def _consistency_allowance(grid: Grid) -> float:
    """The default allowance of the scheme's consistency error, dt + max h + h_b."""
    return grid.dt + float(max(grid.state_spacings)) + grid.margin_spacing


# ---------------------------------------------------------------------------
# the negative-margin slab is the floor minus the margin
# ---------------------------------------------------------------------------

_SLAB_TOLERANCE = 1e-9


def slab_identity_residual(field: Field) -> DiagnosticReport:
    """Check W(t, a, b) = W0(t, a) - b on every node with b <= 0.

    W0 is the field's own margin-0 column, which the sweep steps by the
    floor's rule inside the same step: margin slope -1 (at the terminal
    level it is the terminal cost).  The sub-zero margin columns evolve
    under the scheme's general rule, with the backward margin difference,
    so agreement is still a two-route comparison, not a tautology.  The worst offending node is reported for
    fault localization.
    """
    _require("slab", field.grid)
    b = field.grid.margin_axis
    below = b <= 0.0
    jz = field.grid.margin_zero_index
    n_nodes, worst = 0, None
    for level in field.levels:
        values = field.slice_at(level)
        gap = np.abs(values[..., below] - (values[..., jz, None] - b[below]))
        n_nodes += gap.size
        flat = int(np.argmax(gap))
        if worst is None or gap.flat[flat] > worst[0]:
            worst = (gap.flat[flat], level, np.unravel_index(flat, gap.shape))
    residual, level, worst_idx = worst
    details = {
        "n_nodes": int(n_nodes),
        "worst": {
            "level": int(level),
            "state_index": [int(i) for i in worst_idx[:-1]],
            "margin_index": int(np.flatnonzero(below)[worst_idx[-1]]),
            "residual": float(residual),
        },
    }
    return DiagnosticReport("slab-identity", residual, _SLAB_TOLERANCE, details)


# ---------------------------------------------------------------------------
# strict-subsolution probe
# ---------------------------------------------------------------------------

def _log_margin_probe(t: float, horizon: float, margin: Array, nu: float) -> Array:
    return nu * (-(horizon - t) - np.log1p(margin))


def subsolution_steps(grid: Grid, max_levels: int | None = None) -> Array:
    """The levels k whose step from level k + 1
    :func:`strict_subsolution_residual` checks; it reads k and k + 1."""
    levels = np.arange(grid.n_levels - 1)
    if max_levels is not None and levels.shape[0] > max_levels:
        levels = levels[np.linspace(0, levels.shape[0] - 1, max_levels).astype(int)]
    return levels


def _subsolution_reads(steps: Array) -> set[int]:
    """The levels the probe reads to check ``steps``: each k and k + 1."""
    return {*steps.tolist(), *(steps + 1).tolist()}


def strict_subsolution_residual(
    problem: Problem,
    field: Field,
    nu: float,
    *,
    tol_h: float | None = None,
    max_levels: int | None = None,
) -> DiagnosticReport:
    """Scheme residual of the field after the strictly-negative perturbation.

    Perturbs the solved field by nu * (-(T-t) - log(1+b)) and re-evaluates
    the discrete time slope: the perturbed field must violate the scheme by
    a margin — residual <= -nu/8 plus a consistency allowance ``tol_h`` — on
    at least 95% of interior nodes with b >= 0 (the reported residual is the
    95th-percentile node value).  With nu = 0 this degenerates to checking
    that the solved field itself has zero interior residual.  It checks the
    steps :func:`subsolution_steps` picks for ``max_levels``.
    """
    grid = field.grid
    _require("subsolution", grid)
    levels = subsolution_steps(grid, max_levels)
    unkept = sorted(_subsolution_reads(levels).difference(field.slices))
    if unkept:
        raise ValueError(f"the probe reads levels {unkept}, which the field does not keep")
    tol_h = _consistency_allowance(grid) if tol_h is None else tol_h

    jz = grid.margin_zero_index
    interior: list = [slice(None)] + [slice(1, -1)] * grid.dim_state
    interior.append(slice(jz + 1, -1))

    b = grid.margin_axis
    horizon = problem.horizon
    pooled = []
    for k, t_next, dt, tables in _level_steps(problem, grid, levels):
        pert_prev = field.slice_at(k + 1) + _log_margin_probe(t_next, horizon, b, nu)
        stepped = step_backward(pert_prev, t_next, dt, problem, grid, tables=tables)
        pert_target = field.slice_at(k) + _log_margin_probe(
            float(grid.times[k]), horizon, b, nu
        )
        residual = (pert_target - stepped) / dt
        pooled.append(residual[tuple(interior[1:])][None, ...])
    res = np.concatenate(pooled, axis=0).ravel()

    tolerance = -nu / 8.0 + tol_h
    pctl95 = float(np.quantile(res, 0.95, method="inverted_cdf"))
    details = {
        "nu": nu,
        "tol_h": tol_h,
        "n_nodes": int(res.size),
        "levels_checked": int(len(levels)),
        "fraction_within": float(np.mean(res <= tolerance)),
        "worst_residual": float(res.max()),
        "median_residual": float(np.median(res)),
    }
    return DiagnosticReport("strict-subsolution", pctl95, tolerance, details)


# ---------------------------------------------------------------------------
# one-sided dynamic programming check against Monte Carlo
# ---------------------------------------------------------------------------

def dpp_consistency(
    problem: Problem,
    field: Field,
    t_index: int,
    r_index: int,
    states: Array,
    margins: Array,
    *,
    controls: Array | None = None,
    n_paths: int = 2000,
    dt: float | None = None,
    seed: int = 0,
    tol: float | None = None,
) -> DiagnosticReport:
    """W(t) must not exceed any restarted constant-policy estimate.

    For each sampled (state, margin), simulates the pair from t to the
    intermediate time r under every constant control (the unhedged margin),
    accrues the constraint penalty, continues with the interpolated field
    value at r, and takes the cheapest policy.  Since constant policies are
    a subset of admissible ones, the estimate can only overestimate the true
    continuation value: the check is one-sided,

        W(t, a, b) <= estimate + CI + tol.

    The reported residual is the largest signed gap over the samples.
    """
    if not 0 <= t_index < r_index < field.grid.n_levels:
        raise ValueError("need t_index < r_index on the time grid")
    grid = field.grid
    t0 = float(grid.times[t_index])
    r = float(grid.times[r_index])
    sub = dataclasses.replace(problem, horizon=r)
    if dt is None:
        dt = (r - t0) / 16.0
    tol = _consistency_allowance(grid) if tol is None else tol
    if controls is None:
        controls = problem.controls

    states = np.atleast_2d(np.asarray(states, dtype=float))
    margins = np.atleast_1d(np.asarray(margins, dtype=float))
    rows = []
    worst = -math.inf
    for i in range(states.shape[0]):
        here = float(
            field.evaluate(t_index, states[i : i + 1], margins=margins[i])[0]
        )
        best: dict[str, float] | None = None
        for j, u in enumerate(controls):
            stats = _chunked(
                sub, constant_policy(u), t0, states[i], float(margins[i]),
                n_paths, dt, seed + i * len(controls) + j,
            )
            cont = field.evaluate(r_index, stats["x_T"], margins=stats["y_T"])
            estimate = _estimate(stats["penalty"] + cont)
            if best is None or estimate.mean < best["mean"]:
                best = {"mean": estimate.mean, "half_width": estimate.half_width}
        residual = here - (best["mean"] + best["half_width"])
        worst = max(worst, residual)
        rows.append({
            "state": states[i].tolist(),
            "margin": float(margins[i]),
            "field_value": here,
            "estimate": best["mean"],
            "half_width": best["half_width"],
            "residual": residual,
        })
    details = {
        "t_index": t_index,
        "r_index": r_index,
        "n_paths": n_paths,
        "mc_dt": dt,
        "samples": rows,
    }
    return DiagnosticReport("dpp-one-sided", worst, tol, details)


# ---------------------------------------------------------------------------
# Lipschitz difference quotients
# ---------------------------------------------------------------------------

def _quotients(field: Field) -> dict[str, Any]:
    # the top margin row is the ceiling, Dirichlet data of its own rule: its
    # seam with the evolved rows scales like 1/spacing and says nothing about the
    # field's own regularity, so all quotients exclude it; the largest
    # differences are taken over every kept level
    grid = field.grid
    state_d, margin_d = [0.0] * grid.dim_state, 0.0
    for level in field.levels:
        core = field.slice_at(level)[..., :-1]
        state_d = [max(d, float(np.abs(np.diff(core, axis=i)).max()))
                   for i, d in enumerate(state_d)]
        margin_d = max(margin_d, float(np.abs(np.diff(core, axis=-1)).max()))
    return {"state_quotients": [d / h for d, h in zip(state_d, grid.state_spacings)],
            "margin_quotient": margin_d / grid.margin_spacing}


# margin quotients may exceed 1 by roundoff
_MARGIN_BOUND = 1.0 + 1e-6


def lipschitz_profile(field: Field) -> DiagnosticReport:
    """Difference quotients of the field: slope at most 1 in the margin.

    The margin direction inherits the terminal slice's unit slope and the
    dynamics never amplify it, so its quotient must not exceed 1 (plus
    roundoff); the residual is its slack (pass at 0).  The state quotients
    have no universal constant and are reported without a bound.
    """
    base = _quotients(field)
    return DiagnosticReport("lipschitz-quotients", base["margin_quotient"] - _MARGIN_BOUND, 0.0,
                            {"base": base, "margin_bound": _MARGIN_BOUND})


# ---------------------------------------------------------------------------
# the battery: the checks above on one solve
# ---------------------------------------------------------------------------

_SUBSOLUTION_LEVELS = 25  # the level steps the battery's subsolution probe samples


@dataclass(frozen=True)
class _Check:
    """One row of the battery: the levels of the sweep the check reads, its
    report on ``(problem, field, seed)``, and the message refusing a
    grid it cannot run on (None where it runs)."""

    reads: Callable[[Grid], Iterable[int]]
    call: Callable[[Problem, Field, int], DiagnosticReport]
    refusal: Callable[[Grid], str | None] = lambda grid: None


def _dpp_pair(grid: Grid) -> tuple[int, int]:
    """The levels t and r of the battery's dpp report."""
    return 0, max(1, (grid.n_levels - 1) // 2)


def _dpp_report(problem: Problem, field: Field, seed: int) -> DiagnosticReport:
    """:func:`dpp_consistency` between the :func:`_dpp_pair` levels at four
    interior (state, margin) nodes drawn with ``seed``, every fifth control."""
    grid = field.grid
    rng = np.random.default_rng(seed)
    margin = grid.margin_axis
    low = min(grid.margin_zero_index + 1, margin.size - 2)
    states, margins = [], []
    for _ in range(4):
        states.append(np.array([float(axis[rng.integers(1, axis.size - 1)])
                                for axis in grid.state_axes]))
        margins.append(float(margin[rng.integers(low, margin.size - 1)]))
    stride = max(1, problem.controls.shape[0] // 5)
    return dpp_consistency(problem, field, *_dpp_pair(grid), states, margins,
                           controls=problem.controls[::stride], n_paths=2000,
                           dt=grid.dt, seed=seed)


#: the battery in the order of its reports, one row per check
_BATTERY: dict[str, _Check] = {
    "lipschitz": _Check(lambda grid: range(grid.n_levels),
                        lambda problem, field, *_: lipschitz_profile(field)),
    "slab": _Check(lambda grid: range(grid.n_levels),
                   lambda problem, field, *_: slab_identity_residual(field),
                   # the slab is the part of the margin axis below zero
                   lambda grid: None if grid.margin_axis[0] < 0.0
                   else "need a shortfall field whose margin axis goes below zero"),
    "subsolution": _Check(lambda grid: _subsolution_reads(
                              subsolution_steps(grid, _SUBSOLUTION_LEVELS)),
                          lambda problem, field, seed: strict_subsolution_residual(
                              problem, field, 0.1, max_levels=_SUBSOLUTION_LEVELS),
                          # the probe's log(1 + b) must be finite on the margin axis
                          lambda grid: None if grid.margin_axis[0] > -1.0
                          else "the log-margin probe needs the margin axis above -1"),
    "dpp": _Check(_dpp_pair, _dpp_report),
}
CHECK_NAMES = tuple(_BATTERY)


def _require(name: str, grid: Grid) -> None:
    """Refuse ``grid`` with :class:`IncompatibleGrids` if check ``name`` cannot run on it."""
    refusal = _BATTERY[name].refusal(grid)
    if refusal is not None:
        raise IncompatibleGrids(refusal)


def run_battery(problem: Problem, grid: Grid, checks: str,
                seed: int) -> list[DiagnosticReport]:
    """Run the checks ``checks`` names on one solve of ``problem`` on ``grid``.

    ``checks`` is "all" or a comma-separated subset of :data:`CHECK_NAMES`,
    and the reports come in the order of :data:`CHECK_NAMES`.  Under "all" a
    check whose row refuses the grid is skipped (slab needs margins below
    zero, the subsolution probe a margin axis above -1); a check named
    explicitly on such a grid raises :class:`IncompatibleGrids` before the
    sweep.  The checks share one sweep, which keeps only the levels their
    rows read.  ``seed`` seeds the dpp samples.

    A check is one row of ``_BATTERY``: to add one, write its function in
    this module and add its row where its report should come.
    """
    if checks in (None, "", "all"):
        names = [name for name, check in _BATTERY.items() if check.refusal(grid) is None]
    else:
        requested = [part.strip() for part in checks.split(",")]
        for name in requested:
            if name not in _BATTERY:
                raise SchemaViolation(
                    f"unknown check {name!r}; available: {', '.join(CHECK_NAMES)}")
        names = [name for name in CHECK_NAMES if name in requested]
        for name in names:
            _require(name, grid)
    keep = set().union(*(_BATTERY[name].reads(grid) for name in names))
    field = solve_shortfall(problem, grid, keep=keep)
    return [_BATTERY[name].call(problem, field, seed) for name in names]
