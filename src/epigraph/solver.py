"""Backward-in-time explicit sweep for the shortfall field.

The margin-coupled equation is solved per node by a residual-root update:
for each control candidate the spatial stencil fixes everything in the
arrowhead matrix except its corner (which carries the unknown time slope),
the jump part fixes the eigenvalue the corner must produce, and
:func:`epigraph.hamiltonian.corner_for_eigenvalue` inverts the closed-form
top eigenvalue for the corner.  The admissible time slope is the best one
across controls; stepping the previous slice by it is the explicit update.

Differencing conventions (they matter for monotonicity and for the exact
linear-in-margin behaviour of the diagnostic slab below margin 0):

* first differences in state are upwinded against the compensated drift
  (drift minus the jump compensator), falling back to the inward one-sided
  difference on hull faces;
* the margin first difference is backward (margin drifts downward), with the
  forward difference standing in on the bottom face;
* second differences are central, and zero on hull faces (linear ghost
  extension), which keeps a truncated linear profile an exact fixed point.

What a step needs that the slice does not change, the level tables, is
built before the step: the negated distance, and per control the negated
compensated drift with its upwind choice, the running cost, ``sigma
sigma^T`` and the diffusion, each jump atom's interpolation stencil, and the
node-wise Courant rates.  A problem whose coefficients do
not depend on t (``Problem.autonomous``) builds them once per solve; any
other problem builds them at every level, by the same code.

Structurally zero work is skipped, per control and per level, and the
skipped forms give the same bits as the full ones wherever the stencils are
finite:

* a control whose diffusion is identically zero has a zero trace term and a
  zero arrow.  Subtracting a +0 trace leaves every value, -0 included,
  unchanged, and ``corner_for_eigenvalue(target, 0, diag)`` is ``target``
  bit for bit on both branches.  So the curvature stencils, the arrow and
  the inversion are skipped and ``corner = target``;
* without jump atoms the jump supremum is a zero array and the target is
  its negation, -0.  The slope is then ``explicit - (-0.0)``: like the full
  form, it maps an explicit -0 to +0.  When, besides, no control inverts a
  spectral corner, every control's target is that -0, so it is subtracted
  once from the maximum over the controls rather than from each slope: the
  maximum of the unsubtracted slopes differs from the other order at most in
  the sign of a zero, and the subtraction maps both zeros to +0;
* the drift is stored negated, so the advection terms sum to the negated
  advection and the distance is added to them; where the distance is zero
  at every node its negation is -0.0 everywhere, and adding -0.0 is the
  identity, so that add is skipped;
* in frozen-hedge mode the arrow is never used, so it is never built;
* where a control's compensated drift along an axis is positive at every
  state node, or at none, the upwind difference is the forward (backward)
  one everywhere, and one multiply gives the products the masked copy
  would;
* a control whose running cost is zero at every node skips the
  ``running * margin_slope`` term, a signed zero, and the first advection
  term is written into the slope rather than added to a zeroed one.  Both
  can flip only the sign of a zero slope, and no such flip survives the
  final subtraction of the target (-0 or nonzero, and ``x - (-0)`` is +0
  for either zero) or of the spectral corner, which equals the target
  unless the arrow is live.

Two margin columns are stepped by state-only rules rather than the hedged
equation.  The margin-0 column is the floor: at b = 0 neither hedge beats
Jensen, so it is the unhedged value, and the running cost spends the margin
one for one (margin slope -1).  The top column is the ceiling: the running
cost never exhausts it (margin slope 0), and it starts from 0 at the
horizon.  Neither column is hedged: its jump term is the zero-hedge gain and
its arrow is 0, so its corner is its target.  Every other operation of the
step is elementwise along the margin axis, so each of the two columns gets
the bits a state-only sweep of its own would give, for a few column writes
per step rather than a second sweep.

The difference stencils read basic-slice views of a time slice instead of
gathering shifted copies through clipped index arrays.  The arithmetic is
the same, in the same order, so the bits are too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import CFLViolation, NonFiniteUpdate
from .fields import (Field, Grid, _apply_stencil, _interp_stencil, blank_field, make_grid,
                     terminal_slice, time_axis)
from .hamiltonian import corner_for_eigenvalue
from .model import Problem, eval_coefficients_batch

Array = np.ndarray


@dataclass(frozen=True)
class SchemeOptions:
    """Tunable scheme behaviour.

    ``hedge`` selects the diffusion-hedge treatment: "spectral" inverts the
    arrowhead eigenvalue (the hedged equation), "frozen" pins the hedge to
    zero so the field solves the plain linear expectation equation.
    ``jump_hedge`` selects the jump-hedge candidates: "grid" searches margin
    grid differences, "zero" pins the jump hedge to zero.  Jumps have finite
    activity (finitely many atoms), so the nonlocal term is always evaluated
    exactly; no small-jump truncation is needed.
    """

    hedge: str = "spectral"
    jump_hedge: str = "grid"

    def __post_init__(self) -> None:
        if self.hedge not in ("spectral", "frozen"):
            raise ValueError(f"unknown hedge mode {self.hedge!r}")
        if self.jump_hedge not in ("grid", "zero"):
            raise ValueError(f"unknown jump hedge mode {self.jump_hedge!r}")


DEFAULT_OPTIONS = SchemeOptions()


# ---------------------------------------------------------------------------
# difference operators (clamped uniform grids)
# ---------------------------------------------------------------------------

def _along(ndim: int, picks: dict[int, slice]) -> tuple:
    """A basic index over ``ndim`` axes: ``picks[axis]`` on the given axes,
    everything on the others."""
    return tuple(picks.get(axis, slice(None)) for axis in range(ndim))


_LO, _MID, _HI = slice(None, -2), slice(1, -1), slice(2, None)


def first_differences(values: Array, axis: int, h: float) -> tuple[Array, Array]:
    """(forward, backward) quotients; hull faces use the inward one-sided one."""
    def at(part: slice) -> tuple:
        return _along(values.ndim, {axis: part})

    diff = values[at(slice(1, None))] - values[at(slice(None, -1))]
    diff /= h
    fwd = np.concatenate([diff, diff[at(slice(-1, None))]], axis=axis)
    bwd = np.concatenate([diff[at(slice(None, 1))], diff], axis=axis)
    return fwd, bwd


def second_difference(values: Array, axis: int, h: float) -> Array:
    """Central second quotient, zero on the hull faces of ``axis``."""
    def at(part: slice) -> tuple:
        return _along(values.ndim, {axis: part})

    sec = np.zeros(values.shape)
    inner = sec[at(_MID)]
    np.subtract(values[at(_HI)], 2.0 * values[at(_MID)], out=inner)
    inner += values[at(_LO)]
    inner /= h * h
    return sec


def cross_difference(values: Array, ax1: int, ax2: int, h1: float, h2: float) -> Array:
    """Central mixed quotient, zero on the hull faces of either axis."""
    def at(part1: slice, part2: slice) -> tuple:
        return _along(values.ndim, {ax1: part1, ax2: part2})

    out = np.zeros(values.shape)
    inner = out[at(_MID, _MID)]
    np.subtract(values[at(_HI, _HI)], values[at(_HI, _LO)], out=inner)
    inner -= values[at(_LO, _HI)]
    inner += values[at(_LO, _LO)]
    inner /= 4.0 * h1 * h2
    return out


# ---------------------------------------------------------------------------
# the level tables and the stability bound
# ---------------------------------------------------------------------------

_SAFETY = 0.9  # the share of the Courant limit a step may take


@dataclass(frozen=True)
class _ControlTable:
    """One control's coefficients at one time, shaped for the slice.

    ``advection`` holds, per state axis, the negated compensated drift
    (``(*state_shape, 1)``) and its upwind choice: 0 where the forward
    difference is taken at every node, 1 where the backward one is, or the
    mask of the nodes that take the forward one.  ``running`` is None where
    the running cost is zero at every node, ``sig2`` (``sigma sigma^T``) and
    ``diffusion`` are None without diffusion, and ``jumps`` holds one
    interpolation stencil per jump atom, at the shifted state nodes.
    """

    advection: list[tuple[Array, Array | int]]
    running: Array | None
    sig2: Array | None
    diffusion: Array | None
    jumps: list


class _LevelTables:
    """Everything a sweep step needs at time ``t`` that the slice does not
    change: the negated distance (``neg_dist``, None where the distance is
    zero at every node), one :class:`_ControlTable` per control, and the
    node-wise rates of the Courant bound.

    An autonomous problem's tables serve every level of a solve.  Every
    array is sized by the state nodes, not by the slice.
    """

    def __init__(self, problem: Problem, grid: Grid, t: float) -> None:
        self.problem, self.grid = problem, grid
        mesh = grid.state_mesh()
        sshape = grid.state_shape
        n_nodes, n = mesh.shape
        jumps = problem.jumps
        neg_dist = -problem.distance(mesh).reshape(*sshape)[..., None]
        # adding -0.0 is the identity; adding +0.0 is not (it maps -0 to +0)
        skip = not neg_dist.any() and bool(np.signbit(neg_dist).all())
        self.neg_dist = None if skip else neg_dist

        # node-wise maxima over the controls of the rates the bound adds up:
        # the absolute raw and compensated drift per state axis (the sweep
        # advects with the compensated one), |sigma sigma^T| and the running cost
        rate_drift = np.zeros((n_nodes, n))
        rate_sig2 = np.zeros((n_nodes, n, n))
        rate_running = np.zeros(n_nodes)
        self.controls = []
        for u in problem.controls:
            drift, diffusion, jump_sizes, running = eval_coefficients_batch(
                problem, t, mesh, u)
            np.maximum(rate_drift, np.abs(drift), out=rate_drift)
            f_eff = drift
            if jumps.n_atoms:
                f_eff = drift - np.einsum("k,kpi->pi", jumps.weights, jump_sizes)
                np.maximum(rate_drift, np.abs(f_eff), out=rate_drift)
            sig2 = None
            if diffusion.any():
                sig2 = np.einsum("pik,pjk->pij", diffusion, diffusion)
                np.maximum(rate_sig2, np.abs(sig2), out=rate_sig2)
                sig2 = sig2.reshape(*sshape, 1, n, n)
            np.maximum(rate_running, running, out=rate_running)

            neg_f = np.negative(f_eff).reshape(*sshape, n)
            advection = []
            for i in range(n):
                neg_f_i = neg_f[..., i][..., None]
                upwind = neg_f_i < 0.0  # where the compensated drift is positive
                choice = 0 if upwind.all() else 1 if not upwind.any() else upwind
                advection.append((neg_f_i, choice))
            self.controls.append(_ControlTable(
                advection=advection,
                running=running.reshape(*sshape)[..., None] if running.any() else None,
                sig2=sig2,
                diffusion=(None if sig2 is None
                           else diffusion.reshape(*sshape, n, problem.dim_noise)),
                jumps=[_interp_stencil(grid.state_axes, mesh + jump_sizes[k])
                       for k in range(jumps.n_atoms)],
            ))
        self.rates = (rate_drift, rate_sig2, rate_running)

    def bound(self) -> float:
        """The stable step of these tables' rates."""
        return _courant_bound(self.problem, self.grid, *self.rates)


def _courant_bound(problem: Problem, grid: Grid, drift: Array, sig2: Array,
                   running: Array) -> float:
    """The stable step for node-wise rates.

    Inverse sum of the parabolic terms per state axis, the mixed
    second-derivative slack, the advection terms, the margin advection,
    and twice the total jump intensity (the nonlocal evaluation touches
    the shifted node and the center once each).  Returns inf when every
    term vanishes (nothing constrains the step).
    """
    sig2 = sig2.max(axis=0)
    drift = drift.max(axis=0)
    h = grid.state_spacings
    denom = 0.0
    for i in range(len(h)):
        denom += sig2[i, i] / h[i] ** 2
        denom += drift[i] / h[i]
        for j in range(len(h)):
            if j != i:
                denom += sig2[i, j] / (h[i] * h[j])
    denom += float(running.max()) / grid.margin_spacing
    denom += 2.0 * float(problem.jumps.total_mass)
    if denom == 0.0:
        return float("inf")
    return _SAFETY / denom


def max_stable_dt(problem: Problem, grid: Grid) -> float:
    """The default step: the stable bound over every control, at one time
    for an autonomous problem, whose bound is then that of every level, and
    otherwise at the ends and the midpoint of the horizon.  Each sweep step
    checks the bound of its own level's coefficients."""
    times = ((0.0,) if problem.autonomous
             else (0.0, 0.5 * problem.horizon, problem.horizon))
    rates = zip(*(_LevelTables(problem, grid, t).rates for t in times))
    return _courant_bound(problem, grid, *(np.maximum.reduce(r) for r in rates))


def stable_grid(problem: Problem, state: Sequence[tuple[float, float, int]],
                margin: tuple[float, float, int], time_step: float | None = None) -> Grid:
    """The solve grid over these axes.  ``time_step`` None takes the default
    step, :func:`max_stable_dt`, or horizon/128 where nothing constrains the
    step (frozen dynamics)."""
    horizon = problem.horizon
    grid = make_grid(state, margin, time_axis(horizon, horizon / 2.0))
    if time_step is None:
        time_step = max_stable_dt(problem, grid)
        if not np.isfinite(time_step):
            time_step = horizon / 128.0
    return replace(grid, times=time_axis(horizon, time_step))


# ---------------------------------------------------------------------------
# one explicit step of the margin-coupled sweep
# ---------------------------------------------------------------------------

def _state_curvature(prev: Array, h: tuple[float, ...], n: int) -> tuple[list, dict]:
    """Second and mixed differences of ``prev`` along its ``n`` state axes."""
    hess = [second_difference(prev, i, h[i]) for i in range(n)]
    cross_state = {
        (i, j): cross_difference(prev, i, j, h[i], h[j])
        for i in range(n) for j in range(i + 1, n)
    }
    return hess, cross_state


def _trace_term(sig2: Array, hess: list[Array], cross_state: dict) -> Array:
    """1/2 tr(sigma sigma^T D_a^2 W); ``sig2`` broadcasts against the
    stencils on all but its trailing (n, n) axes."""
    trace_term = np.zeros(hess[0].shape)
    for i, hess_i in enumerate(hess):
        trace_term += sig2[..., i, i] * hess_i
    for (i, j), mixed in cross_state.items():
        trace_term += 2.0 * sig2[..., i, j] * mixed
    trace_term *= 0.5
    return trace_term


def _hedge_stencil(prev: Array, grid: Grid) -> tuple[Array, list, Array, Array]:
    """The squared margin rescaling, the state-margin cross differences, the
    arrowhead diagonal, and the noise floor of the margin curvature for one
    slice."""
    n = grid.dim_state
    h = grid.state_spacings
    hb = grid.margin_spacing
    psi_sq = np.maximum(1.0, grid.margin_axis) ** 2
    cross_margin = [cross_difference(prev, i, n, h[i], hb) for i in range(n)]
    c_diag = -0.5 * psi_sq * second_difference(prev, n, hb)
    # An exactly-linear margin column next to a kinked neighbour column
    # leaves the curvature gap at fp-noise scale while the cross term stays
    # O(1); inverting across that gap divides by roundoff.  Below the noise
    # floor of the curvature stencil the honest reading is "flat", i.e. the
    # infeasible fallback.
    gap_noise = (
        32.0 * np.finfo(float).eps
        * max(1.0, float(np.abs(prev).max()))
        * psi_sq / (hb * hb)
    )
    return psi_sq, cross_margin, c_diag, gap_noise


def _best_time_slope(prev: Array, tables: _LevelTables, options: SchemeOptions) -> Array:
    """The per-node admissible time slope, maximized over control
    candidates, with the coefficients of ``tables``.

    ``prev`` has the grid's state axes and a trailing margin axis.  The
    margin slope is the backward margin difference of ``prev``, except on
    the margin-0 and top columns, which take their state-only rules (see the
    module docstring).  Terms that are structurally zero for a control are
    skipped, and the slice-sized buffers are allocated once per call, not
    once per control.
    """
    problem, grid = tables.problem, tables.grid
    n = grid.dim_state
    h = grid.state_spacings
    hb = grid.margin_spacing
    sshape = grid.state_shape
    b_axis = grid.margin_axis
    B = prev.shape[-1]
    K = problem.jumps.n_atoms
    edges = [grid.margin_zero_index, -1]  # the floor and the ceiling column
    spectral = options.hedge == "spectral"
    # without jumps and without a corner to invert, every control's target
    # is -0.0: it is subtracted once, from the maximum
    late_target = not K and not (
        spectral and any(c.sig2 is not None for c in tables.controls))

    # control-independent pieces of the stencil; the second-order ones are
    # built on first use by a control with diffusion
    fwd_bwd = [first_differences(prev, i, h[i]) for i in range(n)]
    _, margin_slope = first_differences(prev, n, hb)
    margin_slope[..., edges] = (-1.0, 0.0)
    curvature: tuple | None = None
    hedge_stencil: tuple | None = None
    if K and options.jump_hedge == "grid":
        beta_mat = b_axis[None, :] - b_axis[:, None]  # beta[current, target]

    best = np.full_like(prev, -np.inf)
    slope = np.empty_like(prev)
    scratch = np.empty_like(prev)
    for control in tables.controls:
        # slope = -dist - advection + running * margin_slope - trace - corner;
        # the drift is stored negated, so the first advection term written
        # into slope is already -advection
        for i, (neg_f_i, choice) in enumerate(control.advection):
            term = scratch if i else slope
            if isinstance(choice, int):
                np.multiply(fwd_bwd[i][choice], neg_f_i, out=term)
            else:
                fwd, bwd = fwd_bwd[i]
                np.copyto(term, bwd)
                np.copyto(term, fwd, where=choice)
                term *= neg_f_i
            if i:
                slope += scratch
        if tables.neg_dist is not None:
            slope += tables.neg_dist
        if control.running is not None:
            np.multiply(control.running, margin_slope, out=scratch)
            slope += scratch

        if control.sig2 is not None:
            if curvature is None:
                curvature = _state_curvature(prev, h, n)
            slope -= _trace_term(control.sig2, *curvature)

        if K:
            jump_sup = np.zeros((*sshape, B))
            for k, stencil in enumerate(control.jumps):
                shifted = _apply_stencil(prev, stencil).reshape(*sshape, B)
                if options.jump_hedge == "zero":
                    gain = -(shifted - prev)
                else:
                    gain = (
                        -(shifted[..., None, :] - prev[..., :, None])
                        + beta_mat * margin_slope[..., :, None]
                    ).max(axis=-1)
                    gain[..., edges] = -(shifted[..., edges] - prev[..., edges])
                jump_sup += problem.jumps.weights[k] * gain
            target = np.negative(jump_sup, out=jump_sup)
        else:
            target = -0.0

        if control.sig2 is not None and spectral:
            if hedge_stencil is None:
                hedge_stencil = _hedge_stencil(prev, grid)
            psi_sq, cross_margin, c_diag, gap_noise = hedge_stencil
            cross_sq = np.zeros((*sshape, B))
            for q in range(problem.dim_noise):
                acc = np.zeros((*sshape, B))
                for i in range(n):
                    acc += control.diffusion[..., i, q][..., None] * cross_margin[i]
                cross_sq += acc * acc
            arrow_sq = 0.25 * psi_sq * cross_sq
            arrow_eff = np.where(target - c_diag > gap_noise, arrow_sq, 0.0)
            arrow_eff[..., edges] = 0.0
            slope -= corner_for_eigenvalue(target, arrow_eff, c_diag)
        elif not late_target:
            slope -= target
        np.maximum(best, slope, out=best)

    if late_target:
        best -= -0.0
    return best


def step_backward(
    prev: Array,
    t: float,
    dt: float,
    problem: Problem,
    grid: Grid,
    options: SchemeOptions = DEFAULT_OPTIONS,
    *,
    tables: _LevelTables | None = None,
) -> Array:
    """Advance the slice at time ``t`` backward to ``t - dt`` by one explicit
    step.  The margin-0 and top columns are stepped by their state-only
    rules; the caller only clips roundoff.

    ``tables`` are the level tables of ``problem`` on ``grid`` at ``t``
    (those of any time for an autonomous problem); None builds them.

    Raises :class:`CFLViolation` when ``dt`` exceeds the stable bound of the
    coefficients at ``t``, the ones the step evaluates."""
    if tables is None:
        tables = _LevelTables(problem, grid, t)
    bound = tables.bound()
    if dt > bound * (1.0 + 1e-9):
        raise CFLViolation(
            f"time step {dt:.6g} exceeds the stable bound {bound:.6g} at t={t:.6g}")
    new = prev - dt * _best_time_slope(prev, tables, options)
    if not np.all(np.isfinite(new)):
        raise NonFiniteUpdate(f"non-finite values in the slice at t={t - dt:.6g}")
    return new


# ---------------------------------------------------------------------------
# the full margin-coupled solve
# ---------------------------------------------------------------------------

def _enforce_nonnegative(slice_vals: Array, t: float) -> Array:
    """Clip roundoff-negative entries to zero; fail on anything worse.

    Roundoff is judged relative to the slice's magnitude, on the scale the
    hedge's ``gap_noise`` floor uses: ``1e-12 * max(1, max |slice|)``.  The
    slice must be finite, as :func:`step_backward` guarantees.
    """
    lowest, highest = float(slice_vals.min()), float(slice_vals.max())
    scale = max(1.0, highest, -lowest)  # max(1, max |slice|), exactly
    if lowest <= -1e-12 * scale:
        raise NonFiniteUpdate(
            f"nonnegativity violated at t={t:.6g}: min value {lowest:.3e}"
        )
    return np.maximum(slice_vals, 0.0)


def solve_shortfall(
    problem: Problem,
    grid: Grid,
    options: SchemeOptions = DEFAULT_OPTIONS,
    *,
    on_level: Callable[[int, Field], object] | None = None,
    resume: tuple[int, Array] | None = None,
) -> Field:
    """Solve the margin-coupled shortfall field backward from the horizon.

    Each level is one :func:`step_backward`, which checks that level's
    stable bound, followed by the roundoff clip.  The level tables are built
    once per level, or once per solve for an autonomous problem.  The sweep starts from
    :func:`epigraph.fields.terminal_slice`.  The margin-0 column is the
    floor and the top margin column the ceiling, each stepped by its
    state-only rule.  Margin columns below zero — when the grid has them —
    evolve under the same scheme and serve as the linearity diagnostic.

    ``on_level`` is called after each completed level with (level, field);
    its return value is ignored, and a callback stops the sweep by raising.
    ``resume`` is the ``(level, slice)`` pair that
    :func:`epigraph.fields.load_snapshot` returns; the solve restarts
    from that slice.
    """
    start, values = resume if resume is not None else (
        grid.n_levels - 1, terminal_slice(problem, grid))
    out = blank_field(grid)
    out.values[start] = values
    out.solved_from = out.solved_to = start

    tables = None
    for level in range(start - 1, -1, -1):
        t = float(grid.times[level + 1])
        dt = t - float(grid.times[level])
        if tables is None or not problem.autonomous:
            tables = _LevelTables(problem, grid, t)
        new = step_backward(out.values[level + 1], t, dt, problem, grid, options,
                            tables=tables)
        out.values[level] = _enforce_nonnegative(new, float(grid.times[level]))
        out.solved_from = level
        if on_level is not None:
            on_level(level, out)
    return out
