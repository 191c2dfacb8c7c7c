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
  form, it maps an explicit -0 to +0;
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
from .fields import (Field, Grid, blank_field, interp_state, make_grid, terminal_slice,
                     time_axis)
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
# stability bound
# ---------------------------------------------------------------------------

_SAFETY = 0.9  # the share of the Courant limit a step may take


class _CourantRates:
    """Node-wise maxima, over the evaluated controls, of the rates the
    Courant bound adds up: the absolute raw and compensated drift per state
    axis (the sweep advects with the compensated one), ``|sigma sigma^T|``
    and the running cost.  :meth:`evaluate` folds them in elementwise, so
    :meth:`bound` reduces each over the nodes once.
    """

    def __init__(self, problem: Problem, grid: Grid) -> None:
        self.problem, self.grid, self.mesh = problem, grid, grid.state_mesh()
        n_nodes, n = self.mesh.shape
        self.drift = np.zeros((n_nodes, n))
        self.sig2 = np.zeros((n_nodes, n, n))
        self.running = np.zeros(n_nodes)

    def evaluate(
        self, t: float, u: Array
    ) -> tuple[Array, Array, Array, Array | None, Array]:
        """Control ``u``'s compensated drift, diffusion, jump sizes, ``sigma
        sigma^T`` (None without diffusion) and running cost at ``t``."""
        jumps = self.problem.jumps
        drift, diffusion, jump_sizes, running = eval_coefficients_batch(
            self.problem, t, self.mesh, u
        )
        np.maximum(self.drift, np.abs(drift), out=self.drift)
        f_eff = drift
        if jumps.n_atoms:
            f_eff = drift - np.einsum("k,kpi->pi", jumps.weights, jump_sizes)
            np.maximum(self.drift, np.abs(f_eff), out=self.drift)
        sig2 = None
        if diffusion.any():
            sig2 = np.einsum("pik,pjk->pij", diffusion, diffusion)
            np.maximum(self.sig2, np.abs(sig2), out=self.sig2)
        np.maximum(self.running, running, out=self.running)
        return f_eff, diffusion, jump_sizes, sig2, running

    def bound(self) -> float:
        """The stable step for the rates evaluated so far.

        Inverse sum of the parabolic terms per state axis, the mixed
        second-derivative slack, the advection terms, the margin advection,
        and twice the total jump intensity (the nonlocal evaluation touches
        the shifted node and the center once each).  Returns inf when every
        term vanishes (nothing constrains the step).
        """
        sig2 = self.sig2.max(axis=0)
        drift = self.drift.max(axis=0)
        h = self.grid.state_spacings
        denom = 0.0
        for i in range(len(h)):
            denom += sig2[i, i] / h[i] ** 2
            denom += drift[i] / h[i]
            for j in range(len(h)):
                if j != i:
                    denom += sig2[i, j] / (h[i] * h[j])
        denom += float(self.running.max()) / self.grid.margin_spacing
        denom += 2.0 * float(self.problem.jumps.total_mass)
        if denom == 0.0:
            return float("inf")
        return _SAFETY / denom


def max_stable_dt(problem: Problem, grid: Grid) -> float:
    """The default step: the stable bound over every control at the ends
    and the midpoint of the horizon.  Each sweep step checks the bound of
    its own level's coefficients."""
    rates = _CourantRates(problem, grid)
    for t in (0.0, 0.5 * problem.horizon, problem.horizon):
        for u in problem.controls:
            rates.evaluate(t, u)
    return rates.bound()


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


def _best_time_slope(
    prev: Array,
    t: float,
    problem: Problem,
    grid: Grid,
    options: SchemeOptions,
) -> tuple[Array, float]:
    """The per-node admissible time slope, maximized over control
    candidates, and the stable step of the coefficients at ``t``.

    ``prev`` has the grid's state axes and a trailing margin axis.  The
    margin slope is the backward margin difference of ``prev``, except on
    the margin-0 and top columns, which take their state-only rules (see the
    module docstring).  Terms that are structurally zero for a control are
    skipped, and the slice-sized buffers are allocated once per call, not
    once per control.
    """
    n = grid.dim_state
    h = grid.state_spacings
    hb = grid.margin_spacing
    rates = _CourantRates(problem, grid)
    mesh = rates.mesh
    sshape = grid.state_shape
    b_axis = grid.margin_axis
    B = prev.shape[-1]
    K = problem.jumps.n_atoms
    edges = [grid.margin_zero_index, -1]  # the floor and the ceiling column

    neg_dist = -problem.distance(mesh).reshape(*sshape)[..., None]

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
    for u in problem.controls:
        f_eff, diffusion, jump_sizes, sig2, running = rates.evaluate(t, u)
        f_grid = f_eff.reshape(*sshape, n)

        # slope = -dist - advection + running * margin_slope - trace - corner;
        # the first advection term is written straight into slope
        for i in range(n):
            f_i = f_grid[..., i][..., None]
            fwd, bwd = fwd_bwd[i]
            term = scratch if i else slope
            upwind = f_i > 0.0
            if upwind.all():
                np.multiply(fwd, f_i, out=term)
            elif not upwind.any():
                np.multiply(bwd, f_i, out=term)
            else:
                np.copyto(term, bwd)
                np.copyto(term, fwd, where=upwind)
                term *= f_i
            if i:
                slope += scratch
        np.subtract(neg_dist, slope, out=slope)
        if running.any():
            np.multiply(running.reshape(*sshape)[..., None], margin_slope, out=scratch)
            slope += scratch

        if sig2 is not None:
            if curvature is None:
                curvature = _state_curvature(prev, h, n)
            slope -= _trace_term(sig2.reshape(*sshape, 1, n, n), *curvature)

        if K:
            jump_sup = np.zeros((*sshape, B))
            for k in range(K):
                shifted = interp_state(prev, grid.state_axes, mesh + jump_sizes[k])
                shifted = shifted.reshape(*sshape, B)
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

        if sig2 is not None and options.hedge == "spectral":
            if hedge_stencil is None:
                hedge_stencil = _hedge_stencil(prev, grid)
            psi_sq, cross_margin, c_diag, gap_noise = hedge_stencil
            sig_grid = diffusion.reshape(*sshape, n, problem.dim_noise)
            cross_sq = np.zeros((*sshape, B))
            for q in range(problem.dim_noise):
                acc = np.zeros((*sshape, B))
                for i in range(n):
                    acc += sig_grid[..., i, q][..., None] * cross_margin[i]
                cross_sq += acc * acc
            arrow_sq = 0.25 * psi_sq * cross_sq
            arrow_eff = np.where(target - c_diag > gap_noise, arrow_sq, 0.0)
            arrow_eff[..., edges] = 0.0
            slope -= corner_for_eigenvalue(target, arrow_eff, c_diag)
        else:
            slope -= target
        np.maximum(best, slope, out=best)

    return best, rates.bound()


def step_backward(
    prev: Array,
    t: float,
    dt: float,
    problem: Problem,
    grid: Grid,
    options: SchemeOptions = DEFAULT_OPTIONS,
) -> Array:
    """Advance the slice at time ``t`` backward to ``t - dt`` by one explicit
    step.  The margin-0 and top columns are stepped by their state-only
    rules; the caller only clips roundoff.

    Raises :class:`CFLViolation` when ``dt`` exceeds the stable bound of the
    coefficients at ``t``, the ones the step evaluates."""
    slope, bound = _best_time_slope(prev, t, problem, grid, options)
    if dt > bound * (1.0 + 1e-9):
        raise CFLViolation(
            f"time step {dt:.6g} exceeds the stable bound {bound:.6g} at t={t:.6g}")
    new = prev - dt * slope
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
    scale = max(1.0, float(np.abs(slice_vals).max()))
    clipped = np.where(slice_vals > -1e-12 * scale, np.maximum(slice_vals, 0.0), slice_vals)
    if clipped.min() < 0.0:
        worst = float(clipped.min())
        raise NonFiniteUpdate(
            f"nonnegativity violated at t={t:.6g}: min value {worst:.3e}"
        )
    return clipped


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
    stable bound, followed by the roundoff clip.  The sweep starts from
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

    for level in range(start - 1, -1, -1):
        t = float(grid.times[level + 1])
        dt = t - float(grid.times[level])
        new = step_backward(out.values[level + 1], t, dt, problem, grid, options)
        out.values[level] = _enforce_nonnegative(new, float(grid.times[level]))
        out.solved_from = level
        if on_level is not None:
            on_level(level, out)
    return out
