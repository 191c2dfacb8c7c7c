"""Backward-in-time explicit sweep for the shortfall field.

The sweep solves the unhedged auxiliary equation: both martingale hedges are
held at zero.  Per node and per control candidate the spatial stencil gives
the time slope: the negated distance, the negated advection, the running
cost times the margin slope, minus the diffusion trace, plus the jump term
(the compensated jump gain at the same margin).  The admissible time slope
is the best one across controls; stepping the previous slice by it is the
explicit update.

Differencing conventions (they matter for monotonicity and for the exact
linear-in-margin behaviour of the diagnostic slab below margin 0):

* first differences in state are upwinded against the compensated drift
  (drift minus the jump compensator), falling back to the inward one-sided
  difference on hull faces;
* the margin first difference is backward (margin drifts downward), with the
  forward difference standing in on the bottom face;
* second differences are central, and zero on hull faces (linear ghost
  extension), which keeps a truncated linear profile an exact fixed point.

The noise must be uncorrelated across the state axes: ``sigma sigma^T`` is
diagonal at every node, and the trace term reads its diagonal, the per-axis
variances, alone.  The central mixed difference a correlated trace would
read is not monotone, so the level tables refuse a nonzero off-diagonal
entry with :class:`CorrelatedNoise` before any step.

What a step needs that the slice does not change, the level tables, is
built before the step: the negated distance, and per control the negated
compensated drift with its upwind choice, the running cost, the per-axis
variances, each jump atom's interpolation stencil, and the node-wise
Courant rates.  A problem whose coefficients do not depend on t
(``Problem.autonomous``) builds them once per solve; any other problem
builds them at every level, by the same code.  A per-control
coefficient that holds the same value at every state node (every problem
stated as a document has constant coefficients) is stored as one value, not
as an array over the nodes.  Each element of the slice is still multiplied
by the same number, one IEEE product, so the values are those of the array
form; but numpy then runs the product as one contiguous loop over the slice
rather than a broadcast loop whose inner run is the margin axis.  The
comparison is of values, so a coefficient that is +0 at some nodes and -0
at others is one value too, which changes no value.

The step promises the slope's values, not the signs of its zeros; the
roundoff clip settles those (see :func:`_enforce_nonnegative`).  Structurally
zero work is skipped, per control and per level, and the skipped forms give
the same values as the full ones wherever the stencils are finite:

* a control whose diffusion is identically zero has a zero trace term, so
  the curvature stencils and the trace are skipped;
* without jump atoms the jump term is zero and is not added;
* the drift is stored negated, so the advection terms sum to the negated
  advection and the distance is added to them; where the distance is zero
  at every node that add is skipped;
* where a control's compensated drift along an axis is positive at every
  state node, or at none, the upwind difference is the forward (backward)
  one everywhere, and one multiply gives the products the masked copy
  would;
* a control whose running cost is zero at every node skips the
  ``running * margin_slope`` term, a zero, and the first advection term is
  written into the slope rather than added to a zeroed one; neither
  changes a value;
* where there are no jump atoms and the controls factor, the maximum runs
  axis by axis.  The controls factor where every drift is one value with
  one upwind side at every node, every control holds the same bits in the
  running cost and the variances, and the set of the controls'
  per-axis ``(drift, upwind side)`` tuples, compared by bits, is the
  Cartesian product of its per-axis value sets.  A control's slope then
  reads its negated drift ``c`` along an axis only through ``fl(c * D)``
  for that axis's difference ``D``, and adds the terms every control
  shares in a fixed order; rounding keeps each of those operations
  monotone in each argument, so the maximum over the product is reached at
  the per-axis maxima.  The step takes along each axis the largest ``fl(c * D)`` over
  the axis's kept drifts, sums those in axis order, then adds the distance
  and the running-cost term and subtracts the trace once.  ``fl(c * D)``
  is monotone in ``c``, so each upwind side keeps its smallest and largest
  ``c``; where a zero drift is present, a forward ``c``'s term lies
  between the most negative forward ``c``'s and ``0 * D``, the zero
  drift's term, so the forward side keeps only its most negative ``c``.
  The maximum is the value the loop over every control gives.  The
  argument needs finite differences; a slice that is not finite gives a
  step that is not finite in either form, which stops the sweep.  A
  control set that does not factor runs the loop over every control, and
  the Courant rates run over every control either way.

Two margin columns are stepped by state-only rules.  The margin-0 column is
the floor: the running cost spends the margin one for one (margin slope
-1).  The top column is the ceiling: the running cost never exhausts it
(margin slope 0), and it starts from 0 at the horizon.  Every operation of
the step is elementwise along the margin axis, so each of the two columns
gets the bits a state-only sweep of its own would give, for two column
writes per step rather than a second sweep.

The difference stencils read basic-slice views of a time slice instead of
gathering shifted copies through clipped index arrays.  The arithmetic is
the same, in the same order, so the bits are too.

The sweep streams.  It holds two slices and writes each step into the one
the step before read; the caller names the levels it keeps.  Every other
slice-sized array a step needs (the forward and backward quotients, the
margin slope, the running maximum and the slope, the curvature and trace
buffers, the jump gather and the shifted slice) is a buffer of one
per-solve workspace, allocated on its first use.  The step writes into them
with ``out=`` in the operation order of the allocating forms, so every value
is the same, and a step after the first allocates no slice-sized array:
glibc then has no slice-sized block to hand back to the system and fault in
again at the next level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CFLViolation, CorrelatedNoise, NonFiniteUpdate
from .fields import (Field, Grid, _apply_stencil, _interp_stencil, make_grid, terminal_slice,
                     time_axis)
from .levelset import default_epsilon
from .model import Problem, eval_coefficients_batch

Array = np.ndarray


# ---------------------------------------------------------------------------
# difference operators (clamped uniform grids)
# ---------------------------------------------------------------------------

# Each stencil indexes ``values`` by a basic index that takes everything on
# the axes before the one it differences: ``(slice(None),) * axis + (part,)``.
_LO, _MID, _HI = slice(None, -2), slice(1, -1), slice(2, None)


def first_differences(values: Array, axis: int, h: float,
                      out: tuple[Array, Array] | None = None) -> tuple[Array, Array]:
    """(forward, backward) quotients; hull faces use the inward one-sided one.

    ``out`` is a (forward, backward) pair of buffers of the shape of
    ``values`` to write into; None allocates them."""
    lead = (slice(None),) * axis
    head, tail = lead + (slice(None, -1),), lead + (slice(1, None),)
    first, last = lead + (slice(None, 1),), lead + (slice(-1, None),)
    fwd, bwd = (np.empty(values.shape), np.empty(values.shape)) if out is None else out
    diff = fwd[head]
    np.subtract(values[tail], values[head], out=diff)
    diff /= h
    fwd[last] = diff[last]
    bwd[tail] = diff
    bwd[first] = diff[first]
    return fwd, bwd


def second_difference(values: Array, axis: int, h: float, out: Array | None = None) -> Array:
    """Central second quotient, zero on the hull faces of ``axis``.

    ``out`` is a buffer of the shape of ``values`` to write into, with zeros
    on those faces (this writes only the inner nodes); None allocates it."""
    lead = (slice(None),) * axis
    sec = np.zeros(values.shape) if out is None else out
    inner = sec[lead + (_MID,)]
    np.multiply(values[lead + (_MID,)], 2.0, out=inner)
    np.subtract(values[lead + (_HI,)], inner, out=inner)
    inner += values[lead + (_LO,)]
    inner /= h * h
    return sec


# ---------------------------------------------------------------------------
# the level tables and the stability bound
# ---------------------------------------------------------------------------

_SAFETY = 0.9  # the share of the Courant limit a step may take


@dataclass(frozen=True)
class _ControlTable:
    """One control's coefficients at one time, shaped for the slice.

    ``advection`` holds, per state axis, the negated compensated drift and
    its upwind choice: 0 where the forward difference is taken at every
    node, 1 where the backward one is, or the mask of the nodes that take
    the forward one.  ``running`` is None where the running cost is zero at
    every node, ``variance`` (the diagonal of ``sigma sigma^T``, one entry
    per state axis) is None without diffusion, and ``jumps`` holds one
    interpolation stencil per jump atom, at the shifted state nodes.

    A coefficient that holds the same value at every state node is one value:
    a float for the drift and the running cost, and an ``(n,)`` array for
    ``variance``.  One that varies is shaped for the slice:
    ``(*state_shape, 1)`` and ``(*state_shape, 1, n)``.  Both forms
    broadcast against the slice through the same lines.
    """

    advection: list[tuple[Array | float, Array | int]]
    running: Array | float | None
    variance: Array | None
    jumps: list


def _node_uniform(values: Array, shape: tuple[int, ...]) -> Array:
    """``values``, one row per state node, as its first row where every row
    holds the same values, else reshaped to ``shape``.  ``+0.0`` and
    ``-0.0`` are one value: a product with either changes no value."""
    return values[0] if (values == values[:1]).all() else values.reshape(shape)


def _bits(value: object) -> object:
    """A hashable key of ``value``'s bits: None, an upwind choice, one value
    or an array."""
    if value is None or isinstance(value, int):
        return value
    value = np.asarray(value)
    return value.shape, value.dtype.str, value.tobytes()


def _axis_drifts(controls: list[_ControlTable]) -> list[list[tuple[float, int]]] | None:
    """The ``axis_drifts`` of :class:`_LevelTables` with these controls."""
    if len({(_bits(c.running), _bits(c.variance)) for c in controls}) > 1:
        return None
    if any(np.ndim(f) or not isinstance(choice, int)
           for c in controls for f, choice in c.advection):
        return None
    axes: list[dict] = [{} for _ in controls[0].advection]
    rows = set()
    for control in controls:
        row = tuple((_bits(f), choice) for f, choice in control.advection)
        rows.add(row)
        for axis, key, (f, choice) in zip(axes, row, control.advection):
            axis[key] = (f, choice)
    # the rows lie in the product of the axes' value sets, so they are all
    # of it exactly when they are as many
    if len(rows) != math.prod(map(len, axes)):
        return None
    kept = []
    for axis in axes:
        forward = sorted(f for f, choice in axis.values() if choice == 0)
        backward = sorted(f for f, choice in axis.values() if choice == 1)
        if backward and backward[0] == 0.0:
            # a forward drift's term lies between the most negative one's
            # and 0 * D, the zero drift's term
            forward = forward[:1]
        kept.append([(f, side) for side, drifts in enumerate((forward, backward))
                     for f in drifts[:1] + drifts[1:][-1:]])
    return kept


class _LevelTables:
    """Everything a sweep step needs at time ``t`` that the slice does not
    change: the negated distance (``neg_dist``, None where the distance is
    zero at every node), the floor and ceiling margin columns (``edges``),
    one :class:`_ControlTable` per control, the kept drifts of each state
    axis (``axis_drifts``), and the node-wise rates of the Courant bound.

    ``axis_drifts`` is None where the controls do not factor: a drift that
    varies over the nodes or takes both upwind sides, controls that differ
    in the running cost or the variances, or drift tuples that are not
    the product of their per-axis values.  Otherwise it holds per state axis
    the ``(neg_f, choice)`` drifts whose upwind term can be the axis's
    largest: each upwind side's smallest and largest, and with a zero drift
    only the most negative of the forward side (see the module docstring).
    The reduction reads it where there are no jump atoms.

    An autonomous problem's tables serve every level of a solve.  Every
    array is sized by the state nodes or by one node, not by the slice.

    Raises :class:`CorrelatedNoise` where a control's ``sigma sigma^T`` has
    a nonzero off-diagonal entry at some node.
    """

    def __init__(self, problem: Problem, grid: Grid, t: float) -> None:
        self.problem, self.grid = problem, grid
        mesh = grid.state_mesh()
        sshape = grid.state_shape
        n_nodes, n = mesh.shape
        jumps = problem.jumps
        neg_dist = -problem.distance(mesh).reshape(*sshape)[..., None]
        self.neg_dist = neg_dist if neg_dist.any() else None
        self.edges = [grid.margin_zero_index, -1]

        # node-wise maxima over the controls of the rates the bound adds up:
        # the absolute raw and compensated drift per state axis (the sweep
        # advects with the compensated one), the variances and the running cost
        rate_drift = np.zeros((n_nodes, n))
        rate_variance = np.zeros((n_nodes, n))
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
            variance = None
            if diffusion.any():
                sig2 = np.einsum("pik,pjk->pij", diffusion, diffusion)
                if (sig2[:, ~np.eye(n, dtype=bool)] != 0.0).any():
                    raise CorrelatedNoise(
                        f"the noise is correlated across state axes at t={t:.6g}: sigma "
                        f"sigma^T has a nonzero off-diagonal entry, and the central mixed "
                        f"difference that would step it is not monotone; an inline "
                        f"'diffusion' number fills every matrix entry, so with two or more "
                        f"state axes it is correlated noise")
                variance = np.diagonal(sig2, axis1=1, axis2=2)
                np.maximum(rate_variance, variance, out=rate_variance)
                variance = _node_uniform(variance, (*sshape, 1, n))
            np.maximum(rate_running, running, out=rate_running)

            neg_f = np.negative(f_eff)
            advection = []
            for i in range(n):
                neg_f_i = _node_uniform(neg_f[:, i], (*sshape, 1))
                upwind = neg_f_i < 0.0  # where the compensated drift is positive
                choice = 0 if upwind.all() else 1 if not upwind.any() else upwind
                advection.append((neg_f_i, choice))
            self.controls.append(_ControlTable(
                advection=advection,
                running=_node_uniform(running, (*sshape, 1)) if running.any() else None,
                variance=variance,
                jumps=[_interp_stencil(grid.state_axes, mesh + jump_sizes[k])
                       for k in range(jumps.n_atoms)],
            ))
        self.axis_drifts = _axis_drifts(self.controls)
        self.rates = (rate_drift, rate_variance, rate_running)
        self._bound = _courant_bound(problem, grid, *self.rates)

    def bound(self) -> float:
        """The stable step of these tables' rates."""
        return self._bound


def _courant_bound(problem: Problem, grid: Grid, drift: Array, variance: Array,
                   running: Array) -> float:
    """The stable step for node-wise rates.

    Inverse sum of the parabolic terms per state axis (the variances), the
    advection terms, the margin advection, and twice the total jump
    intensity (the nonlocal evaluation touches the shifted node and the
    center once each).  Returns inf when every term vanishes (nothing
    constrains the step).
    """
    variance = variance.max(axis=0)
    drift = drift.max(axis=0)
    h = grid.state_spacings
    denom = 0.0
    for i in range(len(h)):
        denom += variance[i] / h[i] ** 2
        denom += drift[i] / h[i]
    denom += float(running.max()) / grid.margin_spacing
    denom += 2.0 * float(problem.jumps.total_mass)
    if denom == 0.0:
        return float("inf")
    return _SAFETY / denom


def max_stable_dt(problem: Problem, grid: Grid) -> float:
    """The stable bound over every control, at one time for an autonomous
    problem, whose bound is then that of every level.  Otherwise it is the
    Courant bound of each rate's largest value over t = 0, T/2 and T, which
    can be smaller than the bound at each of the three times.  Each sweep
    step checks the bound of its own level's coefficients."""
    times = ((0.0,) if problem.autonomous
             else (0.0, 0.5 * problem.horizon, problem.horizon))
    rates = zip(*(_LevelTables(problem, grid, t).rates for t in times))
    return _courant_bound(problem, grid, *(np.maximum.reduce(r) for r in rates))


def _admits(dt: float, bound: float) -> bool:
    """Whether a step of ``dt`` is within the stable ``bound``."""
    return dt <= bound * (1.0 + 1e-9)


def stable_grid(problem: Problem, state: Sequence[tuple[float, float, int]],
                margin: tuple[float, float, int], time_step: float | None = None) -> Grid:
    """The solve grid over these axes.  ``time_step`` None takes the default
    step: :func:`max_stable_dt`, or horizon/128 where nothing constrains the
    step (frozen dynamics).  For a problem that is not autonomous the
    default step then shrinks to the smallest level bound until the bound
    at every level time of the returned grid admits it."""
    horizon = problem.horizon
    grid = make_grid(state, margin, time_axis(horizon, horizon / 2.0))
    if time_step is not None:
        return replace(grid, times=time_axis(horizon, time_step))
    time_step = max_stable_dt(problem, grid)
    if not np.isfinite(time_step):
        time_step = horizon / 128.0
    grid = replace(grid, times=time_axis(horizon, time_step))
    while not problem.autonomous:
        # the step into level l reads the tables at times[l + 1]
        bounds = [_LevelTables(problem, grid, float(t)).bound() for t in grid.times[1:]]
        if all(map(_admits, np.diff(grid.times), bounds)):
            break
        # a refused level's step exceeds this, so the level count grows
        grid = replace(grid, times=time_axis(horizon, min(bounds)))
    return grid


# ---------------------------------------------------------------------------
# one explicit step of the margin-coupled sweep
# ---------------------------------------------------------------------------

class _Workspace:
    """The slice-sized buffers of one solve's steps, by name.

    Each buffer is allocated on its first use and reused by every later
    step, so a step after the first allocates no slice-sized array.  A
    buffer asked for with ``zeros`` starts at 0; the curvature stencils
    write only its inner nodes, so its hull faces stay 0.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape = shape
        self._buffers: dict[object, Array] = {}

    def __call__(self, name: object, *, zeros: bool = False) -> Array:
        """The float buffer ``name``, of the slice's shape."""
        buffer = self._buffers.get(name)
        if buffer is None:
            buffer = (np.zeros if zeros else np.empty)(self.shape)
            self._buffers[name] = buffer
        return buffer


def _state_curvature(prev: Array, h: tuple[float, ...], n: int, ws: _Workspace) -> list[Array]:
    """Second differences of ``prev`` along its ``n`` state axes, in buffers of ``ws``."""
    return [second_difference(prev, i, h[i], out=ws(("hess", i), zeros=True))
            for i in range(n)]


def _trace_term(variance: Array, hess: list[Array], ws: _Workspace) -> Array:
    """1/2 tr(sigma sigma^T D_a^2 W) for a diagonal ``sigma sigma^T``: half
    the variance-weighted sum of the second differences ``hess``, in a
    buffer of ``ws``.  ``variance`` broadcasts against them on all but its
    trailing (n,) axis."""
    trace_term, product = ws("trace"), ws("product")
    trace_term.fill(0.0)
    for i, hess_i in enumerate(hess):
        trace_term += np.multiply(variance[..., i], hess_i, out=product)
    trace_term *= 0.5
    return trace_term


def _best_time_slope(prev: Array, tables: _LevelTables,
                     ws: _Workspace | None = None) -> Array:
    """The per-node admissible time slope, maximized over control
    candidates, with the coefficients of ``tables``.

    ``prev`` has the grid's state axes and a trailing margin axis.  The
    margin slope is the backward margin difference of ``prev``, except on
    the margin-0 and top columns, which take their state-only rules (see the
    module docstring).  Terms that are structurally zero for a control are
    skipped, so the signs of zero slopes are not promised.  Every
    slice-sized array is a buffer of ``ws`` (None: a fresh workspace), the
    returned slope too.
    """
    problem, grid = tables.problem, tables.grid
    ws = _Workspace(prev.shape) if ws is None else ws
    n = grid.dim_state
    h = grid.state_spacings
    B = prev.shape[-1]
    K = problem.jumps.n_atoms

    # control-independent pieces of the stencil; the second-order ones are
    # built on first use by a control with diffusion
    fwd_bwd = [first_differences(prev, i, h[i], out=(ws(("fwd", i)), ws(("bwd", i))))
               for i in range(n)]
    # only the running cost reads the margin slope
    if any(c.running is not None for c in tables.controls):
        _, margin_slope = first_differences(prev, n, grid.margin_spacing,
                                            out=(ws(("fwd", n)), ws(("bwd", n))))
        margin_slope[..., tables.edges] = (-1.0, 0.0)  # the floor and the ceiling
    curvature: list | None = None
    if K:
        rows = prev.reshape(-1, B)
        shifted, jump_term = ws("shifted"), ws("jump_term")
        gather = ws("gather").reshape(rows.shape)

    best, scratch = ws("best"), ws("scratch")
    # where the controls factor, one pass takes along each axis the largest
    # upwind term over the axis's kept drifts, and the first control's
    # running cost and diffusion, which every control shares
    factored = not K and tables.axis_drifts is not None
    for index, control in enumerate(tables.controls[:1] if factored else tables.controls):
        # slope = -dist - advection + running * margin_slope - trace + jumps;
        # the drift is stored negated, so the first advection term written
        # into slope is already -advection.  The first control's slope is
        # written into best: np.maximum(-inf, x) is x, NaN included
        slope = ws("slope") if index else best
        axes = tables.axis_drifts if factored else [[pair] for pair in control.advection]
        for i, drifts in enumerate(axes):
            term = scratch if i else slope
            for j, (neg_f_i, choice) in enumerate(drifts):
                # only the factored pass has a second drift; its slope is
                # best, so the slope buffer is free
                out = ws("slope") if j else term
                if isinstance(choice, int):
                    np.multiply(fwd_bwd[i][choice], neg_f_i, out=out)
                else:
                    fwd, bwd = fwd_bwd[i]
                    np.copyto(out, bwd)
                    np.copyto(out, fwd, where=choice)
                    out *= neg_f_i
                if j:
                    np.maximum(term, out, out=term)
            if i:
                slope += scratch
        if tables.neg_dist is not None:
            slope += tables.neg_dist
        if control.running is not None:
            np.multiply(control.running, margin_slope, out=scratch)
            slope += scratch

        if control.variance is not None:
            if curvature is None:
                curvature = _state_curvature(prev, h, n, ws)
            slope -= _trace_term(control.variance, curvature, ws)

        if K:
            # the first atom's gain is written into the jump term, and the
            # later ones are added in atom order
            for k, stencil in enumerate(control.jumps):
                _apply_stencil(rows, stencil, out=shifted.reshape(rows.shape), gather=gather)
                gain = np.subtract(prev, shifted, out=shifted if k else jump_term)
                gain *= problem.jumps.weights[k]
                if k:
                    jump_term += gain
            slope += jump_term
        if index:
            np.maximum(best, slope, out=best)
    return best


def _step_into(prev: Array, t: float, dt: float, tables: _LevelTables,
               ws: _Workspace, out: Array) -> Array:
    """The step of :func:`step_backward`, written into ``out`` with the
    buffers of ``ws``; ``out`` must not overlap ``prev``.  It does not check
    that ``out`` is finite: :func:`_enforce_nonnegative` does."""
    bound = tables.bound()
    if not _admits(dt, bound):
        raise CFLViolation(
            f"time step {dt:.6g} exceeds the stable bound {bound:.6g} at t={t:.6g}")
    change = _best_time_slope(prev, tables, ws)
    change *= dt
    return np.subtract(prev, change, out=out)


def step_backward(
    prev: Array,
    t: float,
    dt: float,
    problem: Problem,
    grid: Grid,
    *,
    tables: _LevelTables | None = None,
) -> Array:
    """Advance the slice at time ``t`` backward to ``t - dt`` by one explicit
    step, into a new array.  The margin-0 and top columns are stepped by
    their state-only rules; the caller only clips roundoff.

    ``tables`` are the level tables of ``problem`` on ``grid`` at ``t``
    (those of any time for an autonomous problem); None builds them.
    The step promises values, not the signs of zeros: only a caller-built
    ``prev`` holding -0 can see a zero's sign change (see
    :func:`_enforce_nonnegative`).

    Raises :class:`CFLViolation` when ``dt`` exceeds the stable bound of the
    coefficients at ``t``, the ones the step evaluates."""
    if tables is None:
        tables = _LevelTables(problem, grid, t)
    out = _step_into(prev, t, dt, tables, _Workspace(prev.shape), np.empty(prev.shape))
    if not np.isfinite(out).all():
        raise _non_finite(t - dt)
    return out


# ---------------------------------------------------------------------------
# the full margin-coupled solve
# ---------------------------------------------------------------------------

def _non_finite(t: float) -> NonFiniteUpdate:
    """The error of a slice at time ``t`` that is not finite."""
    return NonFiniteUpdate(f"non-finite values in the slice at t={t:.6g}")


def _enforce_nonnegative(slice_vals: Array, t: float) -> Array:
    """Clip roundoff-negative entries of ``slice_vals`` to zero, in place;
    fail on anything worse.

    Roundoff is judged relative to the slice's magnitude:
    ``1e-12 * max(1, max |slice|)``.  A
    slice with a NaN or an infinity fails too: numpy's ``min`` and ``max``
    propagate NaN, so the two values read for the scale show both.

    The clip is the one place that settles the sign of zero:
    ``np.maximum(x, 0.0)`` returns +0 for either zero, so no slice the sweep
    keeps, passes to ``on_level`` or steps from holds -0, whatever the signs
    of the step's zero slopes.  A step from a slice without -0 makes none
    either (``prev - dt * slope`` is -0 only where ``prev`` is), the
    terminal slice is the same maximum, and a resumed slice was clipped
    before it was saved.
    """
    lowest, highest = float(slice_vals.min()), float(slice_vals.max())
    if not (np.isfinite(lowest) and np.isfinite(highest)):
        raise _non_finite(t)
    scale = max(1.0, highest, -lowest)  # max(1, max |slice|), exactly
    if lowest <= -1e-12 * scale:
        raise NonFiniteUpdate(
            f"nonnegativity violated at t={t:.6g}: min value {lowest:.3e}"
        )
    return np.maximum(slice_vals, 0.0, out=slice_vals)


def solve_shortfall(
    problem: Problem,
    grid: Grid,
    *,
    keep: Iterable[int] = (0,),
    on_level: Callable[[int, Array], object] | None = None,
    resume: tuple[int, Array] | None = None,
) -> Field:
    """Solve the margin-coupled shortfall field backward from the horizon,
    and return the levels in ``keep``.

    Each level is one step, which checks that level's stable bound, written
    into one of the sweep's two buffers, then the roundoff clip, which also
    stops the sweep on a slice that is not finite.  :func:`step_backward`
    takes the same step into a new array and checks its finiteness itself;
    the sweep does not call it.  The level tables are built once per level,
    or once per solve for an autonomous problem.
    The sweep starts from :func:`epigraph.fields.terminal_slice`.  The
    margin-0 column is the floor and the top margin column the ceiling, each
    stepped by its state-only rule.  Margin columns below zero — when the
    grid has them — evolve under the same scheme and serve as the linearity
    diagnostic.

    The sweep holds two slices: each step writes into the one the step
    before read, so its memory does not grow with the number of levels.
    The returned :class:`Field` holds a copy of each level in ``keep`` that
    the sweep passes, the start level included, and the default level-set
    threshold of the terminal slice, whether the sweep started there or not.

    ``on_level`` is called after each completed level with (level, slice);
    the slice is a view of a buffer that the next step overwrites, so a
    callback that keeps it must copy it.  Its return value is ignored, and a
    callback stops the sweep by raising.  ``resume`` is the ``(level,
    slice)`` pair that :func:`epigraph.fields.load_snapshot` returns; the
    solve restarts from that slice.
    """
    terminal = terminal_slice(problem, grid)
    out = Field(grid, {}, epsilon=default_epsilon(terminal))
    start, prev = (grid.n_levels - 1, terminal) if resume is None else resume
    keep = set(keep)
    if start in keep:
        out.slices[start] = np.array(prev, dtype=float)
    ws = _Workspace(prev.shape)
    buffers = (np.empty(prev.shape), np.empty(prev.shape))

    tables = None
    for level in range(start - 1, -1, -1):
        t = float(grid.times[level + 1])
        dt = t - float(grid.times[level])
        if tables is None or not problem.autonomous:
            tables = _LevelTables(problem, grid, t)
        new = _step_into(prev, t, dt, tables, ws, out=buffers[level % 2])
        _enforce_nonnegative(new, float(grid.times[level]))
        if level in keep:
            out.slices[level] = new.copy()
        if on_level is not None:
            on_level(level, new)
        prev = new
    return out
