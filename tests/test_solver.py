"""Sweep correctness: stability bound, single steps, full solves, invariants."""

import dataclasses
import itertools
import json
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from epigraph import solver
from epigraph.cli import builtin_config, parse_config, resolve_grid
from epigraph.errors import CFLViolation, CorrelatedNoise, NonFiniteUpdate, UnsolvedField
from epigraph.fields import (
    interp_state,
    load_snapshot,
    make_grid,
    save_snapshot,
    terminal_slice,
    time_axis,
)
from epigraph.model import (
    JumpModel,
    Region,
    build_problem,
    eval_coefficients_batch,
    eval_terminal,
)
from epigraph.problems import BUILTIN_NAMES, builtin_grid, builtin_problem
from epigraph.solver import (
    _best_time_slope,
    _LevelTables,
    _enforce_nonnegative,
    first_differences,
    max_stable_dt,
    second_difference,
    solve_shortfall,
    stable_grid,
    step_backward,
)
from references import Stencil, eval_coefficients, hamiltonian_at_node


def drift_is_control(t, a, u):
    return np.zeros_like(np.atleast_2d(a)) + u


def constant_diffusion(v):
    """One noise column filled with ``v``: correlated across two or more axes."""
    def diffusion(t, a, u):
        a = np.atleast_2d(a)
        return np.full((*a.shape, 1), v)
    return diffusion


def diagonal_diffusion(v):
    """``v`` times the identity: one independent noise per state axis."""
    def diffusion(t, a, u):
        a = np.atleast_2d(a)
        return v * np.broadcast_to(np.eye(a.shape[1]), (*a.shape, a.shape[1]))
    return diffusion


def constant_running(v):
    def running(t, a, u):
        return np.full(np.atleast_2d(a).shape[0], v)
    return running


def zero_terminal(a):
    return np.zeros(np.atleast_2d(a).shape[0])


def minimal_problem(**overrides):
    fields = dict(
        dim_state=1,
        dim_noise=1,
        horizon=1.0,
        terminal_cost=zero_terminal,
        controls=[0.0],
    )
    fields.update(overrides)
    return build_problem(fields)


def every_level(problem, grid):
    """A solve that keeps every level, as a stacked (level, state..., margin)
    array."""
    field = solve_shortfall(problem, grid, keep=range(grid.n_levels))
    return np.stack([field.slice_at(level) for level in range(grid.n_levels)])


def grid_for(problem, name):
    spec = builtin_grid(name)
    return stable_grid(problem, spec["state"], spec["margin"], spec["time_step"])


def diffusion_off_at_rest(t, a, u):
    """0.8 |u|: identically zero for the control u = 0 only."""
    a = np.atleast_2d(a)
    return np.full((*a.shape, 1), 0.8 * abs(u))


def diffusive_problem(terminal_cost=None, diffusion=None):
    """Diffusion + control drift with the terminal kink aligned to a grid row."""
    if diffusion is None:
        diffusion = constant_diffusion(0.4)
    if terminal_cost is None:
        terminal_cost = lambda a: np.ones(np.atleast_2d(a).shape[0])  # noqa: E731
    return build_problem(
        dim_state=1,
        dim_noise=1,
        horizon=0.4,
        drift=drift_is_control,
        diffusion=diffusion,
        running_cost=constant_running(0.1),
        terminal_cost=terminal_cost,
        controls=[-0.5, 0.0, 0.5],
        region=Region(kind="halfspace", normal=np.array([1.0]), offset=1.2),
    )


def diffusive_grid():
    return make_grid([(-2.0, 2.0, 41)], (-0.3, 1.5, 19), time_axis(0.4, 0.02))


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def _shifted_reference(values, axis, step):
    idx = np.clip(np.arange(values.shape[axis]) + step, 0, values.shape[axis] - 1)
    return np.take(values, idx, axis=axis)


def _face(ndim, axis, index):
    sel = [slice(None)] * ndim
    sel[axis] = index
    return tuple(sel)


def _first_differences_reference(values, axis, h):
    """The gather-based stencils the slice-based ones replaced."""
    up = _shifted_reference(values, axis, +1)
    down = _shifted_reference(values, axis, -1)
    fwd = (up - values) / h
    bwd = (values - down) / h
    top = _face(values.ndim, axis, values.shape[axis] - 1)
    bot = _face(values.ndim, axis, 0)
    fwd[top] = bwd[top]
    bwd[bot] = fwd[bot]
    return fwd, bwd


def _second_difference_reference(values, axis, h):
    up = _shifted_reference(values, axis, +1)
    down = _shifted_reference(values, axis, -1)
    sec = (up - 2.0 * values + down) / (h * h)
    sec[_face(values.ndim, axis, 0)] = 0.0
    sec[_face(values.ndim, axis, values.shape[axis] - 1)] = 0.0
    return sec


def _cross_difference_reference(values, ax1, ax2, h1, h2):
    def shift(v, s1, s2):
        return _shifted_reference(_shifted_reference(v, ax1, s1), ax2, s2)

    out = (shift(values, 1, 1) - shift(values, 1, -1) - shift(values, -1, 1)
           + shift(values, -1, -1)) / (4.0 * h1 * h2)
    for axis in (ax1, ax2):
        out[_face(values.ndim, axis, 0)] = 0.0
        out[_face(values.ndim, axis, values.shape[axis] - 1)] = 0.0
    return out


def _same_bits(got, want):
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _stencil_inputs(rng):
    """Random 1- to 4-D slices, with signed zeros and a strided view."""
    for ndim in (1, 2, 3, 4):
        values = rng.normal(size=tuple(rng.integers(3, 7, size=ndim))) * 10.0
        values[rng.random(values.shape) < 0.2] = 0.0
        values[rng.random(values.shape) < 0.2] = -0.0
        yield values
        yield values[..., ::-1].swapaxes(0, -1)


def test_stencils_match_the_gather_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    hs = (0.1, 0.37, 1.0 / 3.0, 0.7)
    for values in _stencil_inputs(rng):
        for axis in range(values.ndim):
            h = hs[axis]
            got = first_differences(values, axis, h)
            want = _first_differences_reference(values, axis, h)
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
            assert _same_bits(second_difference(values, axis, h),
                              _second_difference_reference(values, axis, h))


def test_first_differences_are_two_views_of_one_buffer():
    values = np.random.default_rng(0).normal(size=(5, 4))
    for axis in (0, 1):
        fwd, bwd = first_differences(values, axis, 0.1)
        assert fwd.shape == bwd.shape == values.shape
        assert np.shares_memory(fwd, bwd)
    # out is that buffer, with one node more along the axis
    buffer = np.empty((5, 5))
    fwd, bwd = first_differences(values, 1, 0.1, out=buffer)
    assert fwd.base is buffer and bwd.base is buffer


# ---------------------------------------------------------------------------
# stability bound
# ---------------------------------------------------------------------------

def test_stable_dt_diffusion_only():
    problem = minimal_problem(diffusion=constant_diffusion(1.0))
    grid = make_grid([(0.0, 1.0, 11)], (0.0, 1.0, 11), time_axis(1.0, 0.5))
    assert max_stable_dt(problem, grid) == pytest.approx(0.009, rel=1e-12)


def test_stable_dt_advection_only():
    problem = minimal_problem(drift=lambda t, a, u: np.ones_like(np.atleast_2d(a)))
    grid = make_grid([(0.0, 1.0, 11)], (0.0, 1.0, 11), time_axis(1.0, 0.5))
    assert max_stable_dt(problem, grid) == pytest.approx(0.09, rel=1e-12)


def test_stable_dt_jump_mass_only():
    problem = minimal_problem(
        jumps={"marks": np.array([1.0, -1.0]), "weights": np.array([1.5, 0.5])},
    )
    grid = make_grid([(0.0, 1.0, 11)], (0.0, 1.0, 11), time_axis(1.0, 0.5))
    assert max_stable_dt(problem, grid) == pytest.approx(0.225, rel=1e-12)


def test_stable_dt_budgets_the_compensated_drift():
    # zero raw drift, but the sweep advects with drift minus the jump
    # compensator, so the bound must not be jump-mass-only
    def jump(t, a, u, e):
        return np.full(np.atleast_2d(a).shape, float(e))

    problem = minimal_problem(
        jump_size=jump,
        jumps={"marks": np.array([0.9]), "weights": np.array([2.0])},
    )
    grid = make_grid([(0.0, 1.0, 11)], (0.0, 1.0, 11), time_axis(1.0, 0.5))
    assert max_stable_dt(problem, grid) == pytest.approx(0.9 / (4.0 + 18.0), rel=1e-12)


def test_stable_dt_of_a_time_dependent_problem_bounds_each_rates_largest_value():
    # drift 1 - t and diffusion t: the bounds at t = 0, T/2 and T are 0.09,
    # 0.03 and 0.009, and the default step takes each rate's largest value
    # over the three times, drift 1 and variance 1, so 0.9 / (10 + 100)
    problem = minimal_problem(
        drift=lambda t, a, u: np.full(np.atleast_2d(a).shape, 1.0 - t),
        diffusion=lambda t, a, u: np.full((*np.atleast_2d(a).shape, 1), t),
    )
    grid = make_grid([(0.0, 1.0, 11)], (0.0, 1.0, 11), time_axis(1.0, 0.5))
    bounds = [_LevelTables(problem, grid, t).bound for t in (0.0, 0.5, 1.0)]
    assert bounds == pytest.approx([0.09, 0.03, 0.009], rel=1e-12)
    assert max_stable_dt(problem, grid) == pytest.approx(0.9 / 110.0, rel=1e-12)


def test_stable_dt_unconstrained_is_infinite():
    problem = minimal_problem()
    grid = make_grid([(0.0, 1.0, 11)], (0.0, 1.0, 11), time_axis(1.0, 0.5))
    assert max_stable_dt(problem, grid) == np.inf


def test_default_step_without_a_bound_is_a_128th_of_the_horizon():
    # frozen-penalty moves nothing, so no term bounds its step
    problem = builtin_problem("frozen-penalty")
    spec = builtin_grid("frozen-penalty")
    grid = stable_grid(problem, spec["state"], spec["margin"], None)
    assert max_stable_dt(problem, grid) == np.inf
    assert np.array_equal(grid.times, np.linspace(0.0, problem.horizon, 129))


@pytest.mark.parametrize("amplitude", [5.0, 0.3])
def test_each_step_checks_its_own_levels_bound(monkeypatch, amplitude):
    # The drift pulses near t = 0.25, between the three times max_stable_dt
    # samples, so the step 1/23 (under the sampled 0.045) overshoots the
    # pulse's levels at Courant number ~5.2 (amplitude 5) or
    # ~1.2 (amplitude 0.3).  The sweep must stop at the first such level
    # with CFLViolation, not run on and leave the nonnegative cone.
    def pulse(t):
        return 1.0 + amplitude * np.exp(-(((t - 0.25) / 0.05) ** 2))

    problem = build_problem(
        dim_state=1, dim_noise=1, horizon=1.0, controls=[-1.0, 0.0, 1.0],
        drift=lambda t, a, u: pulse(t) * (np.zeros_like(np.atleast_2d(a)) + u),
        terminal_cost=lambda a: (np.atleast_2d(a) ** 2).sum(axis=1),
    )
    # the step the default took when it sampled t = 0, T/2 and T alone
    grid = stable_grid(problem, [(-2.0, 2.0, 81)], (0.0, 1.0, 41), 1.0 / 23.0)
    h = grid.state_spacings[0]
    assert grid.dt == 1.0 / 23.0
    assert max_stable_dt(problem, grid) == pytest.approx(0.045, rel=1e-9)

    # the default step now checks the bound at every level time: it solves
    default = stable_grid(problem, [(-2.0, 2.0, 81)], (0.0, 1.0, 41))
    assert default.dt < grid.dt
    solve_shortfall(problem, default)

    def bound(t):
        return 0.9 / (pulse(t) / h)

    first = next(t for t in grid.times[::-1] if grid.dt > bound(t) * (1.0 + 1e-9))

    def no_default_step(*args):
        raise AssertionError("the sweep recomputed the default step")

    monkeypatch.setattr("epigraph.solver.max_stable_dt", no_default_step)
    step_backward(terminal_slice(problem, grid), 1.0, grid.dt, problem, grid)
    message = f"exceeds the stable bound {bound(first):.6g} at t={first:.6g}"
    with pytest.raises(CFLViolation, match=message):
        solve_shortfall(problem, grid)


# ---------------------------------------------------------------------------
# the level tables: once per solve for an autonomous problem
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("autonomous", [True, False])
def test_an_autonomous_problem_evaluates_its_coefficients_once_per_solve(autonomous):
    calls = []

    def drift(t, a, u):
        calls.append(t)
        return drift_is_control(t, a, u)

    problem = minimal_problem(drift=drift, controls=[-0.5, 0.0, 0.5],
                              diffusion=constant_diffusion(0.3), autonomous=autonomous)
    grid = make_grid([(-1.0, 1.0, 21)], (0.0, 1.0, 11), time_axis(1.0, 0.02))
    solve_shortfall(problem, grid)
    levels = grid.times[1:] if not autonomous else grid.times[-1:]
    assert calls == [t for t in levels[::-1] for _ in problem.controls]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _documents():
    """The built-ins and the README's inline problem, as documents by label."""
    documents = {name: builtin_config(name) for name in BUILTIN_NAMES}
    documents["README"] = json.loads(re.findall(r"```json\n(.*?)```", README.read_text(),
                                                re.S)[1])
    return documents


def _stable_slope_step_case(label):
    """(label, problem, grid) of the ``_slope_step_cases`` case ``label``, on
    a stable grid over the same axes, with the problem marked autonomous."""
    _, _, problem, grid = next(case for case in _slope_step_cases() if case[0] == label)
    grid = stable_grid(problem, [(axis[0], axis[-1], axis.size) for axis in grid.state_axes],
                       (grid.margin_axis[0], grid.margin_axis[-1], grid.margin_axis.size))
    return label, dataclasses.replace(problem, autonomous=True), grid


def _autonomy_cases():
    """(label, problem, grid): the built-ins at their stock grids, the
    README's inline problem, and a 2-D problem with jumps, diffusion,
    running cost and a region."""
    for label, document in _documents().items():
        config = parse_config(json.dumps(document))
        yield label, config.problem, resolve_grid(config)
    yield _stable_slope_step_case(
        "2-D nonzero running, mixed drift, with jumps, diffusion 0.3")


def test_autonomous_tables_give_the_per_level_bits():
    # Reusing the tables of the first level changes no bit on problems whose
    # coefficients do not depend on t.
    for label, problem, grid in _autonomy_cases():
        assert problem.autonomous, label
        once = every_level(problem, grid)
        per_level = every_level(dataclasses.replace(problem, autonomous=False), grid)
        assert once.tobytes() == per_level.tobytes(), label


# ---------------------------------------------------------------------------
# the level tables: noise correlated across state axes is refused
# ---------------------------------------------------------------------------

def _noise_problem(sigma):
    """A 2-D problem with the constant noise matrix ``sigma`` and m = |a|^2."""
    return build_problem(
        dim_state=2, dim_noise=np.shape(sigma)[1], horizon=1.0, controls=[[0.0, 0.0]],
        diffusion=lambda t, a, u: np.broadcast_to(sigma, (np.atleast_2d(a).shape[0],
                                                          *np.shape(sigma))),
        terminal_cost=lambda a: (np.atleast_2d(a) ** 2).sum(axis=1))


@pytest.mark.parametrize("cross", [0.1, -0.1], ids=["positive", "negative"])
def test_correlated_noise_is_refused_before_the_first_step(cross):
    problem = _noise_problem(np.array([[0.3, cross], [0.0, 0.2]]))
    state, margin = [(-1.0, 1.0, 11)] * 2, (0.0, 1.0, 5)
    # the default step reads the tables at t = 0
    with pytest.raises(CorrelatedNoise, match=r"at t=0: .* not monotone"):
        stable_grid(problem, state, margin)
    # a pinned step builds no tables until the sweep's first level
    grid = stable_grid(problem, state, margin, 0.01)
    levels = []
    with pytest.raises(CorrelatedNoise, match=r"at t=1: .* not monotone"):
        solve_shortfall(problem, grid, on_level=lambda level, values: levels.append(level))
    assert levels == []


def test_noise_that_moves_one_axis_is_not_correlated():
    # one noise column along the first axis: sigma sigma^T is diag(0.09, 0)
    problem = _noise_problem(np.array([[0.3], [0.0]]))
    grid = stable_grid(problem, [(-1.0, 1.0, 11)] * 2, (0.0, 1.0, 5))
    [control] = _LevelTables(problem, grid, 0.0).controls
    assert _same_bits(control.variance, np.array([0.3 * 0.3, 0.0]))
    assert solve_shortfall(problem, grid).slice_at(0).min() >= 0.0


def _gaussian_shortfall(r2, margins, s, h=0.1):
    """E[(|a + s Z|^2 - b)+] for a 2-D standard normal Z, by a product
    trapezoid over [-8, 8]^2 with spacing ``h``, at each |a|^2 in ``r2``
    and each b in ``margins``.  The law of Z is rotation invariant, so the
    expectation reads a through |a| alone and is taken at a = (|a|, 0)."""
    z = np.arange(-8.0, 8.0 + h / 2, h)
    weights = np.exp(-z ** 2 / 2)
    weights = np.outer(weights, weights) / weights.sum() ** 2
    out = np.empty((r2.size, margins.size))
    for k, radius in enumerate(np.sqrt(r2)):
        square = (radius + s * z[:, None]) ** 2 + (s * z[None, :]) ** 2
        out[k] = [(np.maximum(square - b, 0.0) * weights).sum() for b in margins]
    return out


def test_two_dimensional_diffusion_matches_its_closed_form():
    # sigma = 0.5 I, m = |a|^2, one zero control, T = 1: W(0, a, b) is
    # E[(|X_T|^2 - b)+] with X_T ~ N(a, sigma^2 I), and the floor column is
    # E|X_T|^2 = |a|^2 + 2 sigma^2.  The top margin column is the ceiling,
    # pinned to 0 at the horizon, so it is left out.
    s = 0.5
    problem = _noise_problem(s * np.eye(2))
    errors = []
    for nodes, margin_nodes in ((21, 11), (41, 21)):
        grid = stable_grid(problem, [(-3.0, 3.0, nodes)] * 2, (0.0, 4.0, margin_nodes))
        values = solve_shortfall(problem, grid).slice_at(0)
        a1, a2 = grid.state_axes
        window = (np.abs(a1) <= 1.5)[:, None] & (np.abs(a2) <= 1.5)[None, :]
        r2 = a1[:, None] ** 2 + a2[None, :] ** 2
        floor = values[..., grid.margin_zero_index]
        assert np.abs(floor - (r2 + 2.0 * s * s))[window].max() <= 1e-3, nodes
        distinct, index = np.unique(r2[window], return_inverse=True)
        exact = _gaussian_shortfall(distinct, grid.margin_axis[:-1], s)[index.ravel()]
        errors.append(np.abs(values[window][:, :-1] - exact).max())
    assert errors[0] <= 0.01
    assert errors[1] <= errors[0] / 2.0


# ---------------------------------------------------------------------------
# the level tables: a coefficient with the same bits at every node is one value
# ---------------------------------------------------------------------------

STEERING_2D = {
    "problem": {"dim_state": 2, "dim_noise": 1, "horizon": 1.0,
                "controls": [[float(u), float(v)] for u in np.linspace(-1.0, 1.0, 5)
                             for v in np.linspace(-1.0, 1.0, 5)],
                "drift": "control", "terminal_cost": "square", "name": "steering-2d"},
    "grid": {"state": [[-2.1, 2.1, 35]] * 2, "margin": [0.0, 0.8, 41], "time_step": None},
}


def test_constant_coefficient_documents_store_one_value_per_coefficient():
    # the built-ins, the README's inline problem (the one with a running
    # cost) and the 35 x 35 x 41 two-dimensional steering document
    documents = {**_documents(), "steering-2d": STEERING_2D}
    stored = set()
    for label, document in documents.items():
        config = parse_config(json.dumps(document))
        n = config.problem.dim_state
        want = {"advection": (), "running": (), "variance": (n,)}
        for control in _LevelTables(config.problem, resolve_grid(config), 0.0).controls:
            entries = {"advection": [neg_f_i for neg_f_i, _ in control.advection],
                       "running": [control.running], "variance": [control.variance]}
            for kind, values in entries.items():
                for value in values:
                    if value is not None:
                        assert np.shape(value) == want[kind], (label, kind)
                        stored.add(kind)
    assert stored == set(want)


def _drift_that_differs_at_one_node(odd):
    """A drift that is 0 at every node but the fourth, where it is ``odd``."""
    def drift(t, a, u):
        values = np.zeros_like(np.atleast_2d(a))
        values[3] = odd
        return values
    return drift


@pytest.mark.parametrize("odd", [0.25, -0.25], ids=["another value", "a negative value"])
def test_a_drift_that_differs_at_one_node_stays_an_array(odd):
    drift = _drift_that_differs_at_one_node(odd)
    problem = minimal_problem(drift=drift)
    grid = make_grid([(-1.0, 1.0, 11)], (0.0, 1.0, 5), time_axis(1.0, 0.1))
    [(neg_f, _)] = _LevelTables(problem, grid, 0.0).controls[0].advection
    assert neg_f.shape == (11, 1)
    assert _same_bits(neg_f[:, 0], -drift(0.0, grid.state_mesh(), 0.0)[:, 0])


def test_a_drift_that_differs_only_in_the_sign_of_a_zero_is_one_value(monkeypatch):
    # +0 and -0 are one value to the tables, and the products with either
    # differ at most in the sign of a zero, which the clip settles
    problem = minimal_problem(drift=_drift_that_differs_at_one_node(-0.0),
                              terminal_cost=lambda a: (np.atleast_2d(a) ** 2).sum(axis=1),
                              region=Region(kind="ball", center=np.array([0.2]), radius=0.3))
    grid = make_grid([(-1.0, 1.0, 11)], (0.0, 1.0, 5), time_axis(1.0, 0.1))
    [(neg_f, _)] = _LevelTables(problem, grid, 0.0).controls[0].advection
    assert np.shape(neg_f) == () and neg_f == 0.0
    one_value = every_level(problem, grid)
    monkeypatch.setattr("epigraph.solver._node_uniform",
                        lambda values, shape: values.reshape(shape))
    assert _LevelTables(problem, grid, 0.0).controls[0].advection[0][0].shape == (11, 1)
    assert every_level(problem, grid).tobytes() == one_value.tobytes()


def test_one_value_tables_give_the_per_node_bits(monkeypatch):
    # the same solves with every coefficient stored per node
    cases = [*_autonomy_cases(), _stable_slope_step_case(
        "2-D uniform running, one-sign drift, with jumps, diffusion 0.3")]
    one_value = [every_level(problem, grid) for _, problem, grid in cases]
    monkeypatch.setattr("epigraph.solver._node_uniform",
                        lambda values, shape: values.reshape(shape))
    for (label, problem, grid), want in zip(cases, one_value):
        control = _LevelTables(problem, grid, 0.0).controls[0]
        assert control.advection[0][0].shape == (*grid.state_shape, 1), label
        assert every_level(problem, grid).tobytes() == want.tobytes(), label


# ---------------------------------------------------------------------------
# the level tables: the per-axis envelope of a product control grid
# ---------------------------------------------------------------------------

FROZEN_DIFFUSION = {
    "problem": {"dim_state": 1, "dim_noise": 1, "horizon": 0.5,
                "controls": [-1.0, -0.6, -0.2, 0.0, 0.2, 0.6, 1.0],
                "drift": "control", "diffusion": 0.3, "running_cost": 0.2,
                "terminal_cost": "square", "region": {"kind": "box", "lo": [-1.5], "hi": [1.5]}},
    "grid": {"state": [[-2.0, 2.0, 81]], "margin": [0.0, 2.0, 41], "time_step": None},
}


def _envelope_documents():
    """The built-ins, the 35 x 35 x 41 two-dimensional steering document and
    a 1-D document with frozen diffusion, running cost and a box region."""
    return {**{name: builtin_config(name) for name in BUILTIN_NAMES},
            "steering-2d": STEERING_2D, "frozen diffusion": FROZEN_DIFFUSION}


def _frozen_diffusion_2d():
    """(label, problem, grid): the 5 x 5 steering grid with frozen
    diffusion, running cost and a box region.  Its noise is uncorrelated
    across the axes, which no inline document can state: the inline
    ``diffusion`` number is correlated noise in two dimensions."""
    axis = np.linspace(-1.0, 1.0, 5)
    problem = build_problem(
        dim_state=2, dim_noise=2, horizon=0.5, controls=[[u, v] for u in axis for v in axis],
        drift=drift_is_control, diffusion=diagonal_diffusion(0.3),
        running_cost=constant_running(0.2),
        terminal_cost=lambda a: (np.atleast_2d(a) ** 2).sum(axis=1),
        region=Region(kind="box", lo=np.full(2, -1.5), hi=np.full(2, 1.5)), autonomous=True)
    grid = stable_grid(problem, [(-2.0, 2.0, 21)] * 2, (0.0, 2.0, 21))
    return "2-D frozen diffusion", problem, grid


def _tables_of(document):
    config = parse_config(json.dumps(document))
    return _LevelTables(config.problem, resolve_grid(config), 0.0)


def _kept(tables):
    """The number of drifts each state axis keeps, or None where the
    controls do not factor."""
    return None if tables.axis_drifts is None else [len(d) for d in tables.axis_drifts]


def test_the_envelope_of_the_bench_control_grids():
    # deterministic-steering is the bench steering problem; each sign side of
    # an axis keeps its smallest and largest drift, and the zero drift drops
    # all but the forward side's most negative one
    sizes = {label: (len(tables.controls), _kept(tables)) for label, tables in (
        ("steering", _tables_of(builtin_config("deterministic-steering"))),
        ("steering-2d", _tables_of(STEERING_2D)),
        ("jump-variance", _tables_of(builtin_config("jump-variance"))),
        ("seven controls", _LevelTables(*_seven_controls(), 0.0)))}
    assert sizes == {"steering": (21, [3]), "steering-2d": (25, [3, 3]),
                     "jump-variance": (1, [1]), "seven controls": (7, [3])}
    [drifts] = _LevelTables(*_seven_controls(), 0.0).axis_drifts
    assert drifts == [(-0.6, 0), (-0.0, 1), (0.6, 1)]


def _seven_controls(**overrides):
    """Seven one-value drifts of both signs on a 1-D grid: (problem, grid)."""
    fields = {"drift": drift_is_control, "controls": list(np.linspace(-0.6, 0.6, 7)),
              **overrides}
    problem = minimal_problem(**fields)
    return problem, make_grid([(-1.0, 1.0, 11)], (0.0, 1.0, 7), time_axis(1.0, 0.5))


def _five_by_five_minus_a_corner():
    """The 5 x 5 steering grid without its (1, 1) control on a 2-D grid."""
    axis = np.linspace(-1.0, 1.0, 5)
    problem = minimal_problem(dim_state=2, drift=drift_is_control,
                              controls=[[u, v] for u in axis for v in axis][:-1])
    return problem, make_grid([(-1.0, 1.0, 9), (-0.6, 0.6, 7)], (0.0, 1.0, 7),
                              time_axis(1.0, 0.5))


@pytest.mark.parametrize("setup", [
    lambda: _seven_controls(drift=lambda t, a, u: u - np.atleast_2d(a)),
    lambda: _seven_controls(running_cost=lambda t, a, u: np.full(np.atleast_2d(a).shape[0],
                                                                 u @ u + 0.25)),
    _five_by_five_minus_a_corner,
], ids=["a drift that varies with the state", "a running cost that depends on the control",
        "the 5 x 5 grid minus one corner"])
def test_the_envelope_keeps_every_control(setup):
    # controls that do not factor take the loop over every control, with
    # the per-control reference's bits
    problem, grid = setup()
    tables = _LevelTables(problem, grid, 0.5)
    assert tables.axis_drifts is None
    prev = np.random.default_rng(11).random((*grid.state_shape, grid.margin_axis.size)) * 2.0
    _assert_reference_bits(prev, tables, "")


JUMP_ATOM = {"jumps": JumpModel(marks=np.array([0.25]), weights=np.array([0.5])),
             "jump_size": lambda t, a, u, e: np.zeros_like(np.atleast_2d(a)) + e}


@pytest.mark.parametrize("overrides, reads_envelope", [
    (JUMP_ATOM, False),
    ({"diffusion": constant_diffusion(0.3)}, True),
], ids=["a jump atom", "frozen diffusion"])
def test_the_reduction_reads_the_envelope_only_where_every_target_is_minus_zero(
        overrides, reads_envelope):
    # cutting each axis to its first kept drift changes the slope only where
    # the reduction runs over the kept drifts: without jump atoms
    tables = _LevelTables(*_seven_controls(**overrides), 0.5)
    assert _kept(tables)[0] > 1
    rng = np.random.default_rng(5)
    prev = rng.random((11, 7)) * 2.0
    want = _best_time_slope(prev, tables)
    tables.axis_drifts = [drifts[:1] for drifts in tables.axis_drifts]
    got = _best_time_slope(prev, tables)
    assert _same_bits(got, want) != reads_envelope


def test_the_envelope_gives_the_every_control_bits(monkeypatch):
    # the same solves with the reduction over every control
    cases, dropping = [], set()
    for label, document in _envelope_documents().items():
        config = parse_config(json.dumps(document))
        cases.append((label, config.problem, resolve_grid(config)))
    cases.append(_frozen_diffusion_2d())
    for label, problem, grid in cases:
        tables = _LevelTables(problem, grid, 0.0)
        if tables.axis_drifts is not None and \
                math.prod(_kept(tables)) < len(tables.controls):
            dropping.add(label)
    assert dropping == {"deterministic-steering", "steering-2d", "frozen diffusion",
                        "2-D frozen diffusion"}
    factored = [every_level(problem, grid) for _, problem, grid in cases]
    monkeypatch.setattr("epigraph.solver._axis_drifts", lambda controls: None)
    for (label, problem, grid), want in zip(cases, factored):
        assert every_level(problem, grid).tobytes() == want.tobytes(), label


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_step_stops_the_sweep_naming_the_level_time(monkeypatch, bad):
    # the roundoff clip's min and max see a NaN or an infinity
    step = solver._step_into

    def spoiled(prev, t, dt, *args, **kwargs):
        out = step(prev, t, dt, *args, **kwargs)
        out[3, 4] = bad
        return out

    monkeypatch.setattr(solver, "_step_into", spoiled)
    grid = diffusive_grid()
    message = f"non-finite values in the slice at t={float(grid.times[-2]):.6g}"
    with pytest.raises(NonFiniteUpdate, match=re.escape(message)):
        solve_shortfall(diffusive_problem(), grid)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_step_zero_field_is_a_fixed_point():
    problem = builtin_problem("zero")
    grid = make_grid([(-3.0, 3.0, 21)], (0.0, 1.0, 11), time_axis(1.0, 0.02))
    prev = np.zeros((21, 11))
    new = step_backward(prev, 1.0, 0.02, problem, grid)
    assert np.array_equal(new, prev)


def test_step_accrues_constant_penalty_exactly():
    problem = minimal_problem(
        region=Region(kind="callable", func=lambda pts: np.ones(pts.shape[0])),
    )
    grid = make_grid([(-1.0, 1.0, 11)], (0.0, 1.0, 11), time_axis(1.0, 0.05))
    aa = grid.state_axes[0][:, None]
    bb = grid.margin_axis[None, :]
    prev = 0.5 + 0.1 * aa**2 + 0.05 * bb**2
    new = step_backward(prev, 1.0, 0.05, problem, grid)
    assert np.array_equal(new, prev + 0.05)


def test_step_local_error_is_quadratic_in_dt():
    problem = minimal_problem(
        drift=drift_is_control,
        diffusion=constant_diffusion(0.6),
        running_cost=constant_running(0.2),
        controls=[0.4],
    )
    grid = make_grid([(-3.0, 3.0, 41)], (0.0, 0.9, 31), time_axis(1.0, 0.02))
    aa = grid.state_axes[0][:, None]
    bb = grid.margin_axis[None, :]
    prev = 1.5 + 0.2 * bb**2 + 0.3 * np.exp(-aa**2 / 2) * (1 + 0.1 * np.sin(bb))

    def one_vs_two_halves(dt):
        one = step_backward(prev, 1.0, dt, problem, grid)
        half = step_backward(prev, 1.0, dt / 2, problem, grid)
        two = step_backward(half, 1.0 - dt / 2, dt / 2, problem, grid)
        return np.abs(one - two).max()

    ratio = one_vs_two_halves(0.02) / one_vs_two_halves(0.01)
    assert 3.2 < ratio < 4.8


def test_step_rejects_unstable_dt():
    problem = builtin_problem("zero")
    grid = make_grid([(-3.0, 3.0, 21)], (0.0, 1.0, 11), time_axis(1.0, 0.02))
    with pytest.raises(CFLViolation):
        step_backward(np.zeros((21, 11)), 1.0, 1.0, problem, grid)


def test_step_rejects_nonfinite_input():
    problem = builtin_problem("zero")
    grid = make_grid([(-3.0, 3.0, 21)], (0.0, 1.0, 11), time_axis(1.0, 0.02))
    prev = np.zeros((21, 11))
    prev[10, 5] = np.nan
    with pytest.raises(NonFiniteUpdate):
        step_backward(prev, 1.0, 0.02, problem, grid)


# ---------------------------------------------------------------------------
# the boundary pair: the sweep's margin-0 (floor) and top (ceiling) columns
# ---------------------------------------------------------------------------

def _state_only_pair(problem, grid):
    """The floor and the ceiling over every level, from a two-column sweep of
    the reference slope: margin slope -1 and 0, started from (m(a), 0)."""
    pair = np.empty((grid.n_levels, *grid.state_shape, 2))
    pair[-1, ..., 0] = eval_terminal(problem, grid.state_mesh()).reshape(grid.state_shape)
    pair[-1, ..., 1] = 0.0
    for level in range(grid.n_levels - 2, -1, -1):
        t = float(grid.times[level + 1])
        dt = t - float(grid.times[level])
        slope = _best_time_slope_reference(pair[level + 1], t, problem, grid,
                                           margin_slope=np.array([-1.0, 0.0]))
        pair[level] = _enforce_nonnegative(pair[level + 1] - dt * slope, t - dt)
    return pair


def _edges(grid):
    return [grid.margin_zero_index, -1]


def test_floor_zero_costs_is_zero():
    problem = builtin_problem("zero")
    grid = make_grid([(-3.0, 3.0, 31)], (0.0, 1.0, 11), time_axis(1.0, 0.02))
    values = every_level(problem, grid)
    assert values.shape == (grid.n_levels, 31, 11)
    assert np.abs(values[..., grid.margin_zero_index]).max() == 0.0


def test_floor_frozen_distance_accrual_is_exact():
    problem = builtin_problem("frozen-penalty")
    grid = grid_for(problem, "frozen-penalty")
    floor = every_level(problem, grid)[..., grid.margin_zero_index]
    a = grid.state_axes[0]
    for level in (0, grid.n_levels // 2, grid.n_levels - 1):
        expect = np.abs(a) * (1.0 - grid.times[level])
        assert np.abs(floor[level] - expect).max() < 1e-12


def test_boundary_fields_split_costs():
    # floor carries running + distance + terminal; ceiling carries distance only
    problem = minimal_problem(
        running_cost=constant_running(0.3),
        terminal_cost=lambda a: np.ones(np.atleast_2d(a).shape[0]),
        region=Region(kind="point", center=np.zeros(1)),
    )
    grid = make_grid([(-2.0, 2.0, 21)], (0.0, 1.0, 11), time_axis(1.0, 0.05))
    pair = every_level(problem, grid)[..., _edges(grid)]
    a = np.abs(grid.state_axes[0])
    for level in (0, grid.n_levels // 2):
        left = 1.0 - grid.times[level]
        assert np.abs(pair[level, :, 0] - (1.0 + (a + 0.3) * left)).max() < 1e-12
        assert np.abs(pair[level, :, 1] - a * left).max() < 1e-12


def test_floor_steering_reaches_the_oracle_value():
    problem = builtin_problem("deterministic-steering")
    grid = grid_for(problem, "deterministic-steering")
    floor = solve_shortfall(problem, grid).slice_at(0)[..., grid.margin_zero_index]
    i = int(np.argmin(np.abs(grid.state_axes[0] - 1.5)))
    assert floor[i] == pytest.approx(0.25, abs=0.05)


def _state_only_step(prev, t, dt, problem, grid, kind):
    """One state-only update written out term by term from the public stencils."""
    n = grid.dim_state
    h = grid.state_spacings
    mesh = grid.state_mesh()
    sshape = grid.state_shape
    weights = problem.jumps.weights
    dist = problem.distance(mesh).reshape(sshape)
    best = np.full(sshape, -np.inf)
    for u in problem.controls:
        drift, diffusion, jump_sizes, running = eval_coefficients_batch(problem, t, mesh, u)
        f_eff = (drift - np.einsum("k,kpi->pi", weights, jump_sizes)).reshape(*sshape, n)
        sig2 = np.einsum("pik,pjk->pij", diffusion, diffusion).reshape(*sshape, n, n)
        slope = -dist - (running.reshape(sshape) if kind == "floor" else 0.0)
        for i in range(n):
            fwd, bwd = first_differences(prev, i, h[i])
            slope -= f_eff[..., i] * np.where(f_eff[..., i] > 0.0, fwd, bwd)
            slope -= 0.5 * sig2[..., i, i] * second_difference(prev, i, h[i])
            for j in range(i + 1, n):
                slope -= sig2[..., i, j] * _cross_difference_reference(prev, i, j, h[i], h[j])
        for k in range(problem.jumps.n_atoms):
            shifted = interp_state(prev, grid.state_axes, mesh + jump_sizes[k])
            slope -= weights[k] * (shifted.reshape(sshape) - prev)
        best = np.maximum(best, slope)
    return prev - dt * best


def _two_dim_boundary_setup():
    """Running cost, a ball region on the grid, diagonal diffusion and one
    jump atom."""
    controls = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -0.5], [-0.3, 0.4]])
    problem = build_problem(
        dim_state=2,
        dim_noise=2,
        horizon=0.02,
        drift=drift_is_control,
        diffusion=lambda t, a, u: np.broadcast_to(
            np.diag([0.3, 0.2]), (np.atleast_2d(a).shape[0], 2, 2)),
        running_cost=lambda t, a, u: np.full(np.atleast_2d(a).shape[0], 0.1 + u @ u),
        terminal_cost=lambda a: (np.atleast_2d(a) ** 2).sum(axis=1),
        jumps=JumpModel(marks=np.array([0.3]), weights=np.array([0.5])),
        jump_size=lambda t, a, u, e: np.zeros_like(np.atleast_2d(a)) + e * np.array([1.0, -0.5]),
        region=Region(kind="ball", center=np.array([0.3, -0.2]), radius=0.8),
        controls=controls,
    )
    return problem, stable_grid(problem, [(-1.5, 1.5, 16), (-1.2, 1.2, 13)], (0.0, 1.0, 5))


def _one_dim_boundary_setup():
    """Running cost, a halfspace region, diffusion and one jump atom."""
    problem = build_problem(
        dim_state=1,
        dim_noise=1,
        horizon=0.4,
        drift=drift_is_control,
        diffusion=constant_diffusion(0.4),
        running_cost=constant_running(0.1),
        terminal_cost=lambda a: 0.5 + 0.25 * np.atleast_2d(a)[:, 0] ** 2,
        jumps=JumpModel(marks=np.array([0.25]), weights=np.array([0.5])),
        jump_size=lambda t, a, u, e: np.zeros_like(np.atleast_2d(a)) + e,
        region=Region(kind="halfspace", normal=np.array([1.0]), offset=1.2),
        controls=[-0.5, 0.0, 0.5],
    )
    return problem, diffusive_grid()


def test_boundary_fields_in_two_dimensions_match_the_written_out_update():
    # the edge columns are the state-only update, written out term by term
    problem, grid = _two_dim_boundary_setup()
    field = solve_shortfall(problem, grid, keep=(0, 1))
    for column, kind in zip(_edges(grid), ("floor", "ceiling")):
        t = float(grid.times[1])
        expect = _state_only_step(field.slice_at(1)[..., column], t, t, problem, grid, kind)
        scale = np.abs(expect).max()
        assert scale > 0.0
        assert np.abs(field.slice_at(0)[..., column] - expect).max() <= 1e-12 * scale


@pytest.mark.parametrize("setup", [_one_dim_boundary_setup, _two_dim_boundary_setup])
def test_boundary_pair_columns_match_one_column_sweeps(setup):
    # each edge column of the sweep gets the bits of its own one-column sweep
    problem, grid = setup()
    values = every_level(problem, grid)
    for level in range(grid.n_levels - 2, -1, -1):
        t = float(grid.times[level + 1])
        dt = t - float(grid.times[level])
        for column, c in zip(_edges(grid), (-1.0, 0.0)):
            prev = values[level + 1, ..., column]
            slope = _best_time_slope_reference(prev[..., None], t, problem, grid,
                                               margin_slope=c)
            expect = _enforce_nonnegative(prev - dt * slope[..., 0], t - dt)
            assert _same_bits(values[level, ..., column], expect), (column, level)
    floor, ceiling = values[0, ..., grid.margin_zero_index], values[0, ..., -1]
    assert np.abs(ceiling).max() > 0.0
    assert not np.array_equal(floor, ceiling)
    # the sweep starts from the terminal data, whose top column holds the
    # ceiling's datum 0 even where m(a) > b_max (the 2-D corners)
    assert _same_bits(values[-1], terminal_slice(problem, grid))
    assert not np.any(values[-1][..., -1])


def test_edge_columns_follow_the_state_only_rules():
    # a slab grid (margin 0 is an interior column) with running cost,
    # diffusion and one jump atom: the margin-0 and top columns are the
    # two-column state-only sweep, bit for bit
    problem, grid = _one_dim_boundary_setup()
    assert 0 < grid.margin_zero_index < grid.margin_axis.size - 1
    pair = _state_only_pair(problem, grid)
    assert np.abs(pair[0, ..., 1]).max() > 0.0
    values = every_level(problem, grid)
    for level in range(grid.n_levels):
        assert _same_bits(values[level][..., _edges(grid)], pair[level]), level


def test_no_slice_holds_a_negative_zero():
    # The zero control without jumps: its slope is -0 wherever the backward
    # difference is >= 0.  The clip settles the sign of every zero, also
    # from a resumed slice whose every zero is -0.
    problem = minimal_problem(drift=drift_is_control,
                              terminal_cost=lambda a: (np.atleast_2d(a) ** 2).sum(axis=1))
    grid = make_grid([(-1.0, 1.0, 11)], (0.0, 1.5, 7), time_axis(1.0, 0.1))
    terminal = terminal_slice(problem, grid)
    slope = _best_time_slope(terminal, _LevelTables(problem, grid, 1.0))
    assert np.signbit(slope[slope == 0.0]).any()
    last = grid.n_levels - 1
    for start in (terminal, np.where(terminal == 0.0, -0.0, terminal)):
        passed = []
        field = solve_shortfall(problem, grid, keep=range(last), resume=(last, start),
                                on_level=lambda level, values: passed.append(values.copy()))
        kept = np.stack([field.slice_at(level) for level in range(last)])
        assert not np.signbit(kept).any() and not np.signbit(np.stack(passed)).any()


def test_roundoff_clip_is_relative_to_the_slice_scale():
    values = np.full((6, 4), 1e3)
    values[2, 1] = -1e-10
    clipped = _enforce_nonnegative(values, 0.5)
    assert clipped[2, 1] == 0.0 and not np.signbit(clipped[2, 1])
    assert np.array_equal(np.delete(clipped.ravel(), 9), np.full(23, 1e3))
    values[2, 1] = -1e-6
    with pytest.raises(NonFiniteUpdate, match="nonnegativity violated"):
        _enforce_nonnegative(values, 0.5)
    # on a unit-scale slice the threshold stays at -1e-12
    unit = np.ones((6, 4))
    unit[2, 1] = -1e-10
    with pytest.raises(NonFiniteUpdate, match="nonnegativity violated"):
        _enforce_nonnegative(unit, 0.5)
    # a minimum exactly at the threshold is not roundoff
    values[2, 1] = -1e-12 * 1e3
    with pytest.raises(NonFiniteUpdate, match=r"min value -1\.000e-09"):
        _enforce_nonnegative(values, 0.5)
    unit[2, 1] = -1e-12
    with pytest.raises(NonFiniteUpdate, match="nonnegativity violated"):
        _enforce_nonnegative(unit, 0.5)


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------

def test_zero_problem_stays_identically_zero():
    problem = builtin_problem("zero")
    grid = make_grid([(-3.0, 3.0, 41)], (0.0, 1.0, 21), time_axis(1.0, 0.025))
    values = every_level(problem, grid)
    assert np.abs(values).max() == 0.0


def test_terminal_level_is_bit_identical_to_terminal_data():
    problem = diffusive_problem()
    grid = diffusive_grid()
    field = solve_shortfall(problem, grid, keep=(grid.n_levels - 1,))
    assert np.array_equal(field.slice_at(grid.n_levels - 1), terminal_slice(problem, grid))


def test_a_fresh_solve_builds_the_terminal_slice_once(monkeypatch):
    problem = diffusive_problem()
    grid = diffusive_grid()
    calls = []

    def counted(*args):
        calls.append(args)
        return terminal_slice(*args)

    monkeypatch.setattr(solver, "terminal_slice", counted)
    solve_shortfall(problem, grid)
    assert len(calls) == 1


def test_slab_rows_reproduce_the_floor_exactly_frozen():
    problem = builtin_problem("frozen-penalty")
    grid = grid_for(problem, "frozen-penalty")
    values = every_level(problem, grid)
    jz = grid.margin_zero_index
    below = grid.margin_axis < 0.0
    worst = 0.0
    for level in range(grid.n_levels):
        expect = values[level, :, jz, None] - grid.margin_axis[None, below]
        worst = max(worst, np.abs(values[level][:, below] - expect).max())
    assert worst < 1e-12


def test_slab_rows_reproduce_the_floor_exactly_with_diffusion():
    problem = diffusive_problem()
    grid = diffusive_grid()
    values = every_level(problem, grid)
    jz = grid.margin_zero_index
    below = grid.margin_axis < 0.0
    worst = 0.0
    for level in range(grid.n_levels):
        expect = values[level, :, jz, None] - grid.margin_axis[None, below]
        worst = max(worst, np.abs(values[level][:, below] - expect).max())
    assert worst < 1e-12


def test_field_is_nonnegative_and_nonincreasing_in_margin():
    problem = diffusive_problem()
    grid = diffusive_grid()
    values = every_level(problem, grid)
    assert values.min() >= 0.0
    jz = grid.margin_zero_index
    for level in range(grid.n_levels):
        assert np.diff(values[level][:, jz:], axis=1).max() <= 1e-12


def test_sweep_pins_the_edge_columns_to_the_boundary_pair():
    # step_backward steps the margin-0 and top columns by their state-only
    # rules, and the sweep only clips roundoff: every level's edge columns
    # are the two-column state-only sweep
    problem = diffusive_problem()
    grid = diffusive_grid()
    values = every_level(problem, grid)
    pair = _state_only_pair(problem, grid)
    edges = _edges(grid)
    for level in range(grid.n_levels):
        assert _same_bits(values[level][..., edges], pair[level]), level
    prev = values[5]
    t = float(grid.times[5])
    dt = t - float(grid.times[4])
    raw = step_backward(prev, t, dt, problem, grid)
    assert _same_bits(_enforce_nonnegative(raw.copy(), t - dt), values[4])
    # the general update of the full slice would give the edges other values
    general = prev - dt * _best_time_slope_reference(prev, t, problem, grid)
    for column in edges:
        assert not np.array_equal(general[..., column], raw[..., column]), column


def test_lipschitz_quotients_are_stable_under_refinement():
    problem = builtin_problem("deterministic-steering")

    def quotients(na, nb):
        grid = stable_grid(problem, [(-2.1, 2.1, na)], (0.0, 0.6, nb))
        field = solve_shortfall(problem, grid)
        core = field.slice_at(0)[:, :-1]   # drop the top column, the ceiling
        qa = np.abs(np.diff(core, axis=0)).max() / grid.state_spacings[0]
        qb = np.abs(np.diff(core, axis=1)).max() / grid.margin_spacing
        return qa, qb

    qa_coarse, qb_coarse = quotients(141, 81)
    qa_fine, qb_fine = quotients(281, 161)
    assert qa_fine <= 1.5 * qa_coarse
    assert qb_fine <= 1.5 * qb_coarse
    # the margin direction is 1-Lipschitz outright
    assert qb_coarse <= 1.0 + 1e-9
    assert qb_fine <= 1.0 + 1e-9


def test_interior_rows_insensitive_to_margin_ceiling_doubling():
    problem = builtin_problem("deterministic-steering")
    narrow = stable_grid(problem, [(-2.1, 2.1, 141)], (0.0, 0.6, 241))
    wide = make_grid([(-2.1, 2.1, 141)], (0.0, 1.2, 481), narrow.times)
    f_narrow = every_level(problem, narrow)
    f_wide = every_level(problem, wide)
    assert np.array_equal(f_narrow[:, :, :240], f_wide[:, :, :240])


# ---------------------------------------------------------------------------
# scheme monotonicity (sampled, in the regimes where it holds exactly)
# ---------------------------------------------------------------------------

NEIGHBOR_OFFSETS = [(-1, 0), (1, 0), (0, -1), (0, 1),
                    (1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)]


def _worst_monotonicity_drop(problem, grid, prev, t, dt, rng, trials=30):
    base = step_backward(prev, t, dt, problem, grid)
    worst = 0.0
    for _ in range(trials):
        i = int(rng.integers(2, prev.shape[0] - 2))
        j = int(rng.integers(2, prev.shape[1] - 2))
        for di, dj in NEIGHBOR_OFFSETS:
            bumped = prev.copy()
            bumped[i + di, j + dj] += 1e-3
            new = step_backward(bumped, t, dt, problem, grid)
            worst = max(worst, float(base[i, j] - new[i, j]))
    return worst


def test_step_is_monotone_in_frozen_mode():
    problem = diffusive_problem()
    grid = diffusive_grid()
    prev = solve_shortfall(problem, grid, keep=(10,)).slice_at(10)
    drop = _worst_monotonicity_drop(problem, grid, prev, float(grid.times[11]),
                                    0.02, np.random.default_rng(0))
    assert drop <= 1e-12


def test_step_is_monotone_without_diffusion():
    problem = builtin_problem("deterministic-steering")
    grid = make_grid([(-2.1, 2.1, 71)], (0.0, 0.6, 41), time_axis(1.0, 0.012))
    prev = solve_shortfall(problem, grid, keep=(40,)).slice_at(40)
    drop = _worst_monotonicity_drop(problem, grid, prev, float(grid.times[41]),
                                    0.01, np.random.default_rng(1))
    assert drop <= 1e-12


# ---------------------------------------------------------------------------
# the sweep step against its earlier per-control sequence
# ---------------------------------------------------------------------------

def _best_time_slope_reference(prev, t, problem, grid, margin_slope=None):
    """``_best_time_slope`` as it was before the zero-running and one-sign
    drift skips: every control multiplies and adds its running cost, picks
    each advection difference with a masked copy, sums the advection terms
    into a zeroed slope, subtracts the trace of its full ``sigma sigma^T``,
    mixed differences included, and subtracts its negated jump term."""
    n = grid.dim_state
    h = grid.state_spacings
    hb = grid.margin_spacing
    mesh = grid.state_mesh()
    sshape = grid.state_shape
    B = prev.shape[-1]
    weights = problem.jumps.weights
    K = problem.jumps.n_atoms

    neg_dist = -problem.distance(mesh).reshape(*sshape)[..., None]
    fwd_bwd = [first_differences(prev, i, h[i]) for i in range(n)]
    if margin_slope is None:
        _, margin_slope = first_differences(prev, n, hb)

    best = np.full_like(prev, -np.inf)
    slope = np.empty_like(prev)
    scratch = np.empty_like(prev)
    for u in problem.controls:
        drift, diffusion, jump_sizes, running = eval_coefficients_batch(
            problem, t, mesh, u
        )
        f_eff = drift - np.einsum("k,kpi->pi", weights, jump_sizes) if K else drift
        f_grid = f_eff.reshape(*sshape, n)

        slope.fill(0.0)
        for i in range(n):
            f_i = f_grid[..., i][..., None]
            np.copyto(scratch, fwd_bwd[i][1])
            np.copyto(scratch, fwd_bwd[i][0], where=f_i > 0.0)
            scratch *= f_i
            slope += scratch
        np.subtract(neg_dist, slope, out=slope)
        np.multiply(running.reshape(*sshape)[..., None], margin_slope, out=scratch)
        slope += scratch

        if diffusion.any():
            sig2 = np.einsum("pik,pjk->pij", diffusion, diffusion).reshape(*sshape, 1, n, n)
            trace = np.zeros_like(prev)
            for i in range(n):
                trace += sig2[..., i, i] * second_difference(prev, i, h[i])
            for i, j in itertools.combinations(range(n), 2):
                trace += 2.0 * sig2[..., i, j] * _cross_difference_reference(
                    prev, i, j, h[i], h[j])
            trace *= 0.5
            slope -= trace

        jump_term = np.zeros((*sshape, B))
        for k in range(K):
            shifted = interp_state(prev, grid.state_axes, mesh + jump_sizes[k])
            jump_term += weights[k] * -(shifted.reshape(*sshape, B) - prev)
        slope -= np.negative(jump_term, out=jump_term)
        np.maximum(best, slope, out=best)

    return best


def _slope_step_cases():
    """(label, prev, problem, grid) over 1-D and 2-D states, zero,
    state-uniform and state-varying running cost, one-sign and mixed-sign
    drift, no jump or one atom, and no diffusion or diagonal diffusion; in
    1-D and 2-D, three atoms whose amplitudes depend on the control; and per
    state dimension, 3-D too, a product control grid whose axes drop drifts.
    Margin 0 is the first column of the 1-D grid and an interior one of the
    others."""
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        grid = (make_grid([(-1.0, 1.0, 11)], (0.0, 1.0, 7), time_axis(1.0, 0.5)) if n == 1
                else make_grid([(-1.0, 1.0, 7), (-0.6, 0.6, 5), (-0.5, 0.5, 6)][:n],
                               (-0.4, 1.0, 8), time_axis(1.0, 0.5)))
        # the zero control gives zero drift without jumps
        controls = [[-0.5], [0.0], [0.5]] if n == 1 else [[0.5, 0.3], [-0.4, 0.0], [0.0, 0.0]]
        prev = rng.random((*grid.state_shape, grid.margin_axis.size)) * 2.0
        prev[rng.random(prev.shape) < 0.3] = 0.0
        prev[rng.random(prev.shape) < 0.15] = -0.0
        # the 3-D grid takes the product control grid only
        for running, drift, jumps, sigma in itertools.product(
                ("zero", "uniform", "nonzero"), ("one-sign", "mixed"), ("without", "with"),
                (0.0, 0.3)) if n < 3 else ():
            # u.u + 1/4 is the same at every node, and u.u + max(a_1, 0)^2 is
            # zero on half the nodes for the zero control
            problem = build_problem(
                dim_state=n, dim_noise=n, horizon=1.0, controls=controls,
                drift=(drift_is_control if drift == "one-sign"
                       else lambda t, a, u: u - np.atleast_2d(a)),
                diffusion=diagonal_diffusion(sigma) if sigma else None,
                running_cost={
                    "zero": None,
                    "uniform": lambda t, a, u: np.full(np.atleast_2d(a).shape[0], u @ u + 0.25),
                    "nonzero": lambda t, a, u: (
                        u @ u + np.maximum(np.atleast_2d(a)[:, 0], 0.0) ** 2),
                }[running],
                terminal_cost=zero_terminal,
                jumps=None if jumps == "without" else JumpModel(
                    marks=np.array([0.25]), weights=np.array([0.5])),
                jump_size=None if jumps == "without" else (
                    lambda t, a, u, e: np.zeros_like(np.atleast_2d(a)) + e),
                region=Region(kind="ball", center=np.full(n, 0.3), radius=0.5),
            )
            yield (f"{n}-D {running} running, {drift} drift, {jumps} jumps, diffusion {sigma}",
                   prev, problem, grid)
        # the jump term adds the atoms' gains in atom order, as the reference
        # does; with two atoms either order gives the same bits, with three not
        if n < 3:
            problem = build_problem(
                dim_state=n, dim_noise=n, horizon=1.0, controls=controls,
                drift=lambda t, a, u: u - np.atleast_2d(a),
                diffusion=diagonal_diffusion(0.3), terminal_cost=zero_terminal,
                jumps=JumpModel(marks=np.array([0.25, -0.4, 0.15]),
                                weights=np.array([0.5, 1.5, 0.7])),
                jump_size=lambda t, a, u, e: np.zeros_like(np.atleast_2d(a)) + e * (1.0 + u),
                region=Region(kind="ball", center=np.full(n, 0.3), radius=0.5),
            )
            yield f"{n}-D three atoms", prev, problem, grid
        # product control grids whose axes drop drifts, with running costs
        # that do not depend on the control: seven controls of both signs in
        # 1-D (3 kept), a 3 x 3 product of one-sign drifts in 2-D (2 x 2
        # kept), and in 3-D a 4 x 3 x 3 product with a zero drift on two axes
        # (3 x 2 x 3 kept), where summing the axes in another order rounds
        # differently
        values = {1: [np.linspace(-0.6, 0.6, 7)],
                  2: [(0.2, 0.5, 0.8), (-0.6, -0.3, -0.1)],
                  3: [(-0.5, 0.0, 0.5, 0.8), (0.2, 0.5, 0.9), (-0.3, 0.0, 0.4)]}[n]
        controls = [list(u) for u in itertools.product(*values)]
        for running, sigma in itertools.product(("zero", "constant"), (0.0, 0.3)):
            problem = build_problem(
                dim_state=n, dim_noise=n, horizon=1.0, controls=controls,
                drift=drift_is_control,
                diffusion=diagonal_diffusion(sigma) if sigma else None,
                running_cost=constant_running(0.25) if running == "constant" else None,
                terminal_cost=zero_terminal,
                region=Region(kind="ball", center=np.full(n, 0.3), radius=0.5),
            )
            yield (f"{n}-D {len(controls)} controls, {running} running, diffusion {sigma}",
                   prev, problem, grid)


def _assert_reference_bits(prev, tables, label):
    """``_best_time_slope`` with ``tables`` at t = 0.5 matches the
    per-control reference bit for bit, up to the sign of a zero slope: the
    margin-0 and top columns its one-column state-only calls, the other
    columns its full-slice call.  ``x + 0.0`` maps both zeros to +0 and
    keeps every other value's bits."""
    problem, grid = tables.problem, tables.grid
    got = _best_time_slope(prev, tables) + 0.0
    want = _best_time_slope_reference(prev, 0.5, problem, grid) + 0.0
    edges = _edges(grid)
    inner = np.ones(prev.shape[-1], dtype=bool)
    inner[edges] = False
    assert _same_bits(got[..., inner], want[..., inner]), label
    for column, c in zip(edges, (-1.0, 0.0)):
        edge = _best_time_slope_reference(prev[..., column, None], 0.5, problem, grid,
                                          margin_slope=c)
        assert _same_bits(got[..., column], edge[..., 0] + 0.0), (label, column)


def test_time_slope_matches_the_per_control_reference_bit_for_bit():
    # The skips change at most the signs of zero slopes, which the clip
    # settles; every other bit must agree.
    count = dropped = 0
    for label, prev, problem, grid in _slope_step_cases():
        tables = _LevelTables(problem, grid, 0.5)
        _assert_reference_bits(prev, tables, label)
        if tables.axis_drifts is not None:
            dropped += len(tables.controls) - math.prod(_kept(tables))
        # the coefficients are autonomous: the level's bound is the default step
        assert tables.bound == max_stable_dt(problem, grid), label
        count += 1
    assert count == 2 * 3 * 2 * 2 * 2 + 2 + 3 * 2 * 2
    # only the control grids drop controls: 7 -> 3 in 1-D, 9 -> 2 x 2 in 2-D
    # and 4 x 3 x 3 -> 3 x 2 x 3 in 3-D
    assert dropped == 4 * 4 + 4 * 5 + 4 * 18


# ---------------------------------------------------------------------------
# the array sweep against the per-node reference Hamiltonian
# ---------------------------------------------------------------------------


_UNHEDGED = ("frozen", "zero")  # the form the sweep zeroes: both hedges held at zero
_PAPER = ("spectral", "grid")    # the paper's: the spectral hedge, beta over the margin grid


def _sweep_residuals(problem, grid, prev, t, rng, nodes=60, *, slope=None, form=_UNHEDGED,
                     scale=None):
    """|H| from :func:`hamiltonian_at_node` in ``form``, its ``(hedge,
    jump_hedge)`` pair, with the sweep's stencils and ``slope`` as the time
    slope (None: the sweep's own), divided by ``scale`` (None: the field
    size), at ``nodes``: that many random interior nodes drawn from ``rng``,
    or a list of (state..., margin) indices; also the number of checked
    nodes with a nonzero arrow, where a hedge would change H.

    The jump compensator is read at the first control: the problems used
    here have control-independent jump sizes.  The beta candidates put the
    margin after a jump on the margin grid.
    """
    n = grid.dim_state
    h = grid.state_spacings
    hb = grid.margin_spacing
    axes = grid.state_axes
    b_axis = grid.margin_axis
    if slope is None:
        slope = _best_time_slope(prev, _LevelTables(problem, grid, t))
    fwd_bwd = [first_differences(prev, i, h[i]) for i in range(n)]
    _, margin_slope = first_differences(prev, n, hb)
    hess = [[second_difference(prev, i, h[i]) if i == j
             else _cross_difference_reference(prev, min(i, j), max(i, j), h[min(i, j)],
                                              h[max(i, j)])
             for j in range(n)] for i in range(n)]
    cross_margin = [_cross_difference_reference(prev, i, n, h[i], hb) for i in range(n)]
    hess_margin = second_difference(prev, n, hb)
    weights = problem.jumps.weights
    scale = max(1.0, float(np.abs(prev).max())) if scale is None else scale

    def field_eval(state, margin):
        j = int(np.argmin(np.abs(b_axis - margin)))
        return float(interp_state(prev[..., j], axes, state[None, :])[0])

    # the margin-0 and top columns follow their own rules, not this Hamiltonian
    jz = grid.margin_zero_index
    margins = range(jz + 1, b_axis.size - 1)
    if isinstance(nodes, int):
        nodes = [(*(int(rng.integers(1, a.size - 1)) for a in axes), int(rng.choice(margins)))
                 for _ in range(nodes)]
    residuals = []
    live = 0
    for idx in nodes:
        assert idx[-1] not in (jz, b_axis.size - 1)
        state = np.array([axes[i][idx[i]] for i in range(n)])
        margin = float(b_axis[idx[-1]])
        arrows = [eval_coefficients(problem, t, state, u).diffusion.T
                  @ np.array([c[idx] for c in cross_margin]) for u in problem.controls]
        live += any(np.any(np.abs(a) > 1e-8) for a in arrows)
        coeffs0 = eval_coefficients(problem, t, state, problem.controls[0])
        compensator = weights @ coeffs0.jump_sizes if problem.jumps.n_atoms else 0.0

        def stencil_for(drift, idx=idx):
            f_eff = drift - compensator
            grad = np.array([fwd_bwd[i][0 if f_eff[i] > 0.0 else 1][idx] for i in range(n)])
            return Stencil(
                time_slope=float(slope[idx]),
                grad_state=grad,
                grad_margin=float(margin_slope[idx]),
                hess_state=np.array([[hess[i][j][idx] for j in range(n)] for i in range(n)]),
                hess_cross=np.array([c[idx] for c in cross_margin]),
                hess_margin=float(hess_margin[idx]),
            )

        H = hamiltonian_at_node(
            field_eval, t, state, margin, stencil_for, problem, b_axis - margin,
            hedge=form[0], jump_hedge=form[1],
        )
        residuals.append(abs(H) / scale)
    return np.array(residuals), live


def test_sweep_zeroes_the_node_hamiltonian_with_diffusion():
    problem = diffusive_problem()
    grid = diffusive_grid()
    field = solve_shortfall(problem, grid, keep=(10,))
    residuals, _ = _sweep_residuals(problem, grid, field.slice_at(10),
                                    float(grid.times[11]), np.random.default_rng(2))
    assert residuals.size >= 20
    assert residuals.max() <= 1e-12


@pytest.mark.parametrize("diffusion", [constant_diffusion(0.4), diffusion_off_at_rest],
                         ids=["every-control", "all-but-one-control"])
def test_sweep_zeroes_the_node_hamiltonian_through_the_arrowhead(diffusion):
    # A state-dependent terminal cost gives the field a state-margin cross
    # curvature, so the arrow of each node's arrowhead is live; the unhedged
    # Hamiltonian reads the arrowhead's corner alone.  The second case mixes
    # a control whose trace term is skipped with controls whose trace runs.
    problem = diffusive_problem(
        terminal_cost=lambda a: 0.5 + 0.25 * np.atleast_2d(a)[:, 0] ** 2,
        diffusion=diffusion,
    )
    grid = diffusive_grid()
    field = solve_shortfall(problem, grid, keep=(10,))
    residuals, live = _sweep_residuals(problem, grid, field.slice_at(10),
                                       float(grid.times[11]), np.random.default_rng(5))
    assert live >= 20
    assert residuals.max() <= 1e-12


def test_sweep_zeroes_the_node_hamiltonian_without_diffusion():
    # 21 controls and an identically zero arrow
    problem = builtin_problem("deterministic-steering")
    grid = make_grid([(-2.1, 2.1, 71)], (0.0, 0.6, 41), time_axis(1.0, 0.012))
    field = solve_shortfall(problem, grid, keep=(40,))
    residuals, _ = _sweep_residuals(problem, grid, field.slice_at(40),
                                    float(grid.times[41]), np.random.default_rng(3))
    assert residuals.size >= 20
    assert residuals.max() <= 1e-12


def test_sweep_zeroes_the_node_hamiltonian_with_jumps():
    # one step from the terminal slice
    problem = builtin_problem("jump-variance")
    grid = make_grid([(-2.0, 2.0, 41)], (0.0, 4.0, 21), time_axis(1.0, 0.004))
    residuals, _ = _sweep_residuals(problem, grid, terminal_slice(problem, grid),
                                    problem.horizon, np.random.default_rng(4))
    assert residuals.size == 60
    assert residuals.max() <= 1e-12


def test_the_papers_hamiltonian_tells_the_hedged_field_from_the_sweeps():
    # jump-variance: unit noise and one unit atom of weight 2, one control,
    # m(a) = a^2.  The paper's hedged W is (a^2 + 3(T - t) - b)^+.  At the
    # step into level 1 and at 60 smooth nodes (|a| <= 1.5, 0 < b <= 8, away
    # from the kink), the paper's Hamiltonian vanishes at first order on that
    # W, and stays above 1 on the sweep's W, which zeroes the unhedged form.
    problem = builtin_problem("jump-variance")
    closed, paper, unhedged = [], [], []
    for n_state, n_margin in ((121, 201), (241, 401)):
        grid = stable_grid(problem, [(-6.0, 6.0, n_state)], (0.0, 40.0, n_margin))
        t1, t = float(grid.times[1]), float(grid.times[2])
        a, b = grid.state_axes[0][:, None], grid.margin_axis
        h = grid.state_spacings[0]
        exact, earlier = (np.maximum(a * a + 3.0 * (problem.horizon - s) - b, 0.0)
                          for s in (t, t1))
        kink = np.abs(b - (a * a + 3.0 * (problem.horizon - t)))
        smooth = np.argwhere((np.abs(a) <= 1.5) & (b > 0.0) & (b <= 8.0)
                             & (kink > 3.0 * max(h, grid.margin_spacing) + 2.0 * np.abs(a) * h))
        picks = np.random.default_rng(0).choice(len(smooth), 60, replace=False)
        nodes = [tuple(int(i) for i in smooth[k]) for k in picks]
        residuals, _ = _sweep_residuals(problem, grid, exact, t, None, nodes, form=_PAPER,
                                        slope=(exact - earlier) / (t - t1), scale=1.0)
        closed.append(residuals.max())
        swept = solve_shortfall(problem, grid, keep=(2,)).slice_at(2)
        for form, maxima in ((_PAPER, paper), (_UNHEDGED, unhedged)):
            residuals, _ = _sweep_residuals(problem, grid, swept, t, None, nodes, form=form,
                                            scale=1.0)
            maxima.append(residuals.max())
    assert 1.4 <= closed[0] / closed[1] <= 2.6, closed    # measured 0.200, 0.100
    assert min(paper) > 1.0, paper                         # measured 1.26, 1.14
    assert max(unhedged) <= 1e-12, unhedged                # measured 1.5e-13, 1.1e-13


# ---------------------------------------------------------------------------
# plumbing: resume, early abort
# ---------------------------------------------------------------------------

class _Stop(Exception):
    """What an ``on_level`` callback raises to stop the sweep."""


def _stopped_after(problem, grid, stop: int):
    """A copy of the slice of level ``stop`` from a sweep whose ``on_level``
    callback raises once that level is done; the exception propagates out
    of the sweep."""
    seen = []

    def on_level(level, values):
        seen.append(level)
        if level == stop:
            raise _Stop(values.copy())

    with pytest.raises(_Stop) as stopped:
        solve_shortfall(problem, grid, on_level=on_level)
    assert seen == list(range(grid.n_levels - 2, stop - 1, -1))
    return stopped.value.args[0]


def test_a_field_guards_the_levels_it_did_not_keep():
    problem = diffusive_problem()
    grid = diffusive_grid()
    field = solve_shortfall(problem, grid, keep=(10, 12))
    assert field.levels == [10, 12]
    assert field.slice_at(10) is not None
    for level in (0, 9, 11, grid.n_levels - 1):
        with pytest.raises(UnsolvedField, match=r"keeps levels \[10, 12\]"):
            field.slice_at(level)


def _longer_two_dim_setup():
    """The two-dimensional boundary setup over a horizon of 15 levels."""
    problem, grid = _two_dim_boundary_setup()
    problem = dataclasses.replace(problem, horizon=1.0)
    state = [(axis[0], axis[-1], axis.size) for axis in grid.state_axes]
    margin = (grid.margin_axis[0], grid.margin_axis[-1], grid.margin_axis.size)
    return problem, stable_grid(problem, state, margin)


def test_kept_levels_and_level_callbacks_have_the_every_level_bits():
    # a 1-D and a 2-D problem, each with jumps, diffusion and running cost
    for problem, grid in (_one_dim_boundary_setup(), _longer_two_dim_setup()):
        assert grid.n_levels > 10
        full = every_level(problem, grid)
        keep = (0, 5, grid.n_levels - 1)
        seen = {}
        field = solve_shortfall(problem, grid, keep=keep,
                                on_level=lambda level, values: seen.setdefault(
                                    level, values.copy()))
        assert field.levels == sorted(keep)
        for level in keep:
            assert _same_bits(field.slice_at(level), full[level]), level
        assert sorted(seen) == list(range(grid.n_levels - 1))
        for level, values in seen.items():
            assert _same_bits(values, full[level]), level


def test_sweep_memory_does_not_grow_with_the_level_count():
    # two slices, the step's buffers and the kept level 0: four times the
    # levels take no more memory, and the peak is a fixed number of slices
    # (about 16 here)
    problem = dataclasses.replace(builtin_problem("jump-variance"), horizon=0.05)
    state, margin = [(-2.0, 2.0, 161)], (0.0, 4.0, 81)
    slice_bytes = 8 * 161 * 81
    dt = stable_grid(problem, state, margin).dt
    peaks = []
    for factor in (1, 4):
        grid = make_grid(state, margin, time_axis(problem.horizon, dt / factor))
        tracemalloc.start()
        try:
            solve_shortfall(problem, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 280 more levels add less than one slice
    assert grid.n_levels > 300
    assert peaks[1] < peaks[0] + slice_bytes
    assert peaks[1] < 24 * slice_bytes


def test_resume_from_snapshot_matches_uninterrupted_solve(tmp_path):
    problem = diffusive_problem()
    grid = diffusive_grid()
    full = every_level(problem, grid)

    prefix = str(tmp_path / "level10")
    save_snapshot(grid, 10, _stopped_after(problem, grid, 10), prefix, "digest")

    resumed = solve_shortfall(problem, grid, keep=range(grid.n_levels),
                              resume=load_snapshot(prefix, grid, "digest"))
    assert resumed.levels == list(range(11))
    assert np.array_equal(np.stack([resumed.slice_at(k) for k in range(11)]), full[:11])
