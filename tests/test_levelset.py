"""Zero-level-set extraction against hand-checkable fields."""

import csv
import math

import numpy as np
import pytest

from epigraph.cli import export_profile_csv
from epigraph.errors import UnsolvedField
from epigraph.fields import Field, make_grid, terminal_slice, time_axis
from epigraph.levelset import UNREACHABLE, default_epsilon, required_margin_profile
from epigraph.model import eval_terminal
from epigraph.problems import builtin_problem
from epigraph.solver import solve_shortfall, stable_grid


def terminal_field(problem, grid):
    """A field holding only max{m(a) - b, 0} at the terminal level.

    Unlike :func:`terminal_slice` it keeps that formula in the top column,
    so a state with m(a) above the top margin has no crossing on the axis.
    """
    m = eval_terminal(problem, grid.state_mesh()).reshape(grid.state_shape)
    values = np.maximum(m[..., None] - grid.margin_axis, 0.0)
    return Field(grid, {grid.n_levels - 1: values}, epsilon=default_epsilon(values))


@pytest.fixture(scope="module")
def square_terminal():
    problem = builtin_problem("deterministic-steering")
    grid = make_grid([(-3.0, 3.0, 7)], (0.0, 6.0, 13), time_axis(1.0, 0.25))
    return terminal_field(problem, grid), grid


@pytest.fixture(scope="module")
def steering_field():
    problem = builtin_problem("deterministic-steering")
    grid = stable_grid(problem, [(-2.1, 2.1, 201)], (0.0, 0.6, 201))
    return solve_shortfall(problem, grid), grid


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, math.inf, math.nan],
                         ids=["zero", "negative", "inf", "nan"])
def test_threshold_must_be_positive_and_finite(square_terminal, epsilon):
    field, grid = square_terminal
    with pytest.raises(ValueError, match="positive and finite"):
        required_margin_profile(field, grid.n_levels - 1, epsilon)


def test_terminal_crossing_at_a_node_is_exact(square_terminal):
    field, grid = square_terminal
    level = grid.n_levels - 1
    # a = 2, m = 4: the slice hits zero exactly at the b = 4 node
    assert required_margin_profile(field, level)[5] == 4.0


def test_terminal_profile_samples_the_terminal_cost(square_terminal):
    field, grid = square_terminal
    profile = required_margin_profile(field, grid.n_levels - 1)
    assert profile.shape == (7,)
    # |a| = 3 needs margin 9, beyond the grid's reach
    expect = np.array([UNREACHABLE, 4.0, 1.0, 0.0, 1.0, 4.0, UNREACHABLE])
    assert np.array_equal(profile, expect)


def test_terminal_mask_is_the_epigraph(square_terminal):
    field, grid = square_terminal
    mask = field.slice_at(grid.n_levels - 1) <= field.epsilon
    m = grid.state_axes[0] ** 2
    assert np.array_equal(mask, grid.margin_axis[None, :] >= m[:, None])


def test_default_epsilon_scales_with_the_terminal_slice(square_terminal):
    field, grid = square_terminal
    terminal = field.slice_at(grid.n_levels - 1)
    assert default_epsilon(terminal) == pytest.approx(1e-3 * 10.0)


def test_zero_problem_needs_no_margin_anywhere():
    problem = builtin_problem("zero")
    grid = make_grid([(-3.0, 3.0, 31)], (0.0, 1.0, 11), time_axis(1.0, 0.02))
    field = solve_shortfall(problem, grid)
    assert np.array_equal(required_margin_profile(field, 0), np.zeros(31))
    assert (field.slice_at(0) <= field.epsilon).all()


def test_steering_value_matches_the_oracle(steering_field):
    field, grid = steering_field
    i = int(np.argmin(np.abs(grid.state_axes[0] - 1.5)))
    assert required_margin_profile(field, 0)[i] == pytest.approx(0.25, abs=0.05)


def test_with_noise_and_jumps_the_reading_is_a_tail_level_not_the_cost():
    # jump-variance: unit noise and one unit atom of weight 2, one control,
    # no constraint, m(a) = a^2, so E[m(X_T)] = a^2 + 3.  The margin-0 column
    # is that expected cost and converges to it at first order; the required
    # margin is the level whose expected excess (m(X_T) - b)^+ drops to
    # epsilon, far above the cost on every grid.  The margin axis tops the
    # largest terminal cost plus 3 (39) so that no state reads the top cell.
    problem = builtin_problem("jump-variance")
    errors = []
    for n_state, n_margin in ((121, 201), (241, 401)):
        grid = stable_grid(problem, [(-6.0, 6.0, n_state)], (0.0, 40.0, n_margin))
        field = solve_shortfall(problem, grid)
        a = grid.state_axes[0]
        window = np.abs(a) <= 1.5
        cost = a[window] ** 2 + 3.0
        floor = field.slice_at(0)[:, grid.margin_zero_index][window]
        errors.append(float(np.abs(floor - cost).max()))  # measured 0.197, 0.098
        excess = required_margin_profile(field, 0)[window] - cost
        assert np.isfinite(excess).all()
        assert excess.min() > 10.0                         # measured 19.6, 18.9
    assert 1.4 <= errors[0] / errors[1] <= 2.6             # measured 2.02


def test_profile_is_monotone_in_epsilon(steering_field):
    field, grid = steering_field
    eps = field.epsilon
    tight = required_margin_profile(field, 0, eps)
    loose = required_margin_profile(field, 0, 4 * eps)
    assert np.all(loose <= tight + 1e-12)


def test_on_grid_extraction_lands_inside_the_mask(steering_field):
    # the secant crossing lies in (b[j-1], b[j]] of the first qualifying node j
    field, grid = steering_field
    profile = required_margin_profile(field, 0, field.epsilon)
    mask = field.slice_at(0) <= field.epsilon
    finite = np.isfinite(profile)
    assert finite.any()
    j = np.ceil(profile[finite] / grid.margin_spacing - 1e-9).astype(int)
    j += grid.margin_zero_index
    assert mask[np.flatnonzero(finite), j].all()


def test_profile_is_nonnegative(steering_field):
    field, _ = steering_field
    profile = required_margin_profile(field, 0)
    assert np.min(profile[np.isfinite(profile)]) >= 0.0


def test_interpolation_uses_the_bracketing_secant():
    problem = builtin_problem("zero")
    grid = make_grid([(-1.0, 1.0, 3)], (0.0, 1.0, 5), time_axis(1.0, 0.25))
    level = grid.n_levels - 1
    row = np.array([0.5, 0.2, -0.3, -0.5, -0.7])
    field = Field(grid, {level: np.tile(row, (3, 1))}, epsilon=1e-3)

    # secant through (0.25, 0.2) and (0.5, -0.3) crosses zero at 0.35
    assert required_margin_profile(field, level, 0.1)[0] == pytest.approx(0.35)


def test_interpolation_never_reports_past_the_qualifying_node():
    problem = builtin_problem("zero")
    grid = make_grid([(-1.0, 1.0, 3)], (0.0, 1.0, 5), time_axis(1.0, 0.25))
    # still positive at the qualifying node: the secant crosses beyond it
    row = np.array([0.9, 0.6, 0.05, 0.0, 0.0])
    field = Field(grid, {grid.n_levels - 1: np.tile(row, (3, 1))}, epsilon=1e-3)
    got = required_margin_profile(field, grid.n_levels - 1, 0.1)[0]
    assert got == 0.5


def test_zero_margin_already_covered_reports_zero():
    problem = builtin_problem("zero")
    grid = make_grid([(-1.0, 1.0, 3)], (-0.5, 1.0, 7), time_axis(1.0, 0.25))
    field = Field(grid, {grid.n_levels - 1: np.zeros((3, 7))}, epsilon=1e-3)
    got = required_margin_profile(field, grid.n_levels - 1, 1e-6)[1]
    assert got == 0.0


def test_unsolved_levels_are_rejected():
    problem = builtin_problem("zero")
    grid = make_grid([(-1.0, 1.0, 5)], (0.0, 1.0, 5), time_axis(1.0, 0.25))
    field = terminal_field(problem, grid)
    with pytest.raises(UnsolvedField):
        required_margin_profile(field, 0)
    with pytest.raises(UnsolvedField):
        required_margin_profile(field, 0, 1e-3)
    with pytest.raises(UnsolvedField):
        field.slice_at(0)


def test_default_threshold_on_a_resumed_field_is_the_terminal_slices():
    # a resumed field holds no terminal slice, and its default threshold is
    # still the one the terminal slice gives
    problem = builtin_problem("deterministic-steering")
    grid = make_grid([(-2.1, 2.1, 41)], (0.0, 0.6, 21), time_axis(1.0, 0.02))
    assert grid.n_levels - 1 == 50
    class Stop(Exception):
        pass

    def stop_at_20(level, values):
        if level == 20:
            raise Stop(values.copy())

    with pytest.raises(Stop) as stopped:
        solve_shortfall(problem, grid, on_level=stop_at_20)
    resumed = solve_shortfall(problem, grid, resume=(20, stopped.value.args[0]))
    fresh = solve_shortfall(problem, grid)
    assert resumed.epsilon == fresh.epsilon == default_epsilon(terminal_slice(problem, grid))
    assert np.array_equal(required_margin_profile(resumed, 0), required_margin_profile(fresh, 0))
    assert np.array_equal(resumed.slice_at(0) <= resumed.epsilon,
                          fresh.slice_at(0) <= fresh.epsilon)


def test_state_index_must_name_every_state_axis():
    grid = make_grid([(-1.0, 1.0, 5), (-1.0, 1.0, 4)], (0.0, 1.0, 5), time_axis(1.0, 0.25))
    field = Field(grid, {grid.n_levels - 1: np.zeros((5, 4, 5))}, epsilon=1e-3)
    profile = required_margin_profile(field, grid.n_levels - 1, 1e-3)
    # one value per state node: its index names both state axes
    assert profile.shape == (5, 4)
    assert profile[2, 1] == 0.0


def test_csv_export_with_unreachable_sentinel(tmp_path, square_terminal):
    field, grid = square_terminal
    path = tmp_path / "profile.csv"
    export_profile_csv(field, grid.n_levels - 1, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["state_1", "required_margin"]
    assert len(rows) == 8
    by_state = {float(row[0]): row[1] for row in rows[1:]}
    assert by_state[-3.0] == "inf"
    assert float(by_state[2.0]) == 4.0