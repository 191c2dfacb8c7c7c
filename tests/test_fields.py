"""Grid, interpolation, field bookkeeping, and snapshot round-trips."""

import json
import pathlib
import re

import numpy as np
import pytest

from epigraph.errors import DegenerateGrid, UnsolvedField
from epigraph.fields import (
    Field,
    Grid,
    interp_state,
    load_snapshot,
    make_grid,
    save_snapshot,
    terminal_slice,
    time_axis,
)
from epigraph.model import Problem


def square_problem():
    return Problem(
        dim_state=1,
        dim_noise=1,
        horizon=1.0,
        terminal_cost=lambda a: np.atleast_2d(a)[:, 0] ** 2,
        controls=[0.0],
    )


def small_grid(margin=(0.0, 1.0, 5)):
    return make_grid([(-2.0, 2.0, 9)], margin, time_axis(1.0, 0.25))


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_grid_geometry_properties():
    grid = small_grid()
    assert grid.dim_state == 1
    assert grid.state_shape == (9,)
    assert grid.state_spacings == (0.5,)
    assert grid.margin_spacing == 0.25
    assert grid.margin_zero_index == 0
    assert grid.n_levels == 5
    assert grid.dt == 0.25
    assert grid.times[-1] == 1.0


def test_grid_mesh_enumerates_in_axis_order():
    grid = make_grid([(0.0, 1.0, 3), (0.0, 2.0, 3)], (0.0, 1.0, 3),
                     time_axis(1.0, 0.5))
    mesh = grid.state_mesh()
    assert mesh.shape == (9, 2)
    assert np.allclose(mesh[0], [0.0, 0.0])
    assert np.allclose(mesh[1], [0.0, 1.0])   # last axis varies fastest
    assert np.allclose(mesh[-1], [1.0, 2.0])


def test_margin_axis_must_contain_zero():
    with pytest.raises(DegenerateGrid):
        small_grid(margin=(0.1, 1.1, 5))


def test_margin_axis_may_extend_below_zero():
    grid = small_grid(margin=(-0.5, 0.5, 5))
    assert grid.margin_zero_index == 2
    assert grid.margin_axis[2] == 0.0


def test_margin_axis_must_extend_above_zero():
    # the top column holds the ceiling, which would overwrite the floor at 0
    with pytest.raises(DegenerateGrid, match="extend above 0"):
        small_grid(margin=(-1.0, 0.0, 5))


def test_margin_zero_snap_leaves_the_callers_array_alone():
    margin = np.linspace(-0.3, 0.9, 13)
    margin[3] = 1e-17  # roundoff where the axis crosses zero
    before = margin.copy()
    grid = Grid((np.linspace(-1.0, 1.0, 5),), margin, time_axis(1.0, 0.25))
    assert grid.margin_axis[3] == 0.0
    assert np.array_equal(margin, before)


def test_axes_need_at_least_three_nodes():
    with pytest.raises(DegenerateGrid):
        make_grid([(-1.0, 1.0, 2)], (0.0, 1.0, 5), time_axis(1.0, 0.25))
    with pytest.raises(DegenerateGrid):
        make_grid([(-1.0, 1.0, 5)], (0.0, 1.0, 2), time_axis(1.0, 0.25))


@pytest.mark.parametrize("state, margin, times, message", [
    ((np.array([-1.0, 0.0, 0.5, 1.0]), np.linspace(-1.0, 1.0, 5)), np.linspace(0.0, 1.0, 5),
     np.linspace(0.0, 1.0, 5), "the state[0] axis must be uniform"),
    ((np.linspace(-1.0, 1.0, 5), np.linspace(1.0, -1.0, 5)), np.linspace(0.0, 1.0, 5),
     np.linspace(0.0, 1.0, 5), "the state[1] axis must be strictly increasing"),
    ((np.linspace(-1.0, 1.0, 5),), np.linspace(0.0, 1.0, 2),
     np.linspace(0.0, 1.0, 5), "the margin axis needs at least 3 nodes, got 2"),
    ((np.linspace(-1.0, 1.0, 5),), np.linspace(0.0, 1.0, 5),
     np.linspace(0.5, 1.0, 5), "the time axis must start at 0"),
    ((np.linspace(-1.0, 1.0, 5),), np.linspace(0.0, 1.0, 5),
     np.array([0.0, 0.1, 0.5, 1.0]), "the time axis must be uniform"),
])
def test_a_refused_axis_is_named(state, margin, times, message):
    with pytest.raises(DegenerateGrid, match=f"^{re.escape(message)}$"):
        Grid(state, margin, times)


def test_make_grid_refuses_a_negative_count_as_degenerate():
    with pytest.raises(DegenerateGrid, match=r"state\[0\] axis needs at least 3 nodes"):
        make_grid([(-1.0, 1.0, -4)], (0.0, 1.0, 5), time_axis(1.0, 0.25))


def test_degenerate_ranges_are_rejected():
    with pytest.raises(DegenerateGrid):
        make_grid([(1.0, 1.0, 5)], (0.0, 1.0, 5), time_axis(1.0, 0.25))
    with pytest.raises(DegenerateGrid):
        time_axis(1.0, 0.0)


def test_time_axis_ends_exactly_at_horizon():
    times = time_axis(0.7, 0.09)
    assert times[0] == 0.0
    assert times[-1] == 0.7
    assert np.all(np.diff(times) <= 0.09 + 1e-12)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interp_state_is_exact_on_multilinear_data():
    axes = (np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 9))
    xx, yy = np.meshgrid(*axes, indexing="ij")
    values = 2.0 + 3.0 * xx - 1.5 * yy + 0.5 * xx * yy
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(0, 1, 64), rng.uniform(-1, 1, 64)])
    got = interp_state(values, axes, pts)
    want = 2.0 + 3.0 * pts[:, 0] - 1.5 * pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
    assert np.allclose(got, want, atol=1e-12)


def test_interp_state_keeps_trailing_axes():
    axes = (np.linspace(0.0, 1.0, 5),)
    values = np.arange(5.0)[:, None] * np.ones(3)[None, :]
    got = interp_state(values, axes, np.array([[0.375]]))
    assert got.shape == (1, 3)
    assert np.allclose(got, 1.5)


def test_interp_state_clamps_out_of_hull_points():
    axes = (np.linspace(0.0, 1.0, 5),)
    values = np.linspace(0.0, 4.0, 5)
    got = interp_state(values, axes, np.array([[-3.0], [9.0]]))
    assert np.allclose(got, [0.0, 4.0])


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_field_guards_the_levels_it_does_not_keep():
    grid = small_grid()
    last = grid.n_levels - 1
    field = Field(grid, {last: np.zeros((9, 5))}, epsilon=1e-3)
    assert field.levels == [last]
    with pytest.raises(UnsolvedField, match=rf"keeps levels \[{last}\], level 0 requested"):
        field.slice_at(0)
    with pytest.raises(IndexError):
        field.slice_at(grid.n_levels)
    assert field.slice_at(last).shape == (9, 5)


def test_field_evaluate_interpolates_state_and_margin():
    grid = small_grid()
    aa = grid.state_axes[0][:, None]
    bb = grid.margin_axis[None, :]
    field = Field(grid, {0: 1.0 + aa + 2.0 * bb}, epsilon=1e-3)
    got = field.evaluate(0, np.array([[0.25]]), margins=0.375)
    assert np.allclose(got, 1.0 + 0.25 + 0.75)


# ---------------------------------------------------------------------------
# terminal data
# ---------------------------------------------------------------------------

def test_terminal_slice_values():
    grid = make_grid([(-2.0, 2.0, 5)], (0.0, 4.0, 5), time_axis(1.0, 0.25))
    slab = terminal_slice(square_problem(), grid)
    a = grid.state_axes[0]
    # m(a)=a^2, a=2, b=1 -> 3
    assert slab[np.argmax(a == 2.0), 1] == 3.0
    # b >= m(a) -> 0;  b == m(a) -> 0
    assert slab[np.argmax(a == 1.0), 1] == 0.0
    assert slab[np.argmax(a == 1.0), 2] == 0.0
    assert np.all(slab >= 0.0)


def test_terminal_slice_is_linear_on_the_diagnostic_slab():
    grid = make_grid([(-2.0, 2.0, 5)], (-1.0, 3.0, 5), time_axis(1.0, 0.25))
    slab = terminal_slice(square_problem(), grid)
    a = grid.state_axes[0]
    below = grid.margin_axis < 0.0
    expect = a[:, None] ** 2 - grid.margin_axis[None, below]
    assert np.allclose(slab[:, below], expect)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

_SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e300, np.inf, -np.inf, np.nan,
            1.0 / 3.0]


def test_snapshot_roundtrip_is_lossless(tmp_path):
    # a 1-D and a 2-D state, each with signed zeros, subnormals, infinities and nan
    for state in ([(-2.0, 2.0, 9)], [(-2.0, 2.0, 19), (0.0, 1.0, 13)]):
        grid = make_grid(state, (0.0, 1.0, 5), time_axis(1.0, 0.25))
        shape = (*grid.state_shape, grid.margin_axis.size)
        data = np.random.default_rng(len(state)).uniform(0.0, 5.0, size=shape)
        data.flat[: len(_SPECIAL)] = _SPECIAL
        prefix = str(tmp_path / f"level4_{len(state)}d")
        paths = save_snapshot(grid, grid.n_levels - 1, data, prefix, "digest")
        assert paths == (prefix + ".json", prefix + ".npy")
        meta = json.loads(pathlib.Path(prefix + ".json").read_text())
        assert meta["level"] == grid.n_levels - 1
        assert meta["time"] == grid.times[-1]
        assert meta["inputs"] == "digest"
        assert "kind" not in meta and "tag" not in meta
        level, values = load_snapshot(prefix, grid, "digest")
        assert level == grid.n_levels - 1
        assert values.dtype == np.float64 and values.shape == shape
        assert values.tobytes() == data.tobytes()  # the same bits, nan included
        assert np.signbit(values.flat[1]) and values.flat[4] == 5e-324
