"""Problem construction, coefficient evaluation and region distances."""

from __future__ import annotations

import numpy as np
import pytest

from epigraph.errors import (
    EmptyControlGrid,
    MissingField,
    NegativeWeight,
    NonFiniteCoefficient,
    NonpositiveHorizon,
)
from epigraph.model import (
    JumpModel,
    Region,
    build_problem,
    eval_coefficients_batch,
    eval_terminal,
)
from references import eval_coefficients


def linear_problem(**overrides):
    """1-d problem with drift 2a, unit noise and quadratic costs."""
    fields = dict(
        dim_state=1,
        dim_noise=1,
        horizon=1.0,
        drift=lambda t, a, u: 2.0 * a,
        diffusion=lambda t, a, u: np.ones(a.shape + (1,)),
        running_cost=lambda t, a, u: (a[:, 0] ** 2),
        terminal_cost=lambda a: a[:, 0] ** 2,
        controls=[[0.0]],
    )
    fields.update(overrides)
    return build_problem(fields)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_missing_required_field():
    with pytest.raises(MissingField):
        build_problem(dim_state=1, dim_noise=1, horizon=1.0, controls=[[0.0]])


def test_nonpositive_horizon():
    with pytest.raises(NonpositiveHorizon):
        linear_problem(horizon=0.0)
    with pytest.raises(NonpositiveHorizon):
        linear_problem(horizon=-2.0)


def test_empty_control_grid():
    with pytest.raises(EmptyControlGrid):
        linear_problem(controls=np.zeros((0, 1)))


def test_negative_jump_weight():
    with pytest.raises(NegativeWeight):
        JumpModel(marks=[1.0], weights=[-0.5])
    with pytest.raises(NegativeWeight):
        JumpModel(marks=[1.0, 2.0], weights=[1.0, 0.0])


def test_jump_model_shape_mismatch():
    with pytest.raises(ValueError):
        JumpModel(marks=[1.0, 2.0], weights=[1.0])


def test_control_grid_is_normalized_to_2d():
    prob = linear_problem(controls=[-1.0, 0.0, 1.0])
    assert prob.controls.shape == (3, 1)


# ---------------------------------------------------------------------------
# coefficient evaluation
# ---------------------------------------------------------------------------

def test_eval_coefficients_shapes_and_values():
    prob = linear_problem()
    c = eval_coefficients(prob, 0.3, np.array([1.5]), np.array([0.0]))
    assert c.drift.shape == (1,)
    assert c.diffusion.shape == (1, 1)
    assert c.jump_sizes.shape == (0, 1)
    assert c.drift[0] == pytest.approx(3.0)
    assert c.running == pytest.approx(2.25)
    assert eval_terminal(prob, np.array([[1.5]]))[0] == pytest.approx(2.25)


def test_eval_is_deterministic():
    prob = linear_problem()
    a = np.array([0.7])
    u = np.array([0.0])
    first = eval_coefficients(prob, 0.1, a, u)
    second = eval_coefficients(prob, 0.1, a, u)
    assert first.drift == second.drift
    assert first.running == second.running


@pytest.mark.filterwarnings("ignore:divide by zero encountered in divide:RuntimeWarning")
def test_non_finite_drift_rejected():
    prob = linear_problem(drift=lambda t, a, u: a / 0.0)
    with pytest.raises(NonFiniteCoefficient):
        eval_coefficients(prob, 0.0, np.array([1.0]), np.array([0.0]))


def test_negative_running_cost_rejected():
    prob = linear_problem(running_cost=lambda t, a, u: a[:, 0])
    with pytest.raises(NonFiniteCoefficient):
        eval_coefficients(prob, 0.0, np.array([-1.0]), np.array([0.0]))


@pytest.mark.parametrize("field, per_row, label", [
    ("drift", lambda t, a, u: 2.0 * a[0], "drift"),
    ("diffusion", lambda t, a, u: np.ones((1, 1)), "diffusion"),
    ("running_cost", lambda t, a, u: float(a[0] ** 2), "running cost"),
    ("terminal_cost", lambda a: float(a[0] ** 2), "terminal cost"),
    ("jump_size", lambda t, a, u, e: np.array([e]), "jump amplitude"),
])
def test_per_row_callables_fail_naming_the_coefficient(field, per_row, label):
    """Callables written for one state at a time are refused with the batch contract."""
    prob = linear_problem(**{field: per_row},
                          jumps=JumpModel(marks=[0.5], weights=[1.0]))
    states = np.linspace(-2.0, 2.0, 7)[:, None]
    with pytest.raises(ValueError, match=rf"^{label} .*\(N, n\) state batches"):
        eval_coefficients_batch(prob, 0.2, states, np.array([0.0]))
        eval_terminal(prob, states)  # reached when only the terminal cost is per-row


def test_per_row_region_distance_fails_naming_it():
    region = Region(kind="callable", func=lambda a: abs(a[0]))
    with pytest.raises(ValueError, match=r"^distance .*\(N, n\) state batches"):
        region.distance(np.zeros((5, 1)))


def test_build_problem_refuses_unknown_fields():
    with pytest.raises(TypeError, match="'runing_cost'"):
        linear_problem(runing_cost=lambda t, a, u: a[:, 0])
    with pytest.raises(TypeError, match="'vectorized'"):
        linear_problem(vectorized=True)


def test_jump_sizes_stacked_per_atom():
    prob = linear_problem(
        jumps=JumpModel(marks=[-1.0, 2.0], weights=[0.5, 0.25]),
        jump_size=lambda t, a, u, e: e * np.ones_like(a),
    )
    _, _, jump_sizes, _ = eval_coefficients_batch(
        prob, 0.0, np.zeros((3, 1)), np.array([0.0])
    )
    assert jump_sizes.shape == (2, 3, 1)
    np.testing.assert_allclose(jump_sizes[0], -1.0)
    np.testing.assert_allclose(jump_sizes[1], 2.0)
    assert prob.jumps.total_mass == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def test_box_distance():
    region = Region(kind="box", lo=np.array([-1.0, -1.0]), hi=np.array([1.0, 1.0]))
    assert region.distance(np.array([0.5, 0.0])) == 0.0
    assert region.distance(np.array([2.0, 0.0])) == pytest.approx(1.0)
    # corner: distance is the Euclidean norm of the componentwise excess
    assert region.distance(np.array([2.0, 2.0])) == pytest.approx(np.sqrt(2.0))


def test_ball_and_point_distance():
    ball = Region(kind="ball", center=np.array([0.0]), radius=1.0)
    assert ball.distance(np.array([0.3])) == 0.0
    assert ball.distance(np.array([-2.5])) == pytest.approx(1.5)
    point = Region(kind="point", center=np.array([1.0, 0.0]))
    assert point.distance(np.array([1.0, 0.0])) == 0.0
    assert point.distance(np.array([1.0, 2.0])) == pytest.approx(2.0)


def test_halfspace_distance_normalizes_the_normal():
    region = Region(kind="halfspace", normal=np.array([2.0, 0.0]), offset=2.0)
    assert region.distance(np.array([0.0, 5.0])) == 0.0
    assert region.distance(np.array([3.0, 0.0])) == pytest.approx(2.0)


@pytest.mark.parametrize("region, message", [
    ({"kind": "box", "lo": [0.0, 1.0], "hi": [1.0, 0.5]}, r"lo\[1\] must be <= hi\[1\]"),
    ({"kind": "halfspace", "normal": [0.0, 0.0], "offset": 1.0}, "normal must be nonzero"),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": -0.5}, "radius must be >= 0"),
], ids=["box-inverted", "normal-zero", "radius-negative"])
def test_a_region_refuses_its_own_geometry(region, message):
    # refused when built, not at the first distance call
    with pytest.raises(ValueError, match=message):
        build_problem(dim_state=2, dim_noise=1, horizon=1.0, controls=[0.0],
                      terminal_cost=lambda a: np.zeros(np.atleast_2d(a).shape[0]),
                      region=region)


def test_a_flat_box_and_a_point_ball_are_regions():
    # lo == hi and radius 0 are the edge of what is refused
    flat = Region(kind="box", lo=np.array([0.0, 1.0]), hi=np.array([1.0, 1.0]))
    assert flat.distance(np.array([0.5, 3.0])) == pytest.approx(2.0)
    dot = Region(kind="ball", center=np.array([1.0]), radius=0.0)
    assert dot.distance(np.array([1.0])) == 0.0


def test_builtin_distances_are_one_lipschitz():
    rng = np.random.default_rng(7)
    regions = [
        Region(kind="box", lo=np.array([-1.0]), hi=np.array([1.0])),
        Region(kind="ball", center=np.array([0.0]), radius=0.5),
        Region(kind="halfspace", normal=np.array([3.0]), offset=1.0),
        Region(kind="point", center=np.array([0.2])),
    ]
    xs = rng.uniform(-4, 4, size=(200, 1))
    ys = rng.uniform(-4, 4, size=(200, 1))
    gaps = np.abs(xs - ys)[:, 0]
    for region in regions:
        jump = np.abs(region.distance(xs) - region.distance(ys))
        assert np.all(jump <= gaps + 1e-12)


def test_unknown_region_kind():
    with pytest.raises(ValueError):
        Region(kind="torus")


@pytest.mark.parametrize("fields, message", [
    ({"kind": "box", "lo": np.array([0.0])}, "box region needs hi"),
    ({"kind": "box", "hi": np.array([0.0])}, "box region needs lo"),
    ({"kind": "box"}, "box region needs lo and hi"),
    ({"kind": "ball"}, "ball region needs center"),
    ({"kind": "halfspace"}, "halfspace region needs normal"),
    ({"kind": "point"}, "point region needs center"),
    ({"kind": "callable"}, "callable region needs func"),
])
def test_a_region_names_the_fields_its_kind_lacks(fields, message):
    with pytest.raises(MissingField, match=f"^{message}$"):
        Region(**fields)

