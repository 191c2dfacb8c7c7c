"""Diagnostic battery: each check against fields with known behaviour."""

import dataclasses
import json

import numpy as np
import pytest

from epigraph import solver
from epigraph.errors import IncompatibleGrids
from epigraph.fields import Field, make_grid, terminal_slice, time_axis
from epigraph.problems import builtin_grid, builtin_problem, parse_problem
from epigraph.solver import solve_shortfall, stable_grid
from epigraph.verify import (
    DiagnosticReport,
    dpp_consistency,
    lipschitz_profile,
    slab_identity_residual,
    strict_subsolution_residual,
    write_reports,
)
from references import sign_equivalence_suite, taylor_remainder_residual, taylor_report


def every_level(problem, grid):
    """A solve that keeps every level, as the slab and quotient checks read."""
    return solve_shortfall(problem, grid, keep=range(grid.n_levels))


@pytest.fixture(scope="module")
def zero_setup():
    problem = builtin_problem("zero")
    spec = builtin_grid("zero")
    grid = make_grid([tuple(r) for r in spec["state"]], tuple(spec["margin"]),
                     time_axis(problem.horizon, spec["time_step"]))
    return problem, grid, every_level(problem, grid)


@pytest.fixture(scope="module")
def frozen_setup():
    problem = builtin_problem("frozen-penalty")
    spec = builtin_grid("frozen-penalty")
    grid = make_grid([tuple(r) for r in spec["state"]], tuple(spec["margin"]),
                     time_axis(problem.horizon, spec["time_step"]))
    return problem, grid, every_level(problem, grid)


def steering_solve(na, nb):
    problem = builtin_problem("deterministic-steering")
    grid = stable_grid(problem, [(-2.1, 2.1, na)], (0.0, 0.6, nb))
    return problem, grid, every_level(problem, grid)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_report_invariant_is_enforced():
    # the pass flag is derived from the residual, so it cannot contradict it
    with pytest.raises(TypeError):
        DiagnosticReport(name="x", max_residual=2.0, tolerance=1.0, passed=True)
    assert not DiagnosticReport(name="x", max_residual=2.0, tolerance=1.0).passed
    assert DiagnosticReport("x", 1.0, 1.0).passed


def test_reports_serialize_to_json(tmp_path):
    reports = [
        DiagnosticReport("first", np.float64(0.5), np.int64(1), {"node": np.int64(3),
                         "values": np.arange(3.0)}),
        DiagnosticReport("second", 2.0, 1.0),
    ]
    assert type(reports[0].max_residual) is float and type(reports[0].tolerance) is float
    path = tmp_path / "reports.json"
    write_reports(str(path), reports)
    payload = json.loads(path.read_text())
    assert payload["all_pass"] is False
    assert [r["name"] for r in payload["reports"]] == ["first", "second"]
    assert payload["reports"][0]["pass"] is True
    assert payload["reports"][0]["details"]["values"] == [0.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# quadrature remainder
# ---------------------------------------------------------------------------

def test_remainder_exact_for_a_quadratic():
    residual = taylor_remainder_residual(
        lambda v: float(v[0] ** 2), lambda v: 2.0 * v,
        lambda v: np.array([[2.0]]), 1.0, 2.0, quad_nodes=2,
    )
    assert residual == 0.0


def test_remainder_exact_for_random_quadratics():
    rng = np.random.default_rng(8)
    for _ in range(5):
        mat = rng.normal(size=(2, 2))
        mat = mat + mat.T
        lin = rng.normal(size=2)
        x = rng.normal(size=2)
        a = rng.normal(size=2)
        residual = taylor_remainder_residual(
            lambda v: float(0.5 * v @ mat @ v + lin @ v),
            lambda v: mat @ v + lin,
            lambda v: mat,
            x, a, quad_nodes=3,
        )
        assert residual < 1e-12


def test_remainder_cubic_needs_only_two_nodes():
    residual = taylor_remainder_residual(
        lambda v: float(v[0] ** 3), lambda v: 3.0 * v**2,
        lambda v: np.array([[6.0 * v[0]]]), 0.0, 1.0, quad_nodes=2,
    )
    assert residual < 1e-15


def test_remainder_exponential_at_twenty_nodes():
    residual = taylor_remainder_residual(
        lambda v: float(np.exp(v[0])), lambda v: np.exp(v),
        lambda v: np.array([[np.exp(v[0])]]), 0.0, 1.0, quad_nodes=20,
    )
    assert residual <= 1e-10


def test_remainder_report_on_an_exponential_passes():
    # the exp(a_1 + 2 a_2) case the verify battery reported before the
    # remainder identity became a test reference
    report = taylor_report()
    assert report.name == "taylor-remainder"
    assert report.tolerance == 1e-10
    assert report.passed


def test_remainder_rejects_single_node():
    with pytest.raises(ValueError):
        taylor_remainder_residual(
            lambda v: 0.0, lambda v: v * 0, lambda v: np.zeros((1, 1)),
            0.0, 1.0, quad_nodes=1,
        )


# ---------------------------------------------------------------------------
# negative-margin slab
# ---------------------------------------------------------------------------

def test_slab_identity_zero_problem():
    problem = builtin_problem("zero")
    grid = make_grid([(-3.0, 3.0, 31)], (-0.5, 1.0, 16), time_axis(1.0, 0.02))
    field = every_level(problem, grid)
    report = slab_identity_residual(field)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_slab_identity_frozen_penalty(frozen_setup):
    _, _, field = frozen_setup
    report = slab_identity_residual(field)
    assert report.passed
    assert report.max_residual < 1e-12


def _slab_against_the_floor(field):
    """The slab residual and its worst node, written out against the field's
    margin-0 column, which the sweep steps by the floor's rule."""
    grid = field.grid
    values = np.stack([field.slice_at(level) for level in range(grid.n_levels)])
    floor = values[..., grid.margin_zero_index]
    b = grid.margin_axis
    below = b <= 0.0
    gap = np.abs(values[..., below] - (floor[..., None] - b[below]))
    worst = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return float(gap.max()), (int(worst[0]), [int(i) for i in worst[1:-1]],
                              int(np.flatnonzero(below)[worst[-1]]))


_SLAB_PROBLEM = {
    "dim_state": 1, "dim_noise": 1, "horizon": 0.5, "controls": [-0.5, 0.0, 0.5],
    "drift": "control", "diffusion": 0.3, "running_cost": 0.1,
    "terminal_cost": "square", "region": {"kind": "ball", "center": [0.0], "radius": 0.7},
    "jumps": {"marks": [0.5], "weights": [1.0]},
}


def test_slab_floor_read_from_the_field_matches_the_swept_floor(frozen_setup):
    # frozen-penalty, and a slab grid with running cost, diffusion and a jump
    fields = [frozen_setup[2]]
    problem = parse_problem(_SLAB_PROBLEM)[0]
    grid = stable_grid(problem, [(-2.0, 2.0, 41)], (-0.5, 1.5, 41))
    fields.append(every_level(problem, grid))
    for field in fields:
        report = slab_identity_residual(field)
        worst = report.details["worst"]
        assert (report.max_residual, (worst["level"], worst["state_index"],
                                      worst["margin_index"])) == _slab_against_the_floor(field)
    assert report.max_residual > 0.0  # the running cost leaves roundoff to locate


def test_slab_fault_injection_locates_the_offender(frozen_setup):
    _, _, field = frozen_setup
    corrupted = dataclasses.replace(
        field, slices={level: values.copy() for level, values in field.slices.items()})
    corrupted.slices[3][17, 5] += 0.1
    report = slab_identity_residual(corrupted)
    assert not report.passed
    assert report.max_residual == pytest.approx(0.1, abs=1e-9)
    worst = report.details["worst"]
    assert (worst["level"], worst["state_index"], worst["margin_index"]) == (3, [17], 5)


def test_slab_rejects_incompatible_inputs(zero_setup):
    _, _, zfield = zero_setup
    with pytest.raises(IncompatibleGrids):
        # the zero problem's default margin axis has no sub-zero part
        slab_identity_residual(zfield)


# ---------------------------------------------------------------------------
# strict subsolution probe
# ---------------------------------------------------------------------------

def test_unperturbed_field_has_zero_interior_residual(zero_setup):
    problem, _, field = zero_setup
    report = strict_subsolution_residual(problem, field, 0.0, tol_h=1e-10)
    assert report.passed
    assert report.max_residual == 0.0
    assert report.details["worst_residual"] == 0.0


def test_perturbed_field_is_strictly_negative(zero_setup):
    problem, _, field = zero_setup
    report = strict_subsolution_residual(problem, field, 0.1, tol_h=0.0)
    assert report.passed
    assert report.tolerance == pytest.approx(-0.0125)
    assert report.details["fraction_within"] == 1.0
    # the probe's time slope passes through untouched: residual is exactly -nu
    assert report.max_residual == pytest.approx(-0.1, abs=1e-12)


def test_perturbation_scales_linearly(zero_setup):
    problem, _, field = zero_setup
    single = strict_subsolution_residual(problem, field, 0.1)
    double = strict_subsolution_residual(problem, field, 0.2)
    assert double.details["median_residual"] == pytest.approx(
        2.0 * single.details["median_residual"], rel=1e-9
    )


def test_the_probe_builds_an_autonomous_problems_tables_once(monkeypatch):
    # as the sweep does: one evaluation per control for the whole probe, and
    # the same report as tables built at every probed level
    problem, grid, field = steering_solve(41, 21)
    assert problem.autonomous
    calls, real = [], solver.eval_coefficients_batch

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(solver, "eval_coefficients_batch", counting)
    report = strict_subsolution_residual(problem, field, 0.1, max_levels=5)
    assert report.details["levels_checked"] == 5
    assert len(calls) == len(problem.controls)
    per_level = dataclasses.replace(problem, autonomous=False)
    assert strict_subsolution_residual(per_level, field, 0.1, max_levels=5) == report
    assert len(calls) == 6 * len(problem.controls)


def test_subsolution_rejects_bad_inputs(zero_setup, frozen_setup):
    problem, grid, _ = zero_setup
    unsolved = Field(grid, {grid.n_levels - 1: terminal_slice(problem, grid)}, epsilon=1e-3)
    with pytest.raises(ValueError, match="which the field does not keep"):
        strict_subsolution_residual(problem, unsolved, 0.1)
    fproblem, _, ffield = frozen_setup
    with pytest.raises(IncompatibleGrids, match="margin axis above -1"):
        # frozen-penalty's margin axis reaches -1, where log(1+b) blows up
        strict_subsolution_residual(fproblem, ffield, 0.1)


# ---------------------------------------------------------------------------
# dynamic programming, one-sided
# ---------------------------------------------------------------------------

def test_dpp_single_frozen_step_is_exact(frozen_setup):
    problem, grid, field = frozen_setup
    states = grid.state_axes[0][np.array([10, 25, 40, 55, 70])][:, None]
    margins = np.array([0.5, 1.0, 0.0, 1.5, 0.25])
    report = dpp_consistency(problem, field, 0, 1, states, margins,
                             n_paths=64, dt=grid.dt, tol=1e-9)
    assert report.passed
    assert abs(report.max_residual) < 1e-12
    # sigma = 0: every path is identical, the interval is pure roundoff
    assert all(row["half_width"] < 1e-15 for row in report.details["samples"])


def test_dpp_zero_problem_both_sides_vanish(zero_setup):
    problem, grid, field = zero_setup
    states = grid.state_axes[0][np.array([20, 50, 80])][:, None]
    margins = np.array([0.2, 0.0, 0.7])
    report = dpp_consistency(problem, field, 0, grid.n_levels // 2,
                             states, margins, n_paths=500, seed=11)
    assert report.passed
    assert report.max_residual == 0.0


def test_dpp_steering_one_sided_at_twenty_points():
    problem, grid, field = steering_solve(141, 81)
    rng = np.random.default_rng(5)
    pick = rng.choice(np.arange(20, 121), size=20, replace=False)
    states = grid.state_axes[0][pick][:, None]
    margins = grid.margin_axis[rng.integers(0, 81, size=20)]
    r_index = int(np.argmin(np.abs(grid.times - 0.5)))
    report = dpp_consistency(problem, field, 0, r_index, states, margins,
                             n_paths=400, seed=3, controls=problem.controls[::5])
    assert report.passed
    assert report.max_residual < 0.02


def test_dpp_needs_ordered_time_indices(zero_setup):
    problem, grid, field = zero_setup
    with pytest.raises(ValueError):
        dpp_consistency(problem, field, 5, 5, np.zeros((1, 1)), np.zeros(1))


# ---------------------------------------------------------------------------
# Lipschitz quotients
# ---------------------------------------------------------------------------

def test_quotients_on_the_terminal_slice():
    problem = builtin_problem("deterministic-steering")
    grid = make_grid([(-2.0, 2.0, 21)], (0.0, 5.0, 26), time_axis(1.0, 0.25))
    field = Field(grid, {grid.n_levels - 1: terminal_slice(problem, grid)}, epsilon=1e-3)
    report = lipschitz_profile(field)
    assert report.passed
    base = report.details["base"]
    assert base["margin_quotient"] == pytest.approx(1.0, rel=1e-12)
    # steepest state quotient of max(a^2 - b, 0): (4 - (2-h)^2)/h = 4 - h
    assert base["state_quotients"][0] == pytest.approx(3.8, rel=1e-12)


def test_quotients_vanish_on_the_zero_field(zero_setup):
    _, _, field = zero_setup
    report = lipschitz_profile(field)
    assert report.passed
    assert report.details["base"]["margin_quotient"] == 0.0
    assert report.details["base"]["state_quotients"] == [0.0]


def test_quotients_stable_under_refinement():
    _, _, coarse = steering_solve(141, 81)
    _, _, fine = steering_solve(281, 161)
    report = lipschitz_profile(coarse, fine)
    assert report.passed
    assert max(report.details["ratios"]) <= 1.1
    assert report.details["base"]["margin_quotient"] <= 1.0 + 1e-9
    assert report.details["refined"]["margin_quotient"] <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# sign equivalence
# ---------------------------------------------------------------------------

def test_sign_equivalence_over_a_thousand_instances():
    report = sign_equivalence_suite(1000, seed=0)
    assert report.passed
    assert report.max_residual == 0.0
    assert report.details["considered"] >= 900


def test_sign_equivalence_needs_instances():
    with pytest.raises(ValueError):
        sign_equivalence_suite(0)