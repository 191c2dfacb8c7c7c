"""Monte Carlo paths and estimators."""

from __future__ import annotations

import numpy as np
import pytest

from epigraph.errors import NonFiniteState, StepTooLarge
from epigraph.model import JumpModel, Region, build_problem, eval_coefficients_batch
from epigraph.problems import builtin_problem
from epigraph.simulate import (
    MCEstimate,
    Policy,
    constant_policy,
    estimate_cost,
    estimate_shortfall,
    path_to_csv,
    simulate_pair_path,
    _advance_chunk,
    _chunked,
    _time_steps,
)
from references import check_martingale_zero_mean, check_moment_bound


class ZeroNoise:
    """Stand-in generator: no diffusion increments, no jump events."""

    def normal(self, scale=1.0, size=None):
        return np.zeros(size)

    def poisson(self, lam=1.0, size=None):
        return np.zeros(size, dtype=np.int64)


def make_problem(**overrides):
    fields = dict(
        dim_state=1,
        dim_noise=1,
        horizon=1.0,
        terminal_cost=lambda a: np.zeros(np.atleast_2d(a).shape[0]),
        controls=[[0.0]],
    )
    fields.update(overrides)
    return build_problem(fields)


# ---------------------------------------------------------------------------
# single paths
# ---------------------------------------------------------------------------

def test_frozen_path_integrates_running_cost():
    prob = make_problem(running_cost=lambda t, a, u: np.ones(a.shape[0]))
    sample = simulate_pair_path(
        prob, 0.0, np.zeros(1), 2.0, constant_policy([0.0]), 0.1, ZeroNoise()
    )
    np.testing.assert_allclose(sample.x_path, 0.0)
    assert sample.y_path[0] == 2.0
    assert sample.y_path[-1] == pytest.approx(1.0)
    assert sample.jump_log == []
    assert sample.times[-1] == pytest.approx(1.0)


def test_compensator_drift_without_events():
    # with the jump channel silent, the compensator pulls x down at rate w*chi
    prob = make_problem(
        jumps=JumpModel(marks=[1.0], weights=[1.0]),
        jump_size=lambda t, a, u, e: np.ones_like(a),
    )
    sample = simulate_pair_path(
        prob, 0.0, np.zeros(1), 0.0, constant_policy([0.0]), 0.05, ZeroNoise()
    )
    assert sample.x_path[-1, 0] == pytest.approx(-1.0)


def test_final_step_lands_exactly_on_horizon():
    prob = make_problem(horizon=1.0)
    sample = simulate_pair_path(
        prob, 0.3, np.zeros(1), 0.0, constant_policy([0.0]), 0.2, ZeroNoise()
    )
    assert sample.times[-1] == pytest.approx(1.0, abs=1e-14)
    # 0.7 / 0.2 -> three full steps plus a 0.1 tail
    np.testing.assert_allclose(np.diff(sample.times), [0.2, 0.2, 0.2, 0.1])


def test_step_too_large():
    prob = make_problem()
    with pytest.raises(StepTooLarge):
        simulate_pair_path(
            prob, 0.9, np.zeros(1), 0.0, constant_policy([0.0]), 0.5, ZeroNoise()
        )
    with pytest.raises(StepTooLarge):
        simulate_pair_path(
            prob, 0.0, np.zeros(1), 0.0, constant_policy([0.0]), -0.1, ZeroNoise()
        )


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_blowup_raises_non_finite_state():
    prob = make_problem(drift=lambda t, a, u: a**3)
    with pytest.raises(NonFiniteState):
        simulate_pair_path(
            prob, 0.0, np.array([4.0]), 0.0, constant_policy([0.0]), 0.01,
            ZeroNoise(),
        )


def test_policy_must_return_grid_controls():
    prob = make_problem(controls=[[0.0], [1.0]])
    rogue = Policy(control=lambda t, a, b: np.full((a.shape[0], 1), 0.37))
    with pytest.raises(ValueError):
        simulate_pair_path(prob, 0.0, np.zeros(1), 0.0, rogue, 0.1, ZeroNoise())


def test_policy_leaving_the_grid_after_the_start_raises():
    prob = builtin_problem("deterministic-steering")
    drifting = Policy(control=lambda t, a, b: np.full((a.shape[0], 1), 0.05 if t > 0 else 0.0))
    with pytest.raises(ValueError):
        _advance_chunk(prob, drifting, 0.0, np.zeros((3, 1)), np.zeros(3), 0.1,
                       np.random.default_rng(0))


def _bang_bang(played):
    def control(t, a, b):
        u = np.where(a[:, :1] > 0.0, -1.0, 1.0)
        played.append(np.unique(u).size)
        return u
    return Policy(control=control)


def _per_path_reference(problem, policy, x0, y0, dt, rng):
    """The stepping of a jump-free problem under zero hedges, with one
    coefficient evaluation per path per step."""
    n_paths, n = x0.shape
    r = problem.dim_noise
    x, y = x0.copy(), y0.copy()
    run_cost = np.zeros(n_paths)
    penalty = np.zeros(n_paths)
    t = 0.0
    for h in _time_steps(0.0, problem.horizon, dt):
        u = policy.control(t, x, y)
        drift = np.empty((n_paths, n))
        diffusion = np.empty((n_paths, n, r))
        running = np.empty(n_paths)
        for i in range(n_paths):
            d_i, s_i, _, l_i = eval_coefficients_batch(problem, t, x[i:i + 1], u[i])
            drift[i], diffusion[i], running[i] = d_i[0], s_i[0], l_i[0]
        dB = rng.normal(scale=np.sqrt(h), size=(n_paths, r))
        x_new = x + drift * h + np.einsum("pnr,pr->pn", diffusion, dB)
        y = y - running * h + np.einsum("pr,pr->p", np.zeros((n_paths, r)), dB)
        run_cost += running * h
        penalty += np.atleast_1d(problem.distance(x)) * h
        x = x_new
        t += h
    return {"x_T": x, "y_T": y, "run_cost": run_cost, "penalty": penalty}


def test_feedback_policy_matches_the_per_path_reference():
    prob = builtin_problem("deterministic-steering")
    x0 = np.linspace(-1.5, 1.5, 40)[:, None]
    y0 = np.linspace(0.0, 0.5, 40)
    played = []
    out = _advance_chunk(prob, _bang_bang(played), 0.0, x0, y0, 0.03,
                         np.random.default_rng(11))
    assert max(played) == 2   # both controls were played in one step
    ref = _per_path_reference(prob, _bang_bang([]), x0, y0, 0.03,
                              np.random.default_rng(11))
    for key, expect in ref.items():
        assert np.array_equal(out[key], expect), key


def test_brownian_terminal_mean_is_initial_point():
    prob = make_problem(diffusion=lambda t, a, u: np.ones(a.shape + (1,)))
    stats = _chunked(
        prob, constant_policy([0.0]), 0.0, np.array([0.7]), 0.0,
        n_paths=20000, dt=0.05, seed=5,
    )
    mean = float(np.mean(stats["x_T"]))
    half = 1.96 * float(np.std(stats["x_T"], ddof=1)) / np.sqrt(20000)
    assert abs(mean - 0.7) <= half


def test_path_csv_dump(tmp_path):
    prob = make_problem(running_cost=lambda t, a, u: np.ones(a.shape[0]))
    sample = simulate_pair_path(
        prob, 0.0, np.zeros(1), 1.0, constant_policy([0.0]), 0.25, ZeroNoise()
    )
    out = tmp_path / "path.csv"
    path_to_csv(sample, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,y,jump_flag"
    assert len(lines) == 1 + len(sample.times)


# ---------------------------------------------------------------------------
# cost estimator
# ---------------------------------------------------------------------------

def test_brownian_second_moment():
    prob = make_problem(
        diffusion=lambda t, a, u: np.ones(a.shape + (1,)),
        terminal_cost=lambda a: a[:, 0] ** 2,
    )
    est = estimate_cost(prob, 0.0, np.zeros(1), constant_policy([0.0]),
                        n_paths=40000, dt=0.02, seed=11)
    assert est.covers(1.0)
    assert est.half_width < 0.05


def test_compensated_jump_second_moment():
    # variance of the compensated jump integral: weight * horizon = 2
    prob = make_problem(
        jumps=JumpModel(marks=[0.3], weights=[2.0]),
        jump_size=lambda t, a, u, e: np.ones_like(a),
        terminal_cost=lambda a: a[:, 0] ** 2,
    )
    est = estimate_cost(prob, 0.0, np.zeros(1), constant_policy([0.0]),
                        n_paths=40000, dt=0.01, seed=12)
    assert est.covers(2.0)


def test_deterministic_running_cost_exact():
    prob = make_problem(running_cost=lambda t, a, u: np.ones(a.shape[0]))
    est = estimate_cost(prob, 0.0, np.zeros(1), constant_policy([0.0]),
                        n_paths=100, dt=0.1, seed=1)
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.half_width == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# shortfall estimator
# ---------------------------------------------------------------------------

def test_large_margin_means_zero_shortfall():
    prob = make_problem(
        diffusion=lambda t, a, u: np.ones(a.shape + (1,)),
        terminal_cost=lambda a: 1.0 / (1.0 + a[:, 0] ** 2),
    )
    est = estimate_shortfall(prob, 0.0, np.zeros(1), 10.0, constant_policy([0.0]),
                             n_paths=500, dt=0.05, seed=2)
    assert est.mean == 0.0
    assert est.half_width == 0.0


def test_frozen_shortfall_is_terminal_gap():
    prob = make_problem(terminal_cost=lambda a: a[:, 0] ** 2)
    est = estimate_shortfall(prob, 0.0, np.array([1.0]), 0.0, constant_policy([0.0]),
                             n_paths=100, dt=0.1, seed=3)
    assert est.mean == pytest.approx(1.0, abs=1e-12)


def test_pure_penalty_accrual():
    # frozen state at -1, constraint region [0, inf): distance 1 for one unit of time
    prob = make_problem(
        region=Region(kind="halfspace", normal=np.array([-1.0]), offset=0.0),
    )
    est = estimate_shortfall(prob, 0.0, np.array([-1.0]), 0.0, constant_policy([0.0]),
                             n_paths=10, dt=0.1, seed=4)
    assert est.mean == pytest.approx(1.0, abs=1e-12)


def test_margin_shift_passes_through_exactly():
    prob = make_problem(
        diffusion=lambda t, a, u: np.ones(a.shape + (1,)),
        running_cost=lambda t, a, u: 0.5 * np.ones(a.shape[0]),
    )
    low = _chunked(prob, constant_policy([0.0]), 0.0, np.zeros(1), 1.0,
                   n_paths=256, dt=0.1, seed=9)
    high = _chunked(prob, constant_policy([0.0]), 0.0, np.zeros(1), 1.0 + 0.75,
                    n_paths=256, dt=0.1, seed=9)
    np.testing.assert_allclose(high["y_T"], low["y_T"] + 0.75, atol=1e-12)


def test_reproducibility_same_seed():
    prob = make_problem(
        diffusion=lambda t, a, u: np.ones(a.shape + (1,)),
        terminal_cost=lambda a: a[:, 0] ** 2,
    )
    first = estimate_cost(prob, 0.0, np.zeros(1), constant_policy([0.0]),
                          n_paths=5000, dt=0.05, seed=21)
    second = estimate_cost(prob, 0.0, np.zeros(1), constant_policy([0.0]),
                           n_paths=5000, dt=0.05, seed=21)
    assert first == second


def test_ci_shrinks_with_path_count():
    prob = make_problem(
        diffusion=lambda t, a, u: np.ones(a.shape + (1,)),
        terminal_cost=lambda a: a[:, 0] ** 2,
    )
    small = estimate_cost(prob, 0.0, np.zeros(1), constant_policy([0.0]),
                          n_paths=4000, dt=0.05, seed=30)
    big = estimate_cost(prob, 0.0, np.zeros(1), constant_policy([0.0]),
                        n_paths=16000, dt=0.05, seed=30)
    ratio = small.half_width / big.half_width
    assert 1.4 <= ratio <= 2.6  # ~2 with statistical slack


def test_estimates_are_nonnegative():
    prob = make_problem(
        diffusion=lambda t, a, u: np.ones(a.shape + (1,)),
        terminal_cost=lambda a: a[:, 0] ** 2,
    )
    est = estimate_shortfall(prob, 0.0, np.zeros(1), 0.5, constant_policy([0.0]),
                             n_paths=2000, dt=0.05, seed=5)
    assert est.mean >= 0.0
    assert isinstance(est, MCEstimate)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_moment_bound_frozen_paths():
    prob = make_problem()
    report = check_moment_bound(prob, [np.zeros(1), np.array([2.0])],
                                n_paths=10, dt=0.1, seed=0)
    assert report["constant"] <= 1.0
    assert not report["flag"]
    assert report["points"][0]["estimate"] == pytest.approx(0.0)
    assert report["points"][1]["estimate"] == pytest.approx(4.0)


def test_moment_bound_brownian_stability():
    prob = make_problem(diffusion=lambda t, a, u: np.ones(a.shape + (1,)))
    report = check_moment_bound(
        prob, [np.array([0.0]), np.array([1.0]), np.array([2.0]), np.array([4.0])],
        n_paths=4000, dt=0.02, seed=6,
    )
    ratios = [row["ratio"] for row in report["points"]]
    assert max(ratios) / min(ratios) < 2.0
    assert not report["flag"]


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_moment_bound_flags_superlinear_drift():
    prob = make_problem(drift=lambda t, a, u: a**3)
    report = check_moment_bound(prob, [np.array([0.1]), np.array([4.0])],
                                n_paths=8, dt=0.01, seed=7)
    assert report["flag"]


def test_martingale_check_zero_hedges_exact():
    prob = make_problem(diffusion=lambda t, a, u: np.ones(a.shape + (1,)))
    report = check_martingale_zero_mean(prob, 0.0, 0.0, n_paths=50, dt=0.1, seed=8)
    assert report["brownian"].mean == 0.0
    assert report["jump"].mean == 0.0
    assert report["pass"]


def test_martingale_check_brownian_hedge():
    prob = make_problem(diffusion=lambda t, a, u: np.ones(a.shape + (1,)))
    report = check_martingale_zero_mean(prob, 1.0, 0.0, n_paths=40000, dt=0.02, seed=13)
    assert report["pass"]
    assert abs(report["brownian"].mean) <= report["brownian"].half_width


def test_martingale_check_jump_hedge():
    prob = make_problem(
        jumps=JumpModel(marks=[1.0], weights=[1.0]),
        jump_size=lambda t, a, u, e: np.zeros_like(a),
    )
    report = check_martingale_zero_mean(prob, 0.0, 1.0, n_paths=40000, dt=0.02, seed=14)
    assert report["pass"]
    assert abs(report["jump"].mean) <= report["jump"].half_width
