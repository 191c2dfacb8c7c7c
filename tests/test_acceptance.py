"""End-to-end acceptance battery: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured quantities so the
battery reads as a checklist under ``pytest -s``; the assertions carry the
same bounds.  Expected values and runtimes were measured on the development
sandbox and all sit well inside their budgets — a failure here means a real
regression, not noise (every random draw is seeded, including the Monte
Carlo routes).
"""

import json
import math
import time

import numpy as np

from epigraph.cli import parse_config, run, serialize_config
from epigraph.fields import make_grid, terminal_slice, time_axis
from epigraph.levelset import required_margin_profile
from epigraph.model import Problem, Region
from epigraph.problems import builtin_grid, builtin_problem
from epigraph.simulate import constant_policy, estimate_cost, estimate_shortfall
from epigraph.solver import solve_shortfall, stable_grid
from epigraph.verify import slab_identity_residual, strict_subsolution_residual
from references import (
    Arrowhead,
    Coefficients,
    Stencil,
    assemble_arrowhead,
    best_hedge_on_grid,
    jump_increment,
    sign_equivalence_suite,
    taylor_remainder_residual,
    top_eigenvalue,
)


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def drift_is_control(t, a, u):
    return np.broadcast_to(u, np.atleast_2d(a).shape).copy()


def constant_diffusion(v):
    def diffusion(t, a, u):
        a2 = np.atleast_2d(a)
        return np.full((a2.shape[0], a2.shape[1], 1), v)

    return diffusion


def constant_running(v):
    def running(t, a, u):
        return np.full(np.atleast_2d(a).shape[0], v)

    return running


def diffusive_problem():
    """One-dimensional controlled diffusion with a half-space constraint."""
    return Problem(
        dim_state=1,
        dim_noise=1,
        horizon=0.4,
        drift=drift_is_control,
        diffusion=constant_diffusion(0.4),
        running_cost=constant_running(0.1),
        terminal_cost=lambda a: np.ones(np.atleast_2d(a).shape[0]),
        controls=[-0.5, 0.0, 0.5],
        region=Region(kind="halfspace", normal=np.array([1.0]), offset=1.2),
    )


def every_level(problem, grid):
    """A solve that keeps every level."""
    return solve_shortfall(problem, grid, keep=range(grid.n_levels))


def stacked(field):
    """The kept levels of ``field`` as one (level, state..., margin) array."""
    return np.stack([field.slice_at(level) for level in field.levels])


def builtin_solved(name):
    problem = builtin_problem(name)
    spec = builtin_grid(name)
    grid = stable_grid(problem, spec["state"], spec["margin"], spec["time_step"])
    return problem, grid, every_level(problem, grid)


# ---------------------------------------------------------------------------
# 1. closed-form top eigenvalue vs dense symmetric eigensolver
# ---------------------------------------------------------------------------

def test_criterion_1_arrowhead_eigenvalue_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 7))
        head = Arrowhead(
            corner=float(rng.normal(scale=3)),
            arrow=rng.normal(scale=3, size=r),
            diag=float(rng.normal(scale=3)),
        )
        dense = float(np.linalg.eigvalsh(head.dense())[-1])
        worst = max(worst, abs(top_eigenvalue(head) - dense))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict("criterion 1 arrowhead eigenvalue",
             ok, f"max |delta| {worst:.2e} over 1000 draws, {elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. sign equivalence: eigenvalue form vs brute-force hedge search
# ---------------------------------------------------------------------------

def test_criterion_2_sign_equivalence_against_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    considered = agree = 0
    for _ in range(1000):
        stencil = Stencil(
            time_slope=float(rng.normal()),
            grad_state=rng.normal(size=1),
            grad_margin=float(rng.normal()),
            hess_state=rng.normal(size=(1, 1)),
            hess_cross=rng.normal(size=1),
            hess_margin=float(rng.uniform(0.1, 3.0)),
        )
        coeffs = Coefficients(
            drift=rng.normal(size=1),
            diffusion=rng.normal(size=(1, 1)),
            jump_sizes=np.zeros((0, 1)),
            running=float(rng.uniform(0.0, 1.0)),
        )
        dist = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(0.0, 5.0))
        eig = top_eigenvalue(assemble_arrowhead(stencil, coeffs, dist, b))
        if abs(eig) < 1e-8:
            continue  # too close to the boundary to classify
        considered += 1
        # concave hedge quadratic: the argmax is |cross| / hess_margin, so a
        # radius of twice that plus one always brackets the supremum
        cross = abs(float(coeffs.diffusion[0, 0] * stencil.hess_cross[0]))
        radius = 2.0 * cross / stencil.hess_margin + 1.0
        value, _, boundary = best_hedge_on_grid(
            stencil, coeffs, distance=dist, margin=b, radius=radius, steps=801
        )
        assert not boundary
        if math.copysign(1.0, value) == math.copysign(1.0, eig):
            agree += 1
    fraction = agree / considered
    # the packaged audit must agree with the standalone sweep
    report = sign_equivalence_suite(1000, seed=0)
    elapsed = time.perf_counter() - start
    ok = fraction >= 0.99 and report.passed and elapsed < 10.0
    _verdict("criterion 2 sign equivalence",
             ok, f"{agree}/{considered} agree, suite residual "
                 f"{report.max_residual:.3f}, {elapsed:.2f} s")
    assert considered >= 900
    assert fraction >= 0.99
    assert report.passed
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. zero running and terminal cost, no constraint: the field vanishes
# ---------------------------------------------------------------------------

def test_criterion_3_zero_problem_field_and_margin_vanish():
    start = time.perf_counter()
    problem, grid, field = builtin_solved("zero")
    assert [ax.size for ax in grid.state_axes] == [101]
    assert grid.margin_axis.size == 101
    assert grid.n_levels == 101
    peak = float(np.abs(stacked(field)).max())
    profile = required_margin_profile(field, 0)
    margin_peak = float(np.abs(profile).max())
    elapsed = time.perf_counter() - start
    ok = peak <= 1e-12 and margin_peak == 0.0 and elapsed < 5.0
    _verdict("criterion 3 zero problem",
             ok, f"max |W| {peak:.1e}, max margin {margin_peak:.1e} on "
                 f"101x101x101, {elapsed:.2f} s")
    assert peak <= 1e-12
    assert margin_peak == 0.0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4. deterministic steering against the closed-form required margin
# ---------------------------------------------------------------------------

def test_criterion_4_steering_oracle_with_refinement():
    start = time.perf_counter()
    problem = builtin_problem("deterministic-steering")

    def window_error(n_state, n_margin):
        grid = stable_grid(problem, [(-2.1, 2.1, n_state)], (0.0, 0.6, n_margin))
        field = solve_shortfall(problem, grid)
        profile = required_margin_profile(field, 0)
        a = grid.state_axes[0]
        lo = int(np.argmin(np.abs(a + 1.5)))
        hi = int(np.argmin(np.abs(a - 1.5)))
        oracle = np.maximum(np.abs(a[lo:hi + 1]) - 1.0, 0.0) ** 2
        return float(np.abs(profile[lo:hi + 1] - oracle).max()), hi + 1 - lo

    # the report window of the stock grid is exactly a 201-point axis
    coarse, n_coarse = window_error(281, 241)
    fine, _ = window_error(561, 481)
    ratio = coarse / fine
    elapsed = time.perf_counter() - start
    ok = (n_coarse == 201 and coarse <= 0.05
          and 1.4 <= ratio <= 2.6 and elapsed < 120.0)
    _verdict("criterion 4 steering oracle",
             ok, f"max error {coarse:.4f} on {n_coarse} points, refined "
                 f"{fine:.4f}, ratio {ratio:.2f}, {elapsed:.1f} s")
    assert n_coarse == 201
    assert coarse <= 0.05          # measured 0.0375
    assert 1.4 <= ratio <= 2.6     # measured 2.14: first-order halving
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 5. sub-zero margin rows stay the floor minus the margin
# ---------------------------------------------------------------------------

def test_criterion_5_negative_margin_slab_identity():
    start = time.perf_counter()
    problem = diffusive_problem()

    def slab_run(n_state, n_margin, dt):
        grid = make_grid([(-2.0, 2.0, n_state)], (-1.0, 1.5, n_margin),
                         time_axis(0.4, dt))
        field = every_level(problem, grid)
        return field, slab_identity_residual(field)

    field_c, coarse = slab_run(41, 26, 0.02)
    field_f, fine = slab_run(81, 51, 0.005)
    # the scheme's own convergence error at shared t=0 nodes with b >= 0
    # calibrates what "small" means for the slab residual
    jz_c = field_c.grid.margin_zero_index
    jz_f = field_f.grid.margin_zero_index
    consistency = float(np.abs(
        field_c.slice_at(0)[:, jz_c:] - field_f.slice_at(0)[::2, jz_f::2]
    ).max())
    res_c = coarse.max_residual
    res_f = fine.max_residual
    # the sweep preserves margin-linearity exactly, so both residuals sit at
    # roundoff and the first-order-decrease clause degenerates; accept either
    # a genuine halving or both residuals under a hard floor
    first_order = (res_f > 0 and res_c / res_f >= 1.5) or max(res_c, res_f) <= 1e-9
    elapsed = time.perf_counter() - start
    ok = res_c <= 3.0 * consistency and first_order and elapsed < 120.0
    _verdict("criterion 5 slab identity",
             ok, f"residuals {res_c:.1e} / {res_f:.1e}, consistency "
                 f"{consistency:.1e}, {elapsed:.2f} s")
    assert res_c <= 3.0 * consistency   # measured 4e-15 vs 1.7e-2
    assert first_order
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 6. Monte Carlo vs solved field with every hedge frozen
# ---------------------------------------------------------------------------

def test_criterion_6_monte_carlo_matches_field_at_fixed_control():
    start = time.perf_counter()
    problem = Problem(
        dim_state=1,
        dim_noise=1,
        horizon=0.5,
        drift=drift_is_control,
        diffusion=constant_diffusion(0.25),
        running_cost=constant_running(0.1),
        terminal_cost=lambda a: np.atleast_2d(a)[:, 0] ** 2,
        controls=[0.3],
        region=Region(kind="halfspace", normal=np.array([1.0]), offset=1.2),
    )
    grid = stable_grid(problem, [(-1.5, 1.5, 61)], (0.0, 2.5, 51))
    field = solve_shortfall(problem, grid)

    # ten interior nodes, clear of the state hull and the pinned top row
    rng = np.random.default_rng(2024)
    policy = constant_policy(problem.controls[0])
    tol_scheme = grid.dt + grid.state_spacings[0] + grid.margin_spacing
    worst_gap = worst_slack = 0.0
    for k in range(10):
        ia = int(rng.integers(15, 46))
        ib = int(rng.integers(5, 41))
        a0 = np.array([grid.state_axes[0][ia]])
        b0 = float(grid.margin_axis[ib])
        est = estimate_shortfall(problem, 0.0, a0, b0, policy,
                                 100_000, grid.dt, seed=900 + k)
        gap = abs(est.mean - float(field.slice_at(0)[ia, ib]))
        worst_gap = max(worst_gap, gap)
        worst_slack = max(worst_slack, gap - est.half_width - tol_scheme)
        assert gap <= est.half_width + tol_scheme
    elapsed = time.perf_counter() - start
    ok = worst_slack <= 0.0 and elapsed < 180.0
    _verdict("criterion 6 Monte Carlo vs field",
             ok, f"worst gap {worst_gap:.4f} vs tolerance "
                 f"{tol_scheme:.4f} + CI, 10 nodes x 1e5 paths, {elapsed:.1f} s")
    assert worst_slack <= 0.0           # measured worst gap 0.013
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# 7. jump-variance cost estimate against the closed-form second moment
# ---------------------------------------------------------------------------

def test_criterion_7_jump_variance_cost_covers_closed_form():
    start = time.perf_counter()
    problem = builtin_problem("jump-variance")
    est = estimate_cost(problem, 0.0, np.zeros(1),
                        constant_policy(problem.controls[0]),
                        100_000, 0.01, seed=0)
    # unit diffusion for one unit of time plus one atom of weight 2 and unit
    # jump size: the terminal second moment is 1 + 2 = 3
    elapsed = time.perf_counter() - start
    ok = est.covers(3.0) and elapsed < 30.0
    _verdict("criterion 7 jump-variance cost",
             ok, f"estimate {est.mean:.4f} +/- {est.half_width:.4f} vs 3.0, "
                 f"{elapsed:.1f} s")
    assert est.covers(3.0)              # measured 3.0027 +/- 0.0277
    assert est.half_width < 0.05
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 8. strictly perturbed field violates the scheme by a uniform margin
# ---------------------------------------------------------------------------

def test_criterion_8_log_margin_probe_is_strictly_negative():
    start = time.perf_counter()
    problem, grid, field = builtin_solved("zero")
    report = strict_subsolution_residual(problem, field, nu=0.1)
    elapsed = time.perf_counter() - start
    fraction = report.details["fraction_within"]
    ok = report.passed and fraction >= 0.95 and elapsed < 60.0
    _verdict("criterion 8 strict subsolution probe",
             ok, f"95th-percentile residual {report.max_residual:.4f} vs "
                 f"{report.tolerance:.4f}, fraction {fraction:.3f}, {elapsed:.2f} s")
    assert report.passed
    assert fraction >= 0.95             # measured 1.0, residual -nu exactly
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 9. structural invariants, end to end
# ---------------------------------------------------------------------------

def test_criterion_9_structural_suite(tmp_path):
    start = time.perf_counter()
    checks = []

    # margin monotonicity and nonnegativity on a controlled diffusion
    problem = diffusive_problem()
    grid = make_grid([(-2.0, 2.0, 41)], (0.0, 1.5, 16), time_axis(0.4, 0.02))
    values = stacked(every_level(problem, grid))
    checks.append(("nonnegative", values.min() >= 0.0))
    slopes = np.diff(values, axis=-1)
    checks.append(("margin-monotone", float(slopes.max()) <= 1e-12))

    # the last level is the terminal data, bit for bit
    expect = terminal_slice(problem, grid)
    checks.append(("terminal-bit-exact",
                   values[-1].tobytes() == expect.tobytes()))

    # the compensated jump increment annihilates affine fields
    rng = np.random.default_rng(9)
    worst_jump = 0.0
    p, q, c = 1.7, -0.4, 2.2
    affine = lambda a, b: p * float(a[0]) + q * b + c  # noqa: E731
    for _ in range(25):
        state = rng.normal(size=1)
        margin = float(rng.uniform(0.0, 3.0))
        val = jump_increment(
            affine, state, margin, affine(state, margin),
            np.array([p]), q,
            rng.normal(size=(3, 1)), rng.uniform(0.1, 2.0, size=3),
            rng.normal(size=3),
        )
        worst_jump = max(worst_jump, abs(val))
    checks.append(("affine-jump-annihilation", worst_jump <= 1e-12))

    # the integral-remainder defect is roundoff for polynomial fields
    quartic = lambda x: float((x @ x) ** 2 - 2.0 * x[1])  # noqa: E731
    q_grad = lambda x: 4.0 * (x @ x) * x - np.array([0.0, 2.0])  # noqa: E731
    q_hess = lambda x: 4.0 * (x @ x) * np.eye(2) + 8.0 * np.outer(x, x)  # noqa: E731
    defect = taylor_remainder_residual(
        quartic, q_grad, q_hess, np.array([0.4, -0.7]), np.array([1.3, 0.8])
    )
    checks.append(("taylor-polynomial-exact", defect <= 1e-12))

    # configuration survives a parse/serialize round trip
    doc = {
        "problem": {
            "dim_state": 1, "dim_noise": 1, "horizon": 0.5,
            "controls": [0.0], "drift": "control", "diffusion": 0.3,
            "running_cost": 0.1, "terminal_cost": "square",
            "region": {"kind": "ball", "center": [0.0], "radius": 2.0},
            "jumps": {"marks": [0.5], "weights": [1.0]},
        },
        "grid": {"state": [[-1.0, 1.0, 11]], "margin": [0.0, 1.0, 11],
                 "time_step": 0.02},
        "outputs": {"directory": str(tmp_path / "roundtrip")},
        "seed": 3,
    }
    once = serialize_config(parse_config(json.dumps(doc)))
    twice = serialize_config(parse_config(once))
    checks.append(("config-round-trip", once == twice))

    # two runs of the same configuration hash to the same artifacts
    def small_run(directory):
        return run(parse_config(json.dumps({
            "problem": {"builtin": "zero"},
            "grid": {"state": [[-1.0, 1.0, 21]], "margin": [0.0, 1.0, 21],
                     "time_step": 0.02},
            "outputs": {"directory": str(directory)},
        })))

    first = small_run(tmp_path / "a")
    second = small_run(tmp_path / "b")
    checks.append(("deterministic-rerun-hashes",
                   first["artifacts"] == second["artifacts"]))

    elapsed = time.perf_counter() - start
    failed = [name for name, passed in checks if not passed]
    ok = not failed and elapsed < 60.0
    _verdict("criterion 9 structural suite",
             ok, f"{len(checks)} checks, {elapsed:.1f} s"
                 + (f", failed: {failed}" if failed else ""))
    assert not failed
    assert elapsed < 60.0
