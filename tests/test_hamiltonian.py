"""Arrowhead eigenvalue machinery and the compensated jump operator.

Derived expectations are checked against independent oracles computed in
this file: a dense symmetric eigensolver, exhaustive candidate search, and
direct Taylor arithmetic.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from epigraph.model import JumpModel, Region, build_problem
from references import (
    Arrowhead,
    Coefficients,
    Stencil,
    assemble_arrowhead,
    best_hedge_on_grid,
    best_jump_hedge,
    coupling_scale,
    hamiltonian_at_node,
    jump_increment,
    top_eigenvalue,
)


def make_stencil(**overrides):
    base = dict(
        time_slope=0.0,
        grad_state=np.zeros(1),
        grad_margin=0.0,
        hess_state=np.zeros((1, 1)),
        hess_cross=np.zeros(1),
        hess_margin=0.0,
    )
    base.update(overrides)
    return Stencil(**base)


def make_coeffs(drift=0.0, diffusion=0.0, running=0.0, r=1):
    return Coefficients(
        drift=np.atleast_1d(np.asarray(drift, dtype=float)),
        diffusion=np.asarray(diffusion, dtype=float).reshape(1, r)
        if np.ndim(diffusion) <= 1
        else np.asarray(diffusion, dtype=float),
        jump_sizes=np.zeros((0, 1)),
        running=float(running),
    )


# ---------------------------------------------------------------------------
# coupling scale
# ---------------------------------------------------------------------------

def test_coupling_scale_values():
    assert coupling_scale(0.0) == 1.0
    assert coupling_scale(1.0) == 1.0
    assert coupling_scale(3.5) == 3.5


def test_coupling_scale_rejects_negative_margin():
    with pytest.raises(ValueError, match="margin >= 0"):
        coupling_scale(-0.25)
    with pytest.raises(ValueError, match="margin >= 0"):
        coupling_scale(np.array([0.5, -0.1]))


def test_coupling_scale_on_arrays():
    np.testing.assert_allclose(coupling_scale(np.array([0.0, 2.0])), [1.0, 2.0])


# ---------------------------------------------------------------------------
# arrowhead assembly
# ---------------------------------------------------------------------------

def test_assemble_zero_stencil_gives_zero_matrix():
    head = assemble_arrowhead(make_stencil(), make_coeffs(), distance=0.0, margin=0.0)
    assert head.corner == 0.0
    assert head.diag == 0.0
    np.testing.assert_array_equal(head.arrow, [0.0])


def test_assemble_log_margin_probe():
    """Probe field -(T-t) - log(1+b) at margin 1: frozen anchor (-1, 0, -1/8)."""
    b = 1.0
    probe = make_stencil(
        time_slope=1.0,
        grad_margin=-1.0 / (1.0 + b),
        hess_margin=1.0 / (1.0 + b) ** 2,
    )
    # drift and diffusion arbitrary: the probe has no state dependence
    head = assemble_arrowhead(
        probe, make_coeffs(drift=0.7, diffusion=1.3), distance=0.0, margin=b
    )
    assert head.corner == pytest.approx(-1.0)
    np.testing.assert_allclose(head.arrow, [0.0])
    assert head.diag == pytest.approx(-1.0 / 8.0)
    assert top_eigenvalue(head) == pytest.approx(-1.0 / 8.0)


def test_assemble_matches_term_by_term_recomputation():
    """Random stencils against an independent scalar-loop recomputation."""
    rng = np.random.default_rng(42)
    n, r = 3, 2
    for _ in range(50):
        stencil = Stencil(
            time_slope=rng.normal(),
            grad_state=rng.normal(size=n),
            grad_margin=rng.normal(),
            hess_state=(lambda m: (m + m.T) / 2)(rng.normal(size=(n, n))),
            hess_cross=rng.normal(size=n),
            hess_margin=rng.normal(),
        )
        drift = rng.normal(size=n)
        diffusion = rng.normal(size=(n, r))
        running = float(rng.uniform(0, 2))
        dist = float(rng.uniform(0, 1))
        b = float(rng.uniform(0, 4))
        coeffs = Coefficients(
            drift=drift, diffusion=diffusion, jump_sizes=np.zeros((0, n)),
            running=running,
        )
        head = assemble_arrowhead(stencil, coeffs, dist, b)

        scale = max(1.0, b)
        corner = -stencil.time_slope - dist + running * stencil.grad_margin
        for i in range(n):
            corner -= stencil.grad_state[i] * drift[i]
        for i in range(n):
            for j in range(n):
                cov_ij = sum(diffusion[i, q] * diffusion[j, q] for q in range(r))
                corner -= 0.5 * cov_ij * stencil.hess_state[j, i]
        arrow = np.array([
            -0.5 * scale * sum(diffusion[i, q] * stencil.hess_cross[i] for i in range(n))
            for q in range(r)
        ])
        diag = -0.5 * scale**2 * stencil.hess_margin

        assert head.corner == pytest.approx(corner, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(head.arrow, arrow, rtol=1e-12, atol=1e-12)
        assert head.diag == pytest.approx(diag, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# top eigenvalue
# ---------------------------------------------------------------------------

def test_top_eigenvalue_probe_anchor():
    assert top_eigenvalue(Arrowhead(-1.0, np.zeros(1), -0.125)) == pytest.approx(-0.125)


def test_top_eigenvalue_pure_offdiagonal():
    assert top_eigenvalue(Arrowhead(0.0, np.array([1.0]), 0.0)) == pytest.approx(1.0)


def test_top_eigenvalue_matches_dense_eigensolver():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        r = int(rng.integers(1, 7))
        head = Arrowhead(
            corner=float(rng.normal(scale=3)),
            arrow=rng.normal(scale=3, size=r),
            diag=float(rng.normal(scale=3)),
        )
        dense_top = float(np.linalg.eigvalsh(head.dense())[-1])
        assert abs(top_eigenvalue(head) - dense_top) <= 1e-10


def test_top_eigenvalue_strictly_increasing_in_corner():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = int(rng.integers(1, 4))
        arrow = rng.normal(size=r) + 0.1  # keep the arrow nonzero
        diag = float(rng.normal())
        corner = float(rng.normal())
        lo = top_eigenvalue(Arrowhead(corner, arrow, diag))
        hi = top_eigenvalue(Arrowhead(corner + 0.1, arrow, diag))
        assert hi > lo


# ---------------------------------------------------------------------------
# brute-force hedge search
# ---------------------------------------------------------------------------

def test_brute_force_concave_quadratic():
    # hedged value 2h - h^2/2: maximum 2 at h=2, strictly interior
    stencil = make_stencil(hess_cross=np.array([-2.0]), hess_margin=1.0)
    value, hedge, boundary = best_hedge_on_grid(
        stencil, make_coeffs(diffusion=1.0), distance=0.0, margin=0.0,
        radius=4.0, steps=5,
    )
    assert value == pytest.approx(2.0)
    np.testing.assert_allclose(hedge, [2.0])
    assert not boundary


def test_brute_force_flags_unbounded_direction():
    stencil = make_stencil(hess_cross=np.array([-2.0]), hess_margin=-1.0)
    v4, _, boundary4 = best_hedge_on_grid(
        stencil, make_coeffs(diffusion=1.0), distance=0.0, margin=0.0,
        radius=4.0, steps=9,
    )
    v8, _, boundary8 = best_hedge_on_grid(
        stencil, make_coeffs(diffusion=1.0), distance=0.0, margin=0.0,
        radius=8.0, steps=17,
    )
    assert boundary4 and boundary8
    assert v8 > v4  # value keeps growing with the search radius


def test_sign_equivalence_with_concave_hedge():
    """sign(top eigenvalue) must match sign(true hedged supremum).

    For margin-convex fields the hedged quadratic is concave with exact
    supremum corner + cross^2 / (2 hess_margin); the eigenvalue form exists
    precisely to reproduce that sign for every coupling scale.
    """
    rng = np.random.default_rng(123)
    agree = 0
    considered = 0
    for _ in range(500):
        stencil = make_stencil(
            time_slope=rng.normal(),
            hess_cross=rng.normal(size=1),
            hess_margin=float(rng.uniform(0.1, 3.0)),
        )
        coeffs = make_coeffs(diffusion=rng.normal(), running=0.0)
        b = float(rng.uniform(0, 5))
        dist = float(rng.uniform(0, 1))
        head = assemble_arrowhead(stencil, coeffs, dist, b)
        cross = float(coeffs.diffusion[0, 0] * stencil.hess_cross[0])
        exact_sup = head.corner + cross**2 / (2.0 * stencil.hess_margin)
        if abs(exact_sup) < 1e-8:
            continue
        considered += 1
        if math.copysign(1, exact_sup) == math.copysign(1, top_eigenvalue(head)):
            agree += 1
    assert considered > 400
    assert agree / considered >= 0.99


def test_brute_force_tracks_exact_supremum_sign():
    rng = np.random.default_rng(321)
    for _ in range(50):
        stencil = make_stencil(
            time_slope=rng.normal(),
            hess_cross=rng.normal(size=1),
            hess_margin=float(rng.uniform(0.2, 3.0)),
        )
        coeffs = make_coeffs(diffusion=rng.normal())
        cross = float(coeffs.diffusion[0, 0] * stencil.hess_cross[0])
        argmax = abs(cross) / stencil.hess_margin
        value, _, boundary = best_hedge_on_grid(
            stencil, coeffs, distance=0.0, margin=0.0,
            radius=2.0 * argmax + 1.0, steps=401,
        )
        head = assemble_arrowhead(stencil, coeffs, 0.0, 0.0)
        exact = head.corner + cross**2 / (2.0 * stencil.hess_margin)
        assert not boundary
        assert value == pytest.approx(exact, abs=1e-3)


# ---------------------------------------------------------------------------
# compensated jump terms
# ---------------------------------------------------------------------------

def test_jump_increment_no_atoms_is_zero():
    val = jump_increment(
        lambda a, b: 1.0, np.zeros(1), 0.0, 1.0, np.zeros(1), 0.0,
        np.zeros((0, 1)), np.zeros(0), np.zeros(0),
    )
    assert val == 0.0


def test_jump_increment_annihilates_affine_fields():
    p, q, c = 1.7, -0.4, 2.2
    field = lambda a, b: p * float(a[0]) + q * b + c  # noqa: E731
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = rng.normal(size=1)
        margin = float(rng.uniform(0, 3))
        jump_sizes = rng.normal(size=(3, 1))
        betas = rng.normal(size=3)
        weights = rng.uniform(0.1, 2.0, size=3)
        val = jump_increment(
            field, state, margin, field(state, margin),
            np.array([p]), q, jump_sizes, weights, betas,
        )
        assert val == pytest.approx(0.0, abs=1e-12)


def test_jump_increment_quadratic_example():
    # field b^2 at margin 0, one atom of weight 1, hedge 1, no state shift
    field = lambda a, b: b * b  # noqa: E731
    val = jump_increment(
        field, np.zeros(1), 0.0, 0.0, np.zeros(1), 0.0,
        np.zeros((1, 1)), np.ones(1), np.ones(1),
    )
    assert val == pytest.approx(-1.0)


def test_best_jump_hedge_concave_case():
    field = lambda a, b: b * b  # noqa: E731
    total, chosen = best_jump_hedge(
        field, np.zeros(1), 0.0, 0.0, np.zeros(1), 0.0,
        np.zeros((1, 1)), np.ones(1), [-1.0, 0.0, 1.0],
    )
    assert total == pytest.approx(0.0)
    np.testing.assert_allclose(chosen, [0.0])


def test_best_jump_hedge_plateau_tie_breaks_to_smallest():
    # field max{1-b, 0} at margin 0 with slope -1: every hedge up to 1 scores
    # zero, so the tie must resolve to the smallest magnitude
    field = lambda a, b: max(1.0 - b, 0.0)  # noqa: E731
    total, chosen = best_jump_hedge(
        field, np.zeros(1), 0.0, 1.0, np.zeros(1), -1.0,
        np.zeros((1, 1)), np.ones(1), [-1.0, 0.0, 0.5, 1.0, 2.0],
    )
    assert total == pytest.approx(0.0)
    np.testing.assert_allclose(chosen, [0.0])


def test_best_jump_hedge_matches_exhaustive_search():
    """Per-atom selection against brute-force joint maximization."""
    rng = np.random.default_rng(77)
    coef = rng.normal(size=6)

    def field(a, b):
        x = float(a[0])
        return (
            coef[0] + coef[1] * x + coef[2] * b + coef[3] * x * b
            + coef[4] * x * x + coef[5] * b * b
        )

    for trial in range(25):
        n_atoms = int(rng.integers(1, 4))
        candidates = np.round(rng.normal(size=int(rng.integers(2, 6))), 3)
        state = rng.normal(size=1)
        margin = float(rng.uniform(0, 2))
        jump_sizes = rng.normal(size=(n_atoms, 1))
        weights = rng.uniform(0.1, 1.5, size=n_atoms)
        grad_state = rng.normal(size=1)
        grad_margin = rng.normal()
        center = field(state, margin)

        total, _ = best_jump_hedge(
            field, state, margin, center, grad_state, grad_margin,
            jump_sizes, weights, candidates,
        )

        best_joint = -np.inf
        for combo in itertools.product(candidates, repeat=n_atoms):
            acc = 0.0
            for k in range(n_atoms):
                shifted = field(state + jump_sizes[k], margin + combo[k])
                acc += weights[k] * (
                    -(shifted - center)
                    + float(grad_state @ jump_sizes[k])
                    + grad_margin * combo[k]
                )
            best_joint = max(best_joint, acc)
        assert total == pytest.approx(best_joint, abs=1e-10)


# ---------------------------------------------------------------------------
# node Hamiltonian
# ---------------------------------------------------------------------------

def quiet_problem(**overrides):
    fields = dict(
        dim_state=1,
        dim_noise=1,
        horizon=1.0,
        terminal_cost=lambda a: np.zeros(np.atleast_2d(a).shape[0]),
        controls=[[0.0]],
    )
    fields.update(overrides)
    return build_problem(fields)


def test_node_hamiltonian_all_zero():
    prob = quiet_problem()
    H = hamiltonian_at_node(
        lambda a, b: 0.0, 0.5, np.zeros(1), 0.0, make_stencil(), prob, [0.0],
    )
    assert H == 0.0


def test_node_hamiltonian_penalty_only():
    # distance 1 at the node, everything else zero: eigenvalues {-1, 0} -> 0
    prob = quiet_problem(region=Region(kind="callable", func=lambda a: np.ones(len(a))))
    H = hamiltonian_at_node(
        lambda a, b: 0.0, 0.5, np.zeros(1), 0.0, make_stencil(), prob, [0.0],
    )
    assert H == pytest.approx(0.0)
    # with positive margin curvature both eigenvalues go negative: max is -1
    H2 = hamiltonian_at_node(
        lambda a, b: 0.0, 0.5, np.zeros(1), 0.0,
        make_stencil(hess_margin=2.0), prob, [0.0],
    )
    assert H2 == pytest.approx(-1.0)
    # a time slope of -1 cancels the penalty: eigenvalues {0, 0} -> 0
    H3 = hamiltonian_at_node(
        lambda a, b: 0.0, 0.5, np.zeros(1), 0.0,
        make_stencil(time_slope=-1.0), prob, [0.0],
    )
    assert H3 == pytest.approx(0.0)


def test_node_hamiltonian_log_margin_probe():
    """Frozen anchor: the probe field scores exactly -1/8 at margin 1."""
    T, t, b = 1.0, 0.25, 1.0
    prob = quiet_problem(
        drift=lambda t, a, u: 0.7 * np.ones_like(a),
        diffusion=lambda t, a, u: 1.3 * np.ones(a.shape + (1,)),
    )
    probe = make_stencil(
        time_slope=1.0,
        grad_margin=-1.0 / (1.0 + b),
        hess_margin=1.0 / (1.0 + b) ** 2,
    )
    field = lambda a, bb: -(T - t) - math.log1p(bb)  # noqa: E731
    H = hamiltonian_at_node(field, t, np.zeros(1), b, probe, prob, [0.0])
    assert H == pytest.approx(-1.0 / 8.0, abs=1e-12)


def test_node_hamiltonian_takes_best_control():
    # drift a*u with gradient 1: corner = -u, so the most negative control wins
    prob = quiet_problem(
        drift=lambda t, a, u: np.full_like(a, float(u[0])),
        controls=[[-1.0], [0.0], [1.0]],
    )
    H = hamiltonian_at_node(
        lambda a, b: float(a[0]), 0.5, np.zeros(1), 0.0,
        make_stencil(grad_state=np.ones(1)), prob, [0.0],
    )
    assert H == pytest.approx(1.0)  # corner = -<1, u> maximized at u = -1


def test_node_hamiltonian_per_control_stencil_callable():
    """Upwind-style stencils: the callable receives each control's drift."""
    prob = quiet_problem(
        drift=lambda t, a, u: np.full_like(a, float(u[0])),
        controls=[[-2.0], [3.0]],
    )

    def stencil_for(drift):
        slope = 10.0 if drift[0] > 0 else 1.0
        return make_stencil(grad_state=np.array([slope]))

    H = hamiltonian_at_node(
        lambda a, b: 0.0, 0.0, np.zeros(1), 0.0, stencil_for, prob, [0.0],
    )
    # corner(-2) = -(1)(-2) = 2; corner(3) = -(10)(3) = -30
    assert H == pytest.approx(2.0)


def test_node_hamiltonian_includes_jump_search():
    field = lambda a, b: b * b  # noqa: E731
    prob = quiet_problem(
        jumps=JumpModel(marks=[1.0], weights=[1.0]),
        jump_size=lambda t, a, u, e: np.zeros_like(a),
    )
    stencil = make_stencil(grad_margin=2.0, hess_margin=2.0)  # field data at b=1
    H = hamiltonian_at_node(field, 0.5, np.zeros(1), 1.0, stencil, prob, [-1.0, 0.0, 1.0])
    # eigenvalue part: corner 0, diag -1 -> top 0; jump part at beta -1:
    # -(0 - 1) + 2*(-1) = -1; beta 0 scores 0; total = 0 + 0 = 0
    assert H == pytest.approx(0.0)
    # pinning the hedge at zero must give the same number here
    H0 = hamiltonian_at_node(
        field, 0.5, np.zeros(1), 1.0, stencil, prob, [-1.0, 0.0, 1.0],
        jump_hedge="zero",
    )
    assert H0 == pytest.approx(0.0)


def test_node_hamiltonian_frozen_hedge_mode():
    prob = quiet_problem(diffusion=lambda t, a, u: np.ones(a.shape + (1,)))
    stencil = make_stencil(hess_cross=np.array([5.0]), hess_margin=1.0)
    spectral = hamiltonian_at_node(
        lambda a, b: 0.0, 0.5, np.zeros(1), 0.0, stencil, prob, [0.0],
    )
    frozen = hamiltonian_at_node(
        lambda a, b: 0.0, 0.5, np.zeros(1), 0.0, stencil, prob, [0.0],
        hedge="frozen",
    )
    assert frozen == pytest.approx(0.0)   # bare corner, no hedge gain
    assert spectral > frozen              # the hedge can only help


def test_node_hamiltonian_rejects_negative_margin():
    with pytest.raises(ValueError, match="margin >= 0"):
        hamiltonian_at_node(
            lambda a, b: 0.0, 0.0, np.zeros(1), -0.5, make_stencil(),
            quiet_problem(), [0.0],
        )
