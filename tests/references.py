"""Per-node references and Monte Carlo checks that only the tests read.

The per-node Hamiltonian (:func:`hamiltonian_at_node`) is the oracle the
array sweep is checked against: ``test_solver.py::_sweep_residuals`` checks
that the sweep's slope makes it vanish at random interior nodes, with and
without diffusion and jumps.  The check covers the frozen hedge with jumps,
not the spectral one: there the sweep inverts the arrowhead with the jump
compensator inside the corner, while this module adds it after the top
eigenvalue.  :func:`best_hedge_on_grid` is the brute-force hedge search the
closed-form eigenvalue is checked against, and the two Monte Carlo reports
check the simulator's moment growth and the zero mean of its hedged noise
integrals.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from epigraph.errors import NonFiniteState
from epigraph.hamiltonian import Stencil, assemble_arrowhead, coupling_scale, top_eigenvalue
from epigraph.model import Coefficients, Problem, eval_coefficients
from epigraph.simulate import Policy, _chunked, _estimate, constant_policy

Array = np.ndarray
FieldEval = Callable[[Array, float], float]


# ---------------------------------------------------------------------------
# brute-force hedge search
# ---------------------------------------------------------------------------

def best_hedge_on_grid(
    stencil: Stencil,
    coeffs: Coefficients,
    distance: float,
    margin: float,
    *,
    radius: float,
    steps: int,
) -> tuple[float, Array, bool]:
    """Brute-force hedge search: maximize the explicit hedged quadratic.

    Evaluates

        corner - h . (diffusion^T hess_cross) - 1/2 |h|^2 hess_margin

    over the lattice ``[-radius, radius]^r`` with ``steps`` points per axis
    and returns ``(value, argmax hedge, boundary_hit)``.  ``boundary_hit``
    flags an argmax on the hull — the telltale of an unbounded supremum, which
    is exactly the situation the eigenvalue form exists to avoid.  This is the
    slow cross-validation route, not used by the solver.
    """
    if steps < 3:
        raise ValueError("hedge grid needs at least 3 points per axis")
    r = coeffs.diffusion.shape[1]
    head = assemble_arrowhead(stencil, coeffs, distance, margin)
    # the raw (unscaled) quadratic: corner comes from the arrowhead assembly,
    # the hedge couples through the unscaled cross term
    cross = coeffs.diffusion.T @ stencil.hess_cross  # (r,)
    axis = np.linspace(-radius, radius, steps)
    grids = np.meshgrid(*([axis] * r), indexing="ij")
    hedges = np.stack([g.ravel() for g in grids], axis=1)  # (steps^r, r)
    values = (
        head.corner
        - hedges @ cross
        - 0.5 * stencil.hess_margin * np.sum(hedges * hedges, axis=1)
    )
    best = int(np.argmax(values))
    hedge = hedges[best]
    boundary_hit = bool(np.any(np.isclose(np.abs(hedge), radius)))
    return float(values[best]), hedge, boundary_hit


# ---------------------------------------------------------------------------
# compensated jump terms
# ---------------------------------------------------------------------------

def jump_increment(
    field_eval: FieldEval,
    state: Array,
    margin: float,
    center: float,
    grad_state: Array,
    grad_margin: float,
    jump_sizes: Array,      # (K, n)
    weights: Array,         # (K,)
    betas: Array,           # (K,)
) -> float:
    """Compensated nonlocal term for a given per-atom margin hedge.

    Sum over atoms of

        w_k * ( -[W(state + chi_k, margin + beta_k) - W(state, margin)]
                + <grad_state, chi_k> + grad_margin * beta_k ).

    Vanishes identically on affine fields (exact cancellation), which the
    tests assert.  Out-of-hull shifted evaluations are the accessor's
    responsibility (the solver clamps; strict callers may raise).
    """
    total = 0.0
    for k in range(weights.shape[0]):
        shifted = field_eval(state + jump_sizes[k], margin + float(betas[k]))
        total += float(weights[k]) * (
            -(shifted - center)
            + float(grad_state @ jump_sizes[k])
            + grad_margin * float(betas[k])
        )
    return total


def best_jump_hedge(
    field_eval: FieldEval,
    state: Array,
    margin: float,
    center: float,
    grad_state: Array,
    grad_margin: float,
    jump_sizes: Array,
    weights: Array,
    beta_candidates: Sequence[float] | Array,
) -> tuple[float, Array]:
    """Maximize the compensated jump term over per-atom hedge candidates.

    The integrand is separable across atoms, so each atom picks its own best
    candidate.  Ties go to the candidate of smallest magnitude (then smallest
    value), making results grid-order independent.  Returns the maximized
    total and the per-atom argmax vector.
    """
    candidates = np.asarray(beta_candidates, dtype=float).ravel()
    if candidates.size == 0:
        raise ValueError("beta_candidates must be nonempty")
    order = np.lexsort((candidates, np.abs(candidates)))
    ordered = candidates[order]

    total = 0.0
    chosen = np.zeros(weights.shape[0])
    for k in range(weights.shape[0]):
        best_val = -np.inf
        best_beta = 0.0
        for beta in ordered:
            shifted = field_eval(state + jump_sizes[k], margin + float(beta))
            val = (
                -(shifted - center)
                + float(grad_state @ jump_sizes[k])
                + grad_margin * float(beta)
            )
            if val > best_val:
                best_val = val
                best_beta = float(beta)
        total += float(weights[k]) * best_val
        chosen[k] = best_beta
    return total, chosen


# ---------------------------------------------------------------------------
# the node Hamiltonian
# ---------------------------------------------------------------------------

def hamiltonian_at_node(
    field_eval: FieldEval,
    t: float,
    state: Array,
    margin: float,
    stencil: Stencil | Callable[[Array], Stencil],
    problem: Problem,
    beta_candidates: Sequence[float] | Array,
    *,
    hedge: str = "spectral",
    jump_hedge: str = "grid",
) -> float:
    """Node Hamiltonian: best control of eigenvalue part plus jump part.

    ``stencil`` may be a fixed :class:`Stencil` or a callable receiving the
    per-control drift vector and returning the (typically upwinded) stencil
    for that control.  ``hedge="frozen"`` evaluates the unhedged corner
    instead of the top eigenvalue; ``jump_hedge="zero"`` pins the margin jump
    hedge at zero.  Both switches exist for cross-validation against plain
    linear equations, not for production solving.

    At a solution of the margin-augmented dynamic program this quantity is
    zero at every interior node.
    """
    if hedge not in ("spectral", "frozen"):
        raise ValueError(f"unknown hedge mode {hedge!r}")
    if jump_hedge not in ("grid", "zero"):
        raise ValueError(f"unknown jump hedge mode {jump_hedge!r}")
    state = np.asarray(state, dtype=float)
    margin = float(margin)
    coupling_scale(margin)  # validates margin >= 0
    center = field_eval(state, margin)
    dist = float(problem.distance(state))

    best = -np.inf
    for u in problem.controls:
        coeffs = eval_coefficients(problem, t, state, u)
        stc = stencil(coeffs.drift) if callable(stencil) else stencil
        head = assemble_arrowhead(stc, coeffs, dist, margin)
        local = head.corner if hedge == "frozen" else top_eigenvalue(head)
        if problem.jumps.n_atoms:
            if jump_hedge == "zero":
                jump_part = jump_increment(
                    field_eval, state, margin, center,
                    stc.grad_state, stc.grad_margin,
                    coeffs.jump_sizes, problem.jumps.weights,
                    np.zeros(problem.jumps.n_atoms),
                )
            else:
                jump_part, _ = best_jump_hedge(
                    field_eval, state, margin, center,
                    stc.grad_state, stc.grad_margin,
                    coeffs.jump_sizes, problem.jumps.weights,
                    beta_candidates,
                )
            local += jump_part
        best = max(best, local)
    return float(best)


# ---------------------------------------------------------------------------
# Monte Carlo reports
# ---------------------------------------------------------------------------

def check_moment_bound(
    problem: Problem,
    initial_points: Sequence[Array],
    n_paths: int,
    dt: float,
    seed: int,
    policy: Policy | None = None,
) -> dict[str, Any]:
    """Empirical second-moment growth report.

    Estimates E[sup_s |x_s|^2] from each initial point and the ratio to
    1 + |a|^2.  A well-behaved problem keeps that ratio stable; the report
    flags a spread beyond 4x (or an outright blow-up) as evidence that the
    coefficients grow super-linearly.
    """
    policy = policy or constant_policy(problem.controls[0])
    rows = []
    for a0 in initial_points:
        a0 = np.atleast_1d(np.asarray(a0, dtype=float))
        try:
            stats = _chunked(problem, policy, 0.0, a0, 0.0, n_paths, dt, seed)
            estimate = float(np.mean(stats["sup_sq"]))
        except NonFiniteState:
            estimate = float("inf")
        rows.append({
            "a": a0.tolist(),
            "estimate": estimate,
            "ratio": estimate / (1.0 + float(a0 @ a0)),
        })
    by_norm = sorted(rows, key=lambda row: float(np.linalg.norm(row["a"])))
    blown_up = any(not np.isfinite(row["ratio"]) for row in rows)
    # systematic growth: the farthest point's ratio dwarfs the nearest one's
    # (ratios below 1 are treated as 1 so a frozen path from the origin,
    # whose ratio is 0, does not make every other point look like growth)
    growth = by_norm[-1]["ratio"] > 4.0 * max(by_norm[0]["ratio"], 1.0)
    return {
        "points": rows,
        "constant": max(row["ratio"] for row in rows),
        "flag": bool(blown_up or growth),
    }


def check_martingale_zero_mean(
    problem: Problem,
    alpha_const: float,
    beta_const: float,
    n_paths: int,
    dt: float,
    seed: int,
) -> dict[str, Any]:
    """Zero-mean check for the hedged noise integrals.

    Accumulates the hedge-weighted Brownian sum and the compensated jump sum
    with constant hedges and reports whether both confidence intervals cover
    zero.
    """
    alpha = np.full(problem.dim_noise, float(alpha_const))
    policy = constant_policy(problem.controls[0], alpha=alpha, beta=beta_const)
    stats = _chunked(problem, policy, 0.0, np.zeros(problem.dim_state), 0.0,
                     n_paths, dt, seed)
    brownian = _estimate(stats["brownian_part"], n_paths, seed)
    jumps = _estimate(stats["jump_part"], n_paths, seed)
    return {
        "brownian": brownian,
        "jump": jumps,
        "pass": brownian.covers(0.0) and jumps.covers(0.0),
    }
