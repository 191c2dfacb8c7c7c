"""Per-node references, audits and Monte Carlo checks that only the tests read.

The arrowhead form of the hedged supremum lives here: :class:`Stencil` and
:class:`Coefficients` hold one node's derivatives and coefficients,
:func:`assemble_arrowhead` builds the matrix and :func:`top_eigenvalue`
solves it in closed form.  The sweep solves the unhedged equation and runs
none of it.  :func:`sign_equivalence_suite` audits the eigenvalue form's
sign on random stencils, and :func:`taylor_remainder_residual` checks the
second-order remainder identity the scheme's consistency rests on.

The per-node Hamiltonian (:func:`hamiltonian_at_node`) is the oracle the
array sweep is checked against: ``test_solver.py::_sweep_residuals`` checks
that the sweep's slope makes its unhedged form (``hedge="frozen"``,
``jump_hedge="zero"``) vanish at random interior nodes, with and without
diffusion and jumps.  :func:`best_hedge_on_grid` is the brute-force hedge
search the closed-form eigenvalue is checked against, and the two Monte
Carlo reports check the simulator's moment growth and the zero mean of its
hedged noise integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from epigraph.errors import NonFiniteState
from epigraph.model import Problem, eval_coefficients_batch
from epigraph.simulate import Policy, _chunked, _estimate, constant_policy
from epigraph.verify import DiagnosticReport

Array = np.ndarray
FieldEval = Callable[[Array, float], float]


# ---------------------------------------------------------------------------
# one node's coefficients and derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coefficients:
    """All coefficient values for one (t, state, control) evaluation.

    ``jump_sizes`` stacks the jump amplitude for every atom; it is empty when
    the problem has no jumps.
    """

    drift: Array          # (n,)
    diffusion: Array      # (n, r)
    jump_sizes: Array     # (K, n)
    running: float


def eval_coefficients(problem: Problem, t: float, a: Array, u: Array) -> Coefficients:
    """Evaluate the dynamics and running cost at one ``(t, a, u)`` and validate them.

    Deterministic by construction (pure callables); the running cost is
    checked for nonnegativity here so the contract fails loudly rather than
    deep inside a sweep.  The terminal cost is ``epigraph.model.eval_terminal``'s.
    """
    batch = eval_coefficients_batch(problem, t, np.asarray(a, dtype=float)[None, :], u)
    drift, diffusion, jump_sizes, running = batch
    return Coefficients(
        drift=drift[0],
        diffusion=diffusion[0],
        jump_sizes=jump_sizes[:, 0, :],
        running=float(running[0]),
    )


@dataclass(frozen=True)
class Stencil:
    """Derivative estimates of the field at one node.

    ``grad_state``/``hess_state`` are with respect to the physical state,
    ``grad_margin``/``hess_margin`` with respect to the cost margin, and
    ``hess_cross`` holds the mixed second derivatives.  How the estimates were
    obtained (upwinded, central, analytic) is the caller's business.
    """

    time_slope: float
    grad_state: Array      # (n,)
    grad_margin: float
    hess_state: Array      # (n, n), symmetric
    hess_cross: Array      # (n,)
    hess_margin: float

    def __post_init__(self) -> None:
        gs = np.atleast_1d(np.asarray(self.grad_state, dtype=float))
        hs = np.atleast_2d(np.asarray(self.hess_state, dtype=float))
        hc = np.atleast_1d(np.asarray(self.hess_cross, dtype=float))
        if hs.shape != (gs.shape[0], gs.shape[0]):
            raise ValueError(f"hess_state shape {hs.shape} does not match state dim {gs.shape[0]}")
        if hc.shape != gs.shape:
            raise ValueError(f"hess_cross shape {hc.shape} does not match state dim {gs.shape[0]}")
        object.__setattr__(self, "grad_state", gs)
        object.__setattr__(self, "hess_state", hs)
        object.__setattr__(self, "hess_cross", hc)


# ---------------------------------------------------------------------------
# arrowhead matrix and its top eigenvalue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arrowhead:
    """Symmetric (1+r) x (1+r) matrix [[corner, arrow^T], [arrow, diag*I_r]]."""

    corner: float
    arrow: Array   # (r,)
    diag: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrow", np.atleast_1d(np.asarray(self.arrow, dtype=float)))

    @property
    def r(self) -> int:
        return int(self.arrow.shape[0])

    def dense(self) -> Array:
        out = np.eye(1 + self.r) * self.diag
        out[0, 0] = self.corner
        out[0, 1:] = self.arrow
        out[1:, 0] = self.arrow
        return out


def coupling_scale(margin: float | Array) -> float | Array:
    """Margin rescaling max{1, b} applied to the arrowhead's outer blocks.

    Only defined for nonnegative margins; the diagnostic slab below zero is
    handled by the solver without this rescaling.
    """
    b = np.asarray(margin, dtype=float)
    if np.any(b < 0.0):
        raise ValueError(f"coupling scale needs margin >= 0, got {b.min()}")
    scaled = np.maximum(1.0, b)
    return float(scaled) if scaled.ndim == 0 else scaled


def assemble_arrowhead(
    stencil: Stencil,
    coeffs: Coefficients,
    distance: float,
    margin: float,
) -> Arrowhead:
    """Build the arrowhead matrix from local derivatives and coefficients.

    corner = -time_slope - distance - <grad_state, drift> + running*grad_margin
             - 1/2 tr(diffusion diffusion^T hess_state)
    arrow  = -1/2 * scale * diffusion^T hess_cross
    diag   = -1/2 * scale^2 * hess_margin

    where ``scale = coupling_scale(margin)``.  The margin drifts downward at
    the running-cost rate, hence the plus sign on the running term.
    """
    scale = float(coupling_scale(margin))
    sig = coeffs.diffusion
    corner = (
        -stencil.time_slope
        - float(distance)
        - float(stencil.grad_state @ coeffs.drift)
        + coeffs.running * stencil.grad_margin
        - 0.5 * float(np.trace(sig @ sig.T @ stencil.hess_state))
    )
    arrow = -0.5 * scale * (sig.T @ stencil.hess_cross)
    diag = -0.5 * scale * scale * stencil.hess_margin
    return Arrowhead(corner=corner, arrow=arrow, diag=diag)


def top_eigenvalue(head: Arrowhead) -> float:
    """Largest eigenvalue of the arrowhead matrix, in closed form.

    With repeated diagonal the spectrum is {diag (multiplicity r-1)} plus the
    two roots of (x - corner)(x - diag) = |arrow|^2; the larger root

        (corner + diag)/2 + sqrt(((corner - diag)/2)^2 + |arrow|^2)

    always dominates diag, so it is the overall maximum.
    """
    half_gap = 0.5 * (head.corner - head.diag)
    mid = 0.5 * (head.corner + head.diag)
    return float(mid + np.hypot(half_gap, np.linalg.norm(head.arrow)))


# ---------------------------------------------------------------------------
# audits of the eigenvalue form and of the remainder identity
# ---------------------------------------------------------------------------

# pass at >= 99 % agreement; 1 - 0.99 is the float every report has recorded
_SIGN_TOLERANCE = 1.0 - 0.99


def sign_equivalence_suite(n_instances: int = 1000, seed: int = 0) -> DiagnosticReport:
    """Random-stencil audit of the hedged supremum's eigenvalue form.

    Draws margin-convex stencils (concave hedge quadratics, so the raw
    supremum is the finite closed form corner + cross^2 / (2 hess_margin))
    and checks that the arrowhead top eigenvalue has the same sign.
    Instances with |eigenvalue| below 1e-8 are too close to the boundary to
    classify and are skipped.  The residual is the disagreement fraction.
    """
    if n_instances < 1:
        raise ValueError("need at least one instance")
    rng = np.random.default_rng(seed)
    considered = 0
    agree = 0
    disagreements: list[dict[str, float]] = []
    for _ in range(n_instances):
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
        head = assemble_arrowhead(stencil, coeffs, dist, b)
        eig = top_eigenvalue(head)
        if abs(eig) < 1e-8:
            continue
        considered += 1
        cross = float(coeffs.diffusion[0, 0] * stencil.hess_cross[0])
        exact_sup = head.corner + cross**2 / (2.0 * stencil.hess_margin)
        if math.copysign(1.0, exact_sup) == math.copysign(1.0, eig):
            agree += 1
        elif len(disagreements) < 5:
            disagreements.append({
                "eigenvalue": eig, "exact_sup": exact_sup, "margin": b,
            })
    fraction = agree / considered if considered else 1.0
    details = {
        "n_instances": n_instances,
        "considered": considered,
        "agree": agree,
        "disagreements": disagreements,
    }
    return DiagnosticReport("sign-equivalence", 1.0 - fraction, _SIGN_TOLERANCE, details)


def taylor_remainder_residual(
    g: Callable[[Array], float],
    gradient: Callable[[Array], Array],
    hessian: Callable[[Array], Array],
    x: Array | float,
    shift: Array | float,
    quad_nodes: int = 20,
) -> float:
    """Defect of the exact second-order expansion with integral remainder.

    Evaluates |g(x+a) - g(x) - <Dg(x), a> - R| where the remainder

        R = integral over z in [0,1] of (1-z) <D^2 g(x + z a) a, a> dz

    is computed by ``quad_nodes``-point Gauss-Legendre quadrature.  Zero (to
    quadrature precision) for any g with an integrable second derivative;
    exactly zero for quadratics at any node count >= 2.
    """
    if quad_nodes < 2:
        raise ValueError("the remainder integrand needs at least 2 quadrature nodes")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.atleast_1d(np.asarray(shift, dtype=float))
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    z = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    remainder = 0.0
    for zi, wi in zip(z, w):
        hess = np.atleast_2d(np.asarray(hessian(x + zi * a), dtype=float))
        remainder += wi * (1.0 - zi) * float(a @ hess @ a)
    grad = np.atleast_1d(np.asarray(gradient(x), dtype=float))
    defect = float(g(x + a)) - float(g(x)) - float(grad @ a) - remainder
    return abs(defect)


def taylor_report() -> DiagnosticReport:
    """The remainder identity for exp(a_1 + 2 a_2) at one base point and shift."""
    def g(p: Array) -> float:
        return float(np.exp(p[0] + 2.0 * p[1]))

    def gradient(p: Array) -> Array:
        value = np.exp(p[0] + 2.0 * p[1])
        return np.array([value, 2.0 * value])

    def hessian(p: Array) -> Array:
        value = np.exp(p[0] + 2.0 * p[1])
        return np.array([[value, 2.0 * value], [2.0 * value, 4.0 * value]])

    residual = taylor_remainder_residual(
        g, gradient, hessian, np.array([0.1, -0.2]), np.array([0.3, 0.1]),
        quad_nodes=20,
    )
    return DiagnosticReport("taylor-remainder", residual, 1e-10,
                            details={"base": [0.1, -0.2], "shift": [0.3, 0.1]})


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
