"""Node-local Hamiltonian machinery for the margin-augmented dynamic program.

The field W(t, a, b) — expected terminal shortfall plus accumulated constraint
penalty, with b the remaining cost margin — satisfies a degenerate-elliptic
equation whose diffusion hedge is unbounded.  Instead of a literal supremum
over hedges (which is +inf wherever the field is concave in the margin), the
node Hamiltonian is expressed through the largest eigenvalue of a small
symmetric *arrowhead* matrix built from the local derivatives:

    head = [[corner, arrow^T], [arrow, diag * I_r]]

* ``corner``  collects the scalar terms: time slope, constraint penalty,
  state drift, margin drift, and the state-diffusion trace;
* ``arrow``   is the rescaled diffusion/margin cross-curvature (length r);
* ``diag``    is the rescaled margin curvature, repeated over the noise axes.

The rescaling uses ``coupling_scale(b) = max(1, b)``, which keeps the matrix
entries bounded as the margin grows without changing the sign of the top
eigenvalue.  Jump terms enter additively through a compensated nonlocal
operator maximized over a per-atom grid of margin jump hedges.

The full node Hamiltonian is::

    H(node) = max over controls u of [ top_eigenvalue(head(u)) + best jump term(u) ]

and the backward scheme drives H to zero at every interior node.  Everything
here is pure and allocation-light: these are the reference per-node
operations; the solver runs an equivalent sweep over whole arrays, and
``tests/test_solver.py::_sweep_residuals`` checks that the sweep's slope
makes :func:`hamiltonian_at_node` vanish at random interior nodes, with and
without diffusion and jumps.  The check covers the frozen hedge with jumps,
not the spectral one: there the sweep inverts the arrowhead with the jump
compensator inside the corner, while this module adds it after the top
eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NegativeMargin
from .model import Coefficients, Problem, eval_coefficients

Array = np.ndarray
FieldEval = Callable[[Array, float], float]


# ---------------------------------------------------------------------------
# local derivative data
# ---------------------------------------------------------------------------

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
        raise NegativeMargin(f"coupling scale needs margin >= 0, got {b.min()}")
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


def corner_for_eigenvalue(
    target: float | Array, arrow_sq: float | Array, diag: float | Array
) -> float | Array:
    """Invert the top-eigenvalue formula for the corner entry.

    Returns the corner making ``top_eigenvalue == target`` whenever that is
    possible, i.e. when ``target > diag``:

        corner = target - arrow_sq / (target - diag).

    When ``target <= diag`` the top eigenvalue sits at or above ``diag`` for
    every corner, so no corner attains the target; the quadratic form then has
    no zero crossing in the hedge and the scheme falls back to the unhedged
    branch, whose Hamiltonian is the corner itself — hence ``corner = target``.
    (With ``arrow_sq == 0`` and ``target == diag`` this fallback is also the
    exact largest root.)
    """
    target = np.asarray(target, dtype=float)
    diag = np.asarray(diag, dtype=float)
    arrow_sq = np.asarray(arrow_sq, dtype=float)
    gap = target - diag
    feasible = gap > 0.0
    correction = np.where(feasible, arrow_sq / np.where(feasible, gap, 1.0), 0.0)
    out = target - correction
    return float(out) if out.ndim == 0 else out


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
