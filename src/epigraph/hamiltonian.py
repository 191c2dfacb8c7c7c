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
here is pure and allocation-light: these are the per-node operations that
the sweep (:func:`corner_for_eigenvalue`) and the verify battery's sign
check (:func:`assemble_arrowhead`, :func:`top_eigenvalue`) use.  The node
Hamiltonian itself, the jump terms and a brute-force hedge search are test
references, in ``tests/references.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeMargin
from .model import Coefficients

Array = np.ndarray


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
