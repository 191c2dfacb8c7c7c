"""The closed-form inversion the sweep runs for the hedged supremum.

The field W(t, a, b) — expected terminal shortfall plus accumulated constraint
penalty, with b the remaining cost margin — satisfies a degenerate-elliptic
equation whose diffusion hedge is unbounded.  Instead of a literal supremum
over hedges (which is +inf wherever the field is concave in the margin), the
node Hamiltonian is the largest eigenvalue of a small symmetric *arrowhead*
matrix built from the local derivatives:

    head = [[corner, arrow^T], [arrow, diag * I_r]]

* ``corner``  collects the scalar terms: time slope, constraint penalty,
  state drift, margin drift, and the state-diffusion trace;
* ``arrow``   is the rescaled diffusion/margin cross-curvature (length r);
* ``diag``    is the rescaled margin curvature, repeated over the noise axes.

The sweep drives that eigenvalue to a target at every node, so it needs only
the inverse map from the target back to the corner,
:func:`corner_for_eigenvalue`.  The forward assembly, the eigenvalue itself,
the node Hamiltonian and the sign audit are test references, in
``tests/references.py``.  The function has a module of its own so that a
caller can wrap it by name, as the layer trace of ``bench/`` does to time
the inversion apart from the rest of the step.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def corner_for_eigenvalue(
    target: float | Array, arrow_sq: float | Array, diag: float | Array
) -> float | Array:
    """Invert the top-eigenvalue formula for the corner entry.

    Returns the corner that makes the top eigenvalue equal ``target`` whenever
    that is possible, i.e. when ``target > diag``:

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
