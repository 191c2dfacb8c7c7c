"""Recovering the required margin from a solved shortfall field.

The constrained value at a state is the smallest initial margin from which
the shortfall field vanishes.  On a grid "vanishes" means "drops to a
threshold epsilon or below": a plain positive, finite number, the field's
own ``field.epsilon`` unless the reader passes another.  The crossing is
placed by linear interpolation between the bracketing margin nodes.  States
whose shortfall never drops to the threshold within the margin range are
unreachable at any budget the grid covers; they are reported as
``math.inf`` rather than clamped to the top of the axis.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Field

Array = np.ndarray

#: Sentinel for "no margin on the grid suffices"; serialized as "inf".
UNREACHABLE = math.inf


def default_epsilon(terminal: Array) -> float:
    """Tolerance scaled to the terminal slice: 1e-3 of (1 + its largest value)."""
    return 1e-3 * (1.0 + float(terminal.max()))


def required_margin_profile(field: Field, level: int = 0,
                            epsilon: float | None = None) -> Array:
    """Required margin over the whole state grid at one time level.

    The result has the state grid's shape; unreachable states hold inf.  It
    is the one reader of the level set: one state's margin is
    ``required_margin_profile(field, level)[index]``, and the reachable
    (state, margin) nodes are ``field.slice_at(level) <= field.epsilon``.
    ``epsilon`` is the threshold, which must be positive and finite; None
    reads with the field's own.
    """
    epsilon = field.epsilon if epsilon is None else epsilon
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    values = field.slice_at(level)
    jz = field.grid.margin_zero_index
    margin = field.grid.margin_axis[jz:]
    rows = values.reshape(-1, values.shape[-1])[:, jz:]
    hit = rows <= epsilon
    found = hit.any(axis=1)
    j = hit.argmax(axis=1)

    out = np.full(rows.shape[0], UNREACHABLE)
    out[found & (j == 0)] = margin[0]

    inner = np.flatnonzero(found & (j > 0))
    if inner.size:
        ji = j[inner]
        b_hi = margin[ji]
        w_lo = rows[inner, ji - 1]
        w_hi = rows[inner, ji]
        b_lo = margin[ji - 1]
        # zero of the secant through the bracketing nodes; when the field is
        # still positive at the upper node the line crosses beyond it, so
        # never report past the node that qualified
        root = b_lo + w_lo * (b_hi - b_lo) / (w_lo - w_hi)
        out[inner] = np.minimum(root, b_hi)
    return out.reshape(values.shape[:-1])
