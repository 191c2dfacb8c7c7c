"""Recovering the required margin from a solved shortfall field.

The constrained value at a state is the smallest initial margin from which
the shortfall field vanishes.  On a grid "vanishes" means "drops below a
small tolerance", and the crossing is placed by linear interpolation
between the bracketing margin nodes.  States whose shortfall never drops
below the tolerance within the margin range are unreachable at any budget
the grid covers; they are reported as ``math.inf`` rather than clamped to
the top of the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field

Array = np.ndarray

#: Sentinel for "no margin on the grid suffices"; serialized as "inf".
UNREACHABLE = math.inf


@dataclass(frozen=True)
class LevelSetQuery:
    """How to read the zero level set off a discrete field.

    epsilon
        Threshold below which the shortfall counts as zero.  Must be
        positive: the exact zero set is unattainable under discretization
        error.
    """

    epsilon: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")


def default_epsilon(terminal: Array) -> float:
    """Tolerance scaled to the terminal slice: 1e-3 of (1 + its largest value)."""
    return 1e-3 * (1.0 + float(terminal.max()))


def _resolve_query(field: Field, query: LevelSetQuery | None) -> LevelSetQuery:
    return LevelSetQuery(epsilon=field.epsilon) if query is None else query


def _scan_rows(rows: Array, margin: Array, query: LevelSetQuery) -> Array:
    """Smallest covered margin per row of shortfall values over ``margin``.

    ``rows`` has shape (N, len(margin)) with ``margin`` already restricted
    to its nonnegative part.  Returns shape (N,) with inf where no node
    qualifies.
    """
    hit = rows <= query.epsilon
    found = hit.any(axis=1)
    j = hit.argmax(axis=1)

    out = np.full(rows.shape[0], UNREACHABLE)
    on_node = found & (j == 0)
    out[on_node] = margin[0]

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
    return out


def extract_required_margin(
    field: Field,
    level: int,
    state_index: int | tuple[int, ...],
    query: LevelSetQuery | None = None,
) -> float:
    """Smallest margin at one grid state from which the shortfall vanishes.

    Returns ``UNREACHABLE`` (= inf) when no margin on the grid suffices.
    """
    query = _resolve_query(field, query)
    values = field.slice_at(level)
    if isinstance(state_index, (int, np.integer)):
        state_index = (int(state_index),)
    if len(state_index) != field.grid.dim_state:
        raise ValueError(f"state index {tuple(state_index)} needs dim_state = "
                         f"{field.grid.dim_state} entries")
    row = values[tuple(state_index)]
    jz = field.grid.margin_zero_index
    return float(_scan_rows(row[None, jz:], field.grid.margin_axis[jz:], query)[0])


def reachable_slice(
    field: Field, level: int, query: LevelSetQuery | None = None
) -> Array:
    """Boolean mask over (state, margin) nodes where the shortfall is ~zero."""
    query = _resolve_query(field, query)
    return field.slice_at(level) <= query.epsilon


def required_margin_profile(
    field: Field, level: int = 0, query: LevelSetQuery | None = None
) -> Array:
    """Required margin over the whole state grid at one time level.

    The result has the state grid's shape; unreachable states hold inf.
    """
    query = _resolve_query(field, query)
    values = field.slice_at(level)
    jz = field.grid.margin_zero_index
    nb = values.shape[-1]
    rows = values.reshape(-1, nb)[:, jz:]
    flat = _scan_rows(rows, field.grid.margin_axis[jz:], query)
    return flat.reshape(values.shape[:-1])
