"""Grids, value fields, interpolation, snapshot files and CSV exports.

A :class:`Grid` is uniform per axis: one or more state axes, one margin axis
that must contain 0 (and may extend below it — the negative slab exists only
as a consistency diagnostic), and a uniform time axis ending exactly at the
horizon.  A :class:`Field` holds the shortfall's (state..., margin) slices at
the time levels a sweep kept.  A snapshot is one time slice as metadata JSON
plus an exact ``.npy`` array, stamped with the digest of the inputs that
produced it so a resumed sweep restarts only from its own problem's slices.
The long-form CSV exports go through :func:`write_csv`, every JSON file
through :func:`write_json`; the JSON files and the slices' ``.npy`` files are
replaced whole or not at all.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
from dataclasses import dataclass
from typing import IO, Any, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateGrid,
    EpigraphError,
    IncompatibleGrids,
    UnsolvedField,
)
from .model import Problem, eval_terminal

Array = np.ndarray


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def _uniform_axis(lo: float, hi: float, count: int, label: str) -> Array:
    if count < 3:
        raise DegenerateGrid(f"{label} axis needs at least 3 nodes, got {count}")
    if not hi > lo:
        raise DegenerateGrid(f"{label} axis needs hi > lo, got [{lo}, {hi}]")
    return np.linspace(float(lo), float(hi), int(count))


@dataclass(frozen=True)
class Grid:
    """Uniform product grid over state axes, a margin axis, and time levels."""

    state_axes: tuple[Array, ...]
    margin_axis: Array
    times: Array

    def __post_init__(self) -> None:
        # own the margin axis: the zero snap below must not reach the caller
        object.__setattr__(self, "margin_axis", np.array(self.margin_axis, dtype=float))
        for axis in (*self.state_axes, self.margin_axis, self.times):
            steps = np.diff(axis)
            if axis.shape[0] < 3:
                raise DegenerateGrid("every grid axis needs at least 3 nodes")
            if steps.size == 0 or steps.min() <= 0:
                raise DegenerateGrid("grid axes must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise DegenerateGrid("grid axes must be uniform")
        gaps = np.abs(self.margin_axis)
        zero = int(np.argmin(gaps))
        if gaps[zero] > 1e-9 * (self.margin_axis[-1] - self.margin_axis[0]):
            raise DegenerateGrid("the margin axis must contain 0")
        if zero == self.margin_axis.shape[0] - 1:
            # the top column follows the ceiling's rule, not the floor's
            raise DegenerateGrid("the margin axis must extend above 0")
        self.margin_axis[zero] = 0.0  # snap away any roundoff
        if self.times[0] != 0.0:
            raise DegenerateGrid("the time axis must start at 0")

    # -- geometry ----------------------------------------------------------

    @property
    def dim_state(self) -> int:
        return len(self.state_axes)

    @property
    def state_shape(self) -> tuple[int, ...]:
        return tuple(axis.shape[0] for axis in self.state_axes)

    @property
    def state_spacings(self) -> tuple[float, ...]:
        return tuple(float(axis[1] - axis[0]) for axis in self.state_axes)

    @property
    def margin_spacing(self) -> float:
        return float(self.margin_axis[1] - self.margin_axis[0])

    @property
    def margin_zero_index(self) -> int:
        return int(np.argmin(np.abs(self.margin_axis)))

    @property
    def n_levels(self) -> int:
        return int(self.times.shape[0])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def state_mesh(self) -> Array:
        """All state nodes as rows, shape (prod(state_shape), dim_state)."""
        mesh = np.meshgrid(*self.state_axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def time_axis(horizon: float, max_dt: float) -> Array:
    """Uniform levels 0..horizon with spacing at most ``max_dt``."""
    if max_dt <= 0 or not np.isfinite(max_dt):
        raise DegenerateGrid(f"time step bound must be a positive finite number, got {max_dt}")
    n_steps = max(2, int(np.ceil(horizon / max_dt - 1e-12)))
    return np.linspace(0.0, float(horizon), n_steps + 1)


def make_grid(
    state_ranges: Sequence[tuple[float, float, int]],
    margin_range: tuple[float, float, int],
    times: Array,
) -> Grid:
    state_axes = tuple(
        _uniform_axis(lo, hi, count, f"state[{i}]")
        for i, (lo, hi, count) in enumerate(state_ranges)
    )
    margin_axis = _uniform_axis(*margin_range, "margin")
    return Grid(state_axes=state_axes, margin_axis=margin_axis,
                times=np.asarray(times, dtype=float))


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def interp_state(values: Array, axes: tuple[Array, ...], points: Array) -> Array:
    """Multilinear interpolation over the leading state axes of ``values``.

    ``values`` has shape (*state_shape, tail...); ``points`` is (N, n).
    Returns (N, tail...).  Out-of-hull points are clamped to the boundary.
    Clamping keeps interpolation weights nonnegative, which the sweep's
    monotonicity relies on.
    """
    rows = values.reshape(-1, *values.shape[len(axes):])
    return _apply_stencil(rows, _interp_stencil(axes, points))


_Corners = list[tuple[Array, Array]]


def _interp_stencil(axes: tuple[Array, ...], points: Array) -> _Corners:
    """The multilinear stencil of ``points`` (N, n) on the grid ``axes``: one
    (flat node index, weight) pair per cell corner, the index running over
    the grid's nodes in ``ij`` order.  It depends on the points alone, so a
    caller that interpolates many slices at the same points builds it once."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(axes)
    if points.shape[1] != n:
        raise ValueError(f"points have dimension {points.shape[1]}, grid has {n}")

    lows = np.empty((points.shape[0], n), dtype=np.int64)
    fracs = np.empty((points.shape[0], n))
    for i, axis in enumerate(axes):
        h = axis[1] - axis[0]
        rel = np.clip((points[:, i] - axis[0]) / h, 0.0, axis.shape[0] - 1)
        lo = np.minimum(rel.astype(np.int64), axis.shape[0] - 2)
        lows[:, i] = lo
        fracs[:, i] = rel - lo

    shape = tuple(axis.shape[0] for axis in axes)
    stencil = []
    for corner in itertools.product((0, 1), repeat=n):
        weight = np.ones(points.shape[0])
        for i, c in enumerate(corner):
            weight = weight * (fracs[:, i] if c else 1.0 - fracs[:, i])
        index = np.ravel_multi_index(tuple(lows[:, i] + corner[i] for i in range(n)), shape)
        stencil.append((index, weight))
    return stencil


def _apply_stencil(rows: Array, stencil: _Corners, out: Array | None = None,
                   gather: Array | None = None) -> Array:
    """The stencil's weighted sum of ``rows`` (state nodes in ``ij`` order,
    tail...): (N, tail...).  ``out`` and ``gather`` are buffers of that shape
    to write into; None allocates them."""
    first_weight = stencil[0][1]
    tail = rows.shape[1:]
    shape = (first_weight.shape[0], *tail)
    out = np.empty(shape) if out is None else out
    gather = np.empty(shape) if gather is None else gather
    out.fill(0.0)
    for index, weight in stencil:
        # every index is on the grid; "clip" takes without a buffered copy
        np.take(rows, index, axis=0, out=gather, mode="clip")
        gather *= weight.reshape(-1, *([1] * len(tail)))
        out += gather
    return out


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass
class Field:
    """The shortfall at the time levels a sweep kept.

    ``slices`` maps each kept level to its (state..., margin) slice, and any
    other level raises :class:`UnsolvedField`.  ``epsilon`` is the level-set
    readers' default threshold, scaled to the terminal slice (see
    :func:`epigraph.levelset.default_epsilon`).
    """

    grid: Grid
    slices: dict[int, Array]
    epsilon: float

    @property
    def levels(self) -> list[int]:
        return sorted(self.slices)

    def slice_at(self, level: int) -> Array:
        if not 0 <= level < self.grid.n_levels:
            raise IndexError(f"time level {level} outside 0..{self.grid.n_levels - 1}")
        if level not in self.slices:
            raise UnsolvedField(f"the field keeps levels {self.levels}, level {level} requested")
        return self.slices[level]

    def evaluate(self, level: int, points: Array, margins: Array | float) -> Array:
        """Interpolated field values at arbitrary (state, margin) points,
        clamped to the grid hull."""
        data = self.slice_at(level)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        margins = np.full(points.shape[0], np.ravel(margins), dtype=float)
        joint_axes = (*self.grid.state_axes, self.grid.margin_axis)
        joint_points = np.concatenate([points, margins[:, None]], axis=1)
        return interp_state(data, joint_axes, joint_points)


def terminal_slice(problem: Problem, grid: Grid) -> Array:
    """Terminal data, the slice the sweep starts from: the shortfall of the
    terminal cost against the margin.

    max{m(a) - b, 0}; below-zero margins land on the linear branch
    automatically since m >= 0.  The top column is the ceiling, which stands
    for b = +inf, so it holds 0 even where m(a) exceeds the top margin.
    """
    m_vals = eval_terminal(problem, grid.state_mesh()).reshape(grid.state_shape)
    slab = np.maximum(m_vals[..., None] - grid.margin_axis, 0.0)
    slab[..., -1] = 0.0  # the ceiling's terminal datum
    return slab


# ---------------------------------------------------------------------------
# snapshots and the JSON and CSV writers
# ---------------------------------------------------------------------------

def _axes_meta(grid: Grid) -> dict[str, Any]:
    """The grid's axes as ``[first, last, count]`` triples."""
    return {
        "state_axes": [
            [float(axis[0]), float(axis[-1]), int(axis.shape[0])]
            for axis in grid.state_axes
        ],
        "margin_axis": [
            float(grid.margin_axis[0]),
            float(grid.margin_axis[-1]),
            int(grid.margin_axis.shape[0]),
        ],
        "times": [0.0, float(grid.times[-1]), int(grid.n_levels)],
    }


_VALUES_PER_WRITE = 4096


def write_csv(path: str, table: Array, axes: Sequence[Array], header: Sequence[str]) -> None:
    """Write ``table`` in long form as CSV, every number as ``%.17g`` (exact
    round trip), lines ending in CRLF as the csv module ends them.

    ``table`` holds one row per node of the product grid of ``axes`` in
    ``ij`` order, and each line starts with that node's coordinates; each
    axis value is formatted once, not once per line.  ``header`` is the
    first line.  Values are formatted ``_VALUES_PER_WRITE`` at a time (but at
    least one run along the last axis), which bounds the memory held.
    """
    width = table.shape[1]
    line = ",".join(["%.17g"] * width) + "\r\n"
    *outer, inner = axes
    prefixes = [""]
    for axis in outer:
        texts = ["%.17g," % x for x in axis.tolist()]
        prefixes = [p + t for p in prefixes for t in texts]
    run = ["%.17g," % x + line for x in inner.tolist()]
    if len(prefixes) * len(run) != table.shape[0]:
        raise ValueError(f"{table.shape[0]} rows do not match the axes' "
                         f"{len(prefixes) * len(run)} nodes")
    per_prefix = len(run) * width
    step = max(1, _VALUES_PER_WRITE // per_prefix)
    flat = table.reshape(-1)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, len(prefixes), step):
            block = prefixes[start:start + step]
            # lines of one prefix: p + run[0] + p + run[1] + ... = p + p.join(run)
            template = "".join([p + p.join(run) for p in block])
            values = flat[start * per_prefix:(start + len(block)) * per_prefix]
            handle.write(template % tuple(values.tolist()))


@contextlib.contextmanager
def _replaced(path: str | pathlib.Path, mode: str) -> Iterator[IO[Any]]:
    """Write through ``<path>.tmp`` and move it onto ``path`` once the block
    completes, so ``path`` is the old file or the whole new one.  On any
    exception, ``KeyboardInterrupt`` too, the temp file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        pathlib.Path(tmp).unlink(missing_ok=True)
        raise


def write_json(path: str | pathlib.Path, payload: Any) -> None:
    """Write ``payload`` as JSON with sorted keys, one-space indent and a
    trailing newline, the one layout of every JSON file a run writes."""
    with _replaced(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def save_snapshot(grid: Grid, level: int, values: Array, prefix: str,
                  inputs: str) -> tuple[str, str]:
    """Write the shortfall slice ``values`` at time level ``level`` as
    metadata JSON plus the exact values in NumPy's binary ``.npy`` form.

    Returns the two paths.  The metadata holds the level, its time, the
    grid's axes and ``inputs``, the caller's digest of what the sweep read,
    which :func:`load_snapshot` compares.  Each file is replaced atomically
    and the ``.json`` goes last, so a slice on disk is whole or absent.
    """
    json_path = f"{prefix}.json"
    npy_path = f"{prefix}.npy"
    # into a handle: np.save on a path would append .npy to the temp name
    with _replaced(npy_path, "wb") as handle:
        np.save(handle, values)
    write_json(json_path, {
        "level": int(level),
        "time": float(grid.times[level]),
        **_axes_meta(grid),
        "inputs": inputs,
    })
    return json_path, npy_path


def load_snapshot(prefix: str, grid: Grid, inputs: str) -> tuple[int, Array] | None:
    """Read a slice written by :func:`save_snapshot` for ``grid`` and ``inputs``.

    Returns (level, shortfall slice), or None when there is no such slice.
    Raises :class:`IncompatibleGrids` when it was written for another grid or
    other inputs, or holds values of another shape or dtype, and
    :class:`EpigraphError` for an unreadable file.
    """
    json_path = pathlib.Path(f"{prefix}.json")
    npy_path = pathlib.Path(f"{prefix}.npy")
    if not (json_path.exists() and npy_path.exists()):
        return None
    try:
        meta = json.loads(json_path.read_text())
    except ValueError as exc:
        raise EpigraphError(f"{json_path} is not a readable slice: {exc}") from exc
    if any(meta.get(k) != v for k, v in {**_axes_meta(grid), "inputs": inputs}.items()):
        raise IncompatibleGrids(
            f"{json_path} was written on another grid, for another problem or "
            f"scheme, or by an older version; start the run afresh"
        )
    try:
        values = np.load(npy_path, allow_pickle=False)
    except ValueError as exc:
        raise EpigraphError(f"{npy_path} is not a readable slice: {exc}") from exc
    shape = (*grid.state_shape, grid.margin_axis.shape[0])
    if values.dtype != np.float64 or values.shape != shape:
        raise IncompatibleGrids(
            f"{npy_path} holds {values.dtype} values of shape {values.shape}; "
            f"the grid needs float64 values of shape {shape}"
        )
    return int(meta["level"]), values
