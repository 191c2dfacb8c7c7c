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

The CSV writer prints every number as ``%.17g`` but encodes the values in
numpy blocks: +0.0 and the values in [1e-280, 1e280) get their 17 correctly
rounded digits from double-double arithmetic and ``%g``'s layout from a
table.  Where that arithmetic cannot prove the digits (within 2**-30 of a
rounding tie, or a misestimated exponent), and for -0.0, negatives, inf,
nan, subnormals and other magnitudes, the value goes through ``%.17g``
itself, so the bytes are those of the per-value ``%.17g``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import pathlib
from dataclasses import dataclass
from types import SimpleNamespace
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

@dataclass(frozen=True)
class Grid:
    """Uniform product grid over state axes, a margin axis, and time levels;
    it refuses an axis of fewer than 3 nodes, or not strictly increasing and
    uniform, naming it (``state[0]``, ``margin``, ``time``)."""

    state_axes: tuple[Array, ...]
    margin_axis: Array
    times: Array

    def __post_init__(self) -> None:
        # own the margin axis: the zero snap below must not reach the caller
        object.__setattr__(self, "margin_axis", np.array(self.margin_axis, dtype=float))
        named = {**{f"state[{i}]": axis for i, axis in enumerate(self.state_axes)},
                 "margin": self.margin_axis, "time": self.times}
        for name, axis in named.items():
            if axis.shape[0] < 3:
                raise DegenerateGrid(f"the {name} axis needs at least 3 nodes, "
                                     f"got {axis.shape[0]}")
            steps = np.diff(axis)
            if steps.min() <= 0:
                raise DegenerateGrid(f"the {name} axis must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise DegenerateGrid(f"the {name} axis must be uniform")
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
    """The grid of ``[low, high, count]`` state and margin axes and the
    level ``times``; :class:`Grid` refuses a count below 3 or ``high <= low``."""
    def axis(lo: float, hi: float, count: int) -> Array:
        # a negative count gives an empty axis, which Grid refuses
        return np.linspace(float(lo), float(hi), max(int(count), 0))

    return Grid(state_axes=tuple(axis(*r) for r in state_ranges),
                margin_axis=axis(*margin_range), times=np.asarray(times, dtype=float))


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

# The numpy encoder of ``%.17g``.  For v in [1e-280, 1e280), k estimates the
# decimal exponent and D = round(v * 10**(16 - k)) holds the 17 significant
# digits.  The product is taken in double-double arithmetic (10**p held as
# hi + lo, v * hi split exactly by Dekker's TwoProduct) with an error below
# 2**-46, and in that range no intermediate overflows or loses bits to
# underflow.  D is proven unless the product lies within _TIE of a rounding
# tie or D is not 17 digits long (k misestimated, or a round up to the next
# power of ten); an unproven value is formatted by ``%.17g`` itself.
_K_MIN, _K_MAX = -280, 280
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_TIE = 2.0 ** -30
# every digit layout reads one row of 32 bytes: digits 1..16 of D, its
# leading digit, then the literal bytes below from column 17 on
_LITERALS = b"\0.e+-0123456789"


def _layouts() -> Array:
    """For each decimal exponent k and count s of significant digits, the
    bytes of the 32-byte row that spell the ``%g`` text, NUL-padded to 24.

    The text is ``%g``'s rule applied to placeholder digits ``A`` (the
    leading one) to ``Q``: -4 <= k <= 16 in fixed notation with the
    fraction's trailing zeros stripped, any other k as ``d.ddde-XX`` with at
    least two exponent digits.  The last 18 rows spell +0.0 as ``0``.
    """
    places = b"ABCDEFGHIJKLMNOPQ"
    source = bytearray(range(256))
    for column, place in enumerate(places[1:]):
        source[place] = column
    source[places[0]] = 16
    for column, literal in enumerate(_LITERALS):
        source[literal] = 17 + column
    significant = [places[:max(s, 1)] for s in range(18)]
    mantissas = [d[:1] + b"." + d[1:] if len(d) > 1 else d for d in significant]
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        if 0 <= k <= 16:
            texts = []
            for digits in significant:
                whole, fraction = digits[:k + 1].ljust(k + 1, b"0"), digits[k + 1:]
                texts.append(whole + b"." + fraction if fraction else whole)
        elif -4 <= k < 0:
            texts = [b"0." + b"0" * (-k - 1) + digits for digits in significant]
        else:
            texts = [mantissa + b"e%+03d" % k for mantissa in mantissas]
        rows.append(b"".join([text.ljust(24, b"\0") for text in texts]).translate(source))
    rows.append((b"0".ljust(24, b"\0") * 18).translate(source))
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, 24)


@functools.cache
def _encoder_tables() -> SimpleNamespace:
    """What the encoder looks up, built from Python integers on first use,
    so importing costs nothing:

    - ``hi``, ``lo``: 10**(16 - k) rounded to a double, and the rest
      10**(16 - k) - hi rounded to a double, at index k - _K_MIN;
    - ``hi_head``, ``hi_tail``: hi's Veltkamp split, hi = hi_head + hi_tail;
    - ``groups``: (10000,) uint32, the four ASCII digits of 0..9999;
    - ``lengths``: (10000,) int16, a group's digits up to its last nonzero
      one, -16 for the group 0000;
    - ``layouts``: (rows * 18, 24) uint8, :func:`_layouts`, row
      (k - _K_MIN) * 18 + s.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 16 - k
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        head = num / den  # int / int rounds correctly
        a, b = head.as_integer_ratio()
        hi.append(head)
        lo.append((num * b - a * den) / (den * b))
    hi_array = np.array(hi)
    scaled = hi_array * _SPLIT
    hi_head = scaled - (scaled - hi_array)
    g = np.arange(10000, dtype=np.int16)
    places = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    last = np.where(places != 0, np.arange(1, 5, dtype=np.int16), -16).max(axis=1)
    return SimpleNamespace(
        hi=hi_array, hi_head=hi_head, hi_tail=hi_array - hi_head, lo=np.array(lo),
        groups=(places + ord("0")).astype(np.uint8).view(np.uint32)[:, 0],
        lengths=last, layouts=_layouts())


def _significand(values: Array) -> tuple[Array, Array, Array]:
    """For each value of a 1-D float64 array: the row of its decimal exponent
    k in the tables, its 17 significant digits D as an int64, and whether
    they are proven.  An unproven value's D is 10**16."""
    t = _encoder_tables()
    positive = (values >= 1e-280) & (values < 1e280)  # False for nan
    x = np.where(positive, values, 1.0)
    row = np.floor(np.log10(x)).astype(np.int64)
    np.clip(row, _K_MIN, _K_MAX, out=row)
    row -= _K_MIN

    # x * 10**(16 - k) = product + tail, product = fl(x * hi)
    hi, hi_head, hi_tail = t.hi[row], t.hi_head[row], t.hi_tail[row]
    product = x * hi
    scaled = x * _SPLIT
    x_head = scaled - (scaled - x)
    x_tail = x - x_head
    tail = (((x_head * hi_head - product) + x_head * hi_tail + x_tail * hi_head)
            + x_tail * hi_tail) + x * t.lo[row]
    floor = np.floor(tail)
    fraction = tail - floor
    # a product of 2**53 or more is an integer, so wherever low reaches
    # 1e16 it is the floor of x * 10**(16 - k), up to the 2**-46 error
    low = product.astype(np.int64) + floor.astype(np.int64)
    digits = low + (fraction > 0.5)
    proven = (positive & (low >= 10 ** 16) & (digits < 10 ** 17)
              & (np.abs(fraction - 0.5) > _TIE))
    return row, np.where(proven, digits, 10 ** 16), proven


def _spell(values: Array) -> tuple[list[bytes], Array]:
    """The ``%.17g`` text of each value of a 1-D float64 array, spelled in
    numpy, and the mask of the values whose text is proven; the text of
    any other value is meaningless."""
    t = _encoder_tables()
    row, digits, proven = _significand(values)
    zero = (values == 0.0) & ~np.signbit(values)
    row[zero] = _K_MAX - _K_MIN + 1  # the rows that spell +0.0

    # the leading digit, then four groups of four
    top = (digits // 10 ** 8).astype(np.uint32)
    bottom = (digits - top.astype(np.int64) * 10 ** 8).astype(np.uint32)
    lead = top // 10 ** 8
    top -= lead * 10 ** 8
    source = np.empty((values.shape[0], 32), dtype=np.uint8)
    words = source.view(np.uint32)
    count = np.ones(values.shape[0], dtype=np.int64)  # digits up to the last nonzero
    for i, group in enumerate((top // 10 ** 4, top % 10 ** 4,
                               bottom // 10 ** 4, bottom % 10 ** 4)):
        np.take(t.groups, group, out=words[:, i])
        np.maximum(count, t.lengths[group] + 4 * i + 1, out=count)
    source[:, 16] = lead + ord("0")
    source[:, 17:] = np.frombuffer(_LITERALS, dtype=np.uint8)

    # gather the text 1024 rows at a time: a byte's flat index takes 8 bytes
    layout = np.take(t.layouts, row * 18 + count, axis=0)
    text = np.empty_like(layout)
    offsets = np.arange(0, 32 * 1024, 32)[:, None]
    for start in range(0, values.shape[0], 1024):
        part = layout[start:start + 1024]
        np.take(source[start:start + 1024].ravel(), part + offsets[:part.shape[0]],
                out=text[start:start + 1024])
    return text.view("S24").ravel().tolist(), proven | zero


def _encode(values: Array) -> list[bytes]:
    """``[b"%.17g" % v for v in values]`` for a 1-D float64 array: the text
    :func:`_spell` proves, and ``%.17g`` itself for every other value."""
    encoded, proven = _spell(values)
    slow = np.flatnonzero(~proven)
    for i, value in zip(slow.tolist(), values[slow].tolist()):
        encoded[i] = b"%.17g" % value
    return encoded


def write_csv(path: str, values: Array, axes: Sequence[Array], header: Sequence[str]) -> None:
    """Write ``values`` in long form as CSV, every number as ``%.17g`` (exact
    round trip), lines ending in CRLF as the csv module ends them.

    ``values`` holds one entry per node of the product grid of ``axes`` in
    ``ij`` order (read flat), and each line is that node's coordinates and
    its value; each axis value is formatted once, not once per line.
    ``header`` is the first line.  Values are encoded ``_VALUES_PER_WRITE``
    at a time (but at least one run along the last axis), which bounds the
    memory held.  The encoder (:func:`_encode`) spells +0.0 and every value
    in [1e-280, 1e280) whose 17 digits it can prove in numpy; the rest
    (-0.0, negatives, inf, nan, subnormals, other magnitudes and values
    within 2**-30 of a rounding tie) go through ``%.17g`` one by one.  The
    digits it proves are the correctly rounded ones ``%.17g`` prints, and
    the layout is ``%g``'s, so the bytes are the same.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    *outer, inner = axes
    prefixes = [b""]
    for axis in outer:
        texts = [b"%.17g," % x for x in axis.tolist()]
        prefixes = [p + t for p in prefixes for t in texts]
    run = [b"%.17g,%%s\r\n" % x for x in inner.tolist()]
    if len(prefixes) * len(run) != flat.shape[0]:
        raise ValueError(f"{flat.shape[0]} rows do not match the axes' "
                         f"{len(prefixes) * len(run)} nodes")
    step = max(1, _VALUES_PER_WRITE // len(run))
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(prefixes), step):
            block = prefixes[start:start + step]
            # lines of one prefix: p + run[0] + p + run[1] + ... = p + p.join(run)
            template = b"".join([p + p.join(run) for p in block])
            values_block = flat[start * len(run):(start + len(block)) * len(run)]
            handle.write(template % tuple(_encode(values_block)))


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
    trailing newline, the one layout of every JSON file a run writes.  Numpy
    arrays and scalars in it are written as the lists and numbers they hold."""
    with _replaced(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=lambda obj: obj.tolist())
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
            f"{json_path} was written on another grid, for another problem, "
            f"or by an older version; start the run afresh"
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
