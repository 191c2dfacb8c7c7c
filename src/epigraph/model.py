"""Problem descriptions: controlled jump-diffusion dynamics plus costs.

A :class:`Problem` bundles everything the solver and the Monte Carlo engine
need about one control problem:

* dynamics — drift ``f(t, a, u)``, diffusion ``sigma(t, a, u)`` and a finite
  jump model (atoms ``e_k`` with intensities ``w_k``) with jump amplitude
  ``chi(t, a, u, e_k)``;
* costs — running cost ``l(t, a, u) >= 0`` and terminal cost ``m(a) >= 0``;
* the constraint region, represented through its distance function
  ``d(a) >= 0`` (zero exactly on the region).

Coefficients are plain Python callables that take a batch of states of shape
``(N, n)`` and return one row per state: drift ``(N, n)``, diffusion
``(N, n, r)``, jump amplitude ``(N, n)``, running and terminal cost ``(N,)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Mapping

import numpy as np

from .errors import (
    EmptyControlGrid,
    MissingField,
    NegativeDistance,
    NegativeWeight,
    NonFiniteCoefficient,
    NonpositiveHorizon,
)

Array = np.ndarray


# ---------------------------------------------------------------------------
# jump model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpModel:
    """Finite activity jump measure: atoms ``marks[k]`` with weights ``weights[k]``.

    ``weights`` are the Poisson intensities of the individual atoms; the total
    mass is their sum and must be finite (guaranteed here by finiteness of the
    entries).  Only finite-activity measures are represented: every atom is
    evaluated exactly, so a singular (infinite-activity) Levy measure, which
    would need a small-jump truncation, cannot be stated.
    """

    marks: Array
    weights: Array

    def __post_init__(self) -> None:
        marks = np.atleast_1d(np.asarray(self.marks, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if marks.shape[0] != weights.shape[0]:
            raise ValueError(
                f"jump model has {marks.shape[0]} marks but {weights.shape[0]} weights"
            )
        if not np.all(np.isfinite(marks)):
            raise NonFiniteCoefficient("jump marks must be finite")
        if not np.all(np.isfinite(weights)):
            raise NonFiniteCoefficient("jump weights must be finite")
        if weights.size and weights.min() <= 0.0:
            raise NegativeWeight(f"jump weights must be > 0, got {weights.min()}")
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self) -> int:
        return int(self.weights.shape[0])

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


EMPTY_JUMPS = JumpModel(marks=np.zeros((0,)), weights=np.zeros((0,)))


# ---------------------------------------------------------------------------
# constraint region
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Constraint region, carried as its Euclidean distance function.

    Built-in kinds (all exact distances, hence 1-Lipschitz):

    - ``all``:        whole space, distance identically zero,
    - ``box``:        axis-aligned box ``lo <= a <= hi``,
    - ``ball``:       ``|a - center| <= radius``,
    - ``halfspace``:  ``normal . a <= offset``,
    - ``point``:      the single point ``center``,
    - ``callable``:   a user distance function (validated nonnegative).

    :attr:`FIELDS` lists the fields each kind reads besides ``kind``; a
    kind's field left at None is refused with :class:`MissingField`.
    """

    kind: str = "all"
    lo: Array | None = None
    hi: Array | None = None
    center: Array | None = None
    radius: float = 0.0
    normal: Array | None = None
    offset: float = 0.0
    func: Callable[[Array], Any] | None = None

    FIELDS: ClassVar[dict[str, tuple[str, ...]]] = {
        "all": (), "box": ("lo", "hi"), "ball": ("center", "radius"),
        "halfspace": ("normal", "offset"), "point": ("center",), "callable": ("func",),
    }

    def __post_init__(self) -> None:
        kinds = tuple(self.FIELDS)
        if self.kind not in kinds:
            raise ValueError(f"unknown region kind {self.kind!r}; expected one of {kinds}")
        missing = [name for name in self.FIELDS[self.kind] if getattr(self, name) is None]
        if missing:
            raise MissingField(f"{self.kind} region needs {' and '.join(missing)}")
        inverted = self.kind == "box" and np.greater(self.lo, self.hi)
        if np.any(inverted):
            i = int(np.argmax(inverted))
            raise ValueError(f"lo[{i}] must be <= hi[{i}], got {self.lo[i]} > {self.hi[i]}")
        if self.kind == "ball" and self.radius < 0.0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.kind == "halfspace" and not np.any(self.normal):
            raise ValueError("normal must be nonzero")

    def distance(self, a: Array) -> Array:
        """Distance from each state row to the region; accepts (n,) or (N, n)."""
        pts = np.atleast_2d(np.asarray(a, dtype=float))
        if self.kind == "all":
            out = np.zeros(pts.shape[0])
        elif self.kind == "box":
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            excess = np.maximum(lo - pts, 0.0) + np.maximum(pts - hi, 0.0)
            out = np.linalg.norm(excess, axis=1)
        elif self.kind == "ball":
            gap = np.linalg.norm(pts - np.asarray(self.center, dtype=float), axis=1)
            out = np.maximum(gap - float(self.radius), 0.0)
        elif self.kind == "halfspace":
            normal = np.asarray(self.normal, dtype=float)
            out = np.maximum(pts @ normal - float(self.offset), 0.0) / np.linalg.norm(normal)
        elif self.kind == "point":
            out = np.linalg.norm(pts - np.asarray(self.center, dtype=float), axis=1)
        else:  # callable
            out = _rows("distance", (pts.shape[0],), self.func, pts)
        if not np.all(np.isfinite(out)):
            raise NonFiniteCoefficient("distance returned a non-finite value")
        if out.size and out.min() < 0.0:
            raise NegativeDistance(f"distance returned {out.min()}")
        if np.asarray(a).ndim == 1:
            return out[0]
        return out


# ---------------------------------------------------------------------------
# the problem itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """A state-constrained control problem for a jump diffusion.

    ``autonomous`` declares that no coefficient depends on t: the sweep then
    evaluates the coefficients once per solve instead of once per level, and
    the default step reads them at one time instead of three.
    """

    dim_state: int
    dim_noise: int
    horizon: float
    drift: Callable[..., Any]
    diffusion: Callable[..., Any]
    jump_size: Callable[..., Any]
    running_cost: Callable[..., Any]
    terminal_cost: Callable[..., Any]
    controls: Array
    jumps: JumpModel = EMPTY_JUMPS
    region: Region = field(default_factory=Region)
    name: str = ""
    autonomous: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", _control_grid(self.controls))

    def distance(self, a: Array) -> Array:
        return self.region.distance(a)


def _control_grid(raw: Any) -> Array:
    """Normalize a control grid to shape (m, du); a flat list is m scalars."""
    grid = np.asarray(raw, dtype=float)
    if grid.ndim <= 1:
        grid = grid.reshape(-1, 1)
    return grid


_REQUIRED = ("dim_state", "dim_noise", "horizon", "terminal_cost", "controls")


def build_problem(fields: Mapping[str, Any] | None = None, **kwargs: Any) -> Problem:
    """Validate raw problem fields and construct a :class:`Problem`.

    Accepts either a mapping or keyword arguments.  Dynamics default to zero
    (no drift, no noise, no jumps) and the running cost defaults to zero, so a
    minimal problem needs only dimensions, a horizon, a terminal cost and a
    control grid.  A key that names no :class:`Problem` field raises
    ``TypeError``.  ``autonomous`` defaults to False: the coefficients are
    then evaluated at every level, which is right for any callables.
    """
    raw = dict(fields or {})
    raw.update(kwargs)
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(Problem)})
    if unknown:
        raise TypeError(f"build_problem got unknown field(s): {', '.join(map(repr, unknown))}")

    for key in _REQUIRED:
        if key not in raw or raw[key] is None:
            raise MissingField(f"problem field {key!r} is required")

    n = int(raw["dim_state"])
    r = int(raw["dim_noise"])
    if n < 1:
        raise ValueError(f"dim_state must be >= 1, got {n}")
    if r < 1:
        raise ValueError(f"dim_noise must be >= 1, got {r}")

    horizon = float(raw["horizon"])
    if not math.isfinite(horizon) or horizon <= 0.0:
        raise NonpositiveHorizon(f"horizon must be a finite positive number, got {horizon}")

    controls = _control_grid(raw["controls"])
    if controls.size == 0:
        raise EmptyControlGrid("the control grid must contain at least one point")
    if not np.all(np.isfinite(controls)):
        raise NonFiniteCoefficient("control grid entries must be finite")

    jumps = raw.get("jumps") or EMPTY_JUMPS
    if not isinstance(jumps, JumpModel):
        jumps = JumpModel(**jumps)

    region = raw.get("region") or Region()
    if not isinstance(region, Region):
        region = Region(**region)

    zero_drift = lambda t, a, u: np.zeros_like(np.atleast_2d(a))  # noqa: E731
    zero_diff = lambda t, a, u: np.zeros(np.atleast_2d(a).shape + (r,))  # noqa: E731
    zero_jump = lambda t, a, u, e: np.zeros_like(np.atleast_2d(a))  # noqa: E731
    zero_run = lambda t, a, u: np.zeros(np.atleast_2d(a).shape[0])  # noqa: E731

    return Problem(
        dim_state=n,
        dim_noise=r,
        horizon=horizon,
        drift=raw.get("drift") or zero_drift,
        diffusion=raw.get("diffusion") or zero_diff,
        jump_size=raw.get("jump_size") or zero_jump,
        running_cost=raw.get("running_cost") or zero_run,
        terminal_cost=raw["terminal_cost"],
        controls=controls,
        jumps=jumps,
        region=region,
        name=str(raw.get("name", "")),
        autonomous=bool(raw.get("autonomous", False)),
    )


# ---------------------------------------------------------------------------
# coefficient evaluation
# ---------------------------------------------------------------------------

def _rows(label: str, shape: tuple[int, ...], func: Callable[..., Any], *args: Any) -> Array:
    """Call a coefficient on a state batch; its output as one row per state.

    A callable written for one state at a time either fails on the batch or
    returns the wrong number of values; both raise a ``ValueError`` that
    names the coefficient and the batch contract.
    """
    contract = "coefficient callables take (N, n) state batches and return one row per state"
    try:
        value = func(*args)
    except TypeError as exc:
        raise ValueError(f"{label} failed on a batch of {shape[0]} states ({exc}); "
                         f"{contract}") from exc
    out = np.asarray(value, dtype=float)
    if out.size != math.prod(shape):
        raise ValueError(f"{label} returned shape {out.shape} for {shape[0]} states; "
                         f"{contract}")
    return out.reshape(shape)


def _finite_or_raise(label: str, value: Array) -> Array:
    if not np.isfinite(value).all():
        raise NonFiniteCoefficient(f"{label} returned a non-finite value")
    return value


def eval_coefficients_batch(
    problem: Problem, t: float, states: Array, u: Array
) -> tuple[Array, Array, Array, Array]:
    """Evaluate drift/diffusion/jumps/running on a batch of states.

    Returns ``(drift (N,n), diffusion (N,n,r), jump_sizes (K,N,n), running (N,))``.
    The callables receive the whole ``(N, n)`` batch at once.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n_pts, n = states.shape
    if n != problem.dim_state:
        raise ValueError(f"states have dimension {n}, problem expects {problem.dim_state}")
    u = np.asarray(u, dtype=float).ravel()
    drift = _rows("drift", (n_pts, n), problem.drift, t, states, u)
    diffusion = _rows("diffusion", (n_pts, n, problem.dim_noise), problem.diffusion, t, states, u)
    running = _rows("running cost", (n_pts,), problem.running_cost, t, states, u)
    jump_sizes = np.zeros((problem.jumps.n_atoms, n_pts, n))
    for k, mark in enumerate(problem.jumps.marks):
        jump_sizes[k] = _rows("jump amplitude", (n_pts, n), problem.jump_size, t, states, u, mark)

    _finite_or_raise("drift", drift)
    _finite_or_raise("diffusion", diffusion)
    _finite_or_raise("jump amplitude", jump_sizes)
    _finite_or_raise("running cost", running)
    if running.size and running.min() < 0.0:
        raise NonFiniteCoefficient(
            f"running cost must be nonnegative, got {running.min()}"
        )
    return drift, diffusion, jump_sizes, running


def eval_terminal(problem: Problem, states: Array) -> Array:
    """Terminal cost on a batch of states, validated finite and nonnegative."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    vals = _rows("terminal cost", (states.shape[0],), problem.terminal_cost, states)
    _finite_or_raise("terminal cost", vals)
    if vals.size and vals.min() < 0.0:
        raise NonFiniteCoefficient(f"terminal cost must be nonnegative, got {vals.min()}")
    return vals

