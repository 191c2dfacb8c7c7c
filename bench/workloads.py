"""The benchmark workloads: their configurations and the checks on their outputs.

Each workload is a list of operations, one ``epigraph.cli.run`` call each,
attempted in this order once per round.  The configurations are fixed
except for a sub-cell offset of the state grid derived from the seed: node
counts, spacings and margin axes never change, so every seed does the same
work, while the node positions differ between seeds.  The checks read the
artifacts a completed run wrote and compare them with ``oracles``, which is
computed apart from the program.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

Array = np.ndarray

_GOLDEN = (0.6180339887498949, 0.7548776662466927)


@dataclass(frozen=True)
class Operation:
    """One ``run()`` call; ``measured`` marks the one the end-to-end metrics time."""

    name: str
    config: dict[str, Any]
    measured: bool


@dataclass(frozen=True)
class Check:
    """What the checks found: the oracle error, what was compared, and faults.

    ``max_abs_err`` is None when the measured operation has no oracle.
    """

    max_abs_err: float | None
    lines: list[str]
    problems: list[str]


@dataclass(frozen=True)
class Workload:
    """Operations made from a seed, and the check over their output directories."""

    operations: Callable[[int], list[Operation]]
    check: Callable[[dict[str, pathlib.Path]], Check]


def _offset(seed: int, axis: int) -> float:
    """A fraction of a cell in [-1/8, 1/8), spread evenly over the seeds."""
    return ((seed * _GOLDEN[axis % 2] + 0.5 * axis) % 1.0 - 0.5) / 4.0


def _state_axes(axes: list[list[float]], seed: int) -> list[list[float]]:
    out = []
    for i, (lo, hi, count) in enumerate(axes):
        shift = _offset(seed, i) * (hi - lo) / (count - 1)
        out.append([lo + shift, hi + shift, count])
    return out


def _window(axis: list[float], half_width: float) -> float:
    """Half-width of a check window whose edge lies midway between two nodes.

    The edge sits half a cell past the last node of the unshifted ``axis``
    within ``half_width``, so the sub-cell seed offset never moves a node
    across it: every seed checks the same nodes.
    """
    lo, hi, count = axis
    h = (hi - lo) / (count - 1)
    return lo + h * (np.floor((half_width - lo) / h + 1e-9) + 0.5)


def _table(path: pathlib.Path) -> Array:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _margin_field(out: pathlib.Path) -> tuple[Array, Array, Array]:
    """``w_t0.csv`` of a one-dimensional state as (states, margins, W[state, margin])."""
    table = _table(out / "w_t0.csv")
    margins = np.unique(table[:, 1])
    states = table[:: margins.size, 0]
    return states, margins, table[:, 2].reshape(states.size, margins.size)


# ---------------------------------------------------------------------------
# steering (1-D and 2-D): required margin against the closed form
# ---------------------------------------------------------------------------

def _steering_check(out: pathlib.Path, axis: list[float], tolerance: float) -> Check:
    """Required margin at t = 0 against the closed form on |a_i| <= 1.5."""
    window = _window(axis, 1.5)
    table = _table(out / "profile.csv")
    states, margin = table[:, :-1], table[:, -1]
    inside = np.all(np.abs(states) <= window, axis=1)
    err = float(np.abs(margin[inside] - oracles.steering_margin(states[inside])).max())
    lines = [f"max |V - oracle| = {err:.6g} on {int(inside.sum())} states with "
             f"|a_i| <= {window:.6g} (tolerance {tolerance})"]
    problems = []
    if not err <= tolerance:  # also catches an unreachable (inf) state
        problems.append(f"required margin is off the closed form by {err:.6g}")
    return Check(err, lines, problems)


_STEERING_AXIS = [-2.1, 2.1, 141]
_STEERING_2D_AXIS = [-2.1, 2.1, 35]


def _steering_ops(seed: int) -> list[Operation]:
    config = {
        "problem": {"builtin": "deterministic-steering"},
        "grid": {"state": _state_axes([_STEERING_AXIS], seed),
                 "margin": [0.0, 0.6, 241], "time_step": None},
        "outputs": {"formats": ["csv", "gnuplot"]},
    }
    return [Operation("steering", config, True)]


_CONTROLS_2D = [[float(u), float(v)] for u in np.linspace(-1.0, 1.0, 5)
                for v in np.linspace(-1.0, 1.0, 5)]


def _steering_2d_ops(seed: int) -> list[Operation]:
    config = {
        "problem": {"dim_state": 2, "dim_noise": 1, "horizon": 1.0,
                    "controls": _CONTROLS_2D, "drift": "control",
                    "terminal_cost": "square", "name": "steering-2d"},
        "grid": {"state": _state_axes([_STEERING_2D_AXIS] * 2, seed),
                 "margin": [0.0, 0.8, 41], "time_step": None},
    }
    return [Operation("steering-2d", config, True)]


# ---------------------------------------------------------------------------
# jump-variance: W(0, a, b) against the Poisson-Gaussian series
# ---------------------------------------------------------------------------

def _jump_variance_config(state: list[list[float]], margin_nodes: int,
                          scheme: dict | None = None) -> dict:
    config: dict[str, Any] = {
        "problem": {"builtin": "jump-variance"},
        "grid": {"state": state, "margin": [0.0, 4.0, margin_nodes], "time_step": None},
    }
    if scheme is not None:
        config["scheme"] = scheme
    return config


def _jump_variance_check(out: pathlib.Path, axis: list[float], tolerance: float) -> Check:
    """Compare W(0, a, b) on |a| <= 2 with the series, top margin node excluded.

    The ceiling field pins the top margin column to 0 while the true value
    there is positive, so that column is reported but not checked.
    """
    states, margins, field = _margin_field(out)
    exact = oracles.jump_variance_shortfall(states[:, None], margins[None, :])
    window = _window(axis, 2.0)
    err = np.abs(field - exact)[np.abs(states) <= window]
    inside, top = float(err[:, :-1].max()), float(err[:, -1].max())
    lines = [f"max |W - oracle| = {inside:.6g} on {err[:, :-1].size} nodes with "
             f"|a| <= {window:.6g} "
             f"(tolerance {tolerance}); excluded top band b = {margins[-1]:g}: {top:.6g}"]
    problems = [] if inside <= tolerance else [f"W(0) is off the series by {inside:.6g}"]
    return Check(inside, lines, problems + _shortfall_properties(field, "W"))


def _shortfall_properties(field: Array, label: str) -> list[str]:
    """W >= 0 and W nonincreasing in the margin, up to roundoff."""
    slack = 1e-12 * max(1.0, float(np.abs(field).max()))
    problems = []
    if not field.min() >= 0.0:
        problems.append(f"{label} < 0: min {field.min():.3e}")
    rise = float(np.diff(field, axis=1).max())
    if not rise <= slack:
        problems.append(f"{label} increases in the margin by {rise:.3e}")
    return problems


_JUMP_VARIANCE_AXIS = [-6.0, 6.0, 161]


def _jump_variance_ops(seed: int) -> list[Operation]:
    config = _jump_variance_config(_state_axes([_JUMP_VARIANCE_AXIS], seed), 81)
    return [Operation("jump-variance", config, True)]


# The grid jump hedge is the measured operation.  It fails on every attempt
# today (NonFiniteUpdate within the first levels), so its inputs stay fixed
# for every seed: the failure share must not depend on the seed.  The
# zero-hedge reference on the same grid is not timed; it only bounds the
# hedged field from above, and is itself checked against the series.
_HEDGE_AXIS = [-6.0, 6.0, 121]


def _jump_hedge_ops(seed: int) -> list[Operation]:
    return [
        Operation("reference", _jump_variance_config([_HEDGE_AXIS], 161), False),
        Operation("hedged", _jump_variance_config(
            [_HEDGE_AXIS], 161, {"hedge": "frozen", "beta_candidates": "grid"}), True),
    ]


def _jump_hedge_check(outs: dict[str, pathlib.Path]) -> Check:
    """Properties of the hedged field; it has no oracle, so no ``max_abs_err``."""
    lines: list[str] = []
    problems: list[str] = []
    if "reference" in outs:
        reference_check = _jump_variance_check(outs["reference"], _HEDGE_AXIS, 0.3)
        lines += [f"reference {line}" for line in reference_check.lines]
        problems += [f"reference {p}" for p in reference_check.problems]
    if "hedged" in outs:
        _, _, hedged = _margin_field(outs["hedged"])
        problems += _shortfall_properties(hedged, "hedged W")
        if "reference" in outs:
            _, _, reference = _margin_field(outs["reference"])
            excess = float((hedged - reference).max())
            lines.append(f"hedged W - zero-hedge W <= {excess:.3e}")
            if not excess <= 1e-12 * max(1.0, float(reference.max())):
                problems.append(f"hedged W exceeds the zero-hedge W by {excess:.3e}")
    return Check(None, lines, problems)


WORKLOADS = {
    "steering": Workload(
        _steering_ops,
        lambda outs: _steering_check(outs["steering"], _STEERING_AXIS, 0.1)),
    "jump-variance": Workload(
        _jump_variance_ops,
        lambda outs: _jump_variance_check(outs["jump-variance"], _JUMP_VARIANCE_AXIS, 0.25)),
    "steering-2d": Workload(
        _steering_2d_ops,
        lambda outs: _steering_check(outs["steering-2d"], _STEERING_2D_AXIS, 0.75)),
    "jump-hedge": Workload(_jump_hedge_ops, _jump_hedge_check),
}
