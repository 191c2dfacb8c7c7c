"""Monte Carlo engine for the controlled state/margin pair.

Simulates the coupled Euler system

    x += f dt + sigma dB + sum_k chi(e_k) (dN_k - w_k dt)
    y += -l dt

with per-step Poisson counts per jump atom, and builds unbiased estimators of
the plain cost (running plus terminal) and of the shortfall objective
(terminal shortfall plus constraint penalty).  These estimators are the
ground truth the grid solver is validated against.  The margin ``y`` is
``b - int l dt``, the margin of the auxiliary equation the sweep solves: it
carries no martingale term.

Reproducibility contract: draws come from counter-based generators keyed by
``(seed, chunk index)`` over fixed-size path chunks, and the reduction runs
in chunk order — results are bit-identical for a given seed no matter how the
work is scheduled.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import NonFiniteCoefficient, NonFiniteState, StepTooLarge
from .model import Problem, eval_coefficients_batch, eval_terminal

Array = np.ndarray

CHUNK = 4096


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

# a feedback policy is its control: policy(t, states (N, n), margins (N,))
# returns an (N, du) array of control-grid rows, or one row for every path
Policy = Callable[[float, Array, Array], Array]


def constant_policy(u: Sequence[float] | float) -> Policy:
    """Policy that plays one control row regardless of state, margin, or time."""
    u_row = np.atleast_1d(np.asarray(u, dtype=float))

    def control(t: float, states: Array, margins: Array) -> Array:
        return np.tile(u_row, (states.shape[0], 1))

    return control


# ---------------------------------------------------------------------------
# path containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSample:
    """One realized trajectory of the state/margin pair."""

    times: Array                 # (S+1,)
    x_path: Array                # (S+1, n)
    y_path: Array                # (S+1,)
    jump_log: list[tuple[float, int]]


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with a 95% normal-approximation confidence interval."""

    mean: float
    half_width: float

    def covers(self, value: float) -> bool:
        return abs(self.mean - value) <= self.half_width


def path_to_csv(sample: PathSample, path: str) -> None:
    """Dump a trajectory as CSV: t, state components, margin, jump flag."""
    n = sample.x_path.shape[1]
    jump_times = {t for t, _ in sample.jump_log}
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", *[f"x_{i + 1}" for i in range(n)], "y", "jump_flag"])
        for s, t in enumerate(sample.times):
            writer.writerow([
                f"{t:.12g}",
                *[f"{v:.12g}" for v in sample.x_path[s]],
                f"{sample.y_path[s]:.12g}",
                int(t in jump_times),
            ])


# ---------------------------------------------------------------------------
# the stepping core
# ---------------------------------------------------------------------------

def _time_steps(t0: float, horizon: float, dt: float) -> Array:
    total = horizon - t0
    if dt <= 0.0:
        raise StepTooLarge("dt must be positive")
    if dt > total + 1e-12:
        raise StepTooLarge(f"dt={dt} exceeds remaining horizon {total}")
    n_full = int(np.floor(total / dt + 1e-12))
    tail = total - n_full * dt
    steps = np.full(n_full, dt)
    if tail > 1e-12:
        steps = np.append(steps, tail)
    return steps


def _control_rows(problem: Problem, controls: Array) -> Array:
    """The control-grid row each path plays; raises when one is off the grid."""
    gaps = np.abs(controls[:, None, :] - problem.controls[None, :, :]).max(axis=2)
    rows = gaps.argmin(axis=1)
    if not np.all(gaps[np.arange(rows.shape[0]), rows] <= 1e-9):
        raise ValueError("policy returned a control that is not a control-grid row")
    return rows


def _advance_chunk(
    problem: Problem,
    policy: Policy,
    t0: float,
    x0: Array,
    y0: Array,
    dt: float,
    rng: np.random.Generator,
    record: bool = False,
) -> dict[str, Any]:
    """Advance a chunk of paths to the horizon; accumulate every statistic.

    Returns terminal states and the running-cost and penalty integrals.
    """
    steps = _time_steps(t0, problem.horizon, dt)
    n_paths, n = x0.shape
    K = problem.jumps.n_atoms
    weights = problem.jumps.weights

    x = x0.copy()
    y = y0.copy()
    run_cost = np.zeros(n_paths)
    penalty = np.zeros(n_paths)

    times = [t0]
    x_hist = [x.copy()] if record else None
    y_hist = [y.copy()] if record else None
    jump_log: list[tuple[float, int]] = []

    t = t0
    for h in steps:
        u = np.atleast_2d(np.asarray(policy(t, x, y), dtype=float))
        if u.shape[0] == 1 and n_paths > 1:
            u = np.repeat(u, n_paths, axis=0)
        rows = _control_rows(problem, u)

        # one batched evaluation per distinct control row, on its paths
        drift = np.empty((n_paths, n))
        diffusion = np.empty((n_paths, n, problem.dim_noise))
        jump_sizes = np.empty((K, n_paths, n))
        running = np.empty(n_paths)
        try:
            for row in np.unique(rows):
                paths = np.flatnonzero(rows == row)
                (drift[paths], diffusion[paths], jump_sizes[:, paths],
                 running[paths]) = eval_coefficients_batch(problem, t, x[paths], u[paths[0]])
        except NonFiniteCoefficient as exc:
            # a diverging trajectory usually overflows inside the coefficient
            # callables before the state itself turns inf
            raise NonFiniteState(f"path diverged near t={t:.6g}: {exc}") from exc

        dB = rng.normal(scale=np.sqrt(h), size=(n_paths, problem.dim_noise))
        x_new = x + drift * h + np.einsum("pnr,pr->pn", diffusion, dB)
        y_new = y - running * h

        for k in range(K):
            counts = rng.poisson(lam=weights[k] * h, size=n_paths).astype(float)
            compensated = counts - weights[k] * h
            x_new += jump_sizes[k] * compensated[:, None]
            if record:
                for _ in range(int(counts[0])):
                    jump_log.append((t + h, k))

        run_cost += running * h
        penalty += np.atleast_1d(problem.distance(x)) * h

        x, y = x_new, y_new
        t += h
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NonFiniteState(f"path state became non-finite at t={t:.6g}")
        if record:
            times.append(t)
            x_hist.append(x.copy())
            y_hist.append(y.copy())

    out: dict[str, Any] = {
        "x_T": x,
        "y_T": y,
        "run_cost": run_cost,
        "penalty": penalty,
    }
    if record:
        out["times"] = np.array(times)
        out["x_hist"] = np.stack(x_hist)      # (S+1, N, n)
        out["y_hist"] = np.stack(y_hist)      # (S+1, N)
        out["jump_log"] = jump_log
    return out


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunked(
    problem: Problem,
    policy: Policy,
    t0: float,
    a0: Array,
    b0: float,
    n_paths: int,
    dt: float,
    seed: int,
) -> dict[str, Array]:
    """Run all chunks in order and concatenate the per-path statistics."""
    a0 = np.atleast_1d(np.asarray(a0, dtype=float))
    pieces: list[dict[str, Any]] = []
    done = 0
    chunk_index = 0
    while done < n_paths:
        size = min(CHUNK, n_paths - done)
        rng = _chunk_rng(seed, chunk_index)
        x0 = np.tile(a0, (size, 1))
        y0 = np.full(size, float(b0))
        pieces.append(_advance_chunk(problem, policy, t0, x0, y0, dt, rng))
        done += size
        chunk_index += 1
    return {
        key: np.concatenate([p[key] for p in pieces])
        for key in ("x_T", "y_T", "run_cost", "penalty")
    }


def _estimate(samples: Array) -> MCEstimate:
    n_paths = samples.shape[0]
    mean = float(np.mean(samples))
    half = float(1.96 * np.std(samples, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return MCEstimate(mean=mean, half_width=half)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def simulate_pair_path(
    problem: Problem,
    t0: float,
    a0: Array,
    b0: float,
    policy: Policy,
    dt: float,
    rng: np.random.Generator,
) -> PathSample:
    """One full trajectory of the state/margin pair, with its jump log."""
    a0 = np.atleast_1d(np.asarray(a0, dtype=float))
    out = _advance_chunk(
        problem, policy, t0, a0[None, :], np.array([float(b0)]), dt, rng,
        record=True,
    )
    return PathSample(
        times=out["times"],
        x_path=out["x_hist"][:, 0, :],
        y_path=out["y_hist"][:, 0],
        jump_log=out["jump_log"],
    )


def estimate_cost(
    problem: Problem,
    t0: float,
    a0: Array,
    policy: Policy,
    n_paths: int,
    dt: float,
    seed: int,
) -> MCEstimate:
    """Estimate the plain objective: running cost integral plus terminal cost."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a confidence interval")
    stats = _chunked(problem, policy, t0, a0, 0.0, n_paths, dt, seed)
    samples = stats["run_cost"] + eval_terminal(problem, stats["x_T"])
    assert samples.min() >= 0.0  # running and terminal costs are nonnegative
    return _estimate(samples)


def estimate_shortfall(
    problem: Problem,
    t0: float,
    a0: Array,
    b0: float,
    policy: Policy,
    n_paths: int,
    dt: float,
    seed: int,
) -> MCEstimate:
    """Estimate the shortfall objective.

    Per path: max{terminal cost - terminal margin, 0} plus the integral of
    the constraint distance along the path.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a confidence interval")
    stats = _chunked(problem, policy, t0, a0, b0, n_paths, dt, seed)
    shortfall = np.maximum(eval_terminal(problem, stats["x_T"]) - stats["y_T"], 0.0)
    samples = shortfall + stats["penalty"]
    assert samples.min() >= 0.0
    return _estimate(samples)
