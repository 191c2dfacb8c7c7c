"""Closed-form reference values for the benchmark workloads.

This module uses numpy and ``math`` only and never imports ``epigraph``, so
a fault in the program cannot leak into the values it is checked against.

* ``steering_margin`` -- required margin of bounded-velocity steering with a
  box of controls ``[-1, 1]^n``, unit horizon and terminal cost ``|a|^2``:
  the least ``|x_T|^2`` over the reachable box ``a + [-1, 1]^n``, which is
  ``sum_i max(|a_i| - 1, 0)^2``.
* ``jump_variance_shortfall`` -- ``E[(X_T^2 - b)^+]`` for
  ``X_T = a + sigma W_T + e (N_T - w T)`` with ``N_T ~ Poisson(w T)``: a
  Poisson mixture of Gaussian tail integrals, exact up to the truncation of
  the series far in the Poisson tail.

Run ``python3 bench/oracles.py`` to run the self-check alone.
"""

from __future__ import annotations

import math

import numpy as np

Array = np.ndarray

_erfc = np.frompyfunc(math.erfc, 1, 1)


def steering_margin(states: Array) -> Array:
    """``sum_i max(|a_i| - 1, 0)^2`` for states given as rows of shape (N, n)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    return (np.maximum(np.abs(states) - 1.0, 0.0) ** 2).sum(axis=1)


def _upper_tail(z: Array) -> Array:
    """P(Z > z) for a standard normal Z."""
    return 0.5 * np.asarray(_erfc(np.asarray(z, dtype=float) / math.sqrt(2.0)), dtype=float)


def _density(z: Array) -> Array:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _gaussian_square_excess(c: Array, b: Array) -> Array:
    """``E[((c + Z)^2 - b)^+]`` for a standard normal Z, elementwise.

    For ``b <= 0`` it is ``c^2 + 1 - b``.  For ``b > 0`` with ``r = sqrt(b)``
    it is ``g(c) + g(-c) - b (Q(r - c) + Q(r + c))`` where
    ``g(c) = E[(c + Z)^2; c + Z > r] = (c^2 + 1) Q(r - c) + (c + r) phi(r - c)``.
    """
    c, b = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(b, dtype=float))
    r = np.sqrt(np.maximum(b, 0.0))
    q_hi, q_lo = _upper_tail(r - c), _upper_tail(r + c)
    g_hi = (c * c + 1.0) * q_hi + (c + r) * _density(r - c)
    g_lo = (c * c + 1.0) * q_lo + (r - c) * _density(r + c)
    positive = g_hi + g_lo - b * (q_hi + q_lo)
    return np.where(b > 0.0, positive, c * c + 1.0 - b)


def _poisson_weights(mean: float, tol: float = 1e-20) -> Array:
    """Poisson(mean) probabilities from 0 up to where they fall below ``tol``."""
    weights = [math.exp(-mean)]
    n = 0
    while True:
        n += 1
        nxt = weights[-1] * mean / n
        if n > mean and nxt < tol:
            return np.array(weights)
        weights.append(nxt)


def jump_variance_shortfall(a: Array, b: Array, *, sigma: float = 1.0,
                            mark: float = 1.0, intensity: float = 2.0,
                            horizon: float = 1.0) -> Array:
    """``E[(X_T^2 - b)^+]`` with ``X_T = a + sigma W_T + mark (N_T - intensity T)``.

    The defaults are the built-in ``jump-variance`` problem.  ``a`` and ``b``
    broadcast against each other.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    scale = sigma * math.sqrt(horizon)
    out = np.zeros(a.shape)
    for n, weight in enumerate(_poisson_weights(intensity * horizon)):
        centre = (a + mark * (n - intensity * horizon)) / scale
        out += weight * _gaussian_square_excess(centre, b / scale ** 2)
    return out * scale ** 2


def _quadrature_shortfall(a: float, b: float, nodes: int = 400_001) -> float:
    """Brute-force ``E[(X_T^2 - b)^+]`` for the defaults: trapezoid in z per n."""
    z = np.linspace(-14.0, 14.0, nodes)
    phi = _density(z)
    total = 0.0
    for n, weight in enumerate(_poisson_weights(2.0)):
        values = np.maximum((a + z + (n - 2.0)) ** 2 - b, 0.0) * phi
        total += weight * float(np.sum(values[1:] + values[:-1]) * 0.5 * (z[1] - z[0]))
    return total


def self_check() -> list[str]:
    """Problems found in the oracles themselves (an empty list when sound).

    At ``b = 0`` the series must give ``a^2 + sigma^2 T + w e^2 T`` (3.0 at
    the origin) to 1e-12, and at a few ``(a, b)`` points it must agree with a
    brute-force quadrature; the steering form is checked at known points.
    """
    problems = []
    a = np.array([0.0, -1.5, 0.7, 2.0])
    exact = a * a + 1.0 + 2.0
    err = float(np.abs(jump_variance_shortfall(a, 0.0) - exact).max())
    if not err <= 1e-12:
        problems.append(f"series at b=0 is off the second moment by {err:.3e}")
    for point in ((0.0, 0.5), (1.3, 2.0), (-2.0, 3.7), (0.4, 9.0)):
        series = float(jump_variance_shortfall(*point))
        quad = _quadrature_shortfall(*point)
        if not abs(series - quad) <= 1e-7 * max(1.0, abs(quad)):
            problems.append(f"series {series!r} vs quadrature {quad!r} at (a, b) = {point}")
    states = np.array([[0.0, 0.0], [1.5, -0.5], [-2.0, 1.25]])
    if not np.allclose(steering_margin(states), [0.0, 0.25, 1.0625], rtol=0, atol=1e-15):
        problems.append("steering closed form is off at its test points")
    return problems


if __name__ == "__main__":
    found = self_check()
    for line in found:
        print("oracle self-check:", line)
    print("oracle self-check:", "FAIL" if found else "ok")
    raise SystemExit(1 if found else 0)
