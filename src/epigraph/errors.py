"""Exception types shared across the package.

Every error raised on a user-facing contract violation is a subclass of
:class:`EpigraphError`, so callers can catch one base type.  The base of a
class sets the command line's exit code:

- :class:`ConfigurationError`, a run that cannot be built as described
  (config text, problem fields, grid axes, noise the sweep cannot step),
  exits 1, as ``OSError`` and ``ValueError`` do;
- any other :class:`EpigraphError`, a numerical failure or a refusal of a
  well-formed run (CFL violations, non-finite updates, a slice written for
  other inputs), exits 2.

The path-annotated checks at the end raise the configuration errors; the
config reader and the inline problem builder share them, and every object
of a run document goes through :func:`require_object`.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, NoReturn, Sequence


class EpigraphError(Exception):
    """Base class for all package errors."""


class ConfigurationError(EpigraphError):
    """Base class for the errors of a run that cannot be built as described."""


# --- problem construction -------------------------------------------------

class MissingField(ConfigurationError):
    """A required problem field was not supplied."""


class NonpositiveHorizon(ConfigurationError):
    """The time horizon must be strictly positive."""


class EmptyControlGrid(ConfigurationError):
    """The control set must contain at least one point."""


class NegativeWeight(ConfigurationError):
    """Jump intensities (atom weights) must be strictly positive."""


class NonFiniteCoefficient(EpigraphError):
    """A coefficient callable returned NaN or infinity."""


class NegativeDistance(EpigraphError):
    """A distance callable returned a negative value."""


# --- simulation -----------------------------------------------------------

class StepTooLarge(EpigraphError):
    """The requested simulation step exceeds the remaining horizon."""


class NonFiniteState(EpigraphError):
    """A simulated path left the finite range of floats."""


# --- solving --------------------------------------------------------------

class DegenerateGrid(ConfigurationError):
    """Grid axes must have at least three nodes and positive spacing."""


class CorrelatedNoise(ConfigurationError):
    """The noise is correlated across state axes (``sigma sigma^T`` has a
    nonzero off-diagonal entry), which the sweep has no monotone step for."""


class CFLViolation(EpigraphError):
    """The time step exceeds the stable explicit bound."""


class IncompatibleGrids(EpigraphError):
    """A snapshot or a field does not fit the grid an operation needs."""


class NonFiniteUpdate(EpigraphError):
    """A sweep step produced NaN or infinity."""


class UnsolvedField(EpigraphError):
    """An operation needed a solved field but received something else."""


# --- configuration --------------------------------------------------------

class ParseError(ConfigurationError):
    """Configuration text is not valid JSON (position annotated)."""


class UnknownKey(ConfigurationError):
    """Configuration contains an unrecognized key (suggestion attached)."""


class SchemaViolation(ConfigurationError):
    """Configuration value has the wrong type or an out-of-range value."""


# --- configuration checks ---------------------------------------------------

def fail(path: str, why: str) -> NoReturn:
    raise SchemaViolation(f"{path} {why}")


def reject_unknown(section: Mapping[str, Any], allowed: Sequence[str], path: str) -> None:
    import difflib  # only a refusal reads it

    for key in section:
        if key in allowed:
            continue
        dotted = f"{path}.{key}" if path else str(key)
        matches = difflib.get_close_matches(str(key), allowed, n=1)
        hint = f" (did you mean {matches[0]!r}?)" if matches else ""
        raise UnknownKey(f"unknown key {dotted!r}{hint}")


def require_object(value: Any, path: str, allowed: Sequence[str],
                   required: Sequence[str] = ()) -> dict[str, Any]:
    """The object at ``path`` (``""``: the whole document), refused if it is
    not an object, holds a key outside ``allowed`` or lacks a ``required`` one."""
    if not isinstance(value, dict):
        fail(path or "the configuration", "must be an object")
    reject_unknown(value, allowed, path)
    for key in required:
        if key not in value:
            fail(f"{path}.{key}" if path else key, "is required")
    return value


def require_number(value: Any, path: str, *, minimum: float | None = None,
                   positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(path, "must be a number")
    out = float(value)
    if not math.isfinite(out):
        fail(path, "must be finite")
    if positive and out <= 0.0:
        fail(path, f"must be > 0, got {out}")
    if minimum is not None and out < minimum:
        fail(path, f"must be >= {minimum}, got {out}")
    return out


def require_integer(value: Any, path: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        fail(path, "must be an integer")
    if minimum is not None and value < minimum:
        fail(path, f"must be >= {minimum}, got {value}")
    return int(value)
