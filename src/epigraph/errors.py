"""Exception types shared across the package.

Every error raised on a user-facing contract violation is a subclass of
:class:`EpigraphError`, so callers can catch one base type.  Numerical
failures (CFL violations, non-finite updates) are kept separate from
configuration problems because the command line maps them to different
exit codes.  The path-annotated checks at the end raise the configuration
errors; the config reader and the inline problem builder share them.
"""

from __future__ import annotations

import difflib
import math
from typing import Any, Mapping, NoReturn, Sequence


class EpigraphError(Exception):
    """Base class for all package errors."""


# --- problem construction -------------------------------------------------

class MissingField(EpigraphError):
    """A required problem field was not supplied."""


class NonpositiveHorizon(EpigraphError):
    """The time horizon must be strictly positive."""


class EmptyControlGrid(EpigraphError):
    """The control set must contain at least one point."""


class NegativeWeight(EpigraphError):
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

class DegenerateGrid(EpigraphError):
    """Grid axes must have at least three nodes and positive spacing."""


class CFLViolation(EpigraphError):
    """The time step exceeds the stable explicit bound."""


class IncompatibleGrids(EpigraphError):
    """A snapshot or a field does not fit the grid an operation needs."""


class NonFiniteUpdate(EpigraphError):
    """A sweep step produced NaN or infinity."""


class UnsolvedField(EpigraphError):
    """An operation needed a solved field but received something else."""


# --- configuration --------------------------------------------------------

class ParseError(EpigraphError):
    """Configuration text is not valid JSON (position annotated)."""


class UnknownKey(EpigraphError):
    """Configuration contains an unrecognized key (suggestion attached)."""


class SchemaViolation(EpigraphError):
    """Configuration value has the wrong type or an out-of-range value."""


# --- configuration checks ---------------------------------------------------

def fail(path: str, why: str) -> NoReturn:
    raise SchemaViolation(f"{path} {why}")


def reject_unknown(section: Mapping[str, Any], allowed: Sequence[str], path: str) -> None:
    for key in section:
        if key in allowed:
            continue
        dotted = f"{path}.{key}" if path else str(key)
        matches = difflib.get_close_matches(str(key), allowed, n=1)
        hint = f" (did you mean {matches[0]!r}?)" if matches else ""
        raise UnknownKey(f"unknown key {dotted!r}{hint}")


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
