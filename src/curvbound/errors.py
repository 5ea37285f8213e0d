"""Exception types shared across the toolkit, and per-row error arrays.

Routines that evaluate many sample points at once do not raise for a point
that fails: they return an object array with one slot per point, holding the
point's exception or None.  Single-point entry points raise the slot.
"""

import numpy as np


class GeometryError(Exception):
    """Base class for all toolkit errors."""


class DomainError(GeometryError):
    """A point or parameter lies outside the valid domain of an operation.

    Raised for antipodal-or-beyond points on the sphere, points outside the
    chronological future of the reference point in Lorentzian models, and
    comparison-function arguments past their positivity range.
    """


class UndefinedGradientError(DomainError):
    """Distance gradient requested at (or too close to) the reference point."""


class ImmersionDegeneracyError(GeometryError):
    """The chart fails to be an immersion at the requested parameter."""


class SignatureError(GeometryError):
    """The tangent plane has the wrong causal character (not spacelike)."""


class HypothesisViolationError(GeometryError):
    """A standing hypothesis of an estimate fails at the evaluation point."""


class ConsistencyError(GeometryError):
    """Two independent evaluation routes disagree beyond tolerance."""


class NumericalError(GeometryError):
    """A numerical subroutine (eigensolver, ODE solver, quadrature) failed."""


class EmptySampleError(GeometryError):
    """Every grid point of a sampling pass was rejected."""


class ConfigError(GeometryError):
    """Malformed scenario configuration or CLI usage."""


def no_errors(shape) -> np.ndarray:
    """Per-row error slots, all empty."""
    return np.empty(shape, dtype=object)


def failed(errors: np.ndarray) -> np.ndarray:
    """Mask of the rows that hold an error."""
    return np.not_equal(errors, None)


def flag(errors: np.ndarray, mask, kind: type, message: str) -> None:
    """Record kind(message) in the rows selected by ``mask`` that hold no error yet."""
    mask = np.asarray(mask)
    if mask.any():
        errors[mask & ~failed(errors)] = kind(message)


def raise_first(errors: np.ndarray) -> None:
    """Raise the error of the first failed row, if any."""
    for exc in errors.flat:
        if exc is not None:
            raise exc
