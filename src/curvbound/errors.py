"""Exception types, per-row error arrays and the read-only rule.

A batch routine returns an object array with one slot per row, holding the row's
GeometryError or None; a single-point call raises the slot.  Every array the
toolkit keeps is read-only: :func:`read_only_copy` for one a caller hands in,
:func:`read_only` in place for one the code built.
"""

import numpy as np


class GeometryError(Exception):
    """Base class for all toolkit errors."""


class DomainError(GeometryError):
    """A point or parameter lies outside the valid domain of an operation."""


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
    if np.count_nonzero(mask):
        errors[mask & ~failed(errors)] = kind(message)


def fold_last(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the last axis of ``a``, one elementwise call per entry, in order.

    For np.maximum and np.minimum this is ``a.max(-1)`` and ``a.min(-1)`` bit for bit
    (a NaN result may carry another sign bit), and for np.logical_and over booleans
    ``a.all(-1)``.
    """
    acc = a[..., 0]
    for i in range(1, a.shape[-1]):
        acc = ufunc(acc, a[..., i])
    return acc


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_order(k, top: int) -> None:
    """Raise a DomainError unless the order k is an integer in 0..top."""
    if not (is_integer(k) and 0 <= k <= top):
        raise DomainError(f"order k = {k!r} is outside 0..{top} or not an integer")


def raise_first(errors: np.ndarray) -> None:
    """Raise the error of the first failed row, if any."""
    for exc in errors.flat:
        if exc is not None:
            raise exc


def read_only(value):
    """``value`` (an array, a tuple of arrays or a record), with its arrays set read-only."""
    for a in ((value,) if isinstance(value, np.ndarray)
              else value if isinstance(value, tuple) else vars(value).values()):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return value


def read_only_copy(a) -> np.ndarray:
    """A read-only float copy of an array a caller hands in."""
    return read_only(np.array(a, dtype=float))
