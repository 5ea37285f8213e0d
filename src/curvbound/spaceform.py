"""Constant-curvature ambient models as flat-space quadrics, and the distance to a point.

A model is (signature, b, dimension), and ``model_kind`` follows from them.  Curved
models are quadrics <x, x> = 1/b in a flat (pseudo-)Euclidean space of one more
dimension, so the distance, its gradient and its Hessian are closed forms
(README, "Design", distances).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .comparison import c_b, sn
from .errors import (
    DomainError,
    UndefinedGradientError,
    failed,
    flag,
    fold_last,
    is_integer,
    no_errors,
    raise_first,
    read_only,
)

RIEMANNIAN = "riemannian"
LORENTZIAN = "lorentzian"

# Distances up to this fraction of the coordinate scale max(|x|, |o|) are
# rejected by gradient/Hessian routines: the comparison quantities blow up
# like 1/rho there, and x - o keeps at most half of its digits.
COINCIDENCE_TOL = 1e-8


@dataclass(frozen=True)
class AmbientModel:
    """A simply connected model space of constant curvature b and dimension n + 1."""

    signature: str
    curvature: float
    dimension: int

    def __post_init__(self):
        if self.signature not in (RIEMANNIAN, LORENTZIAN):
            raise ValueError(f"unknown signature {self.signature!r}")
        if not np.isfinite(self.curvature):
            raise ValueError(f"curvature must be finite, got {self.curvature!r}")
        if not is_integer(self.dimension):
            raise ValueError(f"model dimension must be an integer, got {self.dimension!r}")
        if self.dimension < 2:
            raise ValueError("model dimension must be at least 2")

    # -- constructors ------------------------------------------------------

    @classmethod
    def euclidean(cls, dimension: int) -> "AmbientModel":
        return cls(RIEMANNIAN, 0.0, dimension)

    @classmethod
    def sphere(cls, curvature: float, dimension: int) -> "AmbientModel":
        if not curvature > 0.0:
            raise ValueError("sphere_embedded requires b > 0")
        return cls(RIEMANNIAN, float(curvature), dimension)

    @classmethod
    def hyperbolic(cls, curvature: float, dimension: int) -> "AmbientModel":
        if not curvature < 0.0:
            raise ValueError("hyperboloid_embedded requires b < 0")
        return cls(RIEMANNIAN, float(curvature), dimension)

    @classmethod
    def minkowski(cls, dimension: int) -> "AmbientModel":
        return cls(LORENTZIAN, 0.0, dimension)

    @classmethod
    def lorentz_space_form(cls, curvature: float, dimension: int) -> "AmbientModel":
        if curvature == 0.0:
            raise ValueError("lorentz_spaceform requires b != 0")
        return cls(LORENTZIAN, float(curvature), dimension)

    # -- embedding data ----------------------------------------------------

    @property
    def model_kind(self) -> str:
        """The model's name, derived from the signature and the sign of b."""
        b = self.curvature
        if self.signature == LORENTZIAN:
            return "lorentz_spaceform" if b else "minkowski"
        return "sphere_embedded" if b > 0.0 else "hyperboloid_embedded" if b else "euclidean"

    @property
    def epsilon(self) -> float:
        """<N, N> of a unit normal: +1 in Riemannian and -1 in Lorentzian models."""
        return 1.0 if self.signature == RIEMANNIAN else -1.0

    @property
    def is_quadric(self) -> bool:
        return self.curvature != 0.0  # the flat models are the two with b = 0

    @property
    def embedding_dim(self) -> int:
        return self.dimension + (1 if self.is_quadric else 0)

    @cached_property
    def metric_diag(self) -> np.ndarray:
        # leading negative axes: one for a Lorentzian signature and one for b < 0
        diag = np.ones(self.embedding_dim)
        diag[:sum((self.signature == LORENTZIAN, self.curvature < 0.0))] = -1.0
        return read_only(diag)

    # -- point and tangent utilities ---------------------------------------

    def base_point(self) -> np.ndarray:
        """A canonical model point: the origin, or the quadric's vertex 1/sqrt|b| on an
        axis whose metric sign is that of b (the first, or the last in de Sitter space)."""
        x = np.zeros(self.embedding_dim)
        if self.is_quadric:
            b = self.curvature
            x[0 if self.metric_diag[0] * b > 0.0 else -1] = 1.0 / np.sqrt(abs(b))
        return x

    def flat_inner(self, u: np.ndarray, v: np.ndarray):
        """Flat embedding inner product over the last axis."""
        return np.vecdot(self.metric_diag * np.asarray(u), np.asarray(v))

    def point_errors(self, x: np.ndarray) -> np.ndarray:
        """Per-row DomainError where x (..., m) is not finite or off the model quadric.

        Riemannian b < 0 takes the upper sheet, x_0 > 0.  Raises at once when
        x has the wrong number of coordinates.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.embedding_dim,):
            raise DomainError(
                f"point has {x.shape} coordinates, expected ({self.embedding_dim},)"
            )
        errors = no_errors(x.shape[:-1])
        if not np.isfinite(x).all():  # one whole-array test on the common, all-finite path
            flag(errors, ~np.isfinite(x).all(axis=-1), DomainError, "point has non-finite coordinates")
        if self.is_quadric:
            b = self.curvature
            deviation = np.abs(self.flat_inner(x, x) - 1.0 / b)
            off = deviation > 1e-9 * max(1.0, abs(1.0 / b))
            if np.count_nonzero(off):
                # <x,x> cancels terms as large as sum_a x_a^2: its round-off scales with them
                off &= deviation > 1e-9 * np.vecdot(x, x)
            if self.signature == RIEMANNIAN and b < 0.0:
                off |= x[..., 0] <= 0.0
            flag(errors, off, DomainError, "point does not satisfy the model quadric constraint")
        return errors

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        raise_first(self.point_errors(x))
        return x

    def tangent_project(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Project ambient vectors onto the model tangent space at x, over the last axis."""
        v = np.asarray(v, dtype=float)
        if not self.is_quadric:
            return v.copy()
        b = self.curvature
        return v - (b * self.flat_inner(v, x))[..., None] * np.asarray(x)

    def check_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """v (..., m), checked to be tangent to the model at x (..., m) row by row."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.embedding_dim,):
            raise DomainError("tangent vector has wrong length")
        if self.is_quadric:
            scale = np.maximum(1.0, fold_last(np.maximum, np.abs(v))
                               * fold_last(np.maximum, np.abs(x)))
            if np.any(np.abs(self.flat_inner(v, x)) > 1e-8 * scale):
                raise DomainError("vector is not tangent to the model at x")
        return v

    def time_orientation(self, x: np.ndarray) -> np.ndarray:
        """A future-directed timelike tangent field at x (..., m); Lorentzian models only."""
        if self.signature != LORENTZIAN:
            raise DomainError("time orientation only defined for lorentzian models")
        x = np.asarray(x, dtype=float)
        t = np.zeros(x.shape)
        if self.curvature < 0.0:
            # anti-de Sitter: rotation in the (x0, x1) timelike plane is a global
            # timelike Killing field and is already tangent to the quadric.
            t[..., 0] = -x[..., 1]
            t[..., 1] = x[..., 0]
            return t
        t[..., 0] = 1.0  # Minkowski and de Sitter: e_0, projected
        return self.tangent_project(x, t)


@dataclass(frozen=True, eq=False)
class ReferenceBall:
    """Geodesic ball (or future ball) about a reference point."""

    center: np.ndarray
    radius: float

    def validate(self, model: AmbientModel) -> None:
        model.check_point(self.center)
        if self.radius <= 0.0:
            raise DomainError("reference ball radius must be positive")
        if self.radius >= comparison_radius(model):
            raise DomainError("radius must be below the comparison radius pi/(2 sqrt(|b|))")


# ---------------------------------------------------------------------------
# distance, gradient, Hessian
# ---------------------------------------------------------------------------


# Each quadric's domain guard on c = b<x,o> = cs_{eps b}(rho), keyed by (signature, b > 0):
# the rows where its distance is undefined, and why (none in hyperbolic space: both points
# lie on the upper sheet, x by point_errors and o where it enters).
_QUADRIC_GUARDS = {
    (RIEMANNIAN, True): (lambda c: c <= -1.0 + 1e-12,
                         "antipodal or beyond: spherical distance undefined"),
    (LORENTZIAN, True): (lambda c: c <= 1.0,
                         "point is not chronologically related to the reference"),
    # b < 0: the distance is smooth and positive only while rho < pi/(2 sqrt(-b))
    (LORENTZIAN, False): (lambda c: (c <= 0.0) | (c >= 1.0),
                          "point outside the guarded chronological range"),
}
_NOT_FUTURE = "point is not in the chronological future of the reference"


def distance_rows(model: AmbientModel, o: np.ndarray, x: np.ndarray):
    """(rho, errors): distances from the reference point o to the points x (..., m).

    Lorentzian distance is defined on the chronological future of o only.  ``errors``
    holds a DomainError where the distance is undefined; rho is meaningless there.
    o is not checked here: it is validated where it enters.
    """
    o = np.asarray(o, dtype=float)
    x = np.asarray(x, dtype=float)
    errors = model.point_errors(x)
    eps, b = model.epsilon, model.curvature
    k = eps * b
    if b == 0.0:
        d = x - o
        s = eps * model.flat_inner(d, d)
        if eps < 0.0:
            flag(errors, s <= 0.0, DomainError, _NOT_FUTURE)
        rho = np.sqrt(np.maximum(s, 0.0))
    else:
        c = b * model.flat_inner(x, o)
        if (model.signature, b > 0.0) in _QUADRIC_GUARDS:
            guard, message = _QUADRIC_GUARDS[model.signature, b > 0.0]
            flag(errors, guard(c), DomainError, message)
        if k > 0.0:
            rho = np.arccos(np.minimum(np.maximum(c, -1.0), 1.0)) / np.sqrt(k)
        else:
            rho = np.arccosh(np.maximum(c, 1.0)) / np.sqrt(-k)
    if eps < 0.0:
        w = model.tangent_project(o, x - o)
        flag(errors, model.flat_inner(w, model.time_orientation(o)) >= 0.0,
             DomainError, _NOT_FUTURE)
    return rho, errors


def ambient_distance(model: AmbientModel, o: np.ndarray, x: np.ndarray):
    """Distance from the reference point o to x; raises where it is undefined or o is invalid."""
    rho, errors = distance_rows(model, model.check_point(o), x)
    raise_first(errors)
    return rho


def gradient_rows(model: AmbientModel, o: np.ndarray, x: np.ndarray):
    """(rho, grad, errors): :func:`distance_rows` and grad rho = -eps P_x(o - x) / sn_{eps b}(rho).

    The gradient is a unit tangent to the radial geodesic, outward in Riemannian and
    past-directed timelike in Lorentzian models.  Rows with rho <= COINCIDENCE_TOL
    max(|x|, |o|) (max norms), rho = 0 included, get an UndefinedGradientError.
    """
    rho, errors = distance_rows(model, o, x)
    o = np.asarray(o, dtype=float)
    x = np.asarray(x, dtype=float)
    coincident = rho <= COINCIDENCE_TOL * np.maximum(fold_last(np.maximum, np.abs(x)),
                                                     np.abs(o).max())
    flag(errors, coincident,
         UndefinedGradientError, "distance gradient undefined at the reference point")
    r = np.where(coincident, COINCIDENCE_TOL, rho)[..., None]  # finite quotients on failed rows
    eps = model.epsilon
    grad = model.tangent_project(x, o - x)
    grad /= -eps * sn(eps * model.curvature, r)
    return rho, grad, errors


def comparison_radius(model: AmbientModel) -> float:
    """Distance from which C_{eps b} is undefined (inf if never)."""
    k = model.epsilon * model.curvature
    return np.pi / (2.0 * np.sqrt(k)) if k > 0.0 else np.inf


def distance_jet(model: AmbientModel, o: np.ndarray, x: np.ndarray, rows=None):
    """(rho, grad, hessian, errors, C): :func:`gradient_rows`, failing from the comparison radius on.

    ``rows``, the (rho, grad) of :func:`gradient_rows` at x where it flagged no row,
    stand in for calling it.  ``hessian(d1, metric)`` takes tangent columns d1 (..., m,
    n) and their induced metric (..., n, n) and returns eps C (metric - eps drho drho^T)
    with drho = d1^T eta grad and C = C_{eps b}(rho); a column not tangent at x raises
    DomainError.  C is evaluated in one :func:`c_b` call, on the rows without an
    error, and returned read-only where no row failed, else None.
    """
    if rows is None:
        rho, grad, errors = gradient_rows(model, o, x)
    else:
        (rho, grad), errors = rows, no_errors(np.shape(rows[0]))
    flag(errors, rho >= comparison_radius(model),
         DomainError, "distance at or beyond the comparison radius pi/(2 sqrt(|b|))")
    eps = model.epsilon
    ok = ~failed(errors)
    coeff = np.zeros(np.shape(rho))
    coeff[ok] = c_b(eps * model.curvature, rho[ok])
    x, c = np.asarray(x, dtype=float)[..., None, :], eps * coeff[..., None, None]
    lowered = (model.metric_diag * grad)[..., None]

    def hessian(d1, metric):
        columns = np.swapaxes(np.asarray(d1, dtype=float), -1, -2)
        model.check_tangent(x, columns)
        dr = (columns @ lowered)[..., 0]
        return c * (metric - eps * (dr[..., :, None] * dr[..., None, :]))

    return rho, grad, hessian, errors, read_only(coeff) if ok.all() else None
