"""Constant-curvature ambient models with closed-form distance machinery.

Curved models are realized as quadrics { <x,x> = 1/b } inside a flat
(pseudo-)Euclidean embedding space of one extra dimension, which keeps the
distance function, its gradient and its Hessian analytically exact:

=====================  ====================  =========================
model_kind             embedding metric      distance to o
=====================  ====================  =========================
euclidean              (+...+)   dim n+1     |x - o|
sphere_embedded        (+...+)   dim n+2     arccos(b<x,o>)/sqrt(b)
hyperboloid_embedded   (-+...+)  dim n+2     arccosh(b<x,o>)/sqrt(-b)
minkowski              (-+...+)  dim n+1     sqrt(-<x-o,x-o>)
lorentz_spaceform b>0  (-+...+)  dim n+2     arccosh(b<x,o>)/sqrt(b)
lorentz_spaceform b<0  (--+...+) dim n+2     arccos(b<x,o>)/sqrt(-b)
=====================  ====================  =========================

Lorentzian distance is defined on the chronological future of the reference
point only; its gradient is a past-directed unit timelike field there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .comparison import c_b, c_hat_b
from .errors import DomainError, UndefinedGradientError, flag, no_errors, raise_first

RIEMANNIAN = "riemannian"
LORENTZIAN = "lorentzian"

MODEL_KINDS = (
    "euclidean",
    "sphere_embedded",
    "hyperboloid_embedded",
    "minkowski",
    "lorentz_spaceform",
)

# Distances below this are rejected by gradient/Hessian routines: the
# comparison quantities blow up like 1/rho there.
COINCIDENCE_TOL = 1e-8

_QUADRIC_KINDS = frozenset(
    {"sphere_embedded", "hyperboloid_embedded", "lorentz_spaceform"}
)


@dataclass(frozen=True)
class AmbientModel:
    """A simply connected model space of constant curvature.

    ``dimension`` is the manifold dimension n+1 (hypersurfaces inside it have
    dimension n).  ``curvature`` is the constant sectional curvature b.
    """

    signature: str
    curvature: float
    dimension: int
    model_kind: str

    def __post_init__(self):
        if self.signature not in (RIEMANNIAN, LORENTZIAN):
            raise ValueError(f"unknown signature {self.signature!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model_kind {self.model_kind!r}")
        if self.dimension < 2:
            raise ValueError("model dimension must be at least 2")
        b = self.curvature
        kind = self.model_kind
        if kind == "euclidean" and (b != 0.0 or self.signature != RIEMANNIAN):
            raise ValueError("euclidean model requires b = 0, riemannian")
        if kind == "minkowski" and (b != 0.0 or self.signature != LORENTZIAN):
            raise ValueError("minkowski model requires b = 0, lorentzian")
        if kind == "sphere_embedded" and not (b > 0.0 and self.signature == RIEMANNIAN):
            raise ValueError("sphere_embedded requires b > 0, riemannian")
        if kind == "hyperboloid_embedded" and not (
            b < 0.0 and self.signature == RIEMANNIAN
        ):
            raise ValueError("hyperboloid_embedded requires b < 0, riemannian")
        if kind == "lorentz_spaceform" and not (b != 0.0 and self.signature == LORENTZIAN):
            raise ValueError("lorentz_spaceform requires b != 0, lorentzian")

    # -- constructors ------------------------------------------------------

    @classmethod
    def euclidean(cls, dimension: int) -> "AmbientModel":
        return cls(RIEMANNIAN, 0.0, dimension, "euclidean")

    @classmethod
    def sphere(cls, curvature: float, dimension: int) -> "AmbientModel":
        return cls(RIEMANNIAN, float(curvature), dimension, "sphere_embedded")

    @classmethod
    def hyperbolic(cls, curvature: float, dimension: int) -> "AmbientModel":
        return cls(RIEMANNIAN, float(curvature), dimension, "hyperboloid_embedded")

    @classmethod
    def minkowski(cls, dimension: int) -> "AmbientModel":
        return cls(LORENTZIAN, 0.0, dimension, "minkowski")

    @classmethod
    def lorentz_space_form(cls, curvature: float, dimension: int) -> "AmbientModel":
        return cls(LORENTZIAN, float(curvature), dimension, "lorentz_spaceform")

    # -- embedding data ----------------------------------------------------

    @property
    def is_quadric(self) -> bool:
        return self.model_kind in _QUADRIC_KINDS

    @property
    def embedding_dim(self) -> int:
        return self.dimension + (1 if self.is_quadric else 0)

    @cached_property
    def metric_diag(self) -> np.ndarray:
        m = self.embedding_dim
        diag = np.ones(m)
        kind = self.model_kind
        if kind in ("minkowski", "hyperboloid_embedded"):
            diag[0] = -1.0
        elif kind == "lorentz_spaceform":
            diag[0] = -1.0
            if self.curvature < 0.0:
                diag[1] = -1.0
        diag.flags.writeable = False
        return diag

    # -- point and tangent utilities ---------------------------------------

    def base_point(self) -> np.ndarray:
        """A canonical model point: the origin, or a vertex of the quadric."""
        x = np.zeros(self.embedding_dim)
        b = self.curvature
        if self.model_kind == "sphere_embedded":
            x[0] = 1.0 / np.sqrt(b)
        elif self.model_kind == "hyperboloid_embedded":
            x[0] = 1.0 / np.sqrt(-b)
        elif self.model_kind == "lorentz_spaceform":
            if b > 0:
                x[-1] = 1.0 / np.sqrt(b)
            else:
                x[0] = 1.0 / np.sqrt(-b)
        return x

    def flat_inner(self, u: np.ndarray, v: np.ndarray):
        """Flat embedding inner product over the last axis."""
        return np.vecdot(self.metric_diag * np.asarray(u), np.asarray(v))

    def point_errors(self, x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Per-row DomainError where x (..., m) is off the model quadric.

        Raises at once when x has the wrong number of coordinates.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.embedding_dim,):
            raise DomainError(
                f"point has {x.shape} coordinates, expected ({self.embedding_dim},)"
            )
        errors = no_errors(x.shape[:-1])
        if self.is_quadric:
            b = self.curvature
            off = np.abs(self.flat_inner(x, x) - 1.0 / b) > tol * max(1.0, abs(1.0 / b))
            if self.model_kind == "hyperboloid_embedded":
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

    def check_tangent(self, x: np.ndarray, v: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.embedding_dim,):
            raise DomainError("tangent vector has wrong length")
        if self.is_quadric:
            scale = max(1.0, float(np.abs(v).max()) * float(np.abs(x).max()))
            if abs(self.flat_inner(v, x)) > tol * scale:
                raise DomainError("vector is not tangent to the model at x")
        return v

    def time_orientation(self, x: np.ndarray) -> np.ndarray:
        """A future-directed timelike tangent field at x (..., m); Lorentzian models only."""
        if self.signature != LORENTZIAN:
            raise DomainError("time orientation only defined for lorentzian models")
        x = np.asarray(x, dtype=float)
        t = np.zeros(x.shape)
        if self.model_kind == "minkowski":
            t[..., 0] = 1.0
            return t
        if self.curvature > 0.0:
            t[..., 0] = 1.0
            return self.tangent_project(x, t)
        # anti-de Sitter: rotation in the (x0, x1) timelike plane is a global
        # timelike Killing field and is already tangent to the quadric.
        t[..., 0] = -x[..., 1]
        t[..., 1] = x[..., 0]
        return t


@dataclass(frozen=True)
class ReferenceBall:
    """Geodesic ball (or future ball) about a reference point."""

    center: np.ndarray
    radius: float

    def validate(self, model: AmbientModel) -> None:
        model.check_point(self.center)
        if self.radius <= 0.0:
            raise DomainError("reference ball radius must be positive")
        b = model.curvature
        if model.signature == RIEMANNIAN and b > 0.0:
            if self.radius >= np.pi / (2.0 * np.sqrt(b)):
                raise DomainError("radius must be below pi/(2 sqrt(b)) for b > 0")
        if model.signature == LORENTZIAN and b < 0.0:
            if self.radius >= np.pi / (2.0 * np.sqrt(-b)):
                raise DomainError("radius must be below pi/(2 sqrt(-b)) for b < 0")


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def geodesic_point(model: AmbientModel, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Point at parameter t on the model geodesic with gamma(0)=x, gamma'(0)=v.

    On the quadric the flat acceleration is purely normal, gamma'' = -b<v,v>
    gamma, so the geodesic is an explicit trig/hyperbolic combination of x
    and v.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not model.is_quadric:
        return x + t * v
    w2 = model.curvature * model.flat_inner(v, v)
    if abs(w2) < 1e-300:
        return x + t * v
    if w2 > 0.0:
        w = np.sqrt(w2)
        return np.cos(w * t) * x + np.sin(w * t) / w * v
    mu = np.sqrt(-w2)
    return np.cosh(mu * t) * x + np.sinh(mu * t) / mu * v


def geodesic_velocity(model: AmbientModel, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Velocity gamma'(t) of the geodesic of :func:`geodesic_point`."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not model.is_quadric:
        return v.copy()
    w2 = model.curvature * model.flat_inner(v, v)
    if abs(w2) < 1e-300:
        return v.copy()
    if w2 > 0.0:
        w = np.sqrt(w2)
        return -w * np.sin(w * t) * x + np.cos(w * t) * v
    mu = np.sqrt(-w2)
    return mu * np.sinh(mu * t) * x + np.cosh(mu * t) * v


# ---------------------------------------------------------------------------
# distance, gradient, Hessian
# ---------------------------------------------------------------------------


def distance_rows(model: AmbientModel, o: np.ndarray, x: np.ndarray):
    """(rho, errors): distances from the reference point o to the points x (..., m).

    Riemannian models give the geodesic distance; Lorentzian models give the
    Lorentzian distance, defined only on the chronological future of o.
    ``errors`` holds a :class:`DomainError` for each point where the distance
    is undefined; rho is finite but meaningless there.
    """
    o = model.check_point(o)
    x = np.asarray(x, dtype=float)
    errors = model.point_errors(x)
    kind = model.model_kind
    b = model.curvature
    if kind == "euclidean":
        d = x - o
        return np.sqrt(np.vecdot(d, d)), errors
    if kind == "minkowski":
        d = x - o
        q = model.flat_inner(d, d)
        flag(errors, (q >= 0.0) | (d[..., 0] <= 0.0),
             DomainError, "point is not in the chronological future of the reference")
        return np.sqrt(np.maximum(-q, 0.0)), errors
    c = b * model.flat_inner(x, o)
    if kind == "sphere_embedded":
        flag(errors, c <= -1.0 + 1e-12,
             DomainError, "antipodal or beyond: spherical distance undefined")
        return np.arccos(np.minimum(np.maximum(c, -1.0), 1.0)) / np.sqrt(b), errors
    if kind == "hyperboloid_embedded":
        flag(errors, c < 1.0 - 1e-9, DomainError, "point not on the same hyperboloid sheet")
        return np.arccosh(np.maximum(c, 1.0)) / np.sqrt(-b), errors
    # lorentz_spaceform: w is tangent at o and points toward x
    w = model.tangent_project(o, x)
    past = model.flat_inner(w, model.time_orientation(o)) >= 0.0
    if b > 0.0:
        flag(errors, c <= 1.0,
             DomainError, "point is not chronologically related to the reference")
        rho = np.arccosh(np.maximum(c, 1.0)) / np.sqrt(b)
    else:
        # b < 0: distance is smooth and positive only while rho < pi/(2 sqrt(-b))
        flag(errors, (c <= 0.0) | (c >= 1.0),
             DomainError, "point outside the guarded chronological range")
        rho = np.arccos(np.minimum(np.maximum(c, -1.0), 1.0)) / np.sqrt(-b)
    flag(errors, past, DomainError, "point is not in the chronological future of the reference")
    return rho, errors


def ambient_distance(model: AmbientModel, o: np.ndarray, x: np.ndarray):
    """Distance from the reference point o to x; raises where it is undefined."""
    rho, errors = distance_rows(model, o, x)
    raise_first(errors)
    return rho


def gradient_rows(model: AmbientModel, o: np.ndarray, x: np.ndarray):
    """(grad, errors): gradients of the distance function at the points x (..., m).

    Unit tangent to the radial geodesic: outward in Riemannian models, and a
    past-directed unit timelike vector in Lorentzian models.  Rows within
    COINCIDENCE_TOL of o get an :class:`UndefinedGradientError`.
    """
    rho, errors = distance_rows(model, o, x)
    flag(errors, rho < COINCIDENCE_TOL,
         UndefinedGradientError, "distance gradient undefined at the reference point")
    rho = np.maximum(rho, COINCIDENCE_TOL)[..., None]  # finite quotients on failed rows
    o = np.asarray(o, dtype=float)
    x = np.asarray(x, dtype=float)
    kind = model.model_kind
    b = model.curvature
    if kind == "euclidean":
        return (x - o) / rho, errors
    if kind == "minkowski":
        return -(x - o) / rho, errors
    proj = model.tangent_project(x, o)  # o minus its normal component at x
    if kind == "sphere_embedded":
        sb = np.sqrt(b)
        return -sb * proj / np.sin(sb * rho), errors
    if kind == "hyperboloid_embedded":
        sb = np.sqrt(-b)
        return b * proj / (sb * np.sinh(sb * rho)), errors
    if b > 0.0:
        sb = np.sqrt(b)
        return b * proj / (sb * np.sinh(sb * rho)), errors
    sb = np.sqrt(-b)
    return -b * proj / (sb * np.sin(sb * rho)), errors


def distance_gradient(model: AmbientModel, o: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of the distance function at x; raises where it is undefined."""
    grad, errors = gradient_rows(model, o, x)
    raise_first(errors)
    return grad


def _comparison_coefficient(model: AmbientModel, rho: float) -> float:
    """C_b(rho) in Riemannian models, C_{-b}(rho) in Lorentzian ones."""
    if model.signature == RIEMANNIAN:
        return c_b(model.curvature, rho)
    return c_hat_b(model.curvature, rho)


def distance_hessian_bilinear(
    model: AmbientModel,
    o: np.ndarray,
    x: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
) -> float:
    """Hess rho(X, Y) for tangent vectors X, Y at x (closed space-form value).

    Riemannian:  C_b(rho) (<X,Y> - drho(X) drho(Y))
    Lorentzian: -C_{-b}(rho) (<X,Y> + drho(X) drho(Y))
    """
    rho = ambient_distance(model, o, x)
    if rho < COINCIDENCE_TOL:
        raise UndefinedGradientError("distance Hessian undefined at the reference point")
    X = model.check_tangent(x, X)
    Y = model.check_tangent(x, Y)
    grad = distance_gradient(model, o, x)
    coeff = _comparison_coefficient(model, rho)
    gx = model.flat_inner(grad, X)
    gy = model.flat_inner(grad, Y)
    xy = model.flat_inner(X, Y)
    if model.signature == RIEMANNIAN:
        return coeff * (xy - gx * gy)
    return -coeff * (xy + gx * gy)


def distance_hessian_quadform(
    model: AmbientModel, o: np.ndarray, x: np.ndarray, X: np.ndarray
) -> float:
    """Hess rho(X, X) for a tangent vector X at x."""
    return distance_hessian_bilinear(model, o, x, X, X)


def fd_distance_hessian_quadform(
    model: AmbientModel,
    o: np.ndarray,
    x: np.ndarray,
    X: np.ndarray,
    step: float | None = None,
) -> float:
    """Finite-difference Hess rho(X, X) along the model geodesic through x.

    Along a geodesic d^2/dt^2 rho(gamma(t)) = Hess rho(gamma', gamma'), so a
    five-point second difference of the plain distance function is an oracle
    that never touches the closed-form gradient or Hessian.
    """
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    scale = float(np.linalg.norm(X))
    if scale < 1e-14:
        return 0.0
    Xn = X / scale
    if step is None:
        step = 1e-3 * max(1.0, float(np.abs(x).max()))
    f = [
        ambient_distance(model, o, geodesic_point(model, x, Xn, k * step))
        for k in (-2, -1, 0, 1, 2)
    ]
    second = (-f[4] + 16.0 * f[3] - 30.0 * f[2] + 16.0 * f[1] - f[0]) / (12.0 * step**2)
    return second * scale**2


def hessian_comparison_residual(
    model: AmbientModel, o: np.ndarray, x: np.ndarray, X: np.ndarray
) -> float:
    """Hess rho(X,X) minus the comparison bound of the model's own curvature.

    The bound is the closed form of :func:`distance_hessian_bilinear`.  In a
    space form the radial curvature equals b exactly, so both directions of
    the comparison inequality apply and the residual must vanish (up to the
    finite-difference noise of the cross-checked Hessian).
    """
    hess = fd_distance_hessian_quadform(model, o, x, X)
    return hess - distance_hessian_quadform(model, o, x, X)
