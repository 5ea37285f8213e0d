"""Hypersurface patches: induced metric, oriented normal, shape operator.

A patch couples a chart with an ambient model, an orientation convention and
an optional reference center.  Frames carry everything downstream consumers
need: metric, unit normal, second fundamental form and shape operator.

Orientation conventions:
  inner / outer -- Riemannian; "inner" points toward the declared center
                   (sign fixed by <N, grad rho> < 0).
  future        -- Lorentzian; N is the future-directed timelike unit normal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .charts import Chart, build_chart, fd_jet
from .errors import (
    ConfigError,
    DomainError,
    EmptySampleError,
    GeometryError,
    ImmersionDegeneracyError,
    NumericalError,
    SignatureError,
)
from .spaceform import LORENTZIAN, RIEMANNIAN, AmbientModel, distance_gradient

# Finite-difference jet step, relative to the per-axis domain width.
FD_JET_SCALE = 1e-5

# Determinant floor below which the chart is treated as degenerate.
DEGENERACY_TOL = 1e-12


@dataclass
class HypersurfacePatch:
    """A chart bound to an ambient model with orientation and jet policy."""

    chart: Chart
    ambient: AmbientModel
    orientation: str
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    center: np.ndarray | None = None
    jets: str = "auto"  # auto | analytic | fd

    def __post_init__(self):
        self.domain_lo = np.asarray(self.domain_lo, dtype=float)
        self.domain_hi = np.asarray(self.domain_hi, dtype=float)
        if self.orientation not in ("inner", "outer", "future"):
            raise ConfigError(f"unknown orientation {self.orientation!r}")
        if (self.orientation == "future") != (self.ambient.signature == LORENTZIAN):
            raise ConfigError("'future' orientation is required exactly for lorentzian ambients")
        if self.jets not in ("auto", "analytic", "fd"):
            raise ConfigError(f"unknown jet policy {self.jets!r}")
        if np.any(self.domain_hi <= self.domain_lo):
            raise ConfigError("empty parameter domain")

    @property
    def n(self) -> int:
        return self.chart.nparams

    @property
    def domain_width(self) -> np.ndarray:
        return self.domain_hi - self.domain_lo

    def contains(self, p: np.ndarray, slack: float = 1e-9) -> bool:
        p = np.asarray(p, dtype=float)
        pad = slack * np.maximum(1.0, np.abs(self.domain_width))
        return bool(
            np.all(p >= self.domain_lo - pad) and np.all(p <= self.domain_hi + pad)
        )

    def jet_at(self, p: np.ndarray):
        p = np.asarray(p, dtype=float)
        if self.jets != "fd":
            jet = self.chart.jet(p)
            if jet is not None:
                return jet
            if self.jets == "analytic":
                raise ConfigError("chart provides no analytic jets")
        return fd_jet(self.chart.value, p, FD_JET_SCALE * self.domain_width)


@dataclass
class PointFrame:
    """Second-order data of the immersion at one parameter point."""

    param: np.ndarray
    position: np.ndarray
    tangent: np.ndarray  # (m, n) columns span the tangent plane
    metric: np.ndarray
    normal: np.ndarray
    second_form: np.ndarray
    shape_operator: np.ndarray


def _generalized_cross(metric_diag: np.ndarray, rows: list) -> np.ndarray:
    """Vector flat-orthogonal to all rows: cofactor expansion, index raised."""
    M = np.vstack(rows)
    m = M.shape[1]
    c = np.empty(m)
    for a in range(m):
        c[a] = (-1.0) ** a * np.linalg.det(np.delete(M, a, axis=1))
    return c / metric_diag


def frame_at(patch: HypersurfacePatch, p: np.ndarray) -> PointFrame:
    """Evaluate metric, oriented unit normal, second form and shape operator."""
    p = np.asarray(p, dtype=float)
    if not patch.contains(p):
        raise DomainError("parameter point outside the patch domain")
    model = patch.ambient
    x, d1, d2 = patch.jet_at(p)
    eta = model.metric_diag
    g = d1.T @ (eta[:, None] * d1)
    g = 0.5 * (g + g.T)
    eigs = np.linalg.eigvalsh(g)
    if model.signature == LORENTZIAN and eigs.min() < -DEGENERACY_TOL:
        raise SignatureError("tangent plane is not spacelike")
    if np.linalg.det(g) <= DEGENERACY_TOL or eigs.min() <= 0.0:
        raise ImmersionDegeneracyError("chart is not immersive at this parameter")

    rows = [d1[:, i] for i in range(patch.n)]
    if model.is_quadric:
        rows.append(x)
    w = _generalized_cross(eta, rows)
    w = model.tangent_project(x, w)
    nu2 = model.flat_inner(w, w)
    if model.signature == RIEMANNIAN:
        if nu2 <= 0.0:
            raise ImmersionDegeneracyError("normal direction degenerates")
        normal = w / np.sqrt(nu2)
    else:
        if nu2 >= 0.0:
            raise SignatureError("normal direction is not timelike")
        normal = w / np.sqrt(-nu2)

    if patch.orientation == "future":
        t = model.time_orientation(x)
        if model.flat_inner(normal, t) > 0.0:  # co-oriented timelike pairs are negative
            normal = -normal
    else:
        if patch.center is not None:
            radial = distance_gradient(model, patch.center, x)
            s = model.flat_inner(normal, radial)
            if patch.orientation == "inner" and s > 0.0:
                normal = -normal
            elif patch.orientation == "outer" and s < 0.0:
                normal = -normal

    h = np.einsum("mab,m->ab", d2, eta * normal)
    h = 0.5 * (h + h.T)
    shape = np.linalg.solve(g, h)
    return PointFrame(
        param=p,
        position=x,
        tangent=d1,
        metric=g,
        normal=normal,
        second_form=h,
        shape_operator=shape,
    )


def congruence(L: np.ndarray, form: np.ndarray) -> np.ndarray:
    """L^-1 form L^-T: a chart-basis bilinear form in the frame orthonormalized by L."""
    tmp = np.linalg.solve(L, form)
    return np.linalg.solve(L, tmp.T).T


def orthonormal_shape(frame: PointFrame) -> tuple:
    """(L, A): the Cholesky factor of the metric and the shape operator L^-1 h L^-T.

    In the orthonormal frame the shape operator is symmetric, which keeps its
    spectrum real by construction.
    """
    g = frame.metric
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"metric not positive definite (cond ~ {np.linalg.cond(g):.3e})"
        ) from exc
    B = congruence(L, frame.second_form)
    return L, 0.5 * (B + B.T)


def principal_curvatures(frame: PointFrame) -> np.ndarray:
    """Eigenvalues of the shape operator, ascending."""
    return np.linalg.eigvalsh(orthonormal_shape(frame)[1])


@dataclass
class GridSamples:
    """Frames over a quasi-uniform grid, with skipped points recorded."""

    points: list = field(default_factory=list)  # (param, PointFrame)
    skipped: list = field(default_factory=list)  # (param, reason)
    axes: list = field(default_factory=list)


def grid_axes(patch: HypersurfacePatch, resolution) -> list:
    n = patch.n
    res = [int(resolution)] * n if np.isscalar(resolution) else [int(r) for r in resolution]
    if len(res) != n:
        raise DomainError("resolution must give one count per parameter axis")
    if any(r < 2 for r in res):
        raise DomainError("resolution must be at least 2 per axis")
    return [
        np.linspace(patch.domain_lo[i], patch.domain_hi[i], res[i]) for i in range(n)
    ]


def sample_grid(patch: HypersurfacePatch, resolution) -> GridSamples:
    """Evaluate frames over the product grid, skipping degenerate points."""
    axes = grid_axes(patch, resolution)
    out = GridSamples(axes=axes)
    for combo in itertools.product(*axes):
        p = np.array(combo)
        try:
            out.points.append((p, frame_at(patch, p)))
        except GeometryError as exc:
            out.skipped.append((p, f"{type(exc).__name__}: {exc}"))
    if not out.points:
        raise EmptySampleError("every grid point was rejected")
    return out


def refine_extremum(patch: HypersurfacePatch, fn, start, cell, rounds=14, sign=1.0):
    """Local grid-halving refinement of a scalar's max (min for sign = -1).

    Each round evaluates a 5^n stencil of half and whole cells around the
    current point, clipped to the parameter box, moves only on a strict
    improvement over the best value so far, then halves the cell.  Points
    where ``fn`` raises a GeometryError are skipped.  Returns (param, value).
    """
    center = np.asarray(start, dtype=float)
    best = sign * fn(center)
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    cell = np.asarray(cell, dtype=float)
    for _ in range(rounds):
        for combo in np.stack(
            np.meshgrid(*[center[i] + offsets * cell[i] for i in range(center.size)],
                        indexing="ij"),
            axis=-1,
        ).reshape(-1, center.size):
            q = np.clip(combo, patch.domain_lo, patch.domain_hi)
            try:
                val = sign * fn(q)
            except GeometryError:
                continue
            if val > best:
                best, center = val, q
        cell = cell / 2.0
    return center, sign * best


def build_patch(
    model: AmbientModel,
    kind: str,
    params: dict,
    orientation: str | None = None,
    center: np.ndarray | None = None,
    jets: str = "auto",
    domain: tuple | None = None,
) -> HypersurfacePatch:
    """Assemble a patch from a registry chart name and keyword parameters."""
    chart = build_chart(model, kind, params)
    if orientation is None:
        orientation = "future" if model.signature == LORENTZIAN else "inner"
    if domain is None:
        lo, hi = chart.default_domain()
    else:
        lo, hi = np.asarray(domain[0], dtype=float), np.asarray(domain[1], dtype=float)
    if center is not None:
        center = model.check_point(np.asarray(center, dtype=float))
    return HypersurfacePatch(
        chart=chart,
        ambient=model,
        orientation=orientation,
        domain_lo=lo,
        domain_hi=hi,
        center=center,
        jets=jets,
    )
