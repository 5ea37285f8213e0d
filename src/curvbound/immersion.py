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

from dataclasses import dataclass, fields
from functools import cached_property

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
    failed,
    no_errors,
    raise_first,
)
from .spaceform import LORENTZIAN, RIEMANNIAN, AmbientModel, gradient_rows

# Finite-difference jet step, relative to the per-axis domain width.
FD_JET_SCALE = 1e-5

# Smallest metric eigenvalue, relative to the largest, at which the chart
# still counts as immersive (spacelike, in Lorentzian models).
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

    def contains(self, p: np.ndarray, slack: float = 1e-9):
        """Whether each parameter point p (..., n) lies in the domain box."""
        p = np.asarray(p, dtype=float)
        pad = slack * np.maximum(1.0, np.abs(self.domain_width))
        return np.all((p >= self.domain_lo - pad) & (p <= self.domain_hi + pad), axis=-1)

    def jet_at(self, p: np.ndarray):
        """(position, d1, d2) at the parameter points p (..., n)."""
        p = np.asarray(p, dtype=float)
        if self.jets != "fd":
            jet = self.chart.jet(p)
            if jet is not None:
                return jet
            if self.jets == "analytic":
                raise ConfigError("chart provides no analytic jets")
        return fd_jet(self.chart.value, p, FD_JET_SCALE * self.domain_width)


def induced_metric(d1: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """First fundamental form of the tangent columns d1 (..., m, n) in the flat metric eta."""
    g = np.swapaxes(d1, -1, -2) @ (eta[:, None] * d1)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


@dataclass
class PointFrame:
    """Second-order data of the immersion at parameter points.

    Fields carry the leading sample axes of the points they were evaluated
    at; ``frame[i]`` is the frame of sample i.
    """

    param: np.ndarray
    position: np.ndarray
    tangent: np.ndarray  # (..., m, n) columns span the tangent plane
    metric: np.ndarray
    normal: np.ndarray
    second_form: np.ndarray
    shape_operator: np.ndarray

    def __getitem__(self, i) -> "PointFrame":
        return PointFrame(*(getattr(self, f.name)[i] for f in fields(self)))


def frames_at(patch: HypersurfacePatch, P: np.ndarray):
    """Frames at the rows of P (N, n): metric, oriented unit normal, second form, shape operator.

    Returns (frames, errors).  ``frames`` holds the rows that have a frame, in
    order; ``errors[i]`` is the GeometryError of row i, or None when row i is
    among them.  Each failing check removes its rows before the next step, so
    stacked linear algebra only sees rows that passed.
    """
    P = np.asarray(P, dtype=float)
    model = patch.ambient
    errors = no_errors(len(P))
    rows = np.arange(len(P))

    def reject(bad, exc, *arrays):
        """Record exc for the surviving rows flagged bad; return ``arrays`` without them."""
        nonlocal rows
        if not bad.any():
            return arrays
        errors[rows[bad]] = exc[bad] if isinstance(exc, np.ndarray) else exc
        rows = rows[~bad]
        return [a[~bad] for a in arrays]

    reject(~patch.contains(P), DomainError("parameter point outside the patch domain"))
    undefined = patch.chart.undefined(P[rows], jet=patch.jets != "fd")
    if undefined is not None:
        reject(failed(undefined), undefined)
    x, d1, d2 = patch.jet_at(P[rows])
    eta = model.metric_diag
    g = induced_metric(d1, eta)
    eigs = np.linalg.eigvalsh(g)
    low = eigs[:, 0]  # eigvalsh sorts ascending
    floor = DEGENERACY_TOL * np.maximum(-low, eigs[:, -1])
    if model.signature == LORENTZIAN:
        x, d1, d2, g, low, floor = reject(low < -floor, SignatureError(
            "tangent plane is not spacelike"), x, d1, d2, g, low, floor)
    x, d1, d2, g = reject(low <= floor, ImmersionDegeneracyError(
        "chart is not immersive at this parameter"), x, d1, d2, g)

    # cofactor expansion of the tangent (and, on a quadric, position) rows,
    # index raised: a vector flat-orthogonal to all of them
    M = np.concatenate([np.swapaxes(d1, -1, -2), x[:, None, :]] if model.is_quadric
                       else [np.swapaxes(d1, -1, -2)], axis=-2)
    m = x.shape[-1]
    minors = np.swapaxes(M[..., [[c for c in range(m) if c != a] for a in range(m)]], -3, -2)
    # C order: flat inner products below round by the memory layout of w
    w = (-1.0) ** np.arange(m) * np.linalg.det(np.ascontiguousarray(minors))
    w = model.tangent_project(x, w / eta)
    nu2 = model.flat_inner(w, w)
    # the unit normal is spacelike in Riemannian and timelike in Lorentzian models
    eps = 1.0 if model.signature == RIEMANNIAN else -1.0
    wrong = ImmersionDegeneracyError("normal direction degenerates") if eps > 0 else (
        SignatureError("normal direction is not timelike"))
    x, d1, d2, g, w, nu2 = reject(eps * nu2 <= 0.0, wrong, x, d1, d2, g, w, nu2)
    normal = w / np.sqrt(eps * nu2)[:, None]

    flip = np.zeros(len(x), dtype=bool)
    if patch.orientation == "future":
        # co-oriented timelike pairs are negative
        flip = model.flat_inner(normal, model.time_orientation(x)) > 0.0
    elif patch.center is not None:
        radial, radial_errors = gradient_rows(model, patch.center, x)
        x, d1, d2, g, normal, radial = reject(
            failed(radial_errors), radial_errors, x, d1, d2, g, normal, radial)
        s = model.flat_inner(normal, radial)
        flip = s > 0.0 if patch.orientation == "inner" else s < 0.0
    normal = np.where(flip[:, None], -normal, normal)

    h = np.einsum("...mab,...m->...ab", d2, eta * normal)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    frames = PointFrame(
        param=P[rows],
        position=x,
        tangent=d1,
        metric=g,
        normal=normal,
        second_form=h,
        shape_operator=np.linalg.solve(g, h),
    )
    return frames, errors


def frame_at(patch: HypersurfacePatch, p: np.ndarray) -> PointFrame:
    """The frame at one parameter point p (n,); raises its GeometryError."""
    frames, errors = frames_at(patch, np.asarray(p, dtype=float)[None])
    raise_first(errors)
    return frames[0]


def congruence(L: np.ndarray, form: np.ndarray) -> np.ndarray:
    """L^-1 form L^-T: chart-basis bilinear forms in the frames orthonormalized by L."""
    tmp = np.linalg.solve(L, form)
    return np.swapaxes(np.linalg.solve(L, np.swapaxes(tmp, -1, -2)), -1, -2)


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
            f"metric not positive definite (cond ~ {np.max(np.linalg.cond(g)):.3e})"
        ) from exc
    B = congruence(L, frame.second_form)
    return L, 0.5 * (B + np.swapaxes(B, -1, -2))


def principal_curvatures(frame: PointFrame) -> np.ndarray:
    """Eigenvalues of the shape operator, ascending."""
    return np.linalg.eigvalsh(orthonormal_shape(frame)[1])


@dataclass
class GridSamples:
    """Frames over a quasi-uniform grid, with skipped points recorded."""

    frames: PointFrame  # the grid points that have a frame, along a leading axis
    skipped: list  # (param, reason)
    axes: list

    @cached_property
    def points(self) -> list:
        """(param, PointFrame) for each grid point that has a frame."""
        return [(self.frames.param[i], self.frames[i]) for i in range(len(self.frames.param))]


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


def grid_points(axes: list) -> np.ndarray:
    """The product grid of ``axes`` as rows (N, n), last axis varying fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def sample_grid(patch: HypersurfacePatch, resolution) -> GridSamples:
    """Evaluate frames over the product grid, skipping degenerate points."""
    axes = grid_axes(patch, resolution)
    P = grid_points(axes)
    frames, errors = frames_at(patch, P)
    if not len(frames.param):
        raise EmptySampleError("every grid point was rejected")
    skipped = [
        (P[i], f"{type(exc).__name__}: {exc}") for i, exc in enumerate(errors) if exc is not None
    ]
    return GridSamples(frames=frames, skipped=skipped, axes=axes)


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
        for combo in grid_points([center[i] + offsets * cell[i] for i in range(center.size)]):
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
