"""Hypersurface patches and their frames: metric, oriented normal, principal curvatures.

A patch binds a chart to a model with an orientation: ``inner`` (toward the center,
<N, grad rho> < 0) or ``outer`` in Riemannian models, ``future`` (the future-directed
timelike unit normal) in Lorentzian ones.  README's "Design" section describes the
frames, the kept frame and the refiner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .charts import Chart, build_chart, fd_jet, grid_axes, grid_points
from .curvature import complement_symmetric, signed_values, trace_coefficients
from .errors import (
    ConfigError,
    DomainError,
    EmptySampleError,
    ImmersionDegeneracyError,
    SignatureError,
    check_order,
    failed,
    fold_last,
    is_integer,
    no_errors,
    raise_first,
    read_only,
    read_only_copy,
)
from .spaceform import LORENTZIAN, AmbientModel, distance_rows, gradient_rows

# Finite-difference jet step, relative to the per-axis domain width.
FD_JET_SCALE = 1e-4
# kappa and H_k of FD jets at that step: within this of the analytic ones,
# relative to max(1, max|kappa|^k), on geodesic spheres (a property test).
FD_JET_TOL = 1e-5

# Smallest LDL^T pivot of the metric, relative to the largest pivot in
# magnitude, at which the chart still counts as immersive (spacelike, in
# Lorentzian models).  The pivots of a positive definite metric lie within its
# spectrum, so a row whose eigenvalue ratio is above this passes too.
DEGENERACY_TOL = 1e-12

# A refinement stencil whose values spread over at most this many ulp of the
# best one is flat; the distance spreads over up to 6 on the bundled distance
# spheres.  It also bounds the round-off of the quadratic fit's coefficients.
ROUNDOFF_ULPS = 16
# A refinement stops where its quadratic fit predicts a gain of at most this
# many ulp of the best value over the stencil's middle: a step to the vertex
# would not change the value.  At 16 ulp the sphere-height search stopped at
# u = 1 - 4.4e-16 with |grad u| = 3e-8, at 1 ulp at u = 1 with 3.9e-13.
GAIN_ULPS = 1


@dataclass(frozen=True, eq=False)
class HypersurfacePatch:
    """A chart bound to an ambient model with orientation and jet policy.

    Frozen and compared by identity, with read-only copies of its domain and of its
    center, which is validated as a model point.  Built once, read-only:
    ``domain_width``, ``wraps`` (the chart's periodic axes on which the box spans
    exactly 2 pi), the padded box of :meth:`contains` and the FD-jet steps.  An unknown
    orientation or jet policy, or a box that is not finite, (n,) and non-empty, raises
    ConfigError.
    """

    chart: Chart
    ambient: AmbientModel
    orientation: str
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    center: np.ndarray | None = None
    jets: str = "auto"  # auto | analytic | fd
    domain_width: np.ndarray = field(init=False, repr=False)
    wraps: np.ndarray = field(init=False, repr=False)  # (n,) bool
    _padded_box: tuple = field(init=False, repr=False)  # (lo, hi), widened by round-off
    _fd_steps: np.ndarray = field(init=False, repr=False)
    # frame_at's last frame, keyed by the bytes of its parameter point; keyed by
    # the frame, the (rho, grad) from the center that oriented its normal, if
    # any; and what operators.restriction_at keeps beside it, keyed by field;
    # frame_at clears all of it when it builds the frame of another point
    _last_frame: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # operators' distance field of the last origin a single-point call took,
    # keyed by that origin's shape and bytes, so the origin is validated once
    _origin_field: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("domain_lo", "domain_hi", "center"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, read_only_copy(getattr(self, name)))
        if self.center is not None:
            self.ambient.check_point(self.center)
        if self.orientation not in ("inner", "outer", "future"):
            raise ConfigError(f"unknown orientation {self.orientation!r}")
        if (self.orientation == "future") != (self.ambient.signature == LORENTZIAN):
            raise ConfigError("'future' orientation is required exactly for lorentzian ambients")
        if self.jets not in ("auto", "analytic", "fd"):
            raise ConfigError(f"unknown jet policy {self.jets!r}")
        if self.jets == "fd" and type(self.chart).undefined is not Chart.undefined:
            # such a chart (a table) is defined only at some points, and FD steps leave them
            raise ConfigError(f"jet policy 'fd' is not available for {type(self.chart).__name__}, "
                              "which is defined only at some points")
        lo, hi = self.domain_lo, self.domain_hi
        if not all(a.shape == (self.n,) and np.isfinite(a).all() for a in (lo, hi)):
            raise ConfigError(f"parameter box bounds must be finite and of shape ({self.n},)")
        if np.any(hi <= lo):
            raise ConfigError("empty parameter domain")
        width = read_only(hi - lo)
        pad = 1e-9 * np.maximum(1.0, np.abs(width))
        wraps = np.zeros(width.shape, dtype=bool)
        wraps[list(self.chart.periodic_axes)] = True
        object.__setattr__(self, "domain_width", width)
        object.__setattr__(self, "wraps", read_only(wraps & (width == 2.0 * np.pi)))
        object.__setattr__(self, "_padded_box", read_only((lo - pad, hi + pad)))
        object.__setattr__(self, "_fd_steps", read_only(FD_JET_SCALE * width))

    @property
    def n(self) -> int:
        return self.chart.nparams

    def contains(self, p: np.ndarray):
        """Whether each parameter point p (..., n) lies in the domain box, up to round-off."""
        p = np.asarray(p, dtype=float)
        lo, hi = self._padded_box
        return fold_last(np.logical_and, (p >= lo) & (p <= hi))

    def grid(self, resolution) -> tuple:
        """(P, cell): the box's product grid as rows (N, n), last axis fastest, and its step (n,).

        ``resolution`` is one node count for every axis or one per axis, each an integer
        of at least 2 (else DomainError).  On an axis that wraps, the node at
        ``domain_hi`` is the one at ``domain_lo`` and is left out.
        """
        axes = grid_axes(self.domain_lo, self.domain_hi, resolution)
        cell = self.domain_width / np.array([len(a) - 1 for a in axes])
        return grid_points([a[:-1] if w else a for a, w in zip(axes, self.wraps)]), read_only(cell)

    def jet_at(self, p: np.ndarray):
        """(position, d1, d2) at the parameter points p (..., n)."""
        p = np.asarray(p, dtype=float)
        if self.jets != "fd":
            jet = self.chart.jet(p)
            if jet is not None:
                return jet
            if self.jets == "analytic":
                raise ConfigError("chart provides no analytic jets")
        return fd_jet(self.chart.value, p, self._fd_steps)


def induced_metric(d1: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """First fundamental form of the tangent columns d1 (..., m, n) in the flat metric eta."""
    g = np.swapaxes(d1, -1, -2) @ (eta[:, None] * d1)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


# The kernels below run on "samples last" arrays: the matrix axes lead and the
# sample axes trail, C-contiguous, so every elementwise step is one long inner
# loop over the samples.  Such an array may be a view of the caller's, so no
# kernel writes into its inputs.  Each entry is a fixed sequence of IEEE
# products and sums, so a sample's bits do not depend on its batch.


@lru_cache(maxsize=None)
def _rotation(ndim: int, shift: int) -> tuple:
    """The axes of an ndim-array, rotated left by ``shift``."""
    return tuple(range(shift, ndim)) + tuple(range(shift))


def _samples_last(a: np.ndarray, core: int = 2) -> np.ndarray:
    """a (..., *c) as a C-contiguous (*c, ...): a view of ``a`` if it has that layout, or a copy."""
    return np.ascontiguousarray(a.transpose(_rotation(a.ndim, a.ndim - core)))


def _samples_first(a: np.ndarray, core: int = 2) -> np.ndarray:
    """The inverse of :func:`_samples_last`: (*c, ...) as a C-contiguous (..., *c), view or copy."""
    return np.ascontiguousarray(a.transpose(_rotation(a.ndim, core)))


def _matmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X Y of samples-last stacks X (I, K, ...) and Y (K, J, ...), summed term by term in K."""
    acc = X[:, 0, None] * Y[0]
    for k in range(1, X.shape[1]):
        acc = acc + X[:, k, None] * Y[k]
    return acc


def ldl(gt: np.ndarray) -> tuple:
    """(d, L^-1) with g = L diag(d) L^T, L unit lower triangular, of samples-last g (n, n, ...).

    One elimination on the block [g | I], without pivoting: a zero pivot makes later
    entries inf or NaN, and :func:`immersive` rejects such rows.
    """
    n, diagonal = len(gt), np.arange(len(gt))
    S = np.concatenate([gt, np.zeros(gt.shape)], axis=1)
    S[diagonal, n + diagonal] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1):
            S[k + 1:, k + 1:] -= (S[k + 1:, k] / S[k, k])[:, None] * S[k, k + 1:]
    return S[diagonal, diagonal], S[:, n:]


def immersive(d: np.ndarray) -> np.ndarray:
    """Rows whose pivots d (n, ...) are all finite and above DEGENERACY_TOL of the largest |d|."""
    return np.all(d > DEGENERACY_TOL * np.abs(d).max(axis=0), axis=0)


def congruence(Rt: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sym(R h R^T) (..., n, n) of the forms h (..., n, n) and the samples-last R (n, n, ...)."""
    A = _matmul(_matmul(Rt, _samples_last(h)), np.swapaxes(Rt, 0, 1))
    return _samples_first(0.5 * (A + np.swapaxes(A, 0, 1)))


def _symmetric_spectrum(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., n) of the symmetric matrices A (..., n, n).

    At n = 2 in closed form, the diagonal's mean -+ the spectrum's radius; else eigvalsh.
    """
    if A.shape[-1] != 2:
        return np.linalg.eigvalsh(A)
    a, b, c = A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]
    m = 0.5 * (a + c)
    r = np.hypot(0.5 * (a - c), b)
    spectrum = np.empty(A.shape[:-1])
    spectrum[..., 0] = m - r
    spectrum[..., 1] = m + r
    return spectrum


@lru_cache(maxsize=None)
def _laplace_plan(m: int) -> list:
    """Per row k of an (m-1) x m matrix: the (columns, parents) of its Laplace step.

    Step k expands the (k+1)-square minors of rows 0..k along row k, one term per
    column of each subset; a column c with a negative sign reads as c + m, an index
    into the row followed by its negation.  The last step lists the subset without
    column a at index a, the cofactor sign (-1)^a folded in.
    """
    plan, index = [], {(): 0}
    for k in range(m - 1):
        subsets = (list(combinations(range(m), k + 1)) if k < m - 2
                   else [tuple(c for c in range(m) if c != a) for a in range(m)])
        parents = np.array([[index[s[:t] + s[t + 1:]] for t in range(k + 1)] for s in subsets])
        negative = (k + np.arange(k + 1)) % 2 == 1
        if k == m - 2:
            negative = negative ^ (np.arange(m)[:, None] % 2 == 1)
        plan.append(read_only((np.array(subsets) + m * negative, parents)))
        index = {s: i for i, s in enumerate(subsets)}
    return plan


def cofactor_vector(M: np.ndarray) -> np.ndarray:
    """w (..., m), w_a = (-1)^a det(M without column a), of the row stacks M (..., m-1, m).

    <w, v> (flat, index lowered) is the determinant of M with v appended as a last
    row, so w is flat-orthogonal to every row of M.
    """
    Mt = _samples_last(M)
    D = np.ones((1,) + Mt.shape[2:])
    for k, (cols, parents) in enumerate(_laplace_plan(Mt.shape[1])):
        terms = np.concatenate([Mt[k], -Mt[k]])[cols] * D[parents]
        D = terms[:, 0]
        for t in range(1, terms.shape[1]):
            D = D + terms[:, t]
    # C order: flat inner products downstream round by the memory layout of w
    return _samples_first(D, 1)


@dataclass(eq=False)
class PointFrame:
    """Second-order data of the immersion at parameter points, over leading sample axes.

    Every field is samples first, and ``frame[i]`` is the frame of sample i, each
    field a view of its row.  ``H`` and ``newton_eigenvalues`` are signed for
    ``signature``, and ``principal`` is computed on first use.  ``congruence`` is the
    one factorization of the metric, R = D^-1/2 L^-1 with g^-1 = R^T R.  The frame is
    all the operator data the contractions of :mod:`curvbound.operators` read.
    """

    param: np.ndarray
    position: np.ndarray
    tangent: np.ndarray  # (..., m, n) columns span the tangent plane
    metric: np.ndarray
    normal: np.ndarray
    second_form: np.ndarray
    kappa: np.ndarray  # (..., n) principal curvatures, ascending
    H: np.ndarray  # (..., n+1) H_0..H_n in the convention of ``signature``
    newton_eigenvalues: np.ndarray  # (..., n+1, n) entry (k, i): P_k on direction i; row n zero
    congruence: np.ndarray  # (..., n, n) R = D^-1/2 L^-1, lower triangular, with g = L D L^T
    signature: str  # the ambient signature H and newton_eigenvalues are signed for

    def __getitem__(self, i) -> "PointFrame":
        return PointFrame(*(getattr(self, name)[i] for name in ROW_FIELDS), self.signature)

    @cached_property
    def principal(self) -> np.ndarray:
        """(..., n, n): metric-orthonormal principal directions as columns, in kappa's order."""
        Rt = _samples_last(self.congruence)
        V = np.linalg.eigh(congruence(Rt, self.second_form))[1]
        E = _samples_first(_matmul(np.swapaxes(Rt, 0, 1), _samples_last(V)))  # R^T V
        return read_only(E)

    def newton_trace(self, k: int):
        """Tr P_k = c_k H_k, over the leading axes, for k in 0..n-1."""
        n = self.kappa.shape[-1]
        check_order(k, n - 1)
        return trace_coefficients(n)[k] * self.H[..., k]

    def newton_psd_margin(self, k: int):
        """Smallest eigenvalue of P_k over max(1, max|kappa|^max(k, 1)), for k in 0..n.

        P_k counts as PSD down to -TAU_ELL.  The power is the ufunc's at one sample too,
        so a grid row and :func:`frame_at` agree bit for bit.
        """
        check_order(k, self.kappa.shape[-1])
        scale = np.power(fold_last(np.maximum, np.abs(self.kappa)), max(k, 1))
        return fold_last(np.minimum, self.newton_eigenvalues[..., k, :]) / np.maximum(1.0, scale)

    def raise_index(self, covector: np.ndarray) -> np.ndarray:
        """g^-1 covector = R^T (R covector), for covectors (..., n) in the chart basis."""
        Rt = _samples_last(self.congruence)
        y = _matmul(Rt, _samples_last(covector, 1)[:, None])
        return _samples_first(_matmul(np.swapaxes(Rt, 0, 1), y)[:, 0], 1)


# the array fields of a frame, in constructor order: frame[i] takes row i of each
ROW_FIELDS = tuple(f.name for f in fields(PointFrame) if f.name != "signature")


def frames_at(patch: HypersurfacePatch, P: np.ndarray, jets=None):
    """Frames at the rows of P (N, n); returns (frames, errors, distances).

    ``frames`` holds the rows that have a frame, in order, with read-only arrays;
    ``errors[i]`` is the GeometryError of row i, or None when row i has a frame.  A row
    fails outside the box (DomainError), where the chart is undefined, where its jet
    has a non-finite entry (DomainError, before its metric is formed), where the chart
    is not immersive or its normal degenerates (ImmersionDegeneracyError, or in
    Lorentzian models SignatureError for a tangent plane that is not spacelike), and,
    on an inner or outer patch with a center, where the distance gradient that orients
    its normal is undefined.
    ``distances`` is the read-only (rho, grad) from the center at the rows of
    ``frames`` where that orientation measured them, else None.  ``jets`` (x, d1,
    d2) at the rows of P, if given, must be ``patch.jet_at``'s there and are copied;
    without them ``patch.jet_at`` is called once, on the rows that pass the box and
    definedness checks.  The metric is factored once (:func:`ldl`) and the S_k table
    is signed once per batch.
    """
    P = np.asarray(P, dtype=float)
    model = patch.ambient
    errors = no_errors(len(P))
    rows = np.arange(len(P))
    factor = ()  # (d, L^-1) of the surviving rows' metrics, samples last

    def reject(bad, exc, *arrays):
        """Record exc for the surviving rows flagged bad; return ``arrays`` without them."""
        nonlocal rows, factor
        if not np.count_nonzero(bad):
            return arrays
        errors[rows[bad]] = exc[bad] if isinstance(exc, np.ndarray) else exc
        rows = rows[~bad]
        factor = tuple(a[..., ~bad] for a in factor)
        return [a[~bad] for a in arrays]

    reject(~patch.contains(P), DomainError("parameter point outside the patch domain"))
    if type(patch.chart).undefined is not Chart.undefined:
        undefined = patch.chart.undefined(P[rows], jet=True)
        reject(failed(undefined), undefined)
    x, d1, d2 = patch.jet_at(P[rows]) if jets is None else (a[rows] for a in jets)
    # one whole-array test on the common, all-finite path
    if not (np.isfinite(x).all() and np.isfinite(d1).all() and np.isfinite(d2).all()):
        finite = (np.isfinite(x).all(-1) & np.isfinite(d1).all((-2, -1))
                  & np.isfinite(d2).all((-3, -2, -1)))
        x, d1, d2 = reject(~finite, DomainError("chart jet is not finite at this parameter"),
                           x, d1, d2)
    eta = model.metric_diag
    g = induced_metric(d1, eta)
    factor = ldl(_samples_last(g))
    bad = ~immersive(factor[0])
    if np.count_nonzero(bad):
        # the pivots decide which rows fail and the spectrum of those rows names
        # the reason: a rejected row has lambda_min/lambda_max <= d_min/d_max
        kinds = no_errors(len(bad))
        kinds[bad] = ImmersionDegeneracyError("chart is not immersive at this parameter")
        if model.signature == LORENTZIAN:
            eigs = _symmetric_spectrum(g[bad])
            timelike = eigs[:, 0] < -DEGENERACY_TOL * np.maximum(-eigs[:, 0], eigs[:, -1])
            kinds[np.flatnonzero(bad)[timelike]] = SignatureError("tangent plane is not spacelike")
        x, d1, d2, g = reject(bad, kinds, x, d1, d2, g)

    # cofactor expansion of the tangent (and, on a quadric, position) rows,
    # index raised: a vector flat-orthogonal to all of them
    M = np.concatenate([np.swapaxes(d1, -1, -2), x[:, None, :]] if model.is_quadric
                       else [np.swapaxes(d1, -1, -2)], axis=-2)
    w = model.tangent_project(x, cofactor_vector(M) / eta)
    nu2 = model.flat_inner(w, w)
    # the unit normal is spacelike in Riemannian and timelike in Lorentzian models
    eps = model.epsilon
    wrong = ImmersionDegeneracyError("normal direction degenerates") if eps > 0 else (
        SignatureError("normal direction is not timelike"))
    x, d1, d2, g, w, nu2 = reject(eps * nu2 <= 0.0, wrong, x, d1, d2, g, w, nu2)
    normal = w / np.sqrt(eps * nu2)[:, None]

    flip, distances = np.zeros(len(x), dtype=bool), None
    if patch.orientation == "future":
        # co-oriented timelike pairs are negative
        flip = model.flat_inner(normal, model.time_orientation(x)) > 0.0
    elif patch.center is not None:
        rho, radial, radial_errors = gradient_rows(model, patch.center, x)
        x, d1, d2, g, normal, radial, rho = reject(
            failed(radial_errors), radial_errors, x, d1, d2, g, normal, radial, rho)
        distances = read_only((rho, radial))
        s = model.flat_inner(normal, radial)
        flip = s > 0.0 if patch.orientation == "inner" else s < 0.0
    normal = np.where(flip[:, None], -normal, normal)

    h = np.einsum("...mab,...m->...ab", d2, eta * normal)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    R = factor[1] / np.sqrt(factor[0])[:, None]  # D^-1/2 L^-1
    kappa = _symmetric_spectrum(congruence(R, h))
    H, newton_eigenvalues = signed_values(complement_symmetric(kappa), model.signature)
    frames = PointFrame(
        param=P[rows],
        position=x,
        tangent=d1,
        metric=g,
        normal=normal,
        second_form=h,
        kappa=kappa,
        H=H,
        newton_eigenvalues=newton_eigenvalues,
        congruence=_samples_first(R),
        signature=model.signature,
    )
    return read_only(frames), errors, distances


def frame_at(patch: HypersurfacePatch, p: np.ndarray, jets=None) -> PointFrame:
    """The frame at one parameter point p (n,); raises its GeometryError.

    The patch keeps the last frame built here, so repeated calls at one p return the
    same frame, with read-only arrays.  The frame of another point drops it, with
    what is kept beside it: the center's (rho, grad) that oriented its normal, which
    :func:`curvbound.operators.restrict_field` reads, and the restrictions of
    :func:`curvbound.operators.restriction_at`.  A failing point is not kept and
    raises on every call; a p of another shape than (n,) raises DomainError.
    ``jets`` are ``patch.jet_at``'s at p[None], if the caller has them: a frame built
    here reads them (:func:`frames_at`), a kept frame ignores them.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (patch.n,):
        raise DomainError(f"parameter point has shape {p.shape}, expected ({patch.n},)")
    key = p.tobytes()
    frame = patch._last_frame.get(key)
    if frame is None:
        frames, errors, distances = frames_at(patch, p[None], jets)
        raise_first(errors)
        frame = frames[0]
        patch._last_frame.clear()
        patch._last_frame[key] = frame
        if distances is not None:
            patch._last_frame[frame] = (distances[0][0], distances[1][0])
    return frame


@dataclass(eq=False)
class GridSamples:
    """Frames over a patch's grid (:meth:`HypersurfacePatch.grid`), with skipped points recorded."""

    frames: PointFrame  # the grid points that have a frame, along a leading axis
    skipped: list  # (param, reason)
    patch: HypersurfacePatch
    cell: np.ndarray  # (n,) the grid's step per axis
    # the distances of the kept rows that oriented the normal, or None (see frames_at)
    _rho: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def u(self) -> np.ndarray:
        """(N,) read-only distances from the patch's center; raises where one is undefined.

        They are those that oriented the normal where the orientation measured them, else
        measured here; a patch without a center raises DomainError.
        """
        if self._rho is not None:
            return self._rho
        if self.patch.center is None:
            raise DomainError("the patch has no center to measure the distance from")
        # the patch validated its center, so only the positions are checked here
        rho, errors = distance_rows(self.patch.ambient, self.patch.center, self.frames.position)
        raise_first(errors)
        return read_only(rho)

    @cached_property
    def points(self) -> list:
        """(param, frames[i]) for each grid point that has a frame, from one pass over the rows."""
        f = self.frames
        rows = zip(*(getattr(f, name) for name in ROW_FIELDS))
        return [(row[0], PointFrame(*row, f.signature)) for row in rows]


def sample_grid(patch: HypersurfacePatch, resolution) -> GridSamples:
    """Frames at the rows of ``patch.grid(resolution)``; records the points without one."""
    P, cell = patch.grid(resolution)
    frames, errors, distances = frames_at(patch, P)
    if not len(frames.param):
        raise EmptySampleError("every grid point was rejected")
    skipped = [(P[i], f"{type(errors[i]).__name__}: {errors[i]}")
               for i in np.flatnonzero(failed(errors))]
    return GridSamples(frames=frames, skipped=skipped, patch=patch, cell=cell,
                       _rho=None if distances is None else distances[0])


@lru_cache(maxsize=None)
def _refinement_stencil(n: int) -> np.ndarray:
    """The 5^n offsets (in cells) of a refinement round, read-only, in grid order."""
    return read_only(grid_points([np.array([-1.0, -0.5, 0.0, 0.5, 1.0])] * n))


@lru_cache(maxsize=None)
def _quadratic_fit(n: int) -> np.ndarray:
    """(n + n^2, 5^n) read-only rows of the stencil's pseudo-inverse for a quadratic fit.

    They map the 5^n values to g, then H row-major, of q(s) = c + g.s + s.H s / 2 in
    cells.  The terms 1, s_i, s_i s_j (i < j) and s_i^2 - mean(s_i^2) are orthogonal
    on the tensor stencil, so each coefficient is a projection.
    """
    s = _refinement_stencil(n)
    terms = np.concatenate([s, (s[:, :, None] * s[:, None, :]).reshape(len(s), n * n)], axis=1)
    diagonal = n + np.arange(n) * (n + 1)
    terms[:, diagonal] = s * s - np.mean(s * s, axis=0)
    fit = terms / np.sum(terms * terms, axis=0)
    fit[:, diagonal] *= 2.0  # H_ii is twice the coefficient of s_i^2
    return read_only(np.ascontiguousarray(fit.T))


def _symmetric_eigen(H: np.ndarray) -> tuple:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of one symmetric H.

    At n = 2 in closed form, the vectors at the angle atan2(2b, a - c) / 2; else eigh.
    """
    if H.shape != (2, 2):
        return np.linalg.eigh(H)
    t = 0.5 * math.atan2(2.0 * H[0, 1], H[0, 0] - H[1, 1])
    cos, sin = math.cos(t), math.sin(t)
    return _symmetric_spectrum(H), np.array([[-sin, cos], [cos, sin]])


def _quadratic_vertex(values: np.ndarray, n: int, noise: float):
    """(offset, gain) of the maximum of the quadratic fitted to a stencil's values, or None.

    The offset is in cells; the gain is the fitted maximum's rise over the stencil's
    middle.  None unless some eigendirection of the fit's Hessian curves down by more
    than ``noise``, every other one is flat within it (curvature and slope), and the
    vertex lies in the stencil.
    """
    c = _quadratic_fit(n) @ values
    lam, V = _symmetric_eigen(c[n:].reshape(n, n))
    slope = V.T @ c[:n]
    down = lam < -noise
    flat = ~down
    if not down.any() or np.any(np.maximum(lam[flat], np.abs(slope[flat])) > noise):
        return None
    step = -slope[down] / lam[down]
    s = V[:, down] @ step
    return (s, 0.5 * float(step @ slope[down])) if np.abs(s).max() <= 1.0 else None


def refine_extremum(patch: HypersurfacePatch, fn, starts, cell, signs, rounds=14):
    """Refinement of a scalar's max (min for sign -1) from each start, on shrinking stencils.

    ``starts`` (J, n) with J >= 1, ``signs`` (J,) of 1 or -1, ``cell`` (n,), the
    first stencil's step per axis, finite and > 0, and ``rounds``, a non-negative
    integer, are checked before any ``fn`` call (DomainError).  ``fn`` maps rows
    (N, n) to (values, errors).  One ``fn`` call per round evaluates the 5^n stencils
    of half and whole cells of every start still refining, in start order: for an
    ``fn`` that values each row on its own, the J one-start refinements bit for bit.
    A stencil's coordinates are taken modulo the width on an axis that wraps and
    clipped to the box on the others.  The first stencil's middle row is the start,
    so its error (the first failing start's) is raised and it costs no call of its
    own.  A round moves the best point to the first best row only on a strict
    improvement.  It stops if every row has a value and they spread over at most
    ``ROUNDOFF_ULPS`` ulp of the best.  Where no row failed or was clipped and the
    fitted quadratic has a maximum in the stencil, it stops if that maximum gains at
    most ``GAIN_ULPS`` ulp over the middle, else centers the next stencil on it
    (modulo the width on an axis that wraps) with a quarter of the cell.  Otherwise
    it centers the next stencil on the best point with half the cell.  ``rounds``
    bounds the halvings, a quarter counting as two, so there are at most ``rounds``
    calls; ``rounds`` = 0 evaluates the starts alone, in one call.  Returns (params,
    values) of the best row from each start, (J, n) and (J,).
    """
    if not (is_integer(rounds) and rounds >= 0):
        raise DomainError(f"rounds = {rounds!r} is not a non-negative integer")
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != patch.n or not len(starts):
        raise DomainError(f"starts have shape {starts.shape}, expected (J, {patch.n}), J >= 1")
    if np.shape(signs) != (len(starts),):
        raise DomainError(f"signs = {signs!r}: expected one per start")
    if not set(np.asarray(signs).tolist()) <= {1.0, -1.0}:
        raise DomainError(f"signs = {signs!r}: each sign must be 1 or -1")
    cell = np.asarray(cell, dtype=float)
    if cell.shape != (patch.n,):
        raise DomainError(f"cell has shape {cell.shape}, expected ({patch.n},)")
    if not (np.isfinite(cell).all() and (cell > 0.0).all()):
        raise DomainError(f"cell = {cell.tolist()}: each step must be finite and > 0")
    if not rounds:
        values, errors = fn(starts)
        raise_first(errors)
        return starts, values
    n, lo, hi, wraps, width = (patch.n, patch.domain_lo, patch.domain_hi, patch.wraps,
                               patch.domain_width)
    stencil = _refinement_stencil(n)
    size, mid = len(stencil), len(stencil) // 2  # mid: the zero offset
    # per start: its best point and value, next stencil's middle and cell, and halvings
    center, best, middle = list(starts), [None] * len(starts), list(starts)
    cells, halvings = [cell] * len(starts), [0] * len(starts)
    live = list(range(len(starts)))  # the starts still refining, in start order
    while live:
        stencils, outside = [], []
        for j in live:
            Q = middle[j] + stencil * cells[j]
            leaves = (middle[j] - cells[j] < lo) | (middle[j] + cells[j] > hi)  # per axis
            if leaves.any():
                Q = np.where(wraps, lo + np.mod(Q - lo, width), np.clip(Q, lo, hi))
            Q[mid] = middle[j]
            stencils.append(Q)
            outside.append(leaves)
        values, errors = fn(stencils[0] if len(live) == 1 else np.concatenate(stencils))
        if best[live[0]] is None:  # the first stencils' middle rows are the starts
            raise_first(errors[mid::size])
        bad = failed(errors)
        still = []
        for k, j in enumerate(live):
            rows = slice(k * size, (k + 1) * size)
            v, failing = signs[j] * values[rows], bad[rows]
            if best[j] is None:
                best[j] = v[mid]
            complete = not failing.any()
            v = np.where(failing, -np.inf, v)
            i = np.argmax(v)
            if v[i] > best[j]:
                best[j], center[j] = v[i], stencils[k][i]
            ulp = np.spacing(abs(best[j]))
            noise = ROUNDOFF_ULPS * ulp
            if complete and v.max() - v.min() <= noise:
                continue
            vertex = None
            if complete and not np.any(outside[k] & ~wraps):
                vertex = _quadratic_vertex(v - best[j], n, noise)
            if vertex is None:
                middle[j], cells[j], halvings[j] = center[j], cells[j] / 2.0, halvings[j] + 1
            elif vertex[1] <= GAIN_ULPS * ulp:
                continue
            else:
                step = middle[j] + vertex[0] * cells[j]
                middle[j] = np.where(wraps, lo + np.mod(step - lo, width), step)
                cells[j], halvings[j] = cells[j] / 4.0, halvings[j] + 2
            if halvings[j] < rounds:
                still.append(j)
        live = still
    return np.array(center), np.array(signs) * best


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
    lo, hi = chart.default_domain() if domain is None else domain
    return HypersurfacePatch(chart, model, orientation, lo, hi, center, jets)
