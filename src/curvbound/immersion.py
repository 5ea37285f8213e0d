"""Hypersurface patches: induced metric, oriented normal, principal curvatures.

A patch couples a chart with an ambient model, an orientation convention and
an optional reference center.  Frames carry everything downstream consumers
need: position, tangents, metric, unit normal, second fundamental form, its
principal curvatures with the H_k and Newton-tensor spectra of the ambient
signature (and principal directions on demand).

A frame is assembled by array arithmetic over the sample axis.  The only
per-matrix LAPACK calls are the symmetric eigenvalue routines: from n = 3 on,
for kappa and, on the rare rows the immersion test rejects, to name the
reason (a surface's 2 x 2 spectra are in closed form,
:func:`_symmetric_spectrum`); and for the principal directions on demand.
One elimination on [g | I] factors the metric: it yields the LDL^T pivots,
which decide the immersion test, and L^-1, for the congruence
R = D^-1/2 L^-1 kept on the frame.  That elimination, the cofactor normal
(a Laplace expansion over column subsets) and the closed-form spectra are
elementwise, so a sample's bits do not depend on the batch it was built in.
No reduction runs per row over a short axis: a max, min or all over a sample's
few entries is folded elementwise over the samples (:func:`fold_last`), and
the jets' finite test is one whole-array test, per row only when it fails.

Orientation conventions:
  inner / outer -- Riemannian; "inner" points toward the declared center
                   (sign fixed by <N, grad rho> < 0).
  future        -- Lorentzian; N is the future-directed timelike unit normal.
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

    A patch is frozen, over an immutable chart, and holds read-only copies of its
    domain and center (validated here as a model point), so the frame :func:`frame_at`
    keeps for its last point cannot go stale.  Patches compare by identity.  What
    every call would rebuild from the domain is built here once, read-only: the
    ``domain_width``, the axes that ``wraps``, the padded box :meth:`contains`
    tests and the FD-jet steps.  An axis wraps where the chart names it periodic
    and the box spans exactly 2 pi on it: its two ends are one point.
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

        ``resolution`` is the nodes per axis, one count or one per axis, each
        at least 2, evenly spaced from ``domain_lo`` to ``domain_hi``.  On an
        axis that wraps, the node at ``domain_hi`` is the one at ``domain_lo``
        and is left out, so no two rows are one point.
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

    One elimination on the block [g | I], one pivot step at a time: step k
    subtracts multiples of row k from the rows below it, clearing column k of
    g, so the pivot d_k is left on g's diagonal and the I block, under the
    same row operations, becomes L^-1.  There is no pivoting, so a zero pivot
    of an indefinite or degenerate g makes the later entries inf or NaN;
    :func:`immersive` rejects such rows.
    """
    n, diagonal = len(gt), np.arange(len(gt))
    S = np.concatenate([gt, np.zeros(gt.shape)], axis=1)
    S[diagonal, n + diagonal] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1):
            S[k + 1:, k + 1:] -= (S[k + 1:, k] / S[k, k])[:, None] * S[k, k + 1:]
    return S[diagonal, diagonal], S[:, n:]


def immersive(d: np.ndarray) -> np.ndarray:
    """Rows whose pivots d (n, ...) are all finite and above DEGENERACY_TOL of the largest |d|.

    The floor is DEGENERACY_TOL max(-min d, max d).  A row with an infinite or
    NaN pivot has an infinite or NaN floor, which no pivot exceeds, so it fails.
    """
    return np.all(d > DEGENERACY_TOL * np.abs(d).max(axis=0), axis=0)


def congruence(Rt: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sym(R h R^T): the bilinear forms h (..., n, n) in the frame orthonormalized by R (n, n, ...).

    R is samples last, the kernels' layout; the result is samples first, like h.
    """
    A = _matmul(_matmul(Rt, _samples_last(h)), np.swapaxes(Rt, 0, 1))
    return _samples_first(0.5 * (A + np.swapaxes(A, 0, 1)))


def _symmetric_spectrum(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., n) of the symmetric matrices A (..., n, n).

    At n = 2 they are m -+ r, with m the mean of the diagonal and r =
    hypot((a - c)/2, b) the radius of the spectrum, elementwise over the
    samples; from n = 3 on, LAPACK's eigvalsh.
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

    Step k expands the (k+1)-square determinants of rows 0..k over the
    column subsets of size k+1, along row k: term t of a subset takes its
    t-th column, with sign (-1)^(k+t), times the determinant of the parent
    subset without that column.  A column c with a negative sign reads as
    c + m, an index into the row followed by its negation.  The last step
    lists the subset without column a at index a and folds in the cofactor
    sign (-1)^a.
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

    <w, v> (flat, index lowered) is the determinant of M with v appended as a
    last row, so w is flat-orthogonal to every row of M.  Laplace expansion
    over column subsets: one gather and one product per row, the terms
    summed elementwise.
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
    """Second-order data of the immersion at parameter points.

    Fields carry the leading sample axes of the points they were evaluated
    at; ``frame[i]`` is the frame of sample i, each field a view of its row.
    The second-order data is the spectrum ``kappa`` of the shape operator, the
    normalized curvatures ``H`` and the Newton-tensor spectra
    ``newton_eigenvalues`` signed for the ambient ``signature``
    (:func:`curvbound.curvature.signed_values`, run once per batch) and,
    computed on first use, the principal directions: a Newton tensor P_k acts
    through its eigenvalue on each of them.  This is all the operator data the
    contractions of :mod:`curvbound.operators` read from a sample's frame.

    ``congruence`` is the frame's one factorization of the metric: the
    triangular R = D^-1/2 L^-1 from one elimination on [g | I] (:func:`ldl`),
    the inverse of the Cholesky factor L D^1/2, so g^-1 = R^T R.  The principal
    directions and :meth:`raise_index` read it without factoring or solving
    with the metric again.  Every field is samples first, like ``param``; the
    kernels' samples-last form of a row's R is a view of it.
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

        P_k is PSD down to -TAU_ELL.  At k = 0 the scale is max(1, max|kappa|), not 1.
        The power is the ufunc's at one sample too (a float64 scalar's ``**``
        calls libm's pow, which can round differently), so a grid row and
        :func:`frame_at` agree bit for bit.
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
    """Frames at the rows of P (N, n): metric, oriented unit normal, second form, kappa, H_k.

    Returns (frames, errors, distances).  ``frames`` holds the rows that have a
    frame, in order; ``errors[i]`` is the GeometryError of row i, or None when
    row i is among them.  ``distances`` is None, or where the orientation
    measured them (an inner or outer patch with a center) the read-only
    (rho, grad) from the center (:func:`gradient_rows`) at the rows of ``frames``.
    ``jets`` are the chart jets (position, d1, d2) at the rows of P, of shapes
    (N, m), (N, m, n) and (N, m, n, n), if the caller has them; they must be
    ``patch.jet_at``'s there.  Without them ``patch.jet_at`` is called once, on
    the rows that pass the box and definedness checks.  Each failing
    check removes its rows before the next step, so stacked linear algebra only
    sees rows that passed.  A row whose jet has a non-finite entry fails before
    its metric is formed.  The metric is factored once, by one elimination on
    [g | I] (:func:`ldl`): its pivots d decide the immersion test, and
    R = D^-1/2 L^-1 gives the shape operator R h R^T.  The S_k table of the
    spectra is built and signed once, for the batch, and every array of
    ``frames`` is read-only.  An inner or outer patch with a center orients the
    normal by the distance gradient, and a row without one fails.
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
    # a chart that keeps the base Chart.undefined is defined on its whole box
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

    The patch keeps the last frame built here, so repeated calls at one p
    return the same frame, with read-only arrays; building the frame of
    another point drops it, with what is kept beside it: the distance and
    its gradient from the center that oriented the normal, which
    :func:`curvbound.operators.restrict_field` reads, and the restrictions
    :func:`curvbound.operators.restriction_at` keeps.  A point
    without a frame is not kept: it raises on every call, and so does a p
    of another shape than (n,).  ``jets`` are the chart jets at p[None], of
    shapes (1, m), (1, m, n) and (1, m, n, n), if the caller has them; they
    must be ``patch.jet_at``'s there.  A frame built here reads them
    (:func:`frames_at`), and a frame the patch keeps for p ignores them.
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

        They are those that oriented the normal, where the orientation measured
        them (an inner or outer patch with a center), and are measured here otherwise.
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
    """Frames at the rows of ``patch.grid(resolution)``, each point once; skips those without one."""
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

    The fit is q(s) = c + g.s + s.H s / 2 over the stencil offsets s, in
    cells; the rows map the 5^n values to g, then to H row-major.  On the
    tensor stencil the terms 1, s_i, s_i s_j (i < j) and s_i^2 - mean(s_i^2)
    are orthogonal, so each least-squares coefficient is the projection onto
    its own term, with no factorization.
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

    At n = 2 in closed form, the eigenvalues as in :func:`_symmetric_spectrum`
    and the vectors at the angle atan2(2b, a - c) / 2; otherwise LAPACK's eigh.
    """
    if H.shape != (2, 2):
        return np.linalg.eigh(H)
    t = 0.5 * math.atan2(2.0 * H[0, 1], H[0, 0] - H[1, 1])
    cos, sin = math.cos(t), math.sin(t)
    return _symmetric_spectrum(H), np.array([[-sin, cos], [cos, sin]])


def _quadratic_vertex(values: np.ndarray, n: int, noise: float):
    """(offset, gain) of the maximum of the quadratic fitted to one stencil's values.

    The offset is in cells and the gain is the fitted maximum's rise over the
    stencil's middle, the sum over the directions that curve down of
    -slope^2 / (2 lambda).  The fit must curve down by more than ``noise``
    (the values' round-off) along each eigenvector of its Hessian, or be flat
    within it: curvature and slope at most ``noise``, as along the equator of
    a spheroid, where the vertex keeps its coordinate.  None unless some
    direction curves down, no other direction is more than flat, and the
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
    """Local refinement of a scalar's max (min for sign -1) from each start, on shrinking stencils.

    ``starts`` are J >= 1 points (J, n), ``signs`` (J,) holds 1 or -1 for each
    and ``cell`` (n,) is the first stencil's step per axis, each finite and
    > 0; another shape or value raises a DomainError before any ``fn`` call.
    Each start keeps its own stencil, cell and stop, but one ``fn`` call per
    round evaluates the stencils of every start still refining, in start
    order: for an ``fn`` that values each row on its own, the J one-start
    refinements bit for bit.

    ``fn`` maps parameter rows (N, n) to (values, errors), ``errors[i]`` being
    the GeometryError of a row without a value.  Each round evaluates a 5^n
    stencil of half and whole cells, its coordinates taken modulo the width on
    an axis that wraps and clipped to the box on the others.  A stencil's
    middle row is its center, bit for bit, and the first one's is the start:
    the refinement starts from its value and raises its error (the first
    failing start's, in start order), so the start costs no call of its own.
    A round moves the best point to the first best row only on a strict
    improvement over the best value so far.  Then:

    - it stops if every row has a value and the values spread over at most
      ``ROUNDOFF_ULPS`` ulp of the best one: the scalar is flat at this scale
      (on a level set, after one stencil);
    - where no row failed, no coordinate was clipped and the least-squares
      quadratic through its values has a maximum inside it, it stops if that
      maximum rises at most ``GAIN_ULPS`` ulp of the best value over the
      stencil's middle; else the next stencil is centered on the maximum,
      taken modulo the width on an axis that wraps, and the cell is divided
      by 4;
    - otherwise the next stencil is centered on the best point and the cell
      is halved.

    ``rounds`` (a non-negative integer) bounds the halvings of the cell, a
    division by 4 counting as two, so there are at most ``rounds`` calls of
    ``fn`` and the last stencil's cell is at least ``cell / 2**(rounds - 1)``;
    ``rounds`` = 0 evaluates the starts alone, in one call.  Returns (params,
    values) of the best row evaluated from each start, (J, n) and (J,).
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
