"""Restrictions of ambient fields to patches, the trace operators and the extremum search.

For u = h∘f, Hess u(X, Y) = Hess h(X, Y) + eps <grad h, N> <AX, Y> with eps = <N, N>
(:func:`restrict_field`); :func:`intrinsic_hessian_fd` is an independent route by
Christoffel symbols.  The Newton tensors act through their eigenvalues on the
principal directions.  README's "Design" section describes fields, contractions and
the single-point keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field as attribute, replace
from functools import cached_property

import numpy as np

from .charts import fd_differences, fd_stencil
from .comparison import c_b
from .curvature import TAU_ELL, convention_signs, trace_coefficients
from .errors import (
    ConsistencyError,
    DomainError,
    GeometryError,
    HypothesisViolationError,
    check_order,
    failed,
    is_integer,
    no_errors,
    raise_first,
    read_only,
    read_only_copy,
)
from .immersion import (
    HypersurfacePatch,
    PointFrame,
    frame_at,
    frames_at,
    induced_metric,
    refine_extremum,
)
from .spaceform import (
    LORENTZIAN,
    RIEMANNIAN,
    AmbientModel,
    distance_jet,
    distance_rows,
)


@dataclass(frozen=True)
class DistanceField:
    """u = rho(., o): the ambient distance to a reference point.

    Like every field, ``jet(x)`` at points x (..., m) returns (u, ambient gradient,
    hessian, errors), ``hessian(d1, metric)`` giving the ambient Hessian in the chart
    basis (:func:`distance_jet`).  The origin is a read-only copy, validated as a
    model point here and nowhere downstream; fields with equal origin bits are equal.
    """

    model: AmbientModel
    origin: np.ndarray = attribute(compare=False)
    _origin_bits: bytes = attribute(init=False, repr=False)

    def __post_init__(self):
        origin = self.model.check_point(read_only_copy(self.origin))
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "_origin_bits", origin.tobytes())

    def jet(self, x):
        return distance_jet(self.model, self.origin, x)[:4]

    def value(self, x):
        """The distances at points x (..., m); raises the first row's GeometryError."""
        u, errors = distance_rows(self.model, self.origin, x)
        raise_first(errors)
        return u


@dataclass(frozen=True)
class LinearCoordinateField:
    """Restriction of the linear ambient function x -> sum_a c_a x_a.

    Its ambient Hessian on a quadric is -b l(x) g, zero in flat models.  The
    coefficients are a read-only copy; fields with equal coefficient bits are equal.
    """

    model: AmbientModel
    coefficients: np.ndarray = attribute(compare=False)
    _coefficient_bits: bytes = attribute(init=False, repr=False)

    def __post_init__(self):
        coefficients = read_only_copy(self.coefficients)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "_coefficient_bits", coefficients.tobytes())

    def jet(self, x):
        u = np.vecdot(x, self.coefficients)
        raised = self.coefficients / self.model.metric_diag
        grad = self.model.tangent_project(x, np.broadcast_to(raised, np.shape(x)))

        def hessian(d1, metric):
            return -self.model.curvature * metric * u[..., None, None]

        return u, grad, hessian, no_errors(np.shape(x)[:-1])


@dataclass(frozen=True)
class ComposedField:
    """phi(u) for a scalar reparametrization phi with two derivatives.

    ``fn``, ``d1`` and ``d2`` (phi, phi', phi'') map an array of u to an array of its
    shape and are called once per jet.  Fields with equal bases and the same function
    objects are equal.
    """

    base: object
    fn: object
    d1: object
    d2: object

    def jet(self, x):
        u, g, base_hessian, errors = self.base.jet(x)
        lowered = (self.base.model.metric_diag * g)[..., None]
        d1u, d2u = self.d1(u), self.d2(u)

        def hessian(d1, metric):
            du = (np.swapaxes(d1, -1, -2) @ lowered)[..., 0]  # the base field's differential
            return (d2u[..., None, None] * (du[..., :, None] * du[..., None, :])
                    + d1u[..., None, None] * base_hessian(d1, metric))

        return self.fn(u), d1u[..., None] * g, hessian, errors


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Restriction data of an ambient field over the leading sample axes of a frame; frozen.

    A :class:`DistanceField`'s sample without a failed row keeps ``comparison`` =
    (k, C_k(u)), k = eps b, the coefficient of its Hessian (:func:`distance_jet`).
    """

    u: np.ndarray
    grad: np.ndarray  # vector in the chart basis
    grad_norm_sq: np.ndarray
    normal_coef: np.ndarray  # <ambient gradient, N>
    hess: np.ndarray  # chart-basis bilinear form
    frame: PointFrame
    errors: np.ndarray  # per-row GeometryError of the field, None where it is defined
    comparison: tuple | None = None

    @cached_property
    def hess_diagonal(self) -> np.ndarray:
        """(..., n): hess u(e_i, e_i), the Hessian's diagonal in the principal frame."""
        E = self.frame.principal
        return read_only(np.vecdot(E, self.hess @ E, axis=-2))

    @cached_property
    def grad_squares(self) -> np.ndarray:
        """(..., n): du(e_i)^2, the gradient's squares in the principal frame."""
        frame = self.frame
        du = np.vecdot(frame.principal, frame.metric @ self.grad[..., None], axis=-2)
        return read_only(du * du)


def restrict_field(patch: HypersurfacePatch, field, frame: PointFrame) -> FieldSample:
    """Value, gradient and intrinsic Hessian of ``field`` restricted to the frame's points.

    The field's jet is evaluated once, on all rows; each row restricts as it would
    alone, bit for bit, and ``hess`` is exactly symmetric.  A row where the field is
    undefined does not raise: its error is in ``errors`` and its values are
    meaningless.  On the frame :func:`frame_at` keeps, a :class:`DistanceField` in the
    patch's model whose origin has the bits of the patch's center reads the distance
    and gradient that oriented the frame's normal instead of evaluating them.
    """
    model = patch.ambient
    d1 = frame.tangent
    if isinstance(field, DistanceField):
        kept = patch._last_frame.get(frame)  # the distances from the center, if frame_at keeps it
        center = (kept is not None and field.model == model
                  and field._origin_bits == patch.center.tobytes())
        u, gbar, hessian, errors, C = distance_jet(field.model, field.origin, frame.position,
                                                   kept if center else None)
        comparison = None if C is None else (field.model.epsilon * field.model.curvature, C)
    else:
        u, gbar, hessian, errors = field.jet(frame.position)
        comparison = None
    du = (np.swapaxes(d1, -1, -2) @ (model.metric_diag * gbar)[..., None])[..., 0]
    grad = frame.raise_index(du)
    normal_coef = model.flat_inner(gbar, frame.normal)
    return FieldSample(
        u=u,
        grad=grad,
        grad_norm_sq=np.vecdot(du, grad),
        normal_coef=normal_coef,
        hess=hessian(d1, frame.metric)
        + model.epsilon * normal_coef[..., None, None] * frame.second_form,
        frame=frame,
        errors=errors,
        comparison=comparison,
    )


# ---------------------------------------------------------------------------
# independent finite-difference route
# ---------------------------------------------------------------------------


def intrinsic_hessian_fd(patch: HypersurfacePatch, scalar_fn, p: np.ndarray,
                         jets=None) -> np.ndarray:
    """Intrinsic Hessian at p (n,) of u = scalar_fn∘f via Christoffel symbols.

    ``scalar_fn`` maps ambient positions (..., m) to (...).  ``jets`` are the chart
    jets on the central-difference stencil of the patch's FD-jet steps
    (:func:`curvbound.charts.fd_stencil`, S = 1 + 2n^2 rows), of shapes (S, m),
    (S, m, n) and (S, m, n, n), if the caller has them; they must be
    ``patch.jet_at``'s there.  Without them ``patch.jet_at`` is called once, on the
    stencil.  ``scalar_fn`` is called once, on their positions.
    """
    n = patch.n
    x, d1, _ = patch.jet_at(fd_stencil(p, patch._fd_steps)) if jets is None else jets
    g = induced_metric(d1, patch.ambient.metric_diag)
    values = np.concatenate([scalar_fn(x)[..., None], g.reshape(g.shape[:-2] + (n * n,))], -1)
    x, d1, d2 = fd_differences(values, patch._fd_steps)
    du, d2u = d1[0], d2[0]
    dg = d1[1:].reshape(n, n, n).transpose(2, 0, 1)  # dg[k] = d_k g
    g_inv = np.linalg.inv(x[1:].reshape(n, n))
    lowered = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)  # [i, j, l]
    gamma = (0.5 * g_inv @ lowered[..., None])[..., 0].transpose(2, 0, 1)  # gamma[l, i, j]
    return d2u - np.einsum("lij,l->ij", gamma, du)


def _distance_field_at(patch: HypersurfacePatch, origin: np.ndarray) -> DistanceField:
    """The :class:`DistanceField` to ``origin`` in the patch's model, kept on the patch.

    The patch keeps the field of the last origin given, so an origin is validated once.
    """
    origin = np.asarray(origin, dtype=float)
    key = (origin.shape, origin.tobytes())
    kept = patch._origin_field
    if key not in kept:
        kept.clear()
        kept[key] = DistanceField(patch.ambient, origin)
    return kept[key]


def restriction_hessian(patch: HypersurfacePatch, o: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Intrinsic Hessian of u = rho(., o)∘f at p, identity route, FD cross-checked on every call.

    It raises ConsistencyError where the identity and the FD route differ by more
    than 1e-4 max(1, max|hess|).  A point makes one chart call, ``patch.jet_at`` on
    the oracle's stencil (:func:`intrinsic_hessian_fd`).  When the patch keeps no
    frame of p and p has shape (n,) and lies in the box, that call comes first and
    its row 0, p itself, is the ``jets`` of :func:`frame_at`; on a kept frame the
    oracle makes it.  A failing stencil is evaluated once.  The errors keep their
    order: p's frame, then the restriction (:func:`restriction_at`), then the oracle.
    So on a :class:`~curvbound.charts.TabulatedChart`, whose table the stencil never
    lands on, every call raises the DomainError "parameter point is not tabulated".
    """
    field = _distance_field_at(patch, o)
    p = np.asarray(p, dtype=float)
    jets = failure = None  # the chart jets on the oracle's stencil, or their GeometryError
    # taken for a frame to build, at a p that passes frame_at's checks before the jets
    if p.shape == (patch.n,) and patch.contains(p) and p.tobytes() not in patch._last_frame:
        try:
            jets = patch.jet_at(fd_stencil(p, patch._fd_steps))
        except GeometryError as exc:
            failure = exc
    frame_at(patch, p, None if jets is None else [a[:1] for a in jets])
    sample = restriction_at(patch, p, field)
    if failure is not None:
        raise failure
    fd = intrinsic_hessian_fd(patch, field.value, p, jets)  # on a kept frame, its own chart call
    scale = max(1.0, float(np.abs(sample.hess).max()))
    if np.abs(sample.hess - fd).max() > 1e-4 * scale:
        raise ConsistencyError(
            "identity-route and finite-difference Hessians disagree "
            f"by {np.abs(sample.hess - fd).max():.3e}"
        )
    return sample.hess


# ---------------------------------------------------------------------------
# trace operators
# ---------------------------------------------------------------------------


def operator_data(frame: PointFrame, signature: str) -> PointFrame:
    """The frame (over its leading axes) in the convention of ``signature``.

    In the frame's own signature it is the frame itself; in the other, a copy whose H_k
    and row k of the Newton spectra are multiplied by the exact (-1)^k, into read-only
    arrays.  Any other signature raises a DomainError.
    """
    if signature == frame.signature:
        return frame
    if signature not in (RIEMANNIAN, LORENTZIAN):
        raise DomainError(f"unknown signature {signature!r}")
    flips = convention_signs(frame.kappa.shape[-1], LORENTZIAN)
    return replace(frame, H=read_only(frame.H * flips),
                   newton_eigenvalues=read_only(frame.newton_eigenvalues * flips[:, None]),
                   signature=signature)


def trace_operator(sample: FieldSample, k: int):
    """L_k u = Tr(P_k ∘ hess u) = sum_i mu_{k,i} hess u(e_i, e_i), over leading axes, k in 0..n."""
    eigenvalues = sample.frame.newton_eigenvalues
    check_order(k, eigenvalues.shape[-1])
    return np.vecdot(eigenvalues[..., k, :], sample.hess_diagonal)


def restriction_at(patch: HypersurfacePatch, p: np.ndarray, field) -> FieldSample:
    """:func:`restrict_field` of ``field`` on the frame :func:`frame_at` returns; raises its errors.

    The patch keeps the sample, read-only, beside its last frame, one per field (equal
    fields share it), and drops it with that frame.  So the single-point calls at one
    point restrict each field once and raise the sample's errors on every call.
    """
    frame = frame_at(patch, p)
    if field not in patch._last_frame:
        patch._last_frame[field] = read_only(restrict_field(patch, field, frame))
    raise_first(patch._last_frame[field].errors)
    return patch._last_frame[field]


def l_k_apply(patch: HypersurfacePatch, p: np.ndarray, k: int, field) -> float:
    """L_k u = Tr(P_k ∘ hess u) at the parameter point p, for k in 0..n."""
    check_order(k, patch.n)
    return float(trace_operator(restriction_at(patch, p, field), k))


def newton_quadratic(sample: FieldSample, k: int):
    """<grad u, P_k grad u> = sum_i mu_{k,i} du(e_i)^2, over leading axes, k in 0..n."""
    eigenvalues = sample.frame.newton_eigenvalues
    check_order(k, eigenvalues.shape[-1])
    return np.vecdot(eigenvalues[..., k, :], sample.grad_squares)


def key_inequality_rhs(sample: FieldSample, k: int, b: float):
    """Right-hand side of the key inequality for u = rho, over leading axes, k in 0..n-1.

    Riemannian: C_b(u)(c_k H_k - <grad u, P_k grad u>) + c_k H_{k+1} <grad rho, N>.
    Lorentzian: -C_{-b}(u)(c_k H_k + <grad u, P_k grad u>)
                + c_k H_{k+1} sqrt(1 + |grad u|^2).
    The signature of the sample's frame picks the formula.  C_b (C_{-b}) is the
    sample's ``comparison`` where that is of order b (-b), else :func:`c_b` on u.
    """
    frame = sample.frame
    n = frame.kappa.shape[-1]
    check_order(k, n - 1)
    quad = newton_quadratic(sample, k)
    ck = trace_coefficients(n)[k]
    Hk, Hk1 = frame.H[..., k], frame.H[..., k + 1]
    if frame.signature == RIEMANNIAN:
        return _c_b(sample, b) * (ck * Hk - quad) + ck * Hk1 * sample.normal_coef
    return -_c_b(sample, -b) * (ck * Hk + quad) + ck * Hk1 * np.sqrt(1.0 + sample.grad_norm_sq)


def _c_b(sample: FieldSample, b: float):
    """C_b(u): the sample's ``comparison`` where it is C_b, else :func:`c_b` on u."""
    kept = sample.comparison
    return kept[1] if kept is not None and kept[0] == b else c_b(b, sample.u)


def key_inequality_residual(
    patch: HypersurfacePatch,
    p: np.ndarray,
    k: int,
    b: float | None = None,
    origin: np.ndarray | None = None,
) -> float:
    """L_k u minus :func:`key_inequality_rhs` at p, for k in 0..n-1; >= 0, zero in space forms.

    u is the distance to ``origin``, by default the patch's center (without either, a
    GeometryError), and ``b`` is by default the ambient curvature.  The order is
    checked first (DomainError).  A P_k that is not PSD at p (below -TAU_ELL) raises
    HypothesisViolationError.  The origin's field is kept on the patch, and the
    restriction is shared with the other single-point calls (:func:`restriction_at`).
    """
    check_order(k, patch.n - 1)
    if b is None:
        b = patch.ambient.curvature
    if origin is None:
        origin = patch.center
    if origin is None:
        raise GeometryError("no reference point available for the distance field")
    sample = restriction_at(patch, p, _distance_field_at(patch, origin))
    if sample.frame.newton_psd_margin(k) < -TAU_ELL:
        raise HypothesisViolationError(f"P_{k} is not positive semidefinite at this point")
    return float(trace_operator(sample, k) - key_inequality_rhs(sample, k, b))


# ---------------------------------------------------------------------------
# extremum-sequence search
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class OmoriYauCandidate:
    param: np.ndarray
    u: float
    grad_norm: float
    q_lu: float
    j: int


@dataclass(eq=False)
class OmoriYauOutcome:
    j: int
    candidate: OmoriYauCandidate | None
    best_violation: float  # worst condition margin of the closest miss (<= 0 ok)


@dataclass(eq=False)
class OmoriYauReport:
    outcomes: list
    refined_max: OmoriYauCandidate
    u_star: float
    excluded: int  # coarse-grid rows where Tr P_k <= TAU_ELL
    skipped: int  # coarse-grid rows whose frame or field failed
    evaluations: int

    @property
    def all_found(self) -> bool:
        return all(o.candidate is not None for o in self.outcomes)


def _evaluate_rows(patch, field, k, Q):
    """(records, errors, excluded) at the parameter rows Q (N, n).

    ``records`` = (param, u, |grad u|, q L_k u) of the rows without an error;
    ``excluded`` counts the rows where Tr P_k <= TAU_ELL.
    """
    frames, errors, _ = frames_at(patch, Q)
    rows = np.flatnonzero(~failed(errors))
    sample = restrict_field(patch, field, frames)
    tr = frames.newton_trace(k)
    errors[rows] = sample.errors
    excluded = ~failed(sample.errors) & ~(tr > TAU_ELL)
    errors[rows[excluded]] = HypothesisViolationError(f"Tr P_{k} is not positive at this point")
    ok = ~failed(errors[rows])
    lk = trace_operator(sample, k)
    records = (frames.param[ok], sample.u[ok], np.sqrt(sample.grad_norm_sq[ok]), lk[ok] / tr[ok])
    return records, errors, int(np.count_nonzero(excluded))


def omori_yau_search(
    patch: HypersurfacePatch,
    field,
    k: int,
    resolution: int = 24,
    j_max: int = 6,
    rounds: int = 8,
) -> OmoriYauReport:
    """Search for points realizing the three extremum-sequence conditions, j = 1..j_max.

    A candidate for j has u > u* - 1/j, |grad u| < 1/j and (1/Tr P_k) L_k u < 1/j.
    k in 0..n-1 and j_max >= 1 must be integers (else DomainError).  The search
    evaluates the patch's grid (:meth:`HypersurfacePatch.grid`, each point once) in
    one call and counts its ``skipped`` and ``excluded`` rows (Tr P_k <= TAU_ELL); a
    grid with no row left raises GeometryError.  From the smallest gradient in the top
    tenth of u it refines the max of u with :func:`refine_extremum` on the grid's
    cell, which stops where a stencil is flat or its fit predicts a gain of at most an
    ulp, after at most ``rounds`` stencils (a non-negative integer, else DomainError;
    0 evaluates the start alone).  Every point evaluated joins the pool in
    order, and each selection takes its first maximum; a j without a candidate
    records the margin of its closest miss.
    """
    if not (is_integer(k) and 0 <= k < patch.n and is_integer(j_max) and j_max >= 1):
        raise DomainError(f"order k = {k!r} is outside 0..{patch.n - 1} or not an integer,"
                          f" or j_max = {j_max!r} is not an integer >= 1")
    P, cell = patch.grid(resolution)
    records, errors, excluded = _evaluate_rows(patch, field, k, P)
    if not len(records[1]):
        raise GeometryError("no valid samples for the extremum search")
    pool = [records]
    order = np.argsort(records[1], kind="stable")
    top = order[int(np.floor(0.9 * len(order))):]
    start = records[0][top[np.argmin(records[2][top])]]  # smallest gradient near the supremum

    def pooled_u(Q):
        rows, row_errors, _ = _evaluate_rows(patch, field, k, Q)
        pool.append(rows)
        u = np.zeros(len(Q))
        u[~failed(row_errors)] = rows[1]
        return u, row_errors

    refine_extremum(patch, pooled_u, start[None], cell, [1.0], rounds)
    params, u, grad_norm, q_lu = (np.concatenate(a) for a in zip(*pool))

    def candidate(i, j):
        return OmoriYauCandidate(params[i], float(u[i]), float(grad_norm[i]), float(q_lu[i]), j)

    best = np.argmax(u)
    u_star = u[best]
    outcomes = []
    for j in range(1, j_max + 1):
        thr = 1.0 / j
        eligible = np.flatnonzero((u > u_star - thr) & (grad_norm < thr) & (q_lu < thr))
        if len(eligible):
            outcomes.append(OmoriYauOutcome(j, candidate(eligible[np.argmax(u[eligible])], j), 0.0))
        else:
            viol = np.maximum(np.maximum(u_star - thr - u, grad_norm - thr), q_lu - thr).min()
            outcomes.append(OmoriYauOutcome(j, None, float(viol)))
    return OmoriYauReport(
        outcomes=outcomes,
        refined_max=candidate(best, 0),
        u_star=float(u_star),
        excluded=excluded,
        skipped=int(np.count_nonzero(failed(errors))) - excluded,
        evaluations=len(u),
    )
