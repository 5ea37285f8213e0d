"""Restrictions of ambient functions to patches and their trace operators.

For u = h∘f the intrinsic Hessian is assembled from the displayed identity

    Hess u(X,Y) = Hess h(X,Y) + eps <grad h, N> <AX, Y>,   eps = <N,N>,

which in the Riemannian case reads Hess rho + <grad rho, N> h and in the
Lorentzian case Hess rho - sqrt(1 + |grad u|^2) h.  A fully independent
finite-difference route (Christoffel symbols from the induced metric) backs
the identity route as an oracle.

The Newton tensors P_k act through their spectra: P_k and the shape
operator share the principal directions e_i of the frame, so every
contraction with P_k is a sum over them weighted by the eigenvalues of P_k.
The frame carries H_k and those eigenvalues, signed for its ambient
signature once per frame batch, and a :class:`FieldSample` carries its
frame and, on first use, its Hessian's diagonal and gradient's squares on
the e_i: the contractions (:func:`trace_operator`, :func:`newton_quadratic`,
:func:`key_inequality_rhs`) read them and the sample's own frame, in its
convention.  No S_k recurrence and no normalization runs here;
:func:`operator_data` gives the frame in the other signature's convention
by the exact signs (-1)^k.

Fields are frozen values: each holds read-only copies of its arrays, a
distance field validates its origin once, when it is built, and equal
fields (same model and array bits) are equal and hash alike.  The
single-point calls (:func:`restriction_hessian`, :func:`key_inequality_residual`,
:func:`l_k_apply`) share one restriction per field and point:
:func:`restriction_at` keeps one sample per field beside the patch's last
frame and raises its errors on every call; each call runs its own checks
(the orders k and j_max, the P_k test, the finite-difference cross-check).
The two that take an origin keep its distance field on the patch, so an
origin is validated once per patch (:func:`_distance_field_at`).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field as attribute, replace
from functools import cached_property, partial

import numpy as np

from .charts import fd_differences, fd_stencil
from .comparison import c_b, phi_b, phi_b_d1, phi_b_d2
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
    _frame_at,
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

    Like every field, ``jet(x)`` at points x (..., m) returns (u, ambient
    gradient, hessian, errors), ``errors`` holding the GeometryError of each
    row where one of them is undefined; :func:`distance_jet` lists the rows.
    ``hessian(d1, metric)`` takes the tangent columns d1 (..., m, n) at the
    rows and their induced metric (..., n, n), and returns the ambient
    Hessian on them in the chart basis (..., n, n).  The origin is a
    read-only copy, validated as a model point here and nowhere downstream;
    fields with equal origin bits are equal.
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


@dataclass(frozen=True)
class LinearCoordinateField:
    """Restriction of the linear ambient function x -> sum_a c_a x_a.

    On a quadric the intrinsic Hessian picks up the second-form correction
    -b l(x) g, g the induced metric; in flat models (b = 0) it vanishes.  The
    coefficients are a read-only copy; fields with equal coefficient bits are
    equal.
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

    ``fn``, ``d1`` and ``d2`` (phi, phi', phi'') take an array of values u of
    any shape and return an array of the same shape; they are called once per
    jet, on all rows.  Two composed fields are equal when their bases are and
    their functions are the same objects.
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


def phi_of_distance_field(model: AmbientModel, origin: np.ndarray, b: float) -> ComposedField:
    """The bounded composition phi_b(rho), the function the estimates drive."""
    return ComposedField(
        DistanceField(model, origin), partial(phi_b, b), partial(phi_b_d1, b), partial(phi_b_d2, b)
    )


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Restriction data of an ambient field over the leading sample axes of a frame.

    Frozen, like the fields: :func:`restriction_at` keeps one beside a patch's last frame.
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

    Evaluates the field's jet once.  Does not raise for a row where the field
    is undefined: its error is in ``errors`` and its values are meaningless.
    On the frame :func:`frame_at` keeps, a :class:`DistanceField` in the
    patch's model whose origin has the bits of the patch's center reads the
    distance and its gradient that oriented the frame's normal.
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


def intrinsic_hessian_fd(patch: HypersurfacePatch, scalar_fn, p: np.ndarray) -> np.ndarray:
    """Intrinsic Hessian at p (n,) of u = scalar_fn∘f via Christoffel symbols.

    ``scalar_fn`` maps ambient positions (..., m) to (...).  ``patch.jet_at``
    is called once, on the central-difference stencil of the patch's FD-jet
    steps (:func:`curvbound.charts.fd_stencil`), and ``scalar_fn`` once, on
    its positions.  The result is d_i d_j u - Gamma^l_ij d_l u, chart-level:
    no ambient Hessian identity.
    """
    return _christoffel_hessian(patch, scalar_fn, patch.jet_at(fd_stencil(p, patch._fd_steps)))


def _christoffel_hessian(patch: HypersurfacePatch, scalar_fn, jets) -> np.ndarray:
    """:func:`intrinsic_hessian_fd` from the chart jets on its stencil."""
    n = patch.n
    x, d1, _ = jets
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

    The patch keeps the field of the last origin given, keyed by its shape and
    bytes, so the single-point calls validate an origin once per patch.
    """
    origin = np.asarray(origin, dtype=float)
    key = (origin.shape, origin.tobytes())
    kept = patch._origin_field
    if key not in kept:
        kept.clear()
        kept[key] = DistanceField(patch.ambient, origin)
    return kept[key]


def restriction_hessian(patch: HypersurfacePatch, o: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Intrinsic Hessian of u = rho∘f, identity route, FD cross-checked on every call.

    One chart call serves the point: the jets on the oracle's stencil
    (:func:`intrinsic_hessian_fd`), whose row 0 is p itself, give the frame
    its row when the patch keeps no frame of p, so the frame is the one
    :func:`frame_at` builds, bit for bit.  The stencil is evaluated once: a
    GeometryError it raises leaves p's row to a chart call of its own and is
    raised by the oracle.  The errors keep their order: p's frame, then the
    restriction (:func:`restriction_at`), then the oracle.  So on a patch over
    a :class:`~curvbound.charts.TabulatedChart`, whose table the stencil never
    lands on, every call raises the stencil's DomainError ("parameter point is
    not tabulated") after p's frame and restriction are built.
    """
    field = _distance_field_at(patch, o)
    p = np.asarray(p, dtype=float)
    stencil = []  # the chart jets on the oracle's stencil, or the GeometryError they raised

    def stencil_jets():
        if not stencil:
            try:
                stencil.append(patch.jet_at(fd_stencil(p, patch._fd_steps)))
            except GeometryError as exc:
                stencil.append(exc)
        if isinstance(stencil[0], GeometryError):
            raise stencil[0]
        return stencil[0]

    def own_row(P):  # p[None] once p passed the frame's checks before its jets, else no rows
        if len(P):
            with suppress(GeometryError):  # the oracle raises it, after p's own errors
                return tuple(a[:1] for a in stencil_jets())
        return patch.jet_at(P)

    _frame_at(patch, p, own_row)
    sample = restriction_at(patch, p, field)

    def rho(x):
        values, errors = distance_rows(field.model, field.origin, x)
        raise_first(errors)
        return values

    fd = _christoffel_hessian(patch, rho, stencil_jets())
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

    In the frame's own signature it is the frame itself.  In the other, a copy
    whose H_k and row k of the Newton spectra are multiplied by (-1)^k, which
    is exact, into read-only arrays.  Any other signature raises a DomainError.
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
    """L_k u = Tr(P_k ∘ hess u) = sum_i mu_{k,i} hess u(e_i, e_i), over leading axes, k in 0..n.

    e_i are the sample frame's principal directions and mu_{k,i} the eigenvalues of P_k on them.
    """
    eigenvalues = sample.frame.newton_eigenvalues
    check_order(k, eigenvalues.shape[-1])
    return np.vecdot(eigenvalues[..., k, :], sample.hess_diagonal)


def restriction_at(patch: HypersurfacePatch, p: np.ndarray, field) -> FieldSample:
    """:func:`restrict_field` of ``field`` on the frame :func:`frame_at` returns.

    The patch keeps the sample, with read-only arrays, beside its last frame,
    one per field (a field is hashable; equal fields share a sample), and
    drops it when :func:`frame_at` builds the frame of another point.  So the
    single-point calls at one point restrict each field once, and raise the
    sample's errors on every call.
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
    """Right-hand side of the key inequality for u = rho, over leading axes.

    Riemannian: C_b(u)(c_k H_k - <grad u, P_k grad u>) + c_k H_{k+1} <grad rho, N>.
    Lorentzian: -C_{-b}(u)(c_k H_k + <grad u, P_k grad u>)
                + c_k H_{k+1} sqrt(1 + |grad u|^2).
    The signature of the sample's frame picks the convention; k is in 0..n-1.
    C_b (C_{-b}) is the sample's ``comparison`` where that is of order b (-b), else
    :func:`c_b` on u.
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
    """L_k u minus :func:`key_inequality_rhs`, for k in 0..n-1; >= 0, zero in space forms."""
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

    ``records`` = (param, u, |grad u|, q L_k u) of the rows without a
    GeometryError in ``errors``; ``excluded`` counts the rows where Tr P_k <= TAU_ELL.
    """
    frames, errors = frames_at(patch, Q)
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
    """Search for points realizing the three extremum-sequence conditions.

    For each j <= j_max a candidate p must satisfy u(p) > u* - 1/j,
    |grad u(p)| < 1/j and (1/Tr P_k) L_k u(p) < 1/j.  The search runs the
    patch's coarse grid (:meth:`HypersurfacePatch.grid`, each point once),
    starts from the smallest gradient in the top tenth of its u values, then
    refines the max of u from there with :func:`refine_extremum` on stencils
    of the grid's cell, the start the first stencil's middle row.  The
    refinement stops where a stencil is flat to round-off or its quadratic fit
    predicts a gain of at most an ulp; ``rounds`` (a non-negative integer)
    bounds the halvings of the cell, a round that divides it by 4 counting as
    two, so it evaluates at most ``rounds`` stencils (``rounds`` = 0: the
    start alone); raise ``rounds`` for tighter targets.  Every point evaluated
    joins the candidate pool, in the order evaluated, and each selection takes
    the first maximum there.
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
