"""Restrictions of ambient functions to patches and their trace operators.

For u = h∘f the intrinsic Hessian is assembled from the displayed identity

    Hess u(X,Y) = Hess h(X,Y) + eps <grad h, N> <AX, Y>,   eps = <N,N>,

which in the Riemannian case reads Hess rho + <grad rho, N> h and in the
Lorentzian case Hess rho - sqrt(1 + |grad u|^2) h.  A fully independent
finite-difference route (Christoffel symbols from the induced metric) backs
the identity route as an oracle.

All operator algebra happens in a metric-orthonormal frame obtained by a
Cholesky congruence, where the shape operator is honestly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import fd_jet
from .comparison import c_b, c_hat_b, phi_b, phi_b_d1, phi_b_d2
from .curvature import (
    TAU_ELL,
    complement_symmetric_values,
    higher_mean_curvatures,
    newton_tensors,
    trace_coefficients,
)
from .errors import ConsistencyError, GeometryError, HypothesisViolationError
from .immersion import (
    HypersurfacePatch,
    PointFrame,
    congruence,
    frame_at,
    grid_axes,
    grid_points,
    induced_metric,
    orthonormal_shape,
    refine_extremum,
)
from .spaceform import (
    RIEMANNIAN,
    AmbientModel,
    ambient_distance,
    distance_gradient,
    distance_hessian_bilinear,
)


class DistanceField:
    """u = rho(., o): the ambient distance to a reference point."""

    def __init__(self, model: AmbientModel, origin: np.ndarray):
        self.model = model
        self.origin = model.check_point(np.asarray(origin, dtype=float))

    def value(self, x):
        return ambient_distance(self.model, self.origin, x)

    def gradient(self, x):
        return distance_gradient(self.model, self.origin, x)

    def hessian_bilinear(self, x, X, Y):
        return distance_hessian_bilinear(self.model, self.origin, x, X, Y)


class LinearCoordinateField:
    """Restriction of the linear ambient function x -> sum_a c_a x_a.

    On a quadric the intrinsic Hessian picks up the second-form correction
    -b <X,Y> l(x); in flat models it vanishes.
    """

    def __init__(self, model: AmbientModel, coefficients: np.ndarray):
        self.model = model
        self.coefficients = np.asarray(coefficients, dtype=float)

    def value(self, x):
        return float(self.coefficients @ x)

    def gradient(self, x):
        raised = self.coefficients / self.model.metric_diag
        return self.model.tangent_project(x, raised)

    def hessian_bilinear(self, x, X, Y):
        if not self.model.is_quadric:
            return 0.0
        return -self.model.curvature * self.model.flat_inner(X, Y) * self.value(x)


class ComposedField:
    """phi(u) for a scalar reparametrization phi with two derivatives."""

    def __init__(self, base, fn, d1, d2):
        self.base = base
        self.fn, self.d1, self.d2 = fn, d1, d2

    def value(self, x):
        return self.fn(self.base.value(x))

    def gradient(self, x):
        return self.d1(self.base.value(x)) * self.base.gradient(x)

    def hessian_bilinear(self, x, X, Y):
        u = self.base.value(x)
        g = self.base.gradient(x)
        model = self.base.model
        du_x = model.flat_inner(g, X)
        du_y = model.flat_inner(g, Y)
        return self.d2(u) * du_x * du_y + self.d1(u) * self.base.hessian_bilinear(x, X, Y)


def phi_of_distance_field(model: AmbientModel, origin: np.ndarray, b: float) -> ComposedField:
    """The bounded composition phi_b(rho), the function the estimates drive."""
    return ComposedField(
        DistanceField(model, origin),
        lambda t: phi_b(b, t),
        lambda t: phi_b_d1(b, t),
        lambda t: phi_b_d2(b, t),
    )


@dataclass
class FieldSample:
    """Restriction data of an ambient field at one patch point."""

    param: np.ndarray
    u: float
    grad: np.ndarray  # vector in the chart basis
    grad_norm_sq: float
    normal_coef: float  # <ambient gradient, N>
    hess: np.ndarray  # chart-basis bilinear form
    frame: PointFrame


def restrict_field(
    patch: HypersurfacePatch, field, p: np.ndarray, frame: PointFrame | None = None
) -> FieldSample:
    if frame is None:
        frame = frame_at(patch, p)
    model = patch.ambient
    x, d1 = frame.position, frame.tangent
    u = field.value(x)
    gbar = field.gradient(x)
    eta = model.metric_diag
    du = d1.T @ (eta * gbar)
    grad = np.linalg.solve(frame.metric, du)
    grad_norm_sq = float(du @ grad)
    normal_coef = model.flat_inner(gbar, frame.normal)
    n = patch.n
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i + 1):
            hess[i, j] = hess[j, i] = field.hessian_bilinear(x, d1[:, i], d1[:, j])
    eps = 1.0 if model.signature == RIEMANNIAN else -1.0
    hess = hess + eps * normal_coef * frame.second_form
    return FieldSample(
        param=np.asarray(p, dtype=float),
        u=float(u),
        grad=grad,
        grad_norm_sq=grad_norm_sq,
        normal_coef=float(normal_coef),
        hess=hess,
        frame=frame,
    )


# ---------------------------------------------------------------------------
# independent finite-difference route
# ---------------------------------------------------------------------------


def intrinsic_hessian_fd(
    patch: HypersurfacePatch, scalar_fn, p: np.ndarray, step_scale: float = 1e-4
) -> np.ndarray:
    """Intrinsic Hessian of a parameter-space scalar via Christoffel symbols.

    Metric derivatives come from finite differences of the induced metric;
    the result is d_i d_j u - Gamma^l_ij d_l u.  Purely chart-level: never
    touches the ambient Hessian identity it cross-checks.
    """
    p = np.asarray(p, dtype=float)
    n = patch.n
    h = step_scale * patch.domain_width

    def metric_at(q):
        return induced_metric(patch.jet_at(q)[1], patch.ambient.metric_diag)

    _, du, d2u = fd_jet(lambda q: np.atleast_1d(scalar_fn(q)), p, h)
    du, d2u = du[0], d2u[0]
    dg = np.empty((n, n, n))  # dg[k] = d_k g
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        dg[i] = (metric_at(p + ei) - metric_at(p - ei)) / (2.0 * h[i])
    g_inv = np.linalg.inv(metric_at(p))
    gamma = np.empty((n, n, n))  # gamma[l, i, j]
    for i in range(n):
        for j in range(n):
            gamma[:, i, j] = 0.5 * g_inv @ (dg[i][j] + dg[j][i] - dg[:, i, j])
    return d2u - np.einsum("lij,l->ij", gamma, du)


def restriction_hessian(
    patch: HypersurfacePatch, o: np.ndarray, p: np.ndarray, check_tol: float = 1e-3
) -> np.ndarray:
    """Intrinsic Hessian of u = rho∘f, identity route, FD cross-checked."""
    model = patch.ambient
    field = DistanceField(model, o)
    sample = restrict_field(patch, field, p)
    fd = intrinsic_hessian_fd(
        patch, lambda q: field.value(np.asarray(patch.chart.value(q), dtype=float)), p
    )
    scale = max(1.0, float(np.abs(sample.hess).max()))
    if np.abs(sample.hess - fd).max() > check_tol * scale:
        raise ConsistencyError(
            "identity-route and finite-difference Hessians disagree "
            f"by {np.abs(sample.hess - fd).max():.3e}"
        )
    return sample.hess


# ---------------------------------------------------------------------------
# trace operators
# ---------------------------------------------------------------------------


@dataclass
class OperatorData:
    """Shape operator and Newton-tensor spectra in a metric-orthonormal frame.

    Fields carry the leading sample axes of the frame they were computed
    from.  ``newton_eigenvalues[..., k, i]`` is the eigenvalue of P_k on the
    i-th principal direction.  The matrices ``P`` (one sample only) are built
    on first access.
    """

    chol: np.ndarray
    shape_sym: np.ndarray
    kappa: np.ndarray
    newton_eigenvalues: np.ndarray
    H: np.ndarray
    c: np.ndarray
    signature: str

    @cached_property
    def P(self) -> list:
        """Newton tensors P_0..P_n as matrices in the orthonormal frame."""
        return newton_tensors(self.shape_sym, self.kappa, self.signature)

    def newton_psd_margin(self, k: int):
        """Smallest eigenvalue of P_k over max(1, max|kappa|^k); P_k is PSD down to -TAU_ELL."""
        scale = np.abs(self.kappa).max(axis=-1) ** max(k, 1)
        return self.newton_eigenvalues[..., k, :].min(axis=-1) / np.maximum(1.0, scale)


def operator_data(frame: PointFrame, signature: str) -> OperatorData:
    """Operator data of a frame, over its leading sample axes."""
    L, A = orthonormal_shape(frame)
    kappa = np.linalg.eigvalsh(A)
    n = A.shape[-1]
    return OperatorData(
        chol=L,
        shape_sym=A,
        kappa=kappa,
        newton_eigenvalues=complement_symmetric_values(kappa, signature),
        H=higher_mean_curvatures(kappa, n, signature),
        c=trace_coefficients(n),
        signature=signature,
    )


def trace_operator(sample: FieldSample, data: OperatorData, k: int) -> float:
    """L_k u = Tr(P_k ∘ hess u), both taken in the orthonormal frame."""
    return float(np.trace(data.P[k] @ congruence(data.chol, sample.hess)))


def l_k_apply(patch: HypersurfacePatch, p: np.ndarray, k: int, field) -> float:
    """L_k u = Tr(P_k ∘ hess u) at the parameter point p."""
    sample = restrict_field(patch, field, p)
    return trace_operator(sample, operator_data(sample.frame, patch.ambient.signature), k)


def newton_quadratic(sample: FieldSample, data: OperatorData, k: int) -> float:
    """<grad u, P_k grad u> in the orthonormal frame."""
    v = data.chol.T @ sample.grad
    return float(v @ data.P[k] @ v)


def key_inequality_rhs(sample: FieldSample, data: OperatorData, k: int, b: float) -> float:
    """Right-hand side of the key inequality for u = rho at one sample.

    Riemannian: C_b(u)(c_k H_k - <grad u, P_k grad u>) + c_k H_{k+1} <grad rho, N>.
    Lorentzian: -C_{-b}(u)(c_k H_k + <grad u, P_k grad u>)
                + c_k H_{k+1} sqrt(1 + |grad u|^2).
    """
    quad = newton_quadratic(sample, data, k)
    ck, Hk, Hk1 = data.c[k], data.H[k], data.H[k + 1]
    if data.signature == RIEMANNIAN:
        return c_b(b, sample.u) * (ck * Hk - quad) + ck * Hk1 * sample.normal_coef
    return -c_hat_b(b, sample.u) * (ck * Hk + quad) + ck * Hk1 * np.sqrt(
        1.0 + sample.grad_norm_sq
    )


def key_inequality_residual(
    patch: HypersurfacePatch,
    p: np.ndarray,
    k: int,
    b: float | None = None,
    origin: np.ndarray | None = None,
) -> float:
    """L_k u minus :func:`key_inequality_rhs`; >= 0, zero in space forms."""
    model = patch.ambient
    if b is None:
        b = model.curvature
    if origin is None:
        origin = patch.center
    if origin is None:
        raise GeometryError("no reference point available for the distance field")
    sample = restrict_field(patch, DistanceField(model, origin), p)
    data = operator_data(sample.frame, model.signature)
    if data.newton_psd_margin(k) < -TAU_ELL:
        raise HypothesisViolationError(f"P_{k} is not positive semidefinite at this point")
    return trace_operator(sample, data, k) - key_inequality_rhs(sample, data, k, b)


# ---------------------------------------------------------------------------
# extremum-sequence search
# ---------------------------------------------------------------------------


@dataclass
class OmoriYauCandidate:
    param: np.ndarray
    u: float
    grad_norm: float
    q_lu: float
    j: int


@dataclass
class OmoriYauOutcome:
    j: int
    candidate: OmoriYauCandidate | None
    best_violation: float  # worst condition margin of the closest miss (<= 0 ok)


@dataclass
class OmoriYauReport:
    outcomes: list
    refined_max: OmoriYauCandidate
    u_star: float
    excluded: int
    evaluations: int

    @property
    def all_found(self) -> bool:
        return all(o.candidate is not None for o in self.outcomes)


def _evaluate_point(patch, field, k, p):
    """(param, u, |grad u|, q L_k u) at p.

    Raises a GeometryError where the frame fails, and HypothesisViolationError
    where Tr P_k is not positive.
    """
    sample = restrict_field(patch, field, p)
    data = operator_data(sample.frame, patch.ambient.signature)
    tr = float(np.trace(data.P[k]))
    if tr <= TAU_ELL:
        raise HypothesisViolationError(f"Tr P_{k} is not positive at this point")
    lk = trace_operator(sample, data, k)
    return sample.param, sample.u, float(np.sqrt(sample.grad_norm_sq)), lk / tr


def omori_yau_search(
    patch: HypersurfacePatch,
    field,
    k: int,
    resolution: int = 24,
    j_max: int = 6,
    rounds: int = 8,
    top_quantile: float = 0.1,
) -> OmoriYauReport:
    """Search for points realizing the three extremum-sequence conditions.

    For each j <= j_max a candidate p must satisfy u(p) > u* - 1/j,
    |grad u(p)| < 1/j and (1/Tr P_k) L_k u(p) < 1/j.  The search runs a
    coarse grid, filters the near-supremum set, then repeatedly halves a
    local grid around the best point (the default 8 rounds resolve gradients
    to roughly cell/256; raise ``rounds`` for tighter targets).
    """
    axes = grid_axes(patch, resolution)
    records = []
    excluded = 0
    for combo in grid_points(axes):
        try:
            records.append(_evaluate_point(patch, field, k, combo))
        except HypothesisViolationError:
            excluded += 1
        except GeometryError:
            continue
    if not records:
        raise GeometryError("no valid samples for the extremum search")

    records.sort(key=lambda r: r[1])
    top = records[int(np.floor((1.0 - top_quantile) * len(records))):]
    best = min(top, key=lambda r: r[2])  # smallest gradient near the supremum

    pool = list(records)

    def pooled_u(q):
        pool.append(_evaluate_point(patch, field, k, q))
        return pool[-1][1]

    cell = np.array([ax[1] - ax[0] for ax in axes])
    refine_extremum(patch, pooled_u, best[0], cell, rounds=rounds)

    refined = max(pool, key=lambda r: r[1])
    u_star = refined[1]
    refined_max = OmoriYauCandidate(refined[0], refined[1], refined[2], refined[3], 0)

    outcomes = []
    for j in range(1, j_max + 1):
        thr = 1.0 / j
        eligible = [
            r for r in pool if r[1] > u_star - thr and r[2] < thr and r[3] < thr
        ]
        if eligible:
            rec = max(eligible, key=lambda r: r[1])
            outcomes.append(
                OmoriYauOutcome(j, OmoriYauCandidate(rec[0], rec[1], rec[2], rec[3], j), 0.0)
            )
        else:
            viol = min(
                max(u_star - thr - r[1], r[2] - thr, r[3] - thr) for r in pool
            )
            outcomes.append(OmoriYauOutcome(j, None, float(viol)))
    return OmoriYauReport(
        outcomes=outcomes,
        refined_max=refined_max,
        u_star=float(u_star),
        excluded=excluded,
        evaluations=len(pool),
    )
