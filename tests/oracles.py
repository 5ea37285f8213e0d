"""Independent oracles the tests check the library against.

The library reads H_k and the Newton tensors P_k only through the spectra of
one S_k table (:func:`curvbound.curvature.signed_values`), and the distance
Hessian only through :func:`curvbound.spaceform.distance_jet`.  The routines
here compute the same quantities another way, or wrap the library's row
routines in single-point calls that raise the first error:

- charts: the hypersphere direction and its jets with a cumulative product
  over the short last axis, the jets recomputing the sines and cosines of
  the value, the references the library's elementwise fold matches bit for bit;
- curvature: H_k from the product recurrence, the Newton tensors by the
  inductive matrix recursion, their trace identities, the Garding chain and
  the Gauss-equation byproducts;
- distance: model geodesics, single-point wrappers of the distance gradient
  and of the closed-form Hessian (whose ``hessian(d1, metric)`` takes a
  tangent matrix and its metric: Hess rho(X, Y) is entry (0, 1) on the
  two-column matrix [X, Y] and its Gram matrix), a five-point
  finite-difference Hessian along a geodesic that never touches the closed
  forms, and the composed field phi_b(rho) the estimates drive;
- frames: the congruence and shape operators of stacked metrics in the
  samples-first layout, from the library's elimination on [g | I], and the
  same by an explicit LDL^T factor and forward substitution, the reference
  that elimination matches bit for bit;
- refinement: the per-point grid-halving loop, which evaluates one stencil
  point at a time and always halves the cell, and a long run of it that
  gives a scalar's extremum to round-off.

Sign conventions are those of :mod:`curvbound.curvature`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import mul

import numpy as np

from curvbound.charts import grid_points
from curvbound.comparison import cs, phi_b, phi_b_d1, phi_b_d2, sn
from curvbound.curvature import (
    TAU_ELL,
    binomials,
    complement_symmetric,
    convention_signs,
    elementary_symmetric,
    signed_values,
    trace_coefficients,
)
from curvbound.errors import (
    GeometryError,
    HypothesisViolationError,
    NumericalError,
    raise_first,
)
from curvbound.immersion import (
    _matmul,
    _samples_first,
    _samples_last,
    congruence,
    induced_metric,
    ldl,
)
from curvbound.operators import ComposedField, DistanceField
from curvbound.spaceform import (
    RIEMANNIAN,
    AmbientModel,
    ambient_distance,
    distance_jet,
    gradient_rows,
)

# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def direction_reference(angles: np.ndarray) -> np.ndarray:
    """Unit vectors on S^n, the prefix products of the sines by ``np.cumprod``."""
    omega = np.concatenate([np.cos(angles), np.ones(np.shape(angles)[:-1] + (1,))], -1)
    omega[..., 1:] *= np.cumprod(np.sin(angles), -1)
    return omega


def direction_jet_reference(angles: np.ndarray):
    """(value, d1, d2) of :func:`direction_reference`, the value's sines and cosines evaluated anew."""
    angles = np.asarray(angles, dtype=float)
    batch, n = angles.shape[:-1], angles.shape[-1]
    s, c = np.sin(angles), np.cos(angles)
    value = direction_reference(angles)
    d1 = np.zeros(batch + (n + 1, n))
    d2 = np.zeros(batch + (n + 1, n, n))
    for j in range(n + 1):
        idx = list(range(j + 1)) if j < n else list(range(n))
        fv = [c[..., i] if (i == j and j < n) else s[..., i] for i in idx]
        fd = [-s[..., i] if (i == j and j < n) else c[..., i] for i in idx]
        for a_pos, a in enumerate(idx):
            d1[..., j, a] = reduce(mul, fv[:a_pos] + fv[a_pos + 1:], 1.0) * fd[a_pos]
            d2[..., j, a, a] = -value[..., j]
            for b_pos in range(a_pos):
                b = idx[b_pos]
                core = reduce(mul, [fv[q] for q in range(len(idx)) if q not in (a_pos, b_pos)], 1.0)
                d2[..., j, a, b] = d2[..., j, b, a] = core * fd[a_pos] * fd[b_pos]
    return value, d1, d2


# ---------------------------------------------------------------------------
# curvature algebra
# ---------------------------------------------------------------------------


def higher_mean_curvatures(kappa: np.ndarray, n: int, signature: str) -> np.ndarray:
    """Normalized curvature functions H_0..H_n under the given convention, over the last axis."""
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape[-1:] != (n,):
        raise ValueError("kappa must have length n")
    return convention_signs(n, signature) * elementary_symmetric(kappa) / binomials(n)


def symmetric_values(kappa: np.ndarray, signature: str) -> tuple:
    """:func:`signed_values` of the :func:`complement_symmetric` table of kappa."""
    return signed_values(complement_symmetric(kappa), signature)


def _check_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    scale = max(1.0, float(np.abs(A).max()))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("shape operator must be a square matrix")
    if np.abs(A - A.T).max() > 1e-9 * scale:
        raise ValueError("shape operator must be symmetric")
    return 0.5 * (A + A.T)


def classify_definiteness(eigenvalues: np.ndarray) -> str:
    tol = 1e-12 * max(1.0, float(np.abs(eigenvalues).max()))
    low = eigenvalues.min()
    if low > tol:
        return "positive_definite"
    if low > -tol:
        return "positive_semidefinite"
    return "indefinite"


@dataclass(frozen=True, eq=False)
class NewtonFamily:
    """Newton tensors P_0..P_n of a shape operator, with spectral data.

    ``P[k]`` is the matrix recursion output; ``eigenvalues[k]`` comes from
    the complement-S_k formula on the spectrum of A (exact shared eigenbasis),
    and definiteness flags are decided on those eigenvalues, not the matrix.
    """

    P: list
    eigenvalues: np.ndarray
    definiteness: list
    signature: str


def newton_tensors(A: np.ndarray, kappa: np.ndarray, signature: str) -> list:
    """P_0..P_n by the inductive matrix recursion, with S_k taken from kappa.

    P_k = sign_k S_k I - eps A P_{k-1}, with sign_k the sign of S_k in
    binom(n,k) H_k and eps = <N,N>.  ``A`` (..., n, n) must be symmetric and
    ``kappa`` (..., n) its spectrum.
    """
    n = A.shape[-1]
    s = convention_signs(n, signature)[:, None, None] * elementary_symmetric(kappa)[..., None, None]
    eps = 1.0 if signature == RIEMANNIAN else -1.0
    eye = np.eye(n)
    P = [np.broadcast_to(eye, A.shape)]
    for k in range(1, n + 1):
        nxt = s[..., k, :, :] * eye - eps * (A @ P[k - 1])
        P.append(0.5 * (nxt + np.swapaxes(nxt, -1, -2)))
    return P


def newton_family(A: np.ndarray, signature: str) -> NewtonFamily:
    """Run the inductive Newton-tensor recursion for the given signature."""
    A = _check_symmetric(A)
    n = A.shape[0]
    kappa = np.linalg.eigvalsh(A)
    P = newton_tensors(A, kappa, signature)
    eigvals = symmetric_values(kappa, signature)[1]
    flags = [classify_definiteness(eigvals[k]) for k in range(n + 1)]
    return NewtonFamily(P=P, eigenvalues=eigvals, definiteness=flags, signature=signature)


def trace_identity_residuals(A: np.ndarray, signature: str) -> list:
    """Absolute residuals of (Tr P_k, Tr A P_k) against c_k H_k, +-c_k H_{k+1}."""
    A = _check_symmetric(A)
    n = A.shape[0]
    kappa = np.linalg.eigvalsh(A)
    H = higher_mean_curvatures(kappa, n, signature)
    c = trace_coefficients(n)
    fam = newton_family(A, signature)
    sign = 1.0 if signature == RIEMANNIAN else -1.0
    out = []
    for k in range(n):
        r1 = abs(float(np.trace(fam.P[k])) - c[k] * H[k])
        r2 = abs(float(np.trace(A @ fam.P[k])) - sign * c[k] * H[k + 1])
        out.append((r1, r2))
    return out


def garding_chain(H: np.ndarray, k: int) -> tuple:
    """Check H_1 >= H_2^{1/2} >= ... >= H_{k+1}^{1/(k+1)} > 0.

    Valid at elliptic points only; a nonpositive H_j along the chain is a
    hypothesis violation, not a chain failure.  Returns (holds, margins)
    with margins[j-1] = H_j^{1/j} - H_{j+1}^{1/(j+1)}.
    """
    H = np.asarray(H, dtype=float)
    if k + 1 >= H.size:
        raise ValueError("chain needs H_0..H_{k+1}")
    vals = H[1 : k + 2]
    if np.any(vals <= 0.0):
        raise HypothesisViolationError("chain evaluated where some H_j <= 0")
    roots = vals ** (1.0 / np.arange(1, k + 2))
    margins = roots[:-1] - roots[1:]
    guard = 1e-12 * np.maximum(1.0, np.abs(roots[:-1]))
    holds = bool(np.all(margins >= -guard)) and bool(roots[-1] > 0.0)
    return holds, margins


def elliptic_point_scan(samples) -> list:
    """Parameters whose frames have all principal curvatures above TAU_ELL.

    ``samples`` is an iterable of (parameter, PointFrame) pairs computed with
    the inner orientation.
    """
    return [param for param, frame in samples if frame.kappa.min() > TAU_ELL]


def gauss_identities(kappa: np.ndarray, b: float) -> tuple:
    """Intrinsic curvature byproducts for a hypersurface in curvature b.

    Returns (n(n-1)(b + H_2), sectional values {b + kappa_i kappa_j, i<j}),
    the scalar part evaluated through (Tr A)^2 - Tr(A^2) = 2 S_2.
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.size
    if n < 2:
        raise ValueError("sectional data needs n >= 2")
    two_s2 = float(kappa.sum() ** 2 - (kappa**2).sum())
    proxy = n * (n - 1) * b + two_s2
    idx_i, idx_j = np.triu_indices(n, k=1)
    sectional = b + kappa[idx_i] * kappa[idx_j]
    return proxy, sectional


# ---------------------------------------------------------------------------
# geodesics and the distance function
# ---------------------------------------------------------------------------


def geodesic_point(model: AmbientModel, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Point at parameter t on the model geodesic with gamma(0)=x, gamma'(0)=v.

    On the quadric the flat acceleration is purely normal, gamma'' = -k gamma
    with k = b<v,v> (k = 0 in flat models), so gamma = cs_k(t) x + sn_k(t) v.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    k = model.curvature * model.flat_inner(v, v)
    return cs(k, t) * x + sn(k, t) * v


def geodesic_velocity(model: AmbientModel, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Velocity gamma'(t) = -k sn_k(t) x + cs_k(t) v of the geodesic of :func:`geodesic_point`."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    k = model.curvature * model.flat_inner(v, v)
    return -k * sn(k, t) * x + cs(k, t) * v


def distance_gradient(model: AmbientModel, o: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of the distance function at x; raises where it is undefined or o is invalid."""
    _, grad, errors = gradient_rows(model, model.check_point(o), x)
    raise_first(errors)
    return grad


def distance_hessian_bilinear(model: AmbientModel, o: np.ndarray, x: np.ndarray, X, Y):
    """Hess rho(X, Y) for tangent vectors X, Y at x (:func:`distance_jet`), over leading axes."""
    _, _, hessian, errors, _ = distance_jet(model, model.check_point(o), x)
    raise_first(errors)
    d1 = np.stack(np.broadcast_arrays(X, Y), axis=-1)  # (..., m, 2)
    return hessian(d1, induced_metric(d1, model.metric_diag))[..., 0, 1]


def distance_hessian_quadform(model: AmbientModel, o: np.ndarray, x: np.ndarray, X: np.ndarray):
    """Hess rho(X, X) for a tangent vector X at x."""
    return distance_hessian_bilinear(model, o, x, X, X)


def fd_distance_hessian_quadform(
    model: AmbientModel,
    o: np.ndarray,
    x: np.ndarray,
    X: np.ndarray,
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


def phi_of_distance_field(model: AmbientModel, origin: np.ndarray, b: float) -> ComposedField:
    """The bounded composition phi_b(rho), the function the estimates drive, as a
    :class:`~curvbound.operators.ComposedField` of the distance to ``origin``."""
    return ComposedField(
        DistanceField(model, origin), partial(phi_b, b), partial(phi_b_d1, b), partial(phi_b_d2, b)
    )


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def orthonormal_shape(g: np.ndarray, h: np.ndarray) -> tuple:
    """(R, A): the congruences R = L^-1 of the metrics g = L L^T and the shape operators R h R^T.

    Both samples first, (..., n, n).  L = L_1 D^1/2 is the Cholesky factor of
    g = L_1 D L_1^T: one elimination on [g | I] (:func:`curvbound.immersion.ldl`)
    yields the pivots D and L_1^-1, so R = D^-1/2 L_1^-1, and A is
    :func:`curvbound.immersion.congruence`.  g^-1 = R^T R, and R^T maps
    coordinates in the g-orthonormal frame to the chart basis.  In that frame
    the shape operator is symmetric, which keeps its spectrum real by
    construction.  Raises NumericalError when a metric has a pivot that is
    not positive, that is, no Cholesky factor.
    """
    d, Linv = ldl(_samples_last(g))
    if not np.all(d > 0.0):
        raise NumericalError(
            f"metric not positive definite (cond ~ {np.max(np.linalg.cond(g)):.3e})")
    Rt = Linv / np.sqrt(d)[:, None]
    return _samples_first(Rt), congruence(Rt, h)


def substitution_shape(g: np.ndarray, h: np.ndarray) -> tuple:
    """(d, R, A) of the metrics g and forms h (..., n, n) by an explicit factor L and substitution.

    The LDL^T factorization stores L, unit lower triangular, one pivot step
    at a time; forward substitution then inverts it one row per step, and
    R = D^-1/2 L^-1 and A = sym(R h R^T) follow, R and A samples first.
    Each entry takes the same IEEE operations, in the same order, as in
    :func:`curvbound.immersion.ldl`'s elimination on [g | I], so rows with
    positive pivots match the library's bit for bit.  Rows with a zero or
    negative pivot give inf or NaN, without a warning.
    """
    S = np.array(_samples_last(g), dtype=float)
    n = len(S)
    Lt = np.zeros(S.shape)
    Rt = np.zeros(S.shape)
    with np.errstate(all="ignore"):
        for k in range(n - 1):
            Lt[k + 1:, k] = S[k + 1:, k] / S[k, k]
            S[k + 1:, k + 1:] -= Lt[k + 1:, k, None] * S[k, k + 1:]
        for i in range(n):
            Rt[i, i] = 1.0
            for k in range(i):
                Rt[i] -= Lt[i, k] * Rt[k]
        d = S[np.arange(n), np.arange(n)]
        Rt /= np.sqrt(d)[:, None]
        A = _matmul(_matmul(Rt, _samples_last(h)), np.swapaxes(Rt, 0, 1))
        A = 0.5 * (A + np.swapaxes(A, 0, 1))
    return _samples_first(d, 1), _samples_first(Rt), _samples_first(A)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def sequential_refine(patch, fn, start, cell, rounds, sign):
    """Grid-halving refinement of max(sign * fn), one stencil point at a time.

    ``fn`` maps one parameter point to a value or raises GeometryError.  Each
    round tries the 5^n points of half and whole cells around the best point,
    in grid order, each coordinate taken modulo the width on an axis the patch
    wraps and clipped to the box on the others, moves on a strict improvement,
    then halves the cell.  Returns (param, value).
    """
    center = np.asarray(start, dtype=float)
    best = sign * fn(center)
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    cell = np.asarray(cell, dtype=float)
    lo, hi = patch.domain_lo, patch.domain_hi
    for _ in range(rounds):
        for combo in grid_points([center[i] + offsets * cell[i] for i in range(center.size)]):
            q = np.where(patch.wraps, lo + np.mod(combo - lo, hi - lo), np.clip(combo, lo, hi))
            try:
                val = sign * fn(q)
            except GeometryError:
                continue
            if val > best:
                best, center = val, q
        cell = cell / 2.0
    return center, sign * best


def halving_reference(patch, fn, start, cell, sign, rounds=60):
    """:func:`sequential_refine` for ``rounds`` rounds of ``fn``, which maps rows to (values, errors).

    After 60 halvings the cell is below the parameters' round-off, so the
    value is the extremum to round-off.
    """
    def value_at(q):
        values, errors = fn(q[None])
        raise_first(errors)
        return values[0]

    return sequential_refine(patch, value_at, start, cell, rounds, sign)
