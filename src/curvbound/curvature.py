"""Pure algebra of principal curvatures: S_k, H_k, Newton tensors, traces.

Sign conventions follow the ambient signature.  With binom = binomial(n, k):

  riemannian:  binom * H_k = S_k,        P_k = S_k I - A P_{k-1}
  lorentzian:  binom * H_k = (-1)^k S_k, P_k = (-1)^k S_k I + A P_{k-1}

In both cases Tr P_k = c_k H_k with c_k = (n-k) binom(n,k), while
Tr(A P_k) = c_k H_{k+1} riemannian and -c_k H_{k+1} lorentzian.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import HypothesisViolationError
from .spaceform import LORENTZIAN, RIEMANNIAN

# Strict-positivity threshold for elliptic-point detection; matches the
# curvature noise floor of finite-difference jets.
TAU_ELL = 1e-9


def elementary_symmetric(kappa: np.ndarray) -> np.ndarray:
    """S_0..S_n of the entries of kappa via the product recurrence, over the last axis.

    Expands prod_i (1 + kappa_i t) coefficient by coefficient: O(n^2) and
    stable for mixed-sign spectra, unlike subset-sum evaluation.
    """
    kappa = np.asarray(kappa, dtype=float)
    if not np.all(np.isfinite(kappa)):
        raise ValueError("principal curvatures must be finite")
    n = kappa.shape[-1]
    s = np.zeros(kappa.shape[:-1] + (n + 1,))
    s[..., 0] = 1.0
    for i in range(n):
        s[..., 1:] = s[..., 1:] + kappa[..., i, None] * s[..., :-1]
    return s


def binomials(n: int) -> np.ndarray:
    return np.array([comb(n, k) for k in range(n + 1)], dtype=float)


def trace_coefficients(n: int) -> np.ndarray:
    """c_k = (n-k) binom(n,k) = (k+1) binom(n,k+1) for k = 0..n-1."""
    return np.array([(n - k) * comb(n, k) for k in range(n)], dtype=float)


def higher_mean_curvatures(kappa: np.ndarray, n: int, signature: str) -> np.ndarray:
    """Normalized curvature functions H_0..H_n under the given convention, over the last axis."""
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape[-1:] != (n,):
        raise ValueError("kappa must have length n")
    s = elementary_symmetric(kappa)
    signs = np.ones(n + 1)
    if signature == LORENTZIAN:
        signs[1::2] = -1.0
    return signs * s / binomials(n)


@dataclass(frozen=True)
class CurvatureProfile:
    """Per-point curvature data: spectrum, S_k, H_k, trace coefficients."""

    n: int
    kappa: np.ndarray
    S: np.ndarray
    H: np.ndarray
    c: np.ndarray
    signature: str

    @classmethod
    def from_kappa(cls, kappa: np.ndarray, signature: str) -> "CurvatureProfile":
        kappa = np.sort(np.asarray(kappa, dtype=float))
        n = kappa.size
        return cls(
            n=n,
            kappa=kappa,
            S=elementary_symmetric(kappa),
            H=higher_mean_curvatures(kappa, n, signature),
            c=trace_coefficients(n),
            signature=signature,
        )


def _check_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    scale = max(1.0, float(np.abs(A).max()))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("shape operator must be a square matrix")
    if np.abs(A - A.T).max() > 1e-9 * scale:
        raise ValueError("shape operator must be symmetric")
    return 0.5 * (A + A.T)


def complement_symmetric_values(kappa: np.ndarray, signature: str) -> np.ndarray:
    """Eigenvalues of the Newton tensors on the shared eigenbasis with A.

    Row k, column i (the last two axes) holds the eigenvalue of P_k on the
    i-th principal direction: S_k of the spectrum with kappa_i removed (times
    (-1)^k in the lorentzian convention).
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    vals = np.zeros(kappa.shape[:-1] + (n + 1, n))  # S_n of n-1 values vanishes
    for i in range(n):
        vals[..., :n, i] = elementary_symmetric(np.delete(kappa, i, axis=-1))
    if signature == LORENTZIAN:
        vals[..., 1::2, :] *= -1.0
    return vals


def classify_definiteness(eigenvalues: np.ndarray, tol: float = 1e-12) -> str:
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    low = eigenvalues.min()
    if low > tol * scale:
        return "positive_definite"
    if low > -tol * scale:
        return "positive_semidefinite"
    return "indefinite"


@dataclass(frozen=True)
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

    ``A`` must be symmetric and ``kappa`` its spectrum.
    """
    n = A.shape[0]
    s = elementary_symmetric(kappa)
    eye = np.eye(n)
    P = [eye]
    for k in range(1, n + 1):
        if signature == RIEMANNIAN:
            nxt = s[k] * eye - A @ P[k - 1]
        else:
            nxt = (-1.0) ** k * s[k] * eye + A @ P[k - 1]
        P.append(0.5 * (nxt + nxt.T))
    return P


def newton_family(A: np.ndarray, signature: str) -> NewtonFamily:
    """Run the inductive Newton-tensor recursion for the given signature."""
    A = _check_symmetric(A)
    n = A.shape[0]
    kappa = np.linalg.eigvalsh(A)
    P = newton_tensors(A, kappa, signature)
    eigvals = complement_symmetric_values(kappa, signature)
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
    from .immersion import principal_curvatures

    hits = []
    for param, frame in samples:
        if principal_curvatures(frame).min() > TAU_ELL:
            hits.append(param)
    return hits


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
