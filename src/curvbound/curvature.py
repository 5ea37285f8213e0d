"""Pure algebra of principal curvatures: S_k, H_k, Newton tensors, traces.

Sign conventions follow the ambient signature.  With binom = binomial(n, k):

  riemannian:  binom * H_k = S_k,        P_k = S_k I - A P_{k-1}
  lorentzian:  binom * H_k = (-1)^k S_k, P_k = (-1)^k S_k I + A P_{k-1}

In both cases Tr P_k = c_k H_k with c_k = (n-k) binom(n,k), while
Tr(A P_k) = c_k H_{k+1} riemannian and -c_k H_{k+1} lorentzian.

H_k and the P_k eigenvalues come from one S_k table: :func:`complement_symmetric`
builds it (once per frame batch), :func:`signed_values` signs and normalizes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .errors import HypothesisViolationError, read_only
from .spaceform import LORENTZIAN, RIEMANNIAN

# Strict-positivity threshold for elliptic-point detection; matches the
# curvature noise floor of finite-difference jets.
TAU_ELL = 1e-9


def elementary_symmetric(kappa: np.ndarray) -> np.ndarray:
    """S_0..S_n of the entries of kappa via the product recurrence, over the last axis.

    Expands prod_i (1 + kappa_i t) coefficient by coefficient: O(n^2) and
    stable for mixed-sign spectra, unlike subset-sum evaluation.  S_k sits on
    the first axis while the recurrence runs, so that each step is one
    operation over all samples rather than many over a few coefficients.
    """
    kappa = np.asarray(kappa, dtype=float)
    if not np.all(np.isfinite(kappa)):
        raise ValueError("principal curvatures must be finite")
    n = kappa.shape[-1]
    s = np.zeros((n + 1,) + kappa.shape[:-1])
    s[0] = 1.0
    for i in range(n):
        s[1:] = s[1:] + kappa[..., i] * s[:-1]
    return np.ascontiguousarray(s.transpose((*range(1, s.ndim), 0)))  # S_k back to the last axis


@cache
def binomials(n: int) -> np.ndarray:
    return read_only(np.array([comb(n, k) for k in range(n + 1)], dtype=float))


@cache
def trace_coefficients(n: int) -> np.ndarray:
    """c_k = (n-k) binom(n,k) = (k+1) binom(n,k+1) for k = 0..n-1."""
    return read_only(np.array([(n - k) * comb(n, k) for k in range(n)], dtype=float))


@cache
def _signs(n: int, signature: str) -> np.ndarray:
    """The sign of S_k in binom(n,k) H_k, k = 0..n: (-1)^k in the lorentzian convention."""
    return read_only((-1.0) ** np.arange(n + 1) if signature == LORENTZIAN else np.ones(n + 1))


@cache
def _complement_index(n: int) -> np.ndarray:
    """Row i: the indices 0..n without i, where index n is a padded zero (so row n is 0..n-1)."""
    return read_only(np.array([np.delete(np.arange(n + 1), i) for i in range(n + 1)]))


def higher_mean_curvatures(kappa: np.ndarray, n: int, signature: str) -> np.ndarray:
    """Normalized curvature functions H_0..H_n under the given convention, over the last axis."""
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape[-1:] != (n,):
        raise ValueError("kappa must have length n")
    return _signs(n, signature) * elementary_symmetric(kappa) / binomials(n)


def complement_symmetric(kappa: np.ndarray) -> np.ndarray:
    """Unsigned S_k table (..., n+1, n+1) of the spectra kappa (..., n), from one recurrence.

    Row i < n holds S_0..S_n of kappa without kappa_i, then a zero; row n
    those of kappa.  The zero is exact while S_k is finite: its step adds
    0 * s to each S_k, and s + 0 * s = s because s is never -0.0 (it starts
    at +0.0, and a sum is -0.0 only when both terms are).
    """
    kappa = np.asarray(kappa, dtype=float)
    padded = np.concatenate([kappa, np.zeros(kappa.shape[:-1] + (1,))], axis=-1)
    return elementary_symmetric(padded[..., _complement_index(kappa.shape[-1])])


def signed_values(s: np.ndarray, signature: str) -> tuple:
    """(H, newton_eigenvalues) of a :func:`complement_symmetric` table s.

    ``H`` equals :func:`higher_mean_curvatures` bit for bit.  In
    ``newton_eigenvalues`` entry (k, i) is the eigenvalue of P_k on the i-th
    principal direction; row n is zero.
    """
    n = s.shape[-1] - 1
    signs = _signs(n, signature)
    return signs * s[..., n, :] / binomials(n), signs[:, None] * np.swapaxes(s[..., :n, :], -1, -2)


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
    ``kappa`` (..., n) its spectrum.  An oracle: the pipeline reads P_k only
    through :func:`symmetric_values`.
    """
    n = A.shape[-1]
    s = _signs(n, signature)[:, None, None] * elementary_symmetric(kappa)[..., None, None]
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
