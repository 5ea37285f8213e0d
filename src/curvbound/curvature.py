"""Pure algebra of principal curvatures: S_k, H_k, Newton tensors, traces.

Sign conventions follow the ambient signature.  With binom = binomial(n, k):

  riemannian:  binom * H_k = S_k,        P_k = S_k I - A P_{k-1}
  lorentzian:  binom * H_k = (-1)^k S_k, P_k = (-1)^k S_k I + A P_{k-1}

In both cases Tr P_k = c_k H_k with c_k = (n-k) binom(n,k), while
Tr(A P_k) = c_k H_{k+1} riemannian and -c_k H_{k+1} lorentzian.

H_k and the P_k eigenvalues come from one S_k table per frame batch, built by
:func:`complement_symmetric` and signed by :func:`signed_values` for the ambient;
the other convention differs by the exact factor (-1)^k.  The matrix recursion
above is an oracle of the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from functools import cache
from math import comb

import numpy as np

from .errors import read_only
from .spaceform import LORENTZIAN

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
def convention_signs(n: int, signature: str) -> np.ndarray:
    """The sign of S_k in binom(n,k) H_k, k = 0..n: (-1)^k in the lorentzian convention."""
    return read_only((-1.0) ** np.arange(n + 1) if signature == LORENTZIAN else np.ones(n + 1))


@cache
def _signed_tables(n: int, signature: str) -> tuple:
    """(binomials, signs of the n rows i < n of an S_k table), signed like S_k in binom(n,k) H_k."""
    signs = convention_signs(n, signature)
    return read_only((signs * binomials(n), np.tile(signs, n)))


@cache
def _complement_index(n: int) -> np.ndarray:
    """Row i: the indices 0..n without i, where index n is a padded zero (so row n is 0..n-1)."""
    return read_only(np.array([np.delete(np.arange(n + 1), i) for i in range(n + 1)]))


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

    ``H`` equals the H_k oracle of ``tests/oracles.py`` (a product
    recurrence on kappa) bit for bit.  In ``newton_eigenvalues`` entry (k, i)
    is the eigenvalue of P_k on the i-th principal direction; row n is zero.
    """
    n = s.shape[-1] - 1
    lead = s.shape[:-2]
    signed_binomials, row_signs = _signed_tables(n, signature)
    # (+-s)/b = s/(+-b) exactly, signed zeros included.  Rows i < n of a
    # sample's table are its first n(n+1) entries: one product signs them,
    # and a transposed view puts k first
    rows = s.reshape(lead + ((n + 1) ** 2,))[..., :n * (n + 1)] * row_signs
    return s[..., n, :] / signed_binomials, np.swapaxes(rows.reshape(lead + (n, n + 1)), -1, -2)
