"""Pure algebra of principal curvatures: S_k, H_k, the Newton-tensor spectra and traces.

One S_k table per frame batch (:func:`complement_symmetric`) is signed once for the
ambient (:func:`signed_values`).  README's "Numerical conventions" give the two sign
conventions, which differ by the exact factor (-1)^k.
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
    """S_0..S_n of the entries of kappa (..., n) by the product recurrence, over the last axis.

    The recurrence expands prod_i (1 + kappa_i t), stable for mixed-sign spectra.
    Non-finite kappa raises ValueError.
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
    """(H, newton_eigenvalues) of a :func:`complement_symmetric` table s, signed for ``signature``.

    ``H`` equals the H_k oracle of ``tests/oracles.py`` bit for bit.  Entry (k, i) of
    ``newton_eigenvalues`` is the eigenvalue of P_k on the i-th principal direction;
    row n is zero.
    """
    n = s.shape[-1] - 1
    lead = s.shape[:-2]
    signed_binomials, row_signs = _signed_tables(n, signature)
    # (+-s)/b = s/(+-b) exactly, signed zeros included.  Rows i < n of a
    # sample's table are its first n(n+1) entries: one product signs them,
    # and a transposed view puts k first
    rows = s.reshape(lead + ((n + 1) ** 2,))[..., :n * (n + 1)] * row_signs
    return s[..., n, :] / signed_binomials, np.swapaxes(rows.reshape(lead + (n, n + 1)), -1, -2)
