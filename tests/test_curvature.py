"""Symmetric-function algebra, Newton tensors, trace identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvbound.curvature import elementary_symmetric, trace_coefficients
from curvbound.errors import HypothesisViolationError

from oracles import (
    classify_definiteness,
    garding_chain,
    gauss_identities,
    higher_mean_curvatures,
    newton_family,
    symmetric_values,
    trace_identity_residuals,
)


def brute_force_symmetric(kappa, k):
    """Oracle: S_k by summing all k-subsets directly."""
    if k == 0:
        return 1.0
    return sum(math.prod(sub) for sub in itertools.combinations(kappa, k))


# -- elementary symmetric functions -------------------------------------------


def test_elementary_symmetric_cubic():
    np.testing.assert_allclose(elementary_symmetric([1.0, 2.0, 3.0]), [1.0, 6.0, 11.0, 6.0])


def test_elementary_symmetric_equal_roots():
    for n in (2, 4, 6):
        c = 0.7
        s = elementary_symmetric(np.full(n, c))
        expected = [math.comb(n, k) * c**k for k in range(n + 1)]
        np.testing.assert_allclose(s, expected, rtol=1e-13)


def test_elementary_symmetric_sign_pair():
    np.testing.assert_allclose(elementary_symmetric([1.0, -1.0]), [1.0, 0.0, -1.0], atol=1e-15)


def test_elementary_symmetric_against_subset_sums(rng):
    for _ in range(50):
        n = rng.integers(2, 8)
        kappa = rng.uniform(-5.0, 5.0, size=n)
        s = elementary_symmetric(kappa)
        for k in range(n + 1):
            assert s[k] == pytest.approx(brute_force_symmetric(kappa, k), rel=1e-10, abs=1e-10)


def test_scale_equivariance(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        kappa = rng.uniform(-3.0, 3.0, size=n)
        lam = rng.uniform(0.1, 4.0)
        s1 = elementary_symmetric(kappa)
        s2 = elementary_symmetric(lam * kappa)
        powers = lam ** np.arange(n + 1)
        np.testing.assert_allclose(s2, powers * s1, rtol=1e-12)
        for sig in ("riemannian", "lorentzian"):
            h1 = higher_mean_curvatures(kappa, n, sig)
            h2 = higher_mean_curvatures(lam * kappa, n, sig)
            np.testing.assert_allclose(h2, powers * h1, rtol=1e-12)


# -- H_k conventions -----------------------------------------------------------


def test_mean_curvatures_riemannian_sphere():
    r = 2.0
    n = 3
    H = higher_mean_curvatures(np.full(n, 1.0 / r), n, "riemannian")
    np.testing.assert_allclose(H, [r**-k for k in range(n + 1)], rtol=1e-14)


def test_mean_curvatures_lorentzian_hyperboloid():
    r = 2.0
    n = 3
    H = higher_mean_curvatures(np.full(n, -1.0 / r), n, "lorentzian")
    np.testing.assert_allclose(H, [r**-k for k in range(n + 1)], rtol=1e-14)


def test_mean_curvatures_cubic_example():
    H = higher_mean_curvatures(np.array([1.0, 2.0, 3.0]), 3, "riemannian")
    np.testing.assert_allclose(H, [1.0, 2.0, 11.0 / 3.0, 6.0], rtol=1e-14)


def test_profile_invariants(rng):
    for sig in ("riemannian", "lorentzian"):
        kappa = rng.uniform(-2.0, 2.0, size=5)
        S = elementary_symmetric(kappa)
        H = higher_mean_curvatures(kappa, 5, sig)
        c = trace_coefficients(5)
        assert S[0] == 1.0
        assert H[0] == 1.0
        binom = np.array([math.comb(5, k) for k in range(6)])
        signs = np.array([(-1.0) ** k for k in range(6)]) if sig == "lorentzian" else np.ones(6)
        np.testing.assert_allclose(binom * H, signs * S, rtol=1e-12, atol=1e-12)
        # integer identity c_k = (n-k) binom(n,k) = (k+1) binom(n,k+1)
        for k in range(5):
            assert c[k] == (5 - k) * math.comb(5, k) == (k + 1) * math.comb(5, k + 1)


def last_axis_recurrence(kappa):
    """S_0..S_n built in place on the last axis, as before the recurrence moved S_k first."""
    n = kappa.shape[-1]
    s = np.zeros(kappa.shape[:-1] + (n + 1,))
    s[..., 0] = 1.0
    for i in range(n):
        s[..., 1:] = s[..., 1:] + kappa[..., i, None] * s[..., :-1]
    return s


def complement_loop(kappa, signature):
    """The per-complement recurrences that the gathered one replaced, kept as its reference."""
    n = kappa.shape[-1]
    vals = np.zeros(kappa.shape[:-1] + (n + 1, n))
    for i in range(n):
        vals[..., :n, i] = last_axis_recurrence(np.delete(kappa, i, axis=-1))
    if signature == "lorentzian":
        vals[..., 1::2, :] *= -1.0
    return vals


def mean_curvatures_reference(kappa, signature):
    n = kappa.shape[-1]
    signs = np.ones(n + 1)
    if signature == "lorentzian":
        signs[1::2] = -1.0
    binomials = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    return signs * last_axis_recurrence(kappa) / binomials


@given(
    n=st.integers(1, 6),
    lead=st.sampled_from([(), (5,), (2, 3)]),
    signature=st.sampled_from(["riemannian", "lorentzian"]),
    data=st.data(),
)
def test_one_recurrence_matches_complement_loop(n, lead, signature, data):
    # half the entries come from a small pool, so zero and repeated eigenvalues are common
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0]), st.floats(-1e3, 1e3))
    size = math.prod(lead) * n
    kappa = np.array(data.draw(st.lists(entry, min_size=size, max_size=size))).reshape(lead + (n,))
    vals, H = complement_loop(kappa, signature), mean_curvatures_reference(kappa, signature)
    H_one, vals_one = symmetric_values(kappa, signature)
    for got, want in ((vals_one, vals), (H_one, H),
                      (higher_mean_curvatures(kappa, n, signature), H),
                      (elementary_symmetric(kappa), last_axis_recurrence(kappa))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- Newton tensors -------------------------------------------------------------


def test_newton_recursion_diagonal_example():
    fam = newton_family(np.diag([1.0, 2.0, 3.0]), "riemannian")
    np.testing.assert_allclose(fam.P[1], np.diag([5.0, 4.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(fam.P[2], np.diag([6.0, 3.0, 2.0]), atol=1e-12)


def test_newton_zero_operator():
    fam = newton_family(np.zeros((4, 4)), "riemannian")
    np.testing.assert_allclose(fam.P[0], np.eye(4))
    for k in range(1, 5):
        np.testing.assert_allclose(fam.P[k], np.zeros((4, 4)), atol=1e-15)
    assert elementary_symmetric(np.zeros(4))[1:].max() == 0.0


def test_newton_lorentzian_hyperboloid_operator():
    r = 1.7
    fam = newton_family(-(1.0 / r) * np.eye(2), "lorentzian")
    np.testing.assert_allclose(fam.P[1], (1.0 / r) * np.eye(2), atol=1e-14)
    assert fam.definiteness[1] == "positive_definite"


def test_definiteness_floor_is_relative_round_off():
    # a negative eigenvalue of 1e-6 of the largest is real, one of 1e-13 is round-off
    assert classify_definiteness(np.array([1.0, -1e-6])) == "indefinite"
    assert classify_definiteness(np.array([1.0, -1e-13])) == "positive_semidefinite"
    assert classify_definiteness(np.array([1.0, 1e-13])) == "positive_semidefinite"
    assert classify_definiteness(np.array([1.0, 1e-6])) == "positive_definite"


@pytest.mark.parametrize("kappa", [[1.0, np.nan], [np.inf, 0.0], [[0.5, 0.5], [-np.inf, 1.0]]])
def test_elementary_symmetric_rejects_non_finite_curvatures(kappa):
    with pytest.raises(ValueError, match="must be finite"):
        elementary_symmetric(np.array(kappa))


def test_newton_asymmetric_rejected():
    with pytest.raises(ValueError):
        newton_family(np.array([[0.0, 1.0], [0.0, 0.0]]), "riemannian")


def test_newton_matrix_eigenvalues_match_complement_oracle(rng):
    for sig in ("riemannian", "lorentzian"):
        for _ in range(25):
            n = int(rng.integers(2, 6))
            kappa = rng.uniform(-3.0, 3.0, size=n)
            fam = newton_family(np.diag(kappa), sig)
            for k in range(n):
                matrix_eigs = np.sort(np.diag(fam.P[k]))
                oracle = []
                for i in range(n):
                    rest = np.delete(kappa, i)
                    val = brute_force_symmetric(rest, k)
                    oracle.append((-1.0) ** k * val if sig == "lorentzian" else val)
                np.testing.assert_allclose(matrix_eigs, np.sort(oracle), atol=1e-8)
                np.testing.assert_allclose(
                    np.sort(fam.eigenvalues[k]), np.sort(oracle), atol=1e-10
                )


def test_newton_commutes_with_shape_operator(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = rng.uniform(-2.0, 2.0, size=(n, n))
        A = 0.5 * (A + A.T)
        fam = newton_family(A, "riemannian")
        scale = max(1.0, np.abs(A).max() ** n)
        for P in fam.P:
            assert np.abs(A @ P - P @ A).max() < 1e-9 * scale


def test_riemannian_closure_is_cayley_hamilton(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = rng.uniform(-2.0, 2.0, size=(n, n))
        A = 0.5 * (A + A.T)
        fam = newton_family(A, "riemannian")
        _, vecs = np.linalg.eigh(A)
        scale = max(1.0, np.abs(A).max() ** n)
        assert np.abs(fam.P[n] @ vecs).max() < 1e-8 * scale


def test_positive_spectra_give_positive_definite_tensors(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        kappa = rng.uniform(0.05, 4.0, size=n)
        fam = newton_family(np.diag(kappa), "riemannian")
        assert all(flag == "positive_definite" for flag in fam.definiteness[:n])


# -- trace identities ------------------------------------------------------------


def test_trace_example_values():
    A = np.diag([1.0, 2.0, 3.0])
    fam = newton_family(A, "riemannian")
    assert np.trace(fam.P[1]) == pytest.approx(12.0)  # = c_1 H_1 = 6 * 2
    assert np.trace(A @ fam.P[1]) == pytest.approx(22.0)  # = 2 S_2
    assert np.trace(fam.P[2]) == pytest.approx(11.0)  # = (n-2) S_2
    assert np.trace(A @ fam.P[2]) == pytest.approx(18.0)  # = 3 S_3


def test_trace_of_identity_operator():
    for n in (2, 4, 5):
        fam = newton_family(np.eye(n), "riemannian")
        for k in range(n):
            assert np.trace(fam.P[k]) == pytest.approx((n - k) * math.comb(n, k))


def test_trace_identities_random_both_signatures(rng):
    for _ in range(200):
        n = int(rng.integers(2, 9))
        A = rng.uniform(-5.0, 5.0, size=(n, n))
        A = 0.5 * (A + A.T)
        kappa = np.linalg.eigvalsh(A)
        for sig in ("riemannian", "lorentzian"):
            H = higher_mean_curvatures(kappa, n, sig)
            c = trace_coefficients(n)
            for k, (r1, r2) in enumerate(trace_identity_residuals(A, sig)):
                scale = max(1.0, abs(c[k] * H[k]), abs(c[k] * H[k + 1]))
                assert r1 < 1e-10 * scale
                assert r2 < 1e-10 * scale


# -- Garding chain and ellipticity ------------------------------------------------


def test_garding_chain_umbilic():
    H = higher_mean_curvatures(np.ones(4), 4, "riemannian")
    holds, margins = garding_chain(H, 3)
    assert holds
    np.testing.assert_allclose(margins, 0.0, atol=1e-14)


def test_garding_chain_cubic_spectrum():
    H = higher_mean_curvatures(np.array([1.0, 2.0, 3.0]), 3, "riemannian")
    holds, margins = garding_chain(H, 2)
    assert holds
    assert H[1] == pytest.approx(2.0)
    assert math.sqrt(H[2]) == pytest.approx(math.sqrt(11.0 / 3.0))
    assert margins[0] == pytest.approx(2.0 - math.sqrt(11.0 / 3.0))
    assert margins[1] == pytest.approx(math.sqrt(11.0 / 3.0) - 6.0 ** (1.0 / 3.0))


def test_garding_chain_rejects_nonelliptic():
    H = higher_mean_curvatures(np.array([1.0, -1.0, 2.0]), 3, "riemannian")
    with pytest.raises(HypothesisViolationError):
        garding_chain(H, 2)


def test_garding_chain_random_positive_spectra(rng):
    for _ in range(300):
        n = int(rng.integers(2, 8))
        kappa = rng.uniform(1e-3, 10.0, size=n)
        H = higher_mean_curvatures(kappa, n, "riemannian")
        holds, _ = garding_chain(H, n - 1)
        assert holds


def test_p1_eigenvalues_positive_when_h2_and_h_positive(rng):
    # n^2 H^2 = sum kappa_j^2 + n(n-1) H_2 forces nH - kappa_j > 0.
    count = 0
    while count < 300:
        n = int(rng.integers(2, 7))
        kappa = rng.uniform(-3.0, 5.0, size=n)
        H = higher_mean_curvatures(kappa, n, "riemannian")
        if H[2] <= 0.0:
            continue
        if H[1] < 0.0:
            kappa = -kappa
            H = higher_mean_curvatures(kappa, n, "riemannian")
        if H[1] <= 0.0:
            continue
        count += 1
        mu = n * H[1] - kappa
        assert mu.min() > 0.0


# -- elliptic-point detection --------------------------------------------------------


def test_elliptic_point_scan_on_reference_surfaces():
    from curvbound.immersion import build_patch, sample_grid
    from curvbound.spaceform import AmbientModel
    from oracles import elliptic_point_scan

    E3 = AmbientModel.euclidean(3)
    sphere = sample_grid(
        build_patch(E3, "sphere", {"radius": 1.0}, center=np.zeros(3)), 8
    )
    assert len(elliptic_point_scan(sphere.points)) == len(sphere.points)
    cylinder = sample_grid(
        build_patch(E3, "cylinder", {"radius": 1.0}, center=np.zeros(3)), 8
    )
    assert elliptic_point_scan(cylinder.points) == []
    ellipsoid = sample_grid(
        build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, center=np.zeros(3)), 8
    )
    assert len(elliptic_point_scan(ellipsoid.points)) == len(ellipsoid.points)


# -- Gauss-equation byproducts -----------------------------------------------------


def test_gauss_identity_unit_sphere():
    proxy, sectional = gauss_identities(np.array([1.0, 1.0]), 0.0)
    assert proxy == pytest.approx(2.0)
    np.testing.assert_allclose(sectional, [1.0])


def test_gauss_identity_arithmetic():
    proxy, _ = gauss_identities(np.array([1.0, 2.0, 3.0]), 0.0)
    assert proxy == pytest.approx(36.0 - 14.0)  # (Tr A)^2 - Tr A^2 = 2 S_2


def test_gauss_round_sphere_scalar():
    r = 2.0
    n = 4
    proxy, sectional = gauss_identities(np.full(n, 1.0 / r), 0.0)
    # normalized scalar curvature s = b + H_2 = 1/r^2
    assert proxy / (n * (n - 1)) == pytest.approx(1.0 / r**2)
    np.testing.assert_allclose(sectional, 1.0 / r**2)
