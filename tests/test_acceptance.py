"""Acceptance suite: every shipped estimate at its contractual tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
inline) and enforces its runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from curvbound.comparison import (
    c_b,
    c_hat_b,
    lambda_sup,
    make_bound,
    phi_ode_residual,
    sturm_margin,
    sturm_profile,
)
from curvbound.curvature import trace_coefficients
from curvbound.harness import bundled_scenarios, load_scenario, run_scenario
from curvbound.immersion import build_patch, frame_at, sample_grid
from curvbound.operators import (
    DistanceField,
    LinearCoordinateField,
    intrinsic_hessian_fd,
    l_k_apply,
    omori_yau_search,
    operator_data,
    restrict_field,
)
from curvbound.spaceform import AmbientModel

from conftest import (
    all_models,
    equality_spheres,
    random_point_at,
    random_tangent,
    rho_range,
)
from oracles import (
    distance_hessian_quadform,
    fd_distance_hessian_quadform,
    garding_chain,
    hessian_comparison_residual,
    higher_mean_curvatures,
    trace_identity_residuals,
)


@contextmanager
def criterion(num, title, limit_s):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        status = "PASS" if (ok and dt < limit_s) else "FAIL"
        print(f"[{status}] criterion {num:2d}: {title} ({dt:.2f}s, limit {limit_s}s)")
    assert dt < limit_s, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_trace_identities():
    with criterion(1, "trace identities, 1000 random operators, both signatures", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            A = rng.uniform(-5.0, 5.0, size=(n, n))
            A = 0.5 * (A + A.T)
            kappa = np.linalg.eigvalsh(A)
            c = trace_coefficients(n)
            for sig in ("riemannian", "lorentzian"):
                H = higher_mean_curvatures(kappa, n, sig)
                for k, (r1, r2) in enumerate(trace_identity_residuals(A, sig)):
                    scale = max(1.0, abs(c[k] * H[k]), abs(c[k] * H[k + 1]))
                    assert r1 < 1e-10 * scale
                    assert r2 < 1e-10 * scale


def test_criterion_2_geodesic_sphere_equality():
    with criterion(2, "geodesic-sphere ratio equality across b, n, k, jets", 30.0):
        for b, r, n, jets, resolution, patch in equality_spheres():
            tol = {"analytic": 1e-6, "fd": 1e-3}[jets]
            cbr = c_b(b, r)
            grid = sample_grid(patch, resolution)
            assert not grid.skipped
            for _, frame in grid.points:
                data = operator_data(frame, "riemannian")
                for k in range(n):
                    ratio = data.H[k + 1] / data.H[k]
                    assert abs(ratio - cbr) < tol, (b, n, k, jets)


def test_criterion_3_ellipsoid_strict_margin():
    with criterion(3, "ellipsoid strict inequality, margin stable under refinement", 30.0):
        config = load_scenario(bundled_scenarios()["ellipsoid"])
        report1 = run_scenario(config)
        config.resolution *= 2
        report2 = run_scenario(config)

        def margin(report):
            return next(c.residual for c in report.checks if c.id == "ratio-lower-bound-k1")

        m1, m2 = margin(report1), margin(report2)
        assert m1 > 0.0
        assert m2 >= m1 - 1e-4


def test_criterion_4_sturm_comparison():
    with criterion(4, "Sturm margins for the growth-bound test set", 5.0):
        for spec in ("const(1)", "const(2)", "affine(1,1)", "sqrt_growth(1)"):
            assert sturm_margin(make_bound(spec), 5.0) >= -1e-6, spec
        _, _, _, _, margins = sturm_profile(make_bound("const(1)"), 1.0)
        assert margins[-1] == pytest.approx(0.268942, abs=1e-5)


def test_criterion_5_lambda_supremum():
    with criterion(5, "barrier supremum Lambda for a constant bound", 2.0):
        res = lambda_sup(make_bound("const(1)"))
        assert abs(res.value - math.e**2 / (math.e - 1.0)) < 1e-4
        assert abs(res.value - 4.300260) < 1e-4
        assert abs(res.argmax - 2.0) < 1e-3


def test_criterion_6_phi_ode_residuals():
    with criterion(6, "phi_b solves its defining equation across curvatures", 1.0):
        for b in (-2.0, -1.0, 0.0, 1.0, 2.0):
            hi = 0.98 * np.pi / (2.0 * np.sqrt(b)) if b > 0 else 3.0
            for t in np.linspace(hi / 100.0, hi, 100):
                assert abs(phi_ode_residual(b, float(t))) < 1e-10


def test_criterion_7_hessian_comparison():
    with criterion(7, "closed-form vs FD distance Hessian in every model", 10.0):
        rng = np.random.default_rng(707)
        for model in all_models():
            o = model.base_point()
            lo, hi = rho_range(model)
            for _ in range(100):
                x = random_point_at(model, o, lo + (hi - lo) * rng.random(), rng)
                X = random_tangent(model, x, rng, spacelike=True)
                closed = distance_hessian_quadform(model, o, x, X)
                fd = fd_distance_hessian_quadform(model, o, x, X)
                scale = max(1.0, abs(closed))
                assert abs(closed - fd) < 1e-6 * scale, model.model_kind
                assert abs(hessian_comparison_residual(model, o, x, X)) < 1e-6 * scale


def test_criterion_8_restriction_hessian_identity():
    with criterion(8, "restriction-Hessian identity vs FD; L_k u = 0 on level sets", 30.0):
        rng = np.random.default_rng(808)
        E3 = AmbientModel.euclidean(3)
        M3 = AmbientModel.minkowski(3)
        S3 = AmbientModel.sphere(1.0, 3)
        H3 = AmbientModel.hyperbolic(-1.0, 3)
        charts = [
            (build_patch(E3, "sphere", {"radius": 1.0}, center=np.zeros(3)), np.zeros(3)),
            (
                build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, center=np.zeros(3)),
                np.zeros(3),
            ),
            (build_patch(E3, "cylinder", {"radius": 1.0}, center=np.zeros(3)), np.zeros(3)),
            (
                build_patch(
                    E3,
                    "graph",
                    {
                        "terms": [[0.2, [2, 1]], [-0.1, [0, 3]], [1.0, [0, 0]]],
                        "box_lo": [-1, -1],
                        "box_hi": [1, 1],
                    },
                    center=np.zeros(3),
                ),
                np.zeros(3),
            ),
            (
                build_patch(E3, "geodesic_sphere", {"radius": 1.0}, center=np.zeros(3)),
                np.zeros(3),
            ),
            (
                build_patch(S3, "geodesic_sphere", {"radius": 0.7}, center=S3.base_point()),
                S3.base_point(),
            ),
            (
                build_patch(H3, "geodesic_sphere", {"radius": 1.1}, center=H3.base_point()),
                H3.base_point(),
            ),
            (build_patch(M3, "hyperboloid", {"radius": 2.0}), np.zeros(3)),
            (build_patch(M3, "perturbed_hyperboloid", {"radius": 2.0}), np.zeros(3)),
        ]
        for patch, o in charts:
            field = DistanceField(patch.ambient, o)
            for _ in range(3):
                p = patch.domain_lo + rng.uniform(0.2, 0.8, patch.n) * patch.domain_width
                sample = restrict_field(patch, field, frame_at(patch, p))
                fd = intrinsic_hessian_fd(patch, lambda x: field.jet(x)[0], p)
                scale = max(1.0, np.abs(sample.hess).max())
                assert np.abs(sample.hess - fd).max() < 1e-4 * scale
        level_sets = [
            (build_patch(E3, "geodesic_sphere", {"radius": 1.0}, center=np.zeros(3)), np.zeros(3)),
            (
                build_patch(S3, "geodesic_sphere", {"radius": 0.7}, center=S3.base_point()),
                S3.base_point(),
            ),
            (
                build_patch(H3, "geodesic_sphere", {"radius": 1.1}, center=H3.base_point()),
                H3.base_point(),
            ),
            (build_patch(M3, "hyperboloid", {"radius": 2.0}), np.zeros(3)),
        ]
        for patch, o in level_sets:
            field = DistanceField(patch.ambient, o)
            for _ in range(3):
                p = patch.domain_lo + rng.uniform(0.2, 0.8, patch.n) * patch.domain_width
                for k in (0, 1):
                    assert abs(l_k_apply(patch, p, k, field)) < 1e-6


def test_criterion_9_lorentzian_equality_and_sandwich():
    with criterion(9, "Lorentzian ratio equality, sandwich, and blow-up family", 30.0):
        M3 = AmbientModel.minkowski(3)
        # exact level set: ratio pinned at C_-b(2) = 0.5
        patch = build_patch(M3, "hyperboloid", {"radius": 2.0})
        grid = sample_grid(patch, 16)
        for _, frame in grid.points:
            data = operator_data(frame, "lorentzian")
            assert abs(data.H[1] / data.H[0] - 0.5) < 1e-6
            assert abs(data.H[1] / data.H[0] - c_hat_b(0.0, 2.0)) < 1e-6
        # perturbed level set: every sandwich gap survives
        report = run_scenario(load_scenario(bundled_scenarios()["perturbed-hyperboloid"]))
        gaps = [c for c in report.checks if c.id.startswith("sandwich-")]
        assert len(gaps) == 6  # three gaps for k = 0 and k = 1
        for c in gaps:
            assert c.residual >= -1e-6, c.id
            assert c.status == "pass"
        # blow-up family: sup ratio = 1/r as the level sets approach the vertex
        sups = []
        for r in (1.0, 0.1, 0.01):
            fam_patch = build_patch(M3, "hyperboloid", {"radius": r})
            fam_grid = sample_grid(fam_patch, 10)
            ratios = [
                operator_data(f, "lorentzian").H[1] / operator_data(f, "lorentzian").H[0]
                for _, f in fam_grid.points
            ]
            sup = max(ratios)
            assert abs(sup - 1.0 / r) < 1e-4, r
            sups.append(sup)
        assert sups[0] < sups[1] < sups[2]


def test_criterion_10_extremum_sequence_search():
    with criterion(10, "extremum sequences for the height function on the sphere", 10.0):
        patch = build_patch(AmbientModel.euclidean(3), "sphere", {"radius": 1.0},
                            center=np.zeros(3))
        height = LinearCoordinateField(AmbientModel.euclidean(3), np.array([0.0, 0.0, 1.0]))
        report = omori_yau_search(patch, height, 0, resolution=24, j_max=6, rounds=20)
        assert report.all_found
        assert report.refined_max.grad_norm < 1e-6
        assert report.refined_max.q_lu <= 1e-6


def test_criterion_11_garding_chain_and_ellipticity():
    with criterion(11, "Maclaurin chain and first-Newton-tensor ellipticity", 5.0):
        rng = np.random.default_rng(1111)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            kappa = rng.uniform(1e-3, 10.0, size=n)
            H = higher_mean_curvatures(kappa, n, "riemannian")
            holds, _ = garding_chain(H, n - 1)
            assert holds
        count = 0
        while count < 1000:
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
            assert (n * H[1] - kappa).min() > 0.0
