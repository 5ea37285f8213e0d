"""Frames, principal curvatures and grids of the bundled charts."""

import numpy as np
import pytest

from curvbound.charts import (
    Chart,
    GeodesicSphereChart,
    TabulatedChart,
    build_chart,
    hypersphere_direction_jet,
    write_chart_csv,
)
from curvbound.comparison import c_b, c_hat_b
from curvbound.errors import ConfigError, DomainError, GeometryError, SignatureError
from curvbound.harness import bundled_scenarios, load_scenario, scenario_patch
from curvbound.immersion import (
    HypersurfacePatch,
    PointFrame,
    build_patch,
    frame_at,
    principal_curvatures,
    sample_grid,
)
from curvbound.operators import operator_data
from curvbound.spaceform import AmbientModel

E3 = AmbientModel.euclidean(3)
M3 = AmbientModel.minkowski(3)


def sphere_patch(radius=1.0, jets="auto"):
    return build_patch(E3, "sphere", {"radius": radius}, center=np.zeros(3), jets=jets)


# -- direction jets ------------------------------------------------------------


def test_hypersphere_jet_is_unit_and_consistent(rng):
    for n in (1, 2, 3, 4):
        p = rng.uniform(0.3, 2.6, size=n)
        omega, d1, d2 = hypersphere_direction_jet(p)
        assert np.linalg.norm(omega) == pytest.approx(1.0, abs=1e-14)
        h = 1e-6
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            fd = (hypersphere_direction_jet(p + ei)[0] - hypersphere_direction_jet(p - ei)[0]) / (
                2 * h
            )
            np.testing.assert_allclose(d1[:, i], fd, atol=1e-9)
            fd1p = hypersphere_direction_jet(p + ei)[1]
            fd1m = hypersphere_direction_jet(p - ei)[1]
            np.testing.assert_allclose(d2[:, :, i], (fd1p - fd1m) / (2 * h), atol=1e-9)


# -- shape operators of reference surfaces ---------------------------------------


def test_unit_sphere_inner_shape_operator_is_identity(rng):
    patch = sphere_patch()
    for _ in range(10):
        p = np.array([rng.uniform(0.2, np.pi - 0.2), rng.uniform(0.0, 2 * np.pi)])
        frame = frame_at(patch, p)
        np.testing.assert_allclose(frame.shape_operator, np.eye(2), atol=1e-10)
        assert E3.flat_inner(frame.normal, frame.normal) == pytest.approx(1.0, abs=1e-12)


def test_cylinder_curvatures(rng):
    patch = build_patch(E3, "cylinder", {"radius": 1.0}, center=np.zeros(3))
    p = np.array([rng.uniform(0, 2 * np.pi), rng.uniform(-0.9, 0.9)])
    kappa = principal_curvatures(frame_at(patch, p))
    np.testing.assert_allclose(kappa, [0.0, 1.0], atol=1e-10)


def test_minkowski_hyperboloid_shape_operator(rng):
    r = 2.0
    patch = build_patch(M3, "hyperboloid", {"radius": r})
    for _ in range(10):
        p = rng.uniform(-1.5, 1.5, size=2)
        frame = frame_at(patch, p)
        np.testing.assert_allclose(frame.shape_operator, -np.eye(2) / r, atol=1e-10)
        assert M3.flat_inner(frame.normal, frame.normal) == pytest.approx(-1.0, abs=1e-12)
        assert frame.normal[0] > 0.0  # future-directed


def test_ellipsoid_pole_curvatures_via_graph_chart():
    a, c = 1.0, 0.6
    patch = build_patch(
        E3,
        "graph",
        {
            "terms": [[c, [0, 0]], [-c / (2 * a**2), [2, 0]], [-c / (2 * a**2), [0, 2]]],
            "box_lo": [-0.5, -0.5],
            "box_hi": [0.5, 0.5],
        },
        center=np.zeros(3),
    )
    kappa = principal_curvatures(frame_at(patch, np.zeros(2)))
    np.testing.assert_allclose(kappa, [c / a**2, c / a**2], atol=1e-12)


def test_ellipsoid_matches_revolution_closed_form(rng):
    # semi-axes (c, a, a) with the symmetry axis on the chart poles
    a, c = 1.0, 0.6
    patch = build_patch(
        E3, "ellipsoid", {"semi_axes": [c, a, a]}, center=np.zeros(3)
    )
    for theta in (0.4, np.pi / 3, 1.8, 2.6):
        frame = frame_at(patch, np.array([theta, rng.uniform(0, 2 * np.pi)]))
        W = a**2 * np.cos(theta) ** 2 + c**2 * np.sin(theta) ** 2
        expected = np.sort([a * c / W**1.5, c / (a * np.sqrt(W))])
        np.testing.assert_allclose(principal_curvatures(frame), expected, rtol=1e-10)


def test_geodesic_spheres_are_umbilic_in_every_model(rng):
    for model, r in [
        (AmbientModel.euclidean(3), 1.0),
        (AmbientModel.sphere(1.0, 3), 0.7),
        (AmbientModel.hyperbolic(-1.0, 3), 1.2),
        (AmbientModel.euclidean(4), 0.8),
    ]:
        patch = build_patch(
            model, "geodesic_sphere", {"radius": r}, center=model.base_point()
        )
        expected = c_b(model.curvature, r)
        p = patch.domain_lo + rng.uniform(0.2, 0.8, patch.n) * patch.domain_width
        kappa = principal_curvatures(frame_at(patch, p))
        np.testing.assert_allclose(kappa, expected, rtol=1e-9)


def test_lorentzian_geodesic_spheres_are_umbilic(rng):
    for model, r in [
        (AmbientModel.minkowski(3), 1.5),
        (AmbientModel.lorentz_space_form(0.7, 3), 1.1),
        (AmbientModel.lorentz_space_form(-0.8, 3), 0.9),
    ]:
        patch = build_patch(
            model, "geodesic_sphere", {"radius": r}, center=model.base_point()
        )
        p = rng.uniform(-1.0, 1.0, size=patch.n)
        kappa = principal_curvatures(frame_at(patch, p))
        np.testing.assert_allclose(kappa, -c_hat_b(model.curvature, r), rtol=1e-9)


# -- orientation ---------------------------------------------------------------


def test_orientation_flip_negates_shape_operator(rng):
    for kind, params in [
        ("sphere", {"radius": 1.0}),
        ("ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}),
        ("cylinder", {"radius": 1.0}),
    ]:
        inner = build_patch(E3, kind, dict(params), orientation="inner", center=np.zeros(3))
        outer = build_patch(E3, kind, dict(params), orientation="outer", center=np.zeros(3))
        p = inner.domain_lo + rng.uniform(0.1, 0.9, 2) * inner.domain_width
        A_in = frame_at(inner, p).shape_operator
        A_out = frame_at(outer, p).shape_operator
        np.testing.assert_array_equal(A_out, -A_in)


def test_metric_self_adjointness(rng):
    patch = build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, center=np.zeros(3))
    for _ in range(10):
        p = patch.domain_lo + rng.uniform(0, 1, 2) * patch.domain_width
        f = frame_at(patch, p)
        gA = f.metric @ f.shape_operator
        assert np.abs(gA - gA.T).max() < 1e-10


# -- analytic vs finite-difference jets ------------------------------------------


def test_fd_jets_agree_with_analytic_on_all_bundled_charts(rng):
    cases = [
        (E3, "sphere", {"radius": 1.0}, np.zeros(3)),
        (E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, np.zeros(3)),
        (E3, "cylinder", {"radius": 1.0}, np.zeros(3)),
        (
            E3,
            "graph",
            {"terms": [[0.2, [2, 1]], [-0.1, [0, 3]]], "box_lo": [-1, -1], "box_hi": [1, 1]},
            np.zeros(3),
        ),
        (AmbientModel.sphere(1.0, 3), "geodesic_sphere", {"radius": 0.7}, None),
        (AmbientModel.hyperbolic(-1.0, 3), "geodesic_sphere", {"radius": 1.2}, None),
        (M3, "hyperboloid", {"radius": 2.0}, None),
        (M3, "perturbed_hyperboloid", {"radius": 2.0, "epsilon": 0.01}, None),
    ]
    for model, kind, params, center in cases:
        if center is None and kind == "geodesic_sphere":
            center = model.base_point()
        exact = build_patch(model, kind, dict(params), center=center, jets="analytic")
        fd = build_patch(model, kind, dict(params), center=center, jets="fd")
        for _ in range(5):
            p = exact.domain_lo + rng.uniform(0.15, 0.85, exact.n) * exact.domain_width
            k1 = principal_curvatures(frame_at(exact, p))
            k2 = principal_curvatures(frame_at(fd, p))
            np.testing.assert_allclose(k1, k2, atol=1e-4), kind


# -- grids -----------------------------------------------------------------------


def test_sample_grid_full_sphere_counts():
    grid = sample_grid(sphere_patch(), 10)
    assert len(grid.points) == 100
    assert len(grid.skipped) == 0


def test_polar_cap_skips_exactly_on_singular_axis():
    chart_patch = build_patch(
        E3,
        "sphere",
        {"radius": 1.0},
        center=np.zeros(3),
        domain=([0.0, 0.0], [0.5, 2 * np.pi]),
    )
    grid = sample_grid(chart_patch, 8)
    assert len(grid.skipped) == 8
    assert all(p[0] == 0.0 for p, _ in grid.skipped)
    assert all(p[0] > 0.0 for p, _ in grid.points)


@pytest.mark.parametrize("kind, params, resolution", [
    ("sphere", {"radius": 1e-3}, 8),
    ("ellipsoid", {"semi_axes": [2.2e-3 * 0.6, 2.2e-3, 2.2e-3]}, 16),
])
def test_immersion_test_is_scale_free(kind, params, resolution):
    # det g scales with the fourth power of the size: an absolute floor on it
    # rejected every point of the small sphere and the ellipsoid's polar rows
    grid = sample_grid(build_patch(E3, kind, params, center=np.zeros(3)), resolution)
    assert not grid.skipped
    assert len(grid.points) == resolution**2


def one_implementation_cases():
    for name, path in bundled_scenarios().items():
        yield pytest.param(name, scenario_patch(load_scenario(path)), 8, id=name)
    S4 = AmbientModel.sphere(1.0, 4)
    fd_sphere = build_patch(
        S4, "geodesic_sphere", {"radius": 0.7}, center=S4.base_point(), jets="fd")
    yield pytest.param("fd geodesic sphere", fd_sphere, 6, id="fd-geodesic-sphere-n3")
    polar_cap = build_patch(
        E3, "sphere", {"radius": 1.0}, center=np.zeros(3), domain=([0.0, 0.0], [0.5, 2 * np.pi]))
    yield pytest.param("polar cap", polar_cap, 8, id="polar-cap")


@pytest.mark.parametrize("name, patch, resolution", one_implementation_cases())
def test_grid_and_single_point_paths_agree(name, patch, resolution):
    # sample_grid, frame_at and operator_data run one implementation: a grid
    # row and the single-point call at its parameter agree bit for bit
    grid = sample_grid(patch, resolution)
    signature = patch.ambient.signature
    batch = operator_data(grid.frames, signature)
    for i, (p, frame) in enumerate(grid.points):
        single = frame_at(patch, p)
        for field in PointFrame.__dataclass_fields__:
            assert np.array_equal(getattr(frame, field), getattr(single, field)), (name, field)
        data = operator_data(single, signature)
        for field in ("chol", "shape_sym", "kappa", "newton_eigenvalues", "H"):
            assert np.array_equal(getattr(batch, field)[i], getattr(data, field)), (name, field)
    for p, reason in grid.skipped:
        with pytest.raises(GeometryError) as exc:
            frame_at(patch, p)
        assert reason == f"{type(exc.value).__name__}: {exc.value}"
    assert len(grid.skipped) == (8 if name == "polar cap" else 0)


def test_resolution_one_rejected():
    with pytest.raises(DomainError):
        sample_grid(sphere_patch(), 1)


def test_spacelike_violation_detected():
    class SteepGraph(Chart):
        nparams = 2

        def value(self, p):
            return np.stack([1.5 * p[..., 0], p[..., 0], p[..., 1]], axis=-1)

        def default_domain(self):
            return np.array([-1.0, -1.0]), np.array([1.0, 1.0])

    patch = HypersurfacePatch(
        chart=SteepGraph(),
        ambient=M3,
        orientation="future",
        domain_lo=[-1, -1],
        domain_hi=[1, 1],
    )
    with pytest.raises(SignatureError):
        frame_at(patch, np.array([0.0, 0.0]))


def test_future_orientation_requires_lorentzian():
    with pytest.raises(ConfigError):
        build_patch(E3, "sphere", {"radius": 1.0}, orientation="future")
    with pytest.raises(ConfigError):
        build_patch(M3, "hyperboloid", {"radius": 1.0}, orientation="inner")


# -- tabulated charts --------------------------------------------------------------


def test_tabulated_round_trip_with_jets(tmp_path):
    src = build_chart(E3, "sphere", {"radius": 1.0, "center": [0.0, 0.0, 0.0]})
    lo, hi = src.default_domain()
    path = tmp_path / "sphere.csv"
    write_chart_csv(src, lo, hi, 7, path, include_jets=True)
    tab = TabulatedChart.from_csv(path)
    patch = HypersurfacePatch(
        chart=tab,
        ambient=E3,
        orientation="inner",
        domain_lo=lo,
        domain_hi=hi,
        center=np.zeros(3),
    )
    grid = sample_grid(patch, 7)
    assert len(grid.points) == 49
    for _, frame in grid.points:
        np.testing.assert_allclose(frame.shape_operator, np.eye(2), atol=1e-10)


def test_tabulated_without_jets_uses_grid_differences(tmp_path):
    src = build_chart(E3, "sphere", {"radius": 1.0, "center": [0.0, 0.0, 0.0]})
    lo, hi = src.default_domain()
    path = tmp_path / "sphere_nojets.csv"
    write_chart_csv(src, lo, hi, 41, path, include_jets=False)
    tab = TabulatedChart.from_csv(path)
    patch = HypersurfacePatch(
        chart=tab,
        ambient=E3,
        orientation="inner",
        domain_lo=lo,
        domain_hi=hi,
        center=np.zeros(3),
    )
    grid = sample_grid(patch, 41)
    interior = [f for _, f in grid.points]
    assert len(interior) > 0
    for frame in interior:
        kappa = principal_curvatures(frame)
        np.testing.assert_allclose(kappa, [1.0, 1.0], atol=2e-2)  # grid-step differences
    # boundary rows lack neighbors and are skipped, interior is dense
    assert len(grid.skipped) == 41 * 41 - len(interior)
