"""Frames, principal curvatures and grids of the bundled charts."""

import dataclasses
import re
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvbound import immersion
from curvbound.charts import (
    _KINDS,
    _unit_stencil,
    Chart,
    EllipsoidChart,
    GeodesicSphereChart,
    TabulatedChart,
    build_chart,
    fd_jet,
    grid_axes,
    hypersphere_direction,
    hypersphere_direction_jet,
    write_chart_csv,
)
from curvbound.comparison import c_b, c_hat_b
from curvbound.errors import (
    ConfigError,
    DomainError,
    EmptySampleError,
    GeometryError,
    ImmersionDegeneracyError,
    NumericalError,
    SignatureError,
    no_errors,
    read_only_copy,
)
from curvbound.harness import bundled_scenarios, load_scenario, scenario_patch
from curvbound.immersion import (
    FD_JET_TOL,
    ROW_FIELDS,
    HypersurfacePatch,
    _samples_last,
    build_patch,
    cofactor_vector,
    congruence,
    frame_at,
    frames_at,
    grid_points,
    immersive,
    induced_metric,
    ldl,
    refine_extremum,
    sample_grid,
)
from curvbound.operators import (
    DistanceField,
    LinearCoordinateField,
    key_inequality_rhs,
    l_k_apply,
    omori_yau_search,
    operator_data,
    restrict_field,
    restriction_at,
    restriction_hessian,
    trace_operator,
)
from curvbound.spaceform import AmbientModel

from conftest import (
    assert_u_is_the_distance_of_the_kept_rows,
    congruent,
    counted,
    entry_bits,
    riemannian_space_form,
)
from oracles import (
    direction_jet_reference,
    direction_reference,
    halving_reference,
    orthonormal_shape,
    sequential_refine,
    substitution_shape,
)

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


@given(
    n=st.integers(1, 5),
    size=st.sampled_from([1, 25, 2304]),
    angles=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
)
@example(n=5, size=25, angles=[0.0, -0.0, np.pi, -np.pi / 2])
@example(n=4, size=2304, angles=[1e300, -1e300, 2.0**53, -0.0, 1e-310])
@settings(max_examples=20)  # a 2304-row jet at n = 5 takes about 10 ms
def test_direction_jets_are_the_cumprod_references_bit_for_bit(n, size, angles):
    # the elementwise prefix fold multiplies the sines in cumprod's order, and
    # the jet builds its value from its own sines and cosines: the same ufuncs
    # on the same inputs, so the same bits, signed zeros and large angles included
    angles = np.resize(np.array(angles), (size, n))
    got, want = (hypersphere_direction_jet(angles), hypersphere_direction(angles)), (
        direction_jet_reference(angles), direction_reference(angles))
    for a, b in zip((*got[0], got[1]), (*want[0], want[1])):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# -- shape operators of reference surfaces ---------------------------------------


def shape_operator(frame):
    """g^-1 h, the chart-basis shape operator of a frame."""
    return np.linalg.solve(frame.metric, frame.second_form)


def test_unit_sphere_inner_shape_operator_is_identity(rng):
    patch = sphere_patch()
    for _ in range(10):
        p = np.array([rng.uniform(0.2, np.pi - 0.2), rng.uniform(0.0, 2 * np.pi)])
        frame = frame_at(patch, p)
        np.testing.assert_allclose(shape_operator(frame), np.eye(2), atol=1e-10)
        assert E3.flat_inner(frame.normal, frame.normal) == pytest.approx(1.0, abs=1e-12)


def test_cylinder_curvatures(rng):
    patch = build_patch(E3, "cylinder", {"radius": 1.0}, center=np.zeros(3))
    p = np.array([rng.uniform(0, 2 * np.pi), rng.uniform(-0.9, 0.9)])
    kappa = frame_at(patch, p).kappa
    np.testing.assert_allclose(kappa, [0.0, 1.0], atol=1e-10)


def test_minkowski_hyperboloid_shape_operator(rng):
    r = 2.0
    patch = build_patch(M3, "hyperboloid", {"radius": r})
    for _ in range(10):
        p = rng.uniform(-1.5, 1.5, size=2)
        frame = frame_at(patch, p)
        np.testing.assert_allclose(shape_operator(frame), -np.eye(2) / r, atol=1e-10)
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
    kappa = frame_at(patch, np.zeros(2)).kappa
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
        np.testing.assert_allclose(frame.kappa, expected, rtol=1e-10)


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
        kappa = frame_at(patch, p).kappa
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
        kappa = frame_at(patch, p).kappa
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
        A_in = shape_operator(frame_at(inner, p))
        A_out = shape_operator(frame_at(outer, p))
        np.testing.assert_array_equal(A_out, -A_in)


def test_metric_self_adjointness(rng):
    patch = build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, center=np.zeros(3))
    for _ in range(10):
        p = patch.domain_lo + rng.uniform(0, 1, 2) * patch.domain_width
        f = frame_at(patch, p)
        gA = f.metric @ shape_operator(f)
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
            k1 = frame_at(exact, p).kappa
            k2 = frame_at(fd, p).kappa
            np.testing.assert_allclose(k1, k2, atol=1e-4), kind


@given(
    b=st.sampled_from([-1.0, 0.0, 1.0]),
    n=st.integers(2, 4),
    fraction=st.floats(0.05, 0.95),
    point=st.lists(st.floats(0.1, 0.9), min_size=4, max_size=4),
)
def test_fd_jets_match_analytic_jets(b, n, fraction, point):
    # a geodesic sphere below the comparison radius pi / (2 sqrt(b)) of a
    # sphere model, at an interior parameter point: kappa and H_k from FD
    # jets agree with the analytic ones within the documented FD tolerance
    model = riemannian_space_form(b, n + 1)
    radius = fraction * (np.pi / 2.0 if b > 0 else 3.0)
    frames = []
    for jets in ("analytic", "fd"):
        patch = build_patch(model, "geodesic_sphere", {"radius": radius},
                            center=model.base_point(), jets=jets)
        frames.append(frame_at(patch, patch.domain_lo + np.array(point[:n]) * patch.domain_width))
    exact, fd = frames
    scale = np.maximum(1.0, np.abs(exact.kappa).max() ** np.arange(n + 1))
    assert np.abs(fd.kappa - exact.kappa).max() <= FD_JET_TOL * scale[1]
    H_exact, H_fd = (operator_data(frame, "riemannian").H for frame in frames)
    assert np.all(np.abs(H_fd - H_exact) <= FD_JET_TOL * scale)


# -- finite-difference stencil ----------------------------------------------------


def fd_jet_per_offset(value, p, h):
    """Oracle for ``fd_jet``: one ``value`` call per stencil offset, in stencil order."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    h = np.broadcast_to(np.asarray(h, dtype=float), p.shape)
    x = np.asarray(value(p), dtype=float)
    d1 = np.empty(x.shape + (n,))
    d2 = np.empty(x.shape + (n, n))

    def at(dp):
        return np.asarray(value(p + dp), dtype=float)

    def step(i):
        e = np.zeros(p.shape)
        e[..., i] = h[..., i]
        return e, h[..., i, None]

    for i in range(n):
        ei, hi = step(i)
        fp, fm = at(ei), at(-ei)
        d1[..., i] = (fp - fm) / (2.0 * hi)
        d2[..., i, i] = (fp - 2.0 * x + fm) / hi**2
        for j in range(i):
            ej, hj = step(j)
            mixed = (at(ei + ej) - at(ei - ej) - at(-ei + ej) + at(-ei - ej)) / (
                4.0 * hi * hj
            )
            d2[..., i, j] = mixed
            d2[..., j, i] = mixed
    return x, d1, d2


def failing_rows(value):
    """``value`` that raises at the first row, in C order, whose bytes hash to 0 mod 23."""

    def wrapped(q):
        for row in np.reshape(q, (-1, np.shape(q)[-1])):
            if zlib.crc32(row.tobytes()) % 23 == 0:
                raise DomainError(f"no value at {row.tolist()}")
        return value(q)

    return wrapped


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return str(exc)


@given(
    n=st.integers(1, 4),
    batch=st.sampled_from([(), (5,), (2, 3)]),
    per_point=st.booleans(),
    kind=st.sampled_from(["ellipsoid", "geodesic_sphere"]),
    fails=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_stacked_stencil_matches_per_offset_loop(n, batch, per_point, kind, fails, seed):
    rng = np.random.default_rng(seed)
    if kind == "ellipsoid":
        chart = EllipsoidChart(rng.normal(size=n + 1), rng.uniform(0.5, 2.0, n + 1))
    else:
        model = AmbientModel.hyperbolic(-1.0, n + 1)
        chart = build_chart(model, "geodesic_sphere", {"radius": 0.9, "center": model.base_point()})
    value = failing_rows(chart.value) if fails else chart.value
    p = rng.uniform(0.3, 2.8, batch + (n,))
    h = rng.uniform(1e-5, 1e-2, batch + (n,) if per_point else ())
    stacked, looped = outcome(fd_jet, value, p, h), outcome(fd_jet_per_offset, value, p, h)
    if isinstance(looped, str):
        assert stacked == looped
        return
    for a, b in zip(stacked, looped):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@given(n=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_the_cached_stencil_is_exact_on_quadratics_and_row_by_row(n, seed):
    rng = np.random.default_rng(seed)
    c, B = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, (2, n))
    A = rng.uniform(-1.0, 1.0, (2, n, n))

    def quadratic(q):
        # term by term over the coordinates, so a row's bits do not depend on its batch
        out = np.broadcast_to(c, q.shape[:-1] + (2,))
        for i in range(n):
            out = out + B[:, i] * q[..., i, None]
            for j in range(n):
                out = out + A[:, i, j] * (q[..., i, None] * q[..., j, None])
        return out

    p, h = rng.uniform(-2.0, 2.0, (5, n)), rng.uniform(1e-3, 1e-1, (5, n))
    x, d1, d2 = fd_jet(quadratic, p, h)
    # central differences of a quadratic are exact: what is left is the round-off
    # of values of size at most F (|q| <= 2.1 per axis), divided by the steps
    F = (1.0 + 2.1 * n) ** 2
    tol = 16 * np.finfo(float).eps * F
    grad = B + np.einsum("mij,pj->pmi", A + np.swapaxes(A, -1, -2), p)
    assert np.array_equal(x, quadratic(p))
    assert np.all(np.abs(d1 - grad) <= tol / h[:, None, :])
    hess = np.broadcast_to(A + np.swapaxes(A, -1, -2), d2.shape)
    assert np.all(np.abs(d2 - hess) <= tol / (h[:, None, :, None] * h[:, None, None, :]))
    for i in range(len(p)):  # a batch's rows are the single-row calls, bit for bit
        for batch, row in zip((x, d1, d2), fd_jet(quadratic, p[i], h[i])):
            assert batch[i].tobytes() == row.tobytes()
    stencil = _unit_stencil(n)
    assert stencil.shape == (1 + 2 * n * n, n) and not stencil.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stencil[0, 0] = 1.0


def test_chart_value_is_the_jet_position(tmp_path, rng):
    S3, H3 = AmbientModel.sphere(1.0, 3), AmbientModel.hyperbolic(-1.0, 3)
    L3 = AmbientModel.lorentz_space_form(-0.8, 3)
    patches = [
        sphere_patch(),
        build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.3]}, center=np.ones(3)),
        build_patch(AmbientModel.euclidean(5), "ellipsoid",
                    {"semi_axes": [0.6, 1.0, 1.3, 0.8, 1.1]}, center=np.zeros(5)),
        build_patch(E3, "cylinder", {"radius": 1.0}, center=np.zeros(3)),
        build_patch(E3, "graph", {"terms": [[0.2, [2, 1]], [-0.1, [0, 3]]],
                                  "box_lo": [-1, -1], "box_hi": [1, 1]}),
        build_patch(E3, "geodesic_sphere", {"radius": 0.8}, center=np.zeros(3)),
        build_patch(S3, "geodesic_sphere", {"radius": 0.7}, center=S3.base_point()),
        build_patch(H3, "geodesic_sphere", {"radius": 1.1}, center=H3.base_point()),
        build_patch(M3, "geodesic_sphere", {"radius": 1.5}, center=np.zeros(3)),
        build_patch(L3, "geodesic_sphere", {"radius": 0.5}, center=L3.base_point()),
        build_patch(M3, "hyperboloid", {"radius": 2.0}),
        build_patch(M3, "perturbed_hyperboloid", {"radius": 2.0}),
    ]
    for patch in patches:
        for shape in ((), (7,), (3, 4)):
            p = patch.domain_lo + rng.uniform(0.1, 0.9, shape + (patch.n,)) * patch.domain_width
            assert patch.chart.value(p).tobytes() == patch.chart.jet(p)[0].tobytes()
    lo, hi = sphere_patch().domain_lo, sphere_patch().domain_hi
    for jets in (True, False):
        path = tmp_path / f"table-{jets}.csv"
        write_chart_csv(sphere_patch().chart, lo, hi, 6, path, include_jets=jets)
        table = TabulatedChart.from_csv(path)
        inner = np.stack(np.meshgrid(*[a[1:-1] for a in table.axes], indexing="ij"), axis=-1)
        assert table.value(inner).tobytes() == table.jet(inner)[0].tobytes()


@pytest.mark.parametrize("resolution", [[6], [6, 6, 6], 1, [6, 1]])
def test_every_grid_takes_one_count_of_at_least_two_per_axis(tmp_path, resolution):
    # a table, a sample grid and a search grid share one axis builder
    patch = sphere_patch()
    path = tmp_path / "table.csv"
    with pytest.raises(DomainError, match="resolution"):
        write_chart_csv(patch.chart, patch.domain_lo, patch.domain_hi, resolution, path)
    assert not path.exists()
    with pytest.raises(DomainError, match="resolution"):
        sample_grid(patch, resolution)
    with pytest.raises(DomainError, match="resolution"):
        omori_yau_search(patch, DistanceField(E3, np.zeros(3)), 1, resolution=resolution)


def _sphere_table(tmp_path, resolution=9):
    sphere = build_chart(E3, "sphere", {"radius": 1.0})
    path = tmp_path / "sphere.csv"
    write_chart_csv(sphere, *sphere.default_domain(), resolution, path, include_jets=True)
    return build_chart(E3, "tabulated", {"path": str(path)})


def test_a_tabulated_point_a_millionth_off_its_grid_is_rejected(tmp_path):
    table = _sphere_table(tmp_path)
    on = np.array([axis[3] for axis in table.axes])
    assert np.array_equal(table.value(on + 1e-12), table.value(on))
    for i in range(len(on)):
        for shift in (1e-6, np.nan, np.inf, -np.inf):
            off = on.copy()
            off[i] += shift
            with pytest.raises(DomainError, match="not tabulated"):
                table.value(off)


def test_tabulated_lookup_takes_the_dense_argmin_index():
    # the first nearest node, as np.abs(axis - v).argmin() picks it: dyadic axes
    # make each midpoint an exact tie, and at |v| ~ 1e17 rounding flattens
    # |axis - v| over several nodes
    axes = (np.array([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]), np.array([0.0, 0.125, 0.25, 2.0]))
    params = grid_points(axes)
    table = TabulatedChart(params, np.zeros((len(params), 3)))
    rng = np.random.default_rng(3)
    points = np.concatenate([
        params,
        grid_points([0.5 * (a[1:] + a[:-1]) for a in axes]),
        rng.uniform(-3.0, 3.0, (400, 2)),
        params + rng.uniform(-1e-9, 1e-9, params.shape),
        [[1e17, -1e17], [-3e300, 3e300], [5e-324, -5e-324]],
    ])
    index, _ = table._lookup(points)
    dense = np.stack([np.abs(a - points[:, i, None]).argmin(axis=-1)
                      for i, a in enumerate(axes)], axis=-1)
    assert np.array_equal(index, dense)


# the charts that define both value and jet, one case per model or parameter regime
VALUE_CHARTS = {
    "ellipsoid": lambda tmp: build_chart(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.3]}),
    "geodesic-sphere-S3": lambda tmp: build_chart(
        AmbientModel.sphere(1.0, 3), "geodesic_sphere", {"radius": 0.7}),
    "geodesic-sphere-H3": lambda tmp: build_chart(
        AmbientModel.hyperbolic(-1.0, 3), "geodesic_sphere", {"radius": 1.1}),
    "geodesic-sphere-L3": lambda tmp: build_chart(
        AmbientModel.lorentz_space_form(-0.8, 3), "geodesic_sphere", {"radius": 0.5}),
    "perturbed-hyperboloid-eps0": lambda tmp: build_chart(
        M3, "perturbed_hyperboloid", {"radius": 2.0, "epsilon": 0.0}),
    "perturbed-hyperboloid-eps0.05": lambda tmp: build_chart(
        M3, "perturbed_hyperboloid", {"radius": 2.0, "epsilon": 0.05}),
    "tabulated": _sphere_table,
}


@pytest.mark.parametrize("name", VALUE_CHARTS)
def test_value_is_the_jet_position_on_a_grid_and_at_a_point(name, tmp_path):
    # FD jets read value, so a chart's FD outputs cannot move while this holds
    chart = VALUE_CHARTS[name](tmp_path)
    lo, hi = chart.default_domain()
    P = grid_points([np.linspace(lo[i], hi[i], 9) for i in range(chart.nparams)])
    for p in (P, P[len(P) // 2 + 3]):
        assert chart.value(p).tobytes() == chart.jet(p)[0].tobytes()


def test_every_chart_with_its_own_value_has_a_value_case(tmp_path):
    both = {cls for cls in Chart.__subclasses__()
            if cls.__module__ == "curvbound.charts" and {"value", "jet"} <= vars(cls).keys()}
    assert both == {type(make(tmp_path)) for make in VALUE_CHARTS.values()}


def test_one_value_call_per_stencil(monkeypatch):
    # one fd_jet evaluates its 1 + 2n + 2n(n-1) points in one call, and
    # restriction_hessian reads the patch jets in one call: the oracle's
    # stencil, whose row 0 gives the point's frame its row
    calls, jets = [], []
    chart = EllipsoidChart(np.zeros(3), np.array([0.6, 1.0, 1.0]))

    def value(q):
        calls.append(np.shape(q))
        return chart.value(q)

    fd_jet(value, np.array([1.0, 2.0]), 1e-4)
    assert calls == [(9, 2)]
    jet_at = HypersurfacePatch.jet_at

    def counted(patch, p):
        jets.append(np.shape(p))
        return jet_at(patch, p)

    monkeypatch.setattr(HypersurfacePatch, "jet_at", counted)
    patch = build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, center=np.zeros(3))
    restriction_hessian(patch, np.zeros(3), np.array([1.0, 2.0]))
    assert jets == [(9, 2)]


# -- grids -----------------------------------------------------------------------


def test_sample_grid_full_sphere_counts():
    grid = sample_grid(sphere_patch(), 10)
    assert len(grid.points) == 10 * 9  # the longitude wraps: 9 nodes
    assert len(grid.skipped) == 0


def test_grid_distances_are_those_to_the_patch_center():
    patch = build_patch(E3, "sphere", {"radius": 1.0}, center=np.array([0.1, 0.0, 0.0]))
    grid = sample_grid(patch, 10)
    assert grid.patch is patch
    expected = np.linalg.norm(grid.frames.position - patch.center, axis=-1)
    assert np.allclose(grid.u, expected, rtol=0.0, atol=1e-15)
    assert grid.u is grid.u  # computed once
    with pytest.raises(ValueError, match="read-only"):
        grid.u[0] = 0.0
    centerless = sample_grid(build_patch(E3, "sphere", {"radius": 1.0}), 10)
    with pytest.raises(DomainError, match="no center"):
        centerless.u


def test_polar_cap_skips_exactly_on_singular_axis():
    chart_patch = build_patch(
        E3,
        "sphere",
        {"radius": 1.0},
        center=np.zeros(3),
        domain=([0.0, 0.0], [0.5, 2 * np.pi]),
    )
    grid = sample_grid(chart_patch, 8)
    assert len(grid.skipped) == 7  # the pole's ring, whose longitude wraps: 7 nodes
    assert all(p[0] == 0.0 for p, _ in grid.skipped)
    assert all(p[0] > 0.0 for p, _ in grid.points)


def half_longitude_patch():
    return build_patch(E3, "sphere", {"radius": 1.0}, center=np.zeros(3),
                       domain=([0.15, 0.0], [np.pi - 0.15, np.pi]))


def test_a_longitude_wraps_only_where_the_box_spans_two_pi():
    # the chart names its longitude periodic: over [0, 2 pi] the node at 2 pi is
    # the node at 0 and is left out; over [0, pi] both end nodes are kept
    for patch, hi, wraps in ((sphere_patch(), 2.0 * np.pi, True),
                             (half_longitude_patch(), np.pi, False)):
        assert patch.wraps.tolist() == [False, wraps]
        P, cell = patch.grid(8)
        nodes = np.linspace(0.0, hi, 8)
        assert np.array_equal(np.unique(P[:, 1]), nodes[:-1] if wraps else nodes)
        assert len(P) == 8 * len(np.unique(P[:, 1]))
        assert np.array_equal(cell, patch.domain_width / 7)


def refine_one(patch, fn, start, cell, rounds=14, sign=1.0):
    """(param (n,), value) of :func:`refine_extremum` from the one start (n,)."""
    params, values = refine_extremum(patch, fn, start[None], cell, [sign], rounds)
    return params[0], values[0]


def seam_peak(Q):
    """cos(phi + 0.3) at the rows Q: its peak sits 0.3 below phi = 2 pi."""
    return np.cos(Q[:, 1] + 0.3), no_errors(len(Q))


def seam_refinement(patch, cell):
    """refine_extremum of :func:`seam_peak`, from phi = 0, and the rows of each of its calls."""
    calls = []

    def fn(Q):
        calls.append(Q)
        return seam_peak(Q)

    return refine_one(patch, fn, np.array([np.pi / 2, 0.0]), cell), calls


def test_refiner_wraps_the_longitude_across_the_seam():
    # the stencil around phi = 0 takes its negative offsets modulo 2 pi, counts
    # as unclipped and takes the quadratic step, which quarters the cell; the
    # step's center, 0.3 below phi = 0, is taken modulo 2 pi too, so the next
    # stencil stays in the box
    patch = sphere_patch()
    cell = patch.grid(16)[1]
    (param, value), calls = seam_refinement(patch, cell)
    first, second = calls[0][:, 1], calls[1][:, 1]
    assert np.all((first <= cell[1]) | (first >= 2.0 * np.pi - cell[1]))
    assert first.max() > np.pi
    assert np.ptp(second) == pytest.approx(cell[1] / 2.0, rel=1e-12)
    assert second[12] == pytest.approx(2.0 * np.pi - 0.3, abs=cell[1] / 4.0)  # the middle row
    assert param[1] == pytest.approx(2.0 * np.pi - 0.3, abs=1e-6)
    assert value == pytest.approx(1.0, abs=1e-15)
    # the halving loop wraps the same way and reaches the same peak
    _, reference = halving_reference(patch, seam_peak, np.array([np.pi / 2, 0.0]), cell, 1.0)
    assert value == pytest.approx(reference, abs=1e-15)


def test_refiner_clips_a_longitude_box_that_does_not_wrap():
    # over [0, pi] the stencil around phi = 0 is clipped at the box's edge, not
    # taken modulo pi, and the max stays on that edge
    patch = half_longitude_patch()
    cell = patch.grid(16)[1]
    (param, value), calls = seam_refinement(patch, cell)
    assert calls[0][:, 1].min() == 0.0 and calls[0][:, 1].max() == cell[1]
    assert param[1] == 0.0 and value == np.cos(0.3)


@pytest.mark.parametrize("kind, params, resolution", [
    ("sphere", {"radius": 1e-3}, 8),
    ("ellipsoid", {"semi_axes": [2.2e-3 * 0.6, 2.2e-3, 2.2e-3]}, 16),
])
def test_immersion_test_is_scale_free(kind, params, resolution):
    # det g scales with the fourth power of the size: an absolute floor on it
    # rejected every point of the small sphere and the ellipsoid's polar rows
    grid = sample_grid(build_patch(E3, kind, params, center=np.zeros(3)), resolution)
    assert not grid.skipped
    assert len(grid.points) == resolution * (resolution - 1)  # the longitude wraps


@pytest.mark.parametrize("radius, kept", [(1e-4, 8 * 7), (1e-7, 0)])  # the angle wraps
def test_degeneracy_floor_sits_between_thin_and_collapsed_cylinders(radius, kept):
    # the metric of a cylinder of radius r has eigenvalues r^2 and 1: a ratio
    # of 1e-8 is immersive, 1e-14 is below DEGENERACY_TOL = 1e-12 (a floor of
    # 1e-6 would reject the thin one, a floor of 1e-15 would keep the collapsed one)
    patch = build_patch(E3, "cylinder", {"radius": radius}, center=np.zeros(3))
    if kept:
        grid = sample_grid(patch, 8)
        assert len(grid.points) == kept and not grid.skipped
    else:
        with pytest.raises(EmptySampleError, match="every grid point was rejected"):
            sample_grid(patch, 8)
        P = grid_points(grid_axes(patch.domain_lo, patch.domain_hi, 8))
        frames, errors = frames_at(patch, P)
        assert all(isinstance(e, ImmersionDegeneracyError) for e in errors)


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
    # sample_grid, frame_at, operator_data, restrict_field, trace_operator and
    # key_inequality_rhs run one implementation: a grid row and the
    # single-point call at its parameter agree bit for bit
    grid = sample_grid(patch, resolution)
    signature, b = patch.ambient.signature, patch.ambient.curvature
    batch = operator_data(grid.frames, signature)
    dist = DistanceField(patch.ambient, patch.center)
    restricted = restrict_field(patch, dist, grid.frames)
    for i, (p, frame) in enumerate(grid.points):
        single = frame_at(patch, p)
        assert single.signature == frame.signature == grid.frames.signature == signature
        for field in (*ROW_FIELDS, "principal"):
            assert np.array_equal(getattr(grid.frames, field)[i], getattr(single, field)), (
                name, field)
        assert entry_bits(grid.frames[i].distances) == entry_bits(single.distances), name
        data = operator_data(single, signature)
        for field in ("kappa", "newton_eigenvalues", "H"):
            assert np.array_equal(getattr(batch, field)[i], getattr(data, field)), (name, field)
        for k in range(patch.n + 1):
            assert (grid.frames.newton_psd_margin(k)[i].tobytes()
                    == single.newton_psd_margin(k).tobytes()), (name, k)
        one = restrict_field(patch, dist, single)
        for field in ("u", "grad", "grad_norm_sq", "normal_coef", "hess"):
            assert np.array_equal(getattr(restricted, field)[i], getattr(one, field)), (name, field)
        for k in range(patch.n):
            assert np.array_equal(trace_operator(restricted, k)[i],
                                  trace_operator(one, k)), (name, k)
            assert np.array_equal(key_inequality_rhs(restricted, k, b)[i],
                                  key_inequality_rhs(one, k, b)), (name, k)
    for p, reason in grid.skipped:
        with pytest.raises(GeometryError) as exc:
            frame_at(patch, p)
        assert reason == f"{type(exc.value).__name__}: {exc.value}"
    assert len(grid.skipped) == (7 if name == "polar cap" else 0)  # the pole's ring


def refine_both_ways(patch, lookup, start, cell, rounds, sign):
    """(result, points) of refine_extremum, then of sequential_refine, the points being
    those each evaluated, in order, for ``lookup(q) -> (value, fails)``; None where the
    start point fails and both raise its DomainError."""
    tried, seen = [], []

    def value_at(q):
        tried.append(q)
        value, fails = lookup(q)
        if fails:
            raise DomainError("no value at this stencil point")
        return value

    def rows(Q):
        seen.extend(Q)
        values, errors = np.zeros(len(Q)), no_errors(len(Q))
        for i, q in enumerate(Q):
            values[i], fails = lookup(q)
            if fails:
                errors[i] = DomainError("no value at this stencil point")
        return values, errors

    try:
        expected = sequential_refine(patch, value_at, start, cell, rounds, sign)
    except DomainError:
        with pytest.raises(DomainError):
            refine_one(patch, rows, start, cell, rounds, sign)
        return None
    return refine_one(patch, rows, start, cell, rounds, sign), seen, expected, tried


def assert_moves_like_the_loop(both, fallback, n):
    """The refiner evaluates the loop's stencils through the first round of the loop
    that ``fallback`` does not mark, the round that may step, the start as the
    first stencil's middle row where the loop evaluates it first; it returns the
    loop's result if every round is marked."""
    got, seen, expected, tried = both
    alike = len(fallback) if all(fallback) else fallback.index(False) + 1
    m = alike * 5**n
    assert np.array_equal(np.array(seen[:m]), np.array(tried[1:1 + m]))
    if all(fallback):
        assert len(seen) == len(tried) - 1
        assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]


def box_patch(n):
    return build_patch(AmbientModel.euclidean(n + 1), "graph",
                       {"terms": [[1.0, [0] * n]], "box_lo": [-1] * n, "box_hi": [1] * n})


@given(
    n=st.integers(1, 2),
    rounds=st.integers(1, 3),
    sign=st.sampled_from([1.0, -1.0]),
    table=st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=5, max_size=5),
    start=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    cell=st.floats(0.05, 1.5),
)
def test_refinement_moves_like_the_sequential_loop(n, rounds, sign, table, start, cell):
    # stencil values come from a 5-entry table of small integers, so rows tie
    # often; a stencil with a failed row is neither flat nor fitted, so the
    # refiner moves to the first best row and halves the cell, as the loop does.
    # A value depends on the point, not on the sign of a zero coordinate: the
    # loop evaluates a start of -0.0 and its first stencil's +0.0, the refiner
    # the start alone
    def lookup(q):
        value, fails = table[zlib.crc32((q + 0.0).tobytes()) % len(table)]
        return float(value), fails

    both = refine_both_ways(box_patch(n), lookup, np.array(start[:n]), np.full(n, cell),
                            rounds, sign)
    if both is not None:
        failed_rows = np.reshape([lookup(q)[1] for q in both[3][1:]], (rounds, -1))
        assert_moves_like_the_loop(both, failed_rows.any(axis=1).tolist(), n)


@given(
    n=st.integers(1, 2),
    rounds=st.integers(1, 4),
    sign=st.sampled_from([1.0, -1.0]),
    curve=st.sampled_from([1.0, -1.0]),
    peak=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    start=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    cell=st.floats(0.05, 1.5),
)
def test_refinement_moves_like_the_sequential_loop_without_a_fitted_maximum(
        n, rounds, sign, curve, peak, start, cell):
    # the refined scalar sign * f is curve * |q - peak|^2, its own quadratic fit:
    # it has a maximum only if it curves down, at the peak.  A round takes no
    # step where the box clips its stencil, the bowl curves up or the peak lies
    # outside the stencil (by more than round-off)
    peak = np.array(peak[:n])

    def lookup(q):
        return sign * curve * float(np.sum((q - peak) ** 2)), False

    both = refine_both_ways(box_patch(n), lookup, np.array(start[:n]), np.full(n, cell),
                            rounds, sign)
    stencils = np.reshape(both[3][1:], (rounds, 5**n, n))
    fallback = []
    for r, center in enumerate(stencils[:, (5**n - 1) // 2]):  # the zero offset
        width = cell / 2**r
        clipped = np.any(center - width < -1.0) or np.any(center + width > 1.0)
        outside = np.abs(peak - center).max() > width * (1.0 + 1e-9)
        fallback.append(bool(clipped or curve > 0.0 or outside))
    assert_moves_like_the_loop(both, fallback, n)


def test_refinement_resolves_a_shallow_peak_on_a_large_value():
    # the first stencil's values spread over about 1e6 ulp of the value, far
    # above round-off, though over only 1e-10 of it: not flat, so the refiner
    # steps to the peak instead of stopping on the stencil's best row
    peak = np.array([0.37, -0.21])

    def fn(Q):
        return 1.0 - 1e-10 * np.sum((Q - peak) ** 2, axis=1), no_errors(len(Q))

    param, value = refine_one(box_patch(2), fn, np.zeros(2), np.full(2, 0.5))
    assert np.abs(param - peak).max() < 1e-3
    assert value >= 1.0 - 4 * np.spacing(1.0)


def test_refinement_raises_the_start_points_error():
    # the start is the first stencil's middle row: one call, and the error of
    # that row is raised, though every other row has a value
    start, calls = np.array([0.3, -0.2]), []

    def fn(Q):
        calls.append(len(Q))
        errors = no_errors(len(Q))
        errors[np.all(Q == start, axis=1)] = DomainError("no value at the start")
        return np.zeros(len(Q)), errors

    with pytest.raises(DomainError, match="at the start"):
        refine_one(box_patch(2), fn, start, np.full(2, 0.1))
    assert calls == [25]


def test_refinement_keeps_a_start_that_a_stencil_row_ties():
    # -q_2^2 peaks on the line q_2 = 0, through the start: the first stencil's
    # rows on it come before its middle row and tie the start, and the best
    # point moves only on a strict improvement
    start = np.array([0.3, 0.0])

    def fn(Q):
        return -Q[:, 1] ** 2, no_errors(len(Q))

    param, value = refine_one(box_patch(2), fn, start, np.full(2, 0.2))
    assert np.array_equal(param, start) and value == 0.0


@given(a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0), c=st.floats(-10.0, 10.0))
def test_closed_form_eigenvectors_of_a_2x2_match_lapack(a, b, c):
    H = np.array([[a, b], [b, c]])
    lam, V = immersion._symmetric_eigen(H)
    scale = max(1.0, np.abs(H).max())
    assert np.allclose(lam, np.linalg.eigvalsh(H), rtol=0.0, atol=1e-14 * scale)
    assert np.allclose(V.T @ V, np.eye(2), rtol=0.0, atol=1e-15)
    assert np.allclose(H @ V, V * lam, rtol=0.0, atol=1e-14 * scale)


@pytest.mark.parametrize("rounds", [-1, 1.5, True, None])
def test_refinement_rounds_must_be_a_non_negative_integer(rounds):
    patch = box_patch(2)
    calls = []

    def fn(Q):
        calls.append(len(Q))
        return np.zeros(len(Q)), no_errors(len(Q))

    with pytest.raises(DomainError, match="rounds"):
        refine_one(patch, fn, np.zeros(2), np.full(2, 0.1), rounds)
    assert calls == []
    assert refine_one(patch, fn, np.zeros(2), np.full(2, 0.1), np.int64(0))[1] == 0.0


@pytest.mark.parametrize("start, sign, match", [
    (np.zeros((2, 2)), 0.0, "sign"),
    (np.zeros((2, 2)), 2.0, "sign"),
    (np.zeros((2, 2)), np.nan, "sign"),
    (np.zeros((2, 2)), [1.0, 0.5], "sign"),
    (np.zeros((2, 2)), [1.0, -1.0, 1.0], "sign"),  # three signs for two starts
    (np.zeros(3), 1.0, "start"),  # a point of another dimension
    (np.zeros((1, 2, 2)), 1.0, "start"),
    (np.zeros(2), [1.0], "start"),  # one point (n,), not (1, n)
    (np.zeros((1, 2)), 1.0, "sign"),  # a scalar sign, not one per start
    (np.zeros((0, 2)), [], "start"),  # no start
])
def test_refinement_starts_and_signs_are_checked_before_any_call(start, sign, match):
    calls = []

    def fn(Q):
        calls.append(len(Q))
        return np.zeros(len(Q)), no_errors(len(Q))

    with pytest.raises(DomainError, match=match):
        refine_extremum(box_patch(2), fn, start, np.full(2, 0.1), sign)
    assert calls == []


@pytest.mark.parametrize("cell", [
    np.zeros(2),  # its stencil is flat, so the start came back as the max
    np.full(2, -0.2),  # the refinement stopped short, at value -0.020
    np.full(3, 0.2),  # a bare broadcast ValueError
    np.float64(0.2), [0.2, np.inf], [np.nan, 0.2],
])
def test_refinement_cell_is_checked_before_any_call(cell):
    calls = []

    def fn(Q):
        calls.append(len(Q))
        return -np.sum((Q - 0.5) ** 2, axis=1), no_errors(len(Q))

    for rounds in (0, 14):
        with pytest.raises(DomainError, match="cell"):
            refine_extremum(box_patch(2), fn, np.zeros((1, 2)), cell, [1.0], rounds)
    assert calls == []
    params, values = refine_extremum(box_patch(2), fn, np.zeros((1, 2)), np.full(2, 0.5), [1.0])
    assert params.tolist() == [[0.5, 0.5]] and values.tolist() == [0.0]


def terrain(Q, peak, fail_below):
    """A row-wise scalar on the box: flat at 1 where q_0 > 0.5, else 1 - |q - peak|^2,
    without a value where q_1 < ``fail_below``, each error naming its row."""
    values = np.where(Q[:, 0] > 0.5, 1.0, 1.0 - np.sum((Q - peak) ** 2, axis=1))
    errors = no_errors(len(Q))
    for i in np.flatnonzero(Q[:, 1] < fail_below):
        errors[i] = DomainError(f"no value at {Q[i].tolist()}")
    return values, errors


def shared_and_single(starts, signs, cell, rounds, peak, fail_below):
    """(result, calls) of one refinement of every start, then of each start alone."""
    runs = []
    for start, sign in [(starts, signs)] + [(s[None], [g]) for s, g in zip(starts, signs)]:
        calls = []

        def fn(Q):
            calls.append(Q.copy())
            return terrain(Q, peak, fail_below)

        runs.append((refine_extremum(box_patch(2), fn, start, cell, sign, rounds), calls))
    return runs[0], runs[1:]


def assert_shares_the_single_refinements(shared, singles):
    # each start's param, value and rows are its own refinement's, bit for bit;
    # call r holds the stencils of the starts still refining, in start order
    (params, values), calls = shared
    for j, ((param, value), _) in enumerate(singles):
        assert params[j].tobytes() == param.tobytes() and values[j].tobytes() == value.tobytes()
    assert len(calls) == max(len(c) for _, c in singles)
    for r, rows in enumerate(calls):
        expected = [c[r] for _, c in singles if len(c) > r]
        assert np.concatenate(expected).tobytes() == rows.tobytes()


def test_shared_refinement_is_each_start_refined_alone():
    # the plateau start stops after its first stencil, the bowl start steps to
    # the peak, the start by the failing strip halves past its failed rows, and
    # the min start runs into the box's corner
    starts = np.array([[0.75, 0.0], [-0.3, 0.2], [0.0, -0.75], [-0.5, 0.5]])
    signs = np.array([1.0, 1.0, 1.0, -1.0])
    shared, singles = shared_and_single(starts, signs, np.full(2, 0.2), 8,
                                        np.array([-0.4, 0.3]), -0.9)
    assert_shares_the_single_refinements(shared, singles)
    lengths = [len(c) for _, c in singles]
    assert lengths[0] == 1 and len(set(lengths)) >= 3, lengths
    failed_rows = [terrain(np.concatenate(c), np.array([-0.4, 0.3]), -0.9)[1] for _, c in singles]
    assert [any(e is not None for e in f) for f in failed_rows] == [False, False, True, False]


@given(
    starts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                              st.sampled_from([1.0, -1.0])), min_size=1, max_size=3),
    rounds=st.integers(0, 4),
    cell=st.floats(0.05, 1.0),
    peak=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    fail_below=st.floats(-1.5, -0.5),
)
@example(starts=[(0.2, 0.1, 1.0), (-0.3, 0.4, -1.0)], rounds=0, cell=0.3, peak=(0.0, 0.0),
         fail_below=-1.0)
@settings(max_examples=30)
def test_shared_refinement_matches_one_start_at_a_time(starts, rounds, cell, peak, fail_below):
    points, signs = np.array([s[:2] for s in starts]), np.array([s[2] for s in starts])
    fails = [s[1] < fail_below for s in starts]
    if any(fails):
        # the first failing start raises, in start order, as it does alone
        first = points[fails.index(True)].tolist()
        with pytest.raises(DomainError, match=re.escape(f"no value at {first}")):
            shared_and_single(points, signs, np.full(2, cell), rounds, np.array(peak), fail_below)
        return
    shared, singles = shared_and_single(points, signs, np.full(2, cell), rounds, np.array(peak),
                                        fail_below)
    assert_shares_the_single_refinements(shared, singles)


def test_grid_distances_align_with_the_rows_the_orientation_kept(monkeypatch):
    # the graph passes through its center at the grid's middle node, where the
    # distance gradient is undefined: the orientation step skips that row, and
    # the distances it measured are the kept rows' u, with no second evaluation
    patch = build_patch(E3, "graph", {"terms": [[1.0, [2, 0]], [1.0, [0, 2]]],
                                      "box_lo": [-1, -1], "box_hi": [1, 1]}, center=np.zeros(3))
    grid = sample_grid(patch, 5)
    assert [p.tolist() for p, _ in grid.skipped] == [[0.0, 0.0]]
    calls = counted(monkeypatch, immersion, "distance_rows")
    assert_u_is_the_distance_of_the_kept_rows(grid)
    assert calls == []


def test_grid_distances_of_a_future_patch_are_measured_on_the_kept_rows(monkeypatch):
    # a Lorentzian patch orients by the time orientation, so u measures them itself
    grid = sample_grid(build_patch(M3, "hyperboloid", {"radius": 2.0}, center=np.zeros(3)), 8)
    calls = counted(monkeypatch, immersion, "distance_rows")
    assert_u_is_the_distance_of_the_kept_rows(grid)
    assert len(calls) == 1


def test_grid_distances_need_a_center():
    grid = sample_grid(build_patch(E3, "sphere", {"radius": 1.0}), 8)
    with pytest.raises(DomainError, match="no center"):
        grid.u


def test_resolution_one_rejected():
    with pytest.raises(DomainError):
        sample_grid(sphere_patch(), 1)


@pytest.mark.parametrize("resolution", [16.9, 16.0, True, "16", [8, 8.5], np.float64(8.0),
                                        np.array(8.0)])
def test_a_count_that_is_not_an_integer_is_rejected(resolution):
    # int() would sample the res-16 grid for 16.9 and the res-1 grid for True
    with pytest.raises(DomainError, match="integers of at least 2"):
        sample_grid(sphere_patch(), resolution)


def test_numpy_integer_counts_sample_the_same_grid():
    grid = sample_grid(sphere_patch(), 8)
    for resolution in (np.int64(8), [np.int32(8), 8], np.array([8, 8])):
        same = sample_grid(sphere_patch(), resolution)
        assert same.frames.param.tobytes() == grid.frames.param.tobytes()
        assert np.array_equal(same.cell, grid.cell)


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


class LinearChart(Chart):
    """p -> B p, with exact jets."""

    nparams = 2

    def __init__(self, B):
        self.B = read_only_copy(B)

    def value(self, p):
        return p @ self.B.T

    def jet(self, p):
        d1 = np.broadcast_to(self.B, p.shape[:-1] + self.B.shape)
        return self.value(p), d1, np.zeros(d1.shape + (2,))

    def default_domain(self):
        return np.array([-1.0, -1.0]), np.array([1.0, 1.0])


@pytest.mark.parametrize("B, metric, kind, message", [
    # (p0 + p1, p0 - p1, 0): a null tangent basis, the plane is timelike
    ([[1, 1], [1, -1], [0, 0]], [[0, -2], [-2, 0]], SignatureError, "not spacelike"),
    # (p0, p0, p1): one null tangent direction
    ([[1, 0], [1, 0], [0, 1]], [[0, 0], [0, 1]], ImmersionDegeneracyError, "not immersive"),
])
def test_rejected_lorentzian_tangent_planes_keep_their_error_kind(B, metric, kind, message):
    # the pivots of both metrics start with 0; the spectrum names the reason
    chart = LinearChart(np.array(B, dtype=float))
    assert np.array_equal(induced_metric(chart.B, M3.metric_diag), metric)
    patch = HypersurfacePatch(chart, M3, "future", *chart.default_domain())
    with pytest.raises(kind, match=message) as raised:
        frame_at(patch, np.array([0.3, -0.2]))
    assert type(raised.value) is kind


def test_geodesic_sphere_stops_short_of_the_conjugate_locus():
    # the radial geodesics of both models refocus at pi/sqrt(eps b)
    for model in (AmbientModel.sphere(1.0, 3), AmbientModel.lorentz_space_form(-1.0, 3)):
        with pytest.raises(ConfigError, match="conjugate locus"):
            build_patch(model, "geodesic_sphere", {"radius": np.pi})
        patch = build_patch(model, "geodesic_sphere", {"radius": np.pi - 1e-3})
        assert patch.chart.radius == np.pi - 1e-3


def test_future_orientation_requires_lorentzian():
    with pytest.raises(ConfigError):
        build_patch(E3, "sphere", {"radius": 1.0}, orientation="future")
    with pytest.raises(ConfigError):
        build_patch(M3, "hyperboloid", {"radius": 1.0}, orientation="inner")


def sphere_table(tmp_path, edit=lambda lines: lines, include_jets=True):
    """The path of a 5 x 5 table of the unit sphere, its CSV lines passed through ``edit``."""
    sphere = build_chart(E3, "sphere", {"radius": 1.0})
    path = tmp_path / "sphere.csv"
    write_chart_csv(sphere, *sphere.default_domain(), 5, path, include_jets=include_jets)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return str(path)


def without_last_column(lines):
    return [line.rsplit(",", 1)[0] for line in lines]


class ValueChart(Chart):
    """The plane p -> (p_0, p_1, 0), with no analytic jets."""

    nparams = 2

    def value(self, p):
        return np.concatenate([p, np.zeros(np.shape(p)[:-1] + (1,))], axis=-1)

    def default_domain(self):
        return np.array([-1.0, -1.0]), np.array([1.0, 1.0])


# (call on tmp_path, message) of each chart that cannot be built or used
CHART_ERRORS = {
    "ellipsoid-negative-axis": (lambda tmp: build_chart(
        E3, "ellipsoid", {"semi_axes": [1.0, -1.0, 1.0]}), "semi-axes must be positive"),
    "ellipsoid-axes-of-another-dimension": (lambda tmp: build_chart(
        E3, "ellipsoid", {"semi_axes": [1.0, 1.0]}), "dimensions disagree"),
    "cylinder-outside-r3": (lambda tmp: build_chart(
        AmbientModel.euclidean(4), "cylinder", {"radius": 1.0}), "lives in R"),
    "graph-exponents-of-another-length": (lambda tmp: build_chart(
        E3, "graph", {"terms": [[1.0, [2]]], "box_lo": [-1, -1], "box_hi": [1, 1]}),
        "exponents must match"),
    "geodesic-sphere-radius-zero": (lambda tmp: build_chart(
        AmbientModel.sphere(1.0, 3), "geodesic_sphere", {"radius": 0.0}), "must be positive"),
    "hyperboloid-radius-negative": (lambda tmp: build_chart(
        M3, "hyperboloid", {"radius": -1.0}), "must be positive"),
    "table-row-missing": (lambda tmp: build_chart(E3, "tabulated", {
        "path": sphere_table(tmp, lambda lines: lines[:-1])}), "complete grid"),
    "table-without-rows": (lambda tmp: build_chart(E3, "tabulated", {
        "path": sphere_table(tmp, lambda lines: lines[:1])}), "no samples"),
    "table-without-positions": (lambda tmp: build_chart(E3, "tabulated", {
        "path": sphere_table(tmp, lambda lines: [",".join(
            line.split(",")[:2]) for line in lines], include_jets=False)}), "p\\* and x\\*"),
    "table-jet-column-missing": (lambda tmp: build_chart(E3, "tabulated", {
        "path": sphere_table(tmp, without_last_column)}), "jet columns are incomplete"),
    "jets-exported-from-a-chart-without-them": (lambda tmp: write_chart_csv(
        ValueChart(), *ValueChart().default_domain(), 5, tmp / "out.csv"),
        "no analytic jets to export"),
    "unknown-kind": (lambda tmp: build_chart(E3, "torus", {}), "unknown chart kind"),
    "sphere-in-minkowski": (lambda tmp: build_chart(M3, "sphere", {"radius": 1.0}),
                            "requires a euclidean ambient"),
}


@pytest.mark.parametrize("case", CHART_ERRORS)
def test_chart_errors_are_config_errors(tmp_path, case):
    call, message = CHART_ERRORS[case]
    with pytest.raises(ConfigError, match=message):
        call(tmp_path)


def sphere_chart():
    return build_chart(E3, "sphere", {"radius": 1.0})


# (patch arguments after the chart, message) of each patch that cannot be built
PATCH_ERRORS = {
    "unknown-orientation": ((E3, "outward", [0.2, 0.0], [3.0, 6.0]), "unknown orientation"),
    "unknown-jet-policy": ((E3, "inner", [0.2, 0.0], [3.0, 6.0], None, "exact"),
                           "unknown jet policy"),
    "empty-box": ((E3, "inner", [0.2, 6.0], [3.0, 6.0]), "empty parameter domain"),
    "nan-bound": ((E3, "inner", [0.2, np.nan], [3.0, 6.28]), "finite and of shape"),
    "infinite-bound": ((E3, "inner", [0.2, 0.0], [3.0, np.inf]), "finite and of shape"),
    "box-of-three": ((E3, "inner", [0.2, 0.0, 0.0], [3.0, 6.28, 1.0]), "finite and of shape"),
    "box-of-one": ((E3, "inner", [0.2], [3.0]), "finite and of shape"),
    "bounds-of-two-shapes": ((E3, "inner", [0.2, 0.0], [3.0, 6.28, 1.0]), "finite and of shape"),
}


@pytest.mark.parametrize("case", PATCH_ERRORS)
def test_patch_errors_are_config_errors(case):
    args, message = PATCH_ERRORS[case]
    with pytest.raises(ConfigError, match=message):
        HypersurfacePatch(sphere_chart(), *args)


def test_a_bad_box_is_rejected_before_a_grid_is_sampled():
    # a NaN bound used to pass the empty-box test and make every grid row
    # fail; a box of three bounds on two parameters, a bare broadcast error
    for domain in (([0.2, np.nan], [3.0, 6.28]), ([0.2, 0.0, 0.0], [3.0, 6.28, 1.0])):
        with pytest.raises(ConfigError, match="finite and of shape \\(2,\\)"):
            build_patch(E3, "ellipsoid", {"semi_axes": [1.0, 2.0, 3.0]}, domain=domain)


def test_analytic_jets_need_a_chart_that_has_them():
    patch = HypersurfacePatch(ValueChart(), E3, "inner", *ValueChart().default_domain(),
                              jets="analytic")
    with pytest.raises(ConfigError, match="no analytic jets"):
        patch.jet_at(patch.domain_lo)
    auto = dataclasses.replace(patch, jets="auto")  # finite differences of the values
    assert np.array_equal(auto.jet_at(np.zeros(2))[1], np.eye(3, 2))


# -- the frame of one point ---------------------------------------------------------


def test_frame_at_raises_at_a_rejected_point_on_every_call():
    patch = sphere_patch()
    for outside in (1.0, 1e-6 * patch.domain_width):
        for _ in range(2):
            with pytest.raises(DomainError, match="outside the patch domain"):
                frame_at(patch, patch.domain_hi + outside)


def test_frame_at_takes_one_point_of_shape_n():
    # a (1, n) point and the (n,) point with the same bytes once shared the kept
    # frame, so the next single-point call read a batch-shaped frame
    patch = build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, center=np.zeros(3))
    p = np.array([1.0, 2.0])
    with pytest.raises(DomainError, match=r"shape \(1, 2\), expected \(2,\)"):
        frame_at(patch, p[None])
    assert frame_at(patch, p).kappa.shape == (2,)
    assert np.isfinite(l_k_apply(patch, p, 0, DistanceField(E3, np.zeros(3))))
    with pytest.raises(DomainError, match=r"shape \(1, 2\), expected \(2,\)"):
        l_k_apply(patch, p[None], 0, DistanceField(E3, np.zeros(3)))  # p's record is kept
    for wrong in ([1.0, 2.0, 3.0], [1.0], 1.0):
        with pytest.raises(DomainError, match=r"expected \(2,\)"):
            frame_at(patch, np.array(wrong))


def test_frames_of_frame_at_are_read_only_and_the_caller_keeps_its_arrays():
    center, lo, hi = np.zeros(3), np.array([0.2, 0.0]), np.array([2.9, 6.0])
    patch = build_patch(E3, "sphere", {"radius": 1.0}, center=center, domain=(lo, hi))
    p, height = np.array([1.0, 2.0]), LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
    frame = restriction_at(patch, p, height).frame  # the frame the patch keeps at p
    with pytest.raises(ValueError, match="read-only"):
        frame.kappa[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        frame.principal[0, 0] = 0.0
    for a in (p, center, lo, hi):
        assert a.flags.writeable
    for a in (patch.domain_width, *patch._padded_box, patch._fd_steps):  # built once
        assert not a.flags.writeable
    # a write to an array the patch was built from leaves the patch as it was
    center[0], lo[0], p[0] = 5.0, 1.5, 1.2
    assert np.array_equal(patch.center, np.zeros(3))
    assert np.array_equal(patch.domain_lo, [0.2, 0.0])
    assert restriction_at(patch, p, height).frame is not frame


def test_a_write_to_a_chart_parameter_array_leaves_the_kept_frame_valid():
    axes = np.array([0.6, 1.0, 1.0])
    patch = build_patch(E3, "ellipsoid", {"semi_axes": axes}, center=np.zeros(3))
    p, field = np.array([1.0, 2.0]), DistanceField(E3, np.zeros(3))
    kept = restriction_at(patch, p, field).frame
    axes[0] = 2.0
    assert not np.shares_memory(patch.chart.semi_axes, axes)
    frames = frames_at(patch, p[None])[0]
    assert np.array_equal(restriction_at(patch, p, field).frame.kappa, frames.kappa[0])
    assert np.array_equal(kept.kappa, frames.kappa[0])


def test_chart_array_parameters_are_read_only_copies(tmp_path):
    terms = [[1.0, [2, 0]], [0.5, [0, 2]]]
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    path = tmp_path / "sphere.csv"
    sphere = build_chart(E3, "sphere", {"radius": 1.0})
    write_chart_csv(sphere, *sphere.default_domain(), 5, path)
    charts = [
        build_chart(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}),
        build_chart(E3, "cylinder", {"radius": 1.0}),
        build_chart(E3, "graph", {"terms": terms, "box_lo": lo, "box_hi": hi}),
        build_chart(AmbientModel.sphere(1.0, 3), "geodesic_sphere", {"radius": 0.7}),
        build_chart(M3, "perturbed_hyperboloid", {"radius": 2.0}),
        build_chart(E3, "tabulated", {"path": str(path)}),
    ]
    for chart in charts:
        arrays = {k: v for k, v in vars(chart).items() if isinstance(v, np.ndarray)}
        assert arrays, type(chart).__name__
        for a in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0
    graph = charts[2]
    assert not np.shares_memory(graph.box_lo, lo)
    assert isinstance(graph.terms, tuple)
    lo[0] = 0.5
    assert graph.default_domain()[0][0] == -1.0


def test_patch_is_frozen_and_a_replaced_patch_starts_without_a_frame():
    patch = sphere_patch()
    p = np.array([1.0, 2.0])
    frame = restriction_at(patch, p, DistanceField(E3, np.zeros(3))).frame
    assert patch._kept
    with pytest.raises(dataclasses.FrozenInstanceError):
        patch.jets = "fd"
    fd = dataclasses.replace(patch, jets="fd")
    assert fd._kept == {}
    fd_frame = restriction_at(fd, p, DistanceField(E3, np.zeros(3))).frame
    assert fd_frame is not frame
    assert not np.array_equal(fd_frame.kappa, frame.kappa)
    np.testing.assert_allclose(fd_frame.kappa, frame.kappa, atol=FD_JET_TOL)


def test_patches_and_charts_compare_by_identity():
    patch = sphere_patch()
    twin = dataclasses.replace(patch)
    assert twin != patch and twin.chart is patch.chart
    assert patch == patch and {patch: 1, twin: 2}[patch] == 1
    assert build_chart(E3, "sphere", {"radius": 1.0}) != build_chart(E3, "sphere", {"radius": 1.0})


def test_a_chart_attribute_cannot_be_rebound_under_a_kept_frame():
    patch = build_patch(E3, "cylinder", {"radius": 1.0})
    p, height = np.array([1.0, 0.5]), LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
    kept = restriction_at(patch, p, height).frame
    np.testing.assert_allclose(kept.kappa, [-1.0, 0.0], atol=1e-12)
    with pytest.raises(AttributeError, match="CylinderChart.radius is set once"):
        patch.chart.radius = 2.0
    assert patch.chart.radius == 1.0
    assert restriction_at(patch, p, height).frame is kept
    assert np.array_equal(kept.kappa, frames_at(patch, p[None])[0].kappa[0])


# kind -> (ambient, parameters) of one chart of each kind in charts._KINDS
CHART_OF_KIND = {
    "sphere": (E3, {"radius": 1.0}),
    "ellipsoid": (E3, {"semi_axes": [0.6, 1.0, 1.0]}),
    "cylinder": (E3, {"radius": 1.0}),
    "graph": (E3, {"terms": [[1.0, [2, 0]]], "box_lo": [-1, -1], "box_hi": [1, 1]}),
    "geodesic_sphere": (AmbientModel.sphere(1.0, 3), {"radius": 0.7}),
    "hyperboloid": (M3, {"radius": 2.0}),
    "perturbed_hyperboloid": (M3, {"radius": 2.0}),
    "tabulated": (E3, {"path": "sphere.csv"}),  # written by the test, in its tmp_path
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_every_chart_attribute_is_set_once(kind, tmp_path, monkeypatch):
    model, params = CHART_OF_KIND[kind]
    if kind == "tabulated":
        monkeypatch.chdir(tmp_path)
        sphere = build_chart(E3, "sphere", {"radius": 1.0})
        write_chart_csv(sphere, *sphere.default_domain(), 5, params["path"])
    chart = build_chart(model, kind, params)
    bound = dict(vars(chart))
    for name, value in bound.items():  # read-only arrays, alone or in a tuple
        for a in value if isinstance(value, tuple) else (value,):
            assert not isinstance(a, np.ndarray) or not a.flags.writeable, name
    for name in (*bound, "nparams", "jet", "value"):
        with pytest.raises(AttributeError, match=f"{name} is set once"):
            setattr(chart, name, None)
        with pytest.raises(AttributeError, match=f"{name} is set once"):
            delattr(chart, name)
    assert vars(chart).keys() == bound.keys()
    assert all(vars(chart)[name] is value for name, value in bound.items())


# -- frame kernels: LAPACK as the oracle -------------------------------------------


def cofactor_oracle(M):
    """(-1)^a det(M without column a), one LAPACK determinant per minor."""
    m = M.shape[-1]
    return np.stack([(-1.0) ** a * np.linalg.det(np.delete(M, a, axis=-1)) for a in range(m)], -1)


@given(m=st.integers(2, 6), batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_cofactor_vector_matches_lapack_minors(m, batch, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((batch, m - 1, m)) * rng.uniform(0.1, 10.0, (batch, 1, 1))
    strided = np.swapaxes(np.array(np.swapaxes(M, -1, -2), order="C"), -1, -2)
    padded = np.zeros((batch, m - 1, 2 * m))
    padded[..., ::2] = M
    w = cofactor_vector(M)
    assert w.flags.c_contiguous
    # |w_a| is at most the product of M's row norms (Hadamard)
    scale = np.prod(np.linalg.norm(M, axis=-1), axis=-1)[:, None]
    assert np.all(np.abs(w - cofactor_oracle(M)) <= 1e-12 * scale)
    assert not padded[..., ::2].flags.c_contiguous
    for other in (strided, padded[..., ::2]):
        assert np.array_equal(cofactor_vector(other), w)
    assert np.allclose(np.einsum("...a,...ra->...r", w, M), 0.0, atol=1e-12 * scale)
    for i in range(batch):
        assert np.array_equal(cofactor_vector(M[i]), w[i])
        assert np.array_equal(cofactor_vector(M[i:i + 1])[0], w[i])


@given(n=st.integers(1, 5), batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_triangular_congruence_matches_two_solves(n, batch, seed):
    X, Y = np.random.default_rng(seed).standard_normal((2, batch, n, n))
    g = X @ np.swapaxes(X, -1, -2) + 0.05 * np.eye(n)
    h = Y + np.swapaxes(Y, -1, -2)
    R, A = orthonormal_shape(g, h)
    L = np.linalg.cholesky(g)
    assert np.array_equal(R, np.tril(R))
    assert np.allclose(R @ L, np.eye(n), rtol=0.0, atol=1e-12 * np.abs(R).max())
    oracle = congruent(L, h)
    oracle = 0.5 * (oracle + np.swapaxes(oracle, -1, -2))
    assert np.array_equal(A, np.swapaxes(A, -1, -2))
    assert np.allclose(A, oracle, rtol=0.0, atol=1e-12 * np.abs(oracle).max())
    for i in range(batch):
        for rows in (i, slice(i, i + 1)):
            one_R, one_A = orthonormal_shape(g[rows], h[rows])
            assert np.array_equal(one_R, R[rows]) and np.array_equal(one_A, A[rows])


@given(n=st.integers(1, 5), batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_one_elimination_matches_the_factor_and_substitution_bit_for_bit(n, batch, seed):
    # positive definite metrics and, in about half the rows, metrics of a random
    # inertia, whose non-positive pivots the immersion test rejects
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((2, batch, n, n))
    signs = np.where(rng.random((batch, 1)) < 0.5, rng.choice([-1.0, 1.0], (batch, n)), 1.0)
    g = (X * signs[:, None, :]) @ np.swapaxes(X, -1, -2) + 0.05 * np.eye(n)
    h = Y + np.swapaxes(Y, -1, -2)
    d_ref, R_ref, A_ref = substitution_shape(g, h)
    d, _ = ldl(_samples_last(g))
    assert np.array_equal(d.T, d_ref, equal_nan=True)
    ok = immersive(d)
    R, A = orthonormal_shape(g[ok], h[ok])
    assert R.tobytes() == R_ref[ok].tobytes() and A.tobytes() == A_ref[ok].tobytes()


@given(n=st.integers(1, 5), batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_ldl_factors_the_metric_with_pivots_inside_its_spectrum(n, batch, seed):
    X = np.random.default_rng(seed).standard_normal((batch, n, n))
    g = X @ np.swapaxes(X, -1, -2) + 0.05 * np.eye(n)
    d, Linv_t = ldl(np.moveaxis(g, 0, -1))
    Linv, D = np.moveaxis(Linv_t, -1, 0), d.T
    assert np.array_equal(Linv, np.tril(Linv)) and np.all(np.diagonal(Linv, 0, -2, -1) == 1.0)
    scale = np.abs(g).max()
    # L^-1 g L^-T = diag(d), up to the round-off of products with L^-1's entries
    congruent_g = Linv @ g @ np.swapaxes(Linv, -1, -2)
    assert np.allclose(congruent_g, D[:, :, None] * np.eye(n), rtol=0.0,
                       atol=1e-12 * scale * max(1.0, np.abs(Linv).max()) ** 2)
    # the pivots are Schur complements: lambda_min <= d <= lambda_max, so a row
    # the pivot test rejects has lambda_min/lambda_max <= d_min/d_max
    eigs = np.linalg.eigvalsh(g)
    assert np.all(D >= eigs[:, :1] - 1e-12 * scale) and np.all(D <= eigs[:, -1:] + 1e-12 * scale)
    for i in range(batch):
        one_d, one_Linv = ldl(g[i])
        assert np.array_equal(one_Linv, Linv[i]) and np.array_equal(one_d, D[i])


def test_the_pivot_test_rejects_small_negative_and_non_finite_pivots():
    nan, inf = np.nan, np.inf
    d = np.array([[1.0, 1.0, 1.0, nan, 1.0, 1.0, -1.0, 1.0, 1.0],
                  [1.0, nan, inf, 1.0, 1e-13, 2e-12, 1.0, 0.0, -inf]])
    assert immersive(d).tolist() == [True] + [False] * 4 + [True] + [False] * 3


@pytest.mark.parametrize("batch", [1, 3])
def test_the_frame_kernels_leave_their_inputs_unchanged(batch):
    # the samples-last layout of one sample is a view of its input, not a copy,
    # so a kernel that wrote into what it reads would rewrite the caller's arrays
    rng = np.random.default_rng(batch)
    for patch in (sphere_patch(), build_patch(M3, "hyperboloid", {"radius": 2.0})):
        frames = sample_grid(patch, 8).frames
        g, h = np.array(frames.metric[:batch]), np.array(frames.second_form[:batch])
        R = np.array(frames.congruence[:batch])
        M = np.array(np.swapaxes(frames.tangent[:batch], -1, -2))
        covector = rng.standard_normal((batch, patch.n))
        frame = dataclasses.replace(frames[:batch], congruence=R)
        gt, Rt = _samples_last(g), _samples_last(R)
        assert np.shares_memory(gt, g) == np.shares_memory(Rt, R) == (batch == 1)
        inputs = (g, h, R, M, covector)
        before = [a.tobytes() for a in inputs]
        ldl(gt)
        congruence(Rt, h)
        cofactor_vector(M)
        frame.raise_index(covector)
        assert [a.tobytes() for a in inputs] == before


def test_non_positive_definite_metric_raises_numerical_error():
    g = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(NumericalError, match="metric not positive definite"):
        orthonormal_shape(g, np.zeros_like(g))


def principal_cases():
    yield pytest.param(sphere_patch(), id="sphere")
    yield pytest.param(build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.7]},
                                   center=np.zeros(3)), id="ellipsoid")
    yield pytest.param(build_patch(M3, "perturbed_hyperboloid", {"radius": 2.0, "epsilon": 0.05}),
                       id="perturbed-hyperboloid")
    S4 = AmbientModel.sphere(1.0, 4)
    yield pytest.param(build_patch(S4, "geodesic_sphere", {"radius": 0.7},
                                   center=S4.base_point()), id="S4-geodesic-sphere")


@pytest.mark.parametrize("patch", principal_cases())
def test_principal_directions_are_orthonormal_and_diagonalize_the_second_form(patch):
    frames = sample_grid(patch, 6).frames
    E, n = frames.principal, patch.n
    ET = np.swapaxes(E, -1, -2)
    assert np.allclose(ET @ frames.metric @ E, np.eye(n), rtol=0.0, atol=1e-12)
    scale = np.maximum(1.0, np.abs(frames.kappa).max(axis=-1))[:, None, None]
    diagonal = ET @ frames.second_form @ E
    assert np.all(np.abs(diagonal - frames.kappa[..., None] * np.eye(n)) <= 1e-12 * scale)
    # g^-1 from the kept congruence
    du = np.random.default_rng(2).standard_normal(frames.kappa.shape)
    grad = frames.raise_index(du)
    assert np.allclose(np.einsum("...ij,...j->...i", frames.metric, grad), du, rtol=0.0, atol=1e-12)


def linalg_calls_of_one_frame(monkeypatch, patch, p, origin):
    """Calls to the factorizations of np.linalg and to ``ldl`` from frame_at, its
    principal directions and a restriction of the distance from ``origin`` at p."""
    calls = {name: counted(monkeypatch, np.linalg, name)
             for name in ("cholesky", "solve", "det", "eigvalsh", "eigh")}
    calls["ldl"] = counted(monkeypatch, immersion, "ldl")
    frame = frame_at(patch, p)
    frame.principal
    restrict_field(patch, DistanceField(patch.ambient, origin), frame)
    return frame, calls


def test_a_frame_costs_one_factorization(monkeypatch):
    # a surface's frame, its principal directions and a restriction at one point
    # factor the metric once (one LDL^T, no Cholesky), run no LU solve or
    # determinant, take kappa in closed form and call eigh once, for the
    # principal directions
    patch = build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.7]}, center=np.zeros(3))
    _, calls = linalg_calls_of_one_frame(monkeypatch, patch, np.array([1.1, 2.3]), np.zeros(3))
    assert {name: len(c) for name, c in calls.items()} == {
        "cholesky": 0, "solve": 0, "det": 0, "eigvalsh": 0, "eigh": 1, "ldl": 1}


def test_a_frame_of_a_three_dimensional_hypersurface_calls_eigvalsh_once(monkeypatch):
    # from n = 3 on, kappa is LAPACK's spectrum of the frame's shape matrix
    S4 = AmbientModel.sphere(1.0, 4)
    o = S4.base_point()
    patch = build_patch(S4, "geodesic_sphere", {"radius": 0.7}, center=o)
    frame, calls = linalg_calls_of_one_frame(monkeypatch, patch, np.array([1.1, 2.3, 0.4]), o)
    assert {name: len(c) for name, c in calls.items()} == {
        "cholesky": 0, "solve": 0, "det": 0, "eigvalsh": 1, "eigh": 1, "ldl": 1}
    (A,), = calls["eigvalsh"]  # the frame's one row
    assert np.array_equal(A[0], congruence(frame.congruence, frame.second_form))


def symmetric_2x2_batches():
    """Symmetric 2 x 2 batches (N, 2, 2) at one scale from 1e-150 to 1e150, with
    umbilic rows, rows whose off-diagonal dominates and rows of rank one (up to
    the rounding of their products) among them."""
    entry = st.floats(-1.0, 1.0, allow_subnormal=False)
    row = st.one_of(
        st.tuples(entry, entry, entry),
        entry.map(lambda a: (a, 0.0, a)),  # umbilic
        st.tuples(entry, entry).map(lambda t: (1e-9 * t[0], t[1] or 1.0, 1e-9 * t[0])),
        st.tuples(entry, entry).map(lambda t: (t[0] * t[0], t[0] * t[1], t[1] * t[1])),  # rank 1
    )
    return st.tuples(st.lists(row, min_size=1, max_size=8), st.integers(-150, 150)).map(
        lambda t: 10.0 ** t[1] * np.array([[[a, b], [b, c]] for a, b, c in t[0]]))


@given(A=symmetric_2x2_batches())
def test_closed_form_spectrum_of_surfaces_matches_eigvalsh(A):
    kappa = immersion._symmetric_spectrum(A)
    assert kappa.shape == A.shape[:-1]
    assert np.all(kappa[:, 0] <= kappa[:, 1])
    scale = np.abs(A).max(axis=(-2, -1))
    assert np.all(np.abs(kappa - np.linalg.eigvalsh(A)) <= 4 * np.spacing(scale)[:, None])
    for i in range(len(A)):  # elementwise: a row's bits do not depend on its batch
        assert np.array_equal(immersion._symmetric_spectrum(A[i:i + 1]), kappa[i:i + 1])


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
        np.testing.assert_allclose(shape_operator(frame), np.eye(2), atol=1e-10)


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
        kappa = frame.kappa
        np.testing.assert_allclose(kappa, [1.0, 1.0], atol=2e-2)  # grid-step differences
    # boundary rows lack neighbors and are skipped, interior is dense
    assert len(grid.skipped) == 41 * 41 - len(interior)
