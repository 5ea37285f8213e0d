"""Restriction Hessians, trace operators, the key inequality, extremum search."""

import contextlib
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from curvbound import curvature, immersion, operators, spaceform
from curvbound.charts import (
    EllipsoidChart,
    PerturbedHyperboloidChart,
    build_chart,
    grid_axes,
    write_chart_csv,
)
from curvbound.comparison import c_b, phi_b, phi_b_d1
from curvbound.errors import (
    ConsistencyError,
    DomainError,
    GeometryError,
    HypothesisViolationError,
    UndefinedGradientError,
    failed,
    raise_first,
)
from curvbound.harness import (
    bundled_scenarios,
    collect_samples,
    emit_samples_csv,
    load_scenario,
    run_scenario,
    scenario_patch,
)
from curvbound.immersion import (
    ROW_FIELDS,
    HypersurfacePatch,
    build_patch,
    frame_at,
    frames_at,
    grid_points,
    sample_grid,
)
from curvbound.operators import (
    DistanceField,
    FieldSample,
    LinearCoordinateField,
    intrinsic_hessian_fd,
    key_inequality_residual,
    key_inequality_rhs,
    l_k_apply,
    newton_quadratic,
    omori_yau_search,
    operator_data,
    phi_of_distance_field,
    restrict_field,
    restriction_at,
    restriction_hessian,
    trace_operator,
)
from curvbound.spaceform import AmbientModel

from conftest import coincident_rows, congruent, counted, equality_spheres
from oracles import geodesic_point, higher_mean_curvatures, newton_tensors, symmetric_values

E2 = AmbientModel.euclidean(2)
E3 = AmbientModel.euclidean(3)
E4 = AmbientModel.euclidean(4)
M3 = AmbientModel.minkowski(3)
M4 = AmbientModel.minkowski(4)


def ellipsoid_patch():
    return build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, center=np.zeros(3))


def interior_points(patch, rng, count=6):
    return [
        patch.domain_lo + rng.uniform(0.15, 0.85, patch.n) * patch.domain_width
        for _ in range(count)
    ]


def newton_oracle(frame, signature):
    """(L, P): the metric's Cholesky factor and P_0..P_n by the matrix recursion on L^-1 h L^-T."""
    L = np.linalg.cholesky(frame.metric)
    A = congruent(L, frame.second_form)
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    return L, newton_tensors(A, np.linalg.eigvalsh(A), signature)


# -- restriction Hessian --------------------------------------------------------


def test_geodesic_sphere_distance_restriction_vanishes(rng):
    patch = build_patch(E3, "geodesic_sphere", {"radius": 1.0}, center=np.zeros(3))
    for p in interior_points(patch, rng, 4):
        hess = restriction_hessian(patch, np.zeros(3), p)
        assert np.abs(hess).max() < 1e-9
        for k in (0, 1):
            lk = l_k_apply(patch, p, k, DistanceField(E3, np.zeros(3)))
            assert abs(lk) < 1e-9


def test_offset_circle_restriction_hessian():
    patch = build_patch(E2, "sphere", {"radius": 1.0}, center=np.zeros(2))
    o = np.array([0.5, 0.0])
    hess = restriction_hessian(patch, o, np.array([0.0]))
    # u(theta) = sqrt(1.25 - cos theta) has u''(0) = 1/(2 * 0.5) = 1
    assert hess[0, 0] == pytest.approx(1.0, abs=1e-8)
    fd = intrinsic_hessian_fd(patch, lambda x: np.sqrt(1.25 - x[..., 0]), np.array([0.0]))
    assert fd[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_minkowski_hyperboloid_restriction_vanishes(rng):
    patch = build_patch(M3, "hyperboloid", {"radius": 2.0})
    o = np.zeros(3)
    for p in interior_points(patch, rng, 4):
        hess = restriction_hessian(patch, o, p)
        assert np.abs(hess).max() < 1e-9
        assert abs(l_k_apply(patch, p, 0, DistanceField(M3, o))) < 1e-9


def test_identity_and_fd_routes_agree_on_bundled_charts(rng):
    cases = [
        (build_patch(E3, "sphere", {"radius": 1.0}, center=np.zeros(3)), np.zeros(3)),
        (ellipsoid_patch(), np.zeros(3)),
        (build_patch(E3, "cylinder", {"radius": 1.0}, center=np.zeros(3)), np.zeros(3)),
        (
            build_patch(
                AmbientModel.sphere(1.0, 3),
                "geodesic_sphere",
                {"radius": 0.7},
                center=AmbientModel.sphere(1.0, 3).base_point(),
            ),
            AmbientModel.sphere(1.0, 3).base_point(),
        ),
        (
            build_patch(
                AmbientModel.hyperbolic(-1.0, 3),
                "geodesic_sphere",
                {"radius": 1.1},
                center=AmbientModel.hyperbolic(-1.0, 3).base_point(),
            ),
            AmbientModel.hyperbolic(-1.0, 3).base_point(),
        ),
        (build_patch(M3, "hyperboloid", {"radius": 2.0}), np.zeros(3)),
        (build_patch(M3, "perturbed_hyperboloid", {"radius": 2.0}), np.zeros(3)),
    ]
    for patch, o in cases:
        field = DistanceField(patch.ambient, o)
        for p in interior_points(patch, rng, 3):
            sample = restrict_field(patch, field, frame_at(patch, p))
            fd = intrinsic_hessian_fd(patch, lambda x: field.jet(x)[0], p)
            scale = max(1.0, np.abs(sample.hess).max())
            assert np.abs(sample.hess - fd).max() < 1e-4 * scale


# -- gradient decomposition ------------------------------------------------------


def test_riemannian_gradient_decomposition(rng):
    patch = ellipsoid_patch()
    field = DistanceField(E3, np.zeros(3))
    for p in interior_points(patch, rng, 8):
        s = restrict_field(patch, field, frame_at(patch, p))
        assert s.grad_norm_sq + s.normal_coef**2 == pytest.approx(1.0, abs=1e-8)


def test_lorentzian_gradient_decomposition(rng):
    patch = build_patch(M3, "perturbed_hyperboloid", {"radius": 2.0})
    field = DistanceField(M3, np.zeros(3))
    for p in interior_points(patch, rng, 8):
        s = restrict_field(patch, field, frame_at(patch, p))
        assert s.normal_coef == pytest.approx(np.sqrt(1.0 + s.grad_norm_sq), abs=1e-8)


def matrix_form_cases():
    """(patch, origin): both signatures, flat and curved models, n = 2 and 3.

    Off the bundled scenarios, the origin is moved off the center of each
    geodesic sphere, so that the distance's differential on the patch is not 0.
    """
    for path in bundled_scenarios().values():
        patch = scenario_patch(load_scenario(path))
        yield patch, patch.center
    yield build_patch(E4, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.3, 0.8]}), np.full(4, 0.1)
    yield build_patch(M4, "perturbed_hyperboloid", {"radius": 2.0}), np.zeros(4)
    spacelike = np.array([0.0, 0.0, 0.3, 0.2, 0.0])
    for model in (AmbientModel.sphere(1.0, 4), AmbientModel.hyperbolic(-1.0, 4),
                  AmbientModel.lorentz_space_form(0.7, 4),
                  AmbientModel.lorentz_space_form(-0.8, 4)):
        center = model.base_point()
        v = spacelike if model.epsilon > 0 else spacelike / 4 - 0.3 * model.time_orientation(center)
        origin = geodesic_point(model, center, model.tangent_project(center, v), 1.0)
        yield build_patch(model, "geodesic_sphere", {"radius": 0.6}, center=center), origin


def test_grid_restrictions_are_one_row_restrictions_with_symmetric_hessians():
    # each field's Hessian is one matrix expression in (d1, metric): a grid row
    # restricts as the single-point frame at its parameter does, bit for bit,
    # and every Hessian is exactly symmetric
    rows = 0
    for patch, origin in matrix_form_cases():
        model, n = patch.ambient, patch.n
        fields = (DistanceField(model, origin), phi_of_distance_field(model, origin, model.curvature),
                  LinearCoordinateField(model, np.linspace(0.3, 1.1, model.embedding_dim)))
        grid = sample_grid(patch, 8 if n == 2 else 4)
        batches = [restrict_field(patch, field, grid.frames) for field in fields]
        for batch in batches:
            assert not failed(batch.errors).any()
            assert np.array_equal(batch.hess, np.swapaxes(batch.hess, -1, -2))
        # rows outside fields: the patch keeps one point's frame, so each row's
        # frame is built once
        for i, (p, _) in enumerate(grid.points):
            frame = frame_at(patch, p)
            for field, batch in zip(fields, batches):
                one = restrict_field(patch, field, frame)
                for name in ("u", "grad", "grad_norm_sq", "normal_coef", "hess"):
                    assert np.array_equal(getattr(batch, name)[i], getattr(one, name)), (
                        model.model_kind, n, field, name)
                rows += 1
    # no grid row is skipped; the 4 spherical scenarios at n = 2 (res 8) and the
    # ellipsoid and 2 geodesic spheres at n = 3 (res 4) wrap their longitude
    assert rows == 3 * (4 * 8 * 7 + 2 * 8 * 8 + 3 * 4 * 4 * 3 + 3 * 4 * 4 * 4)


# -- L_k ---------------------------------------------------------------------------


def test_laplacian_of_height_on_unit_sphere(rng):
    patch = build_patch(E3, "sphere", {"radius": 1.0}, center=np.zeros(3))
    height = LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
    for p in interior_points(patch, rng, 6):
        frame = frame_at(patch, p)
        z = frame.position[2]
        lap = l_k_apply(patch, p, 0, height)
        assert lap == pytest.approx(-2.0 * z, abs=1e-9)
        # k = 0 agrees with the raw trace of the FD-route Hessian
        fd = intrinsic_hessian_fd(patch, lambda x: x[..., 2], p)
        assert np.trace(np.linalg.solve(frame.metric, fd)) == pytest.approx(lap, abs=1e-5)


def test_coordinate_field_on_quadric_model(rng):
    # height restricted to a geodesic sphere inside the curved sphere model
    model = AmbientModel.sphere(1.0, 3)
    patch = build_patch(
        model, "geodesic_sphere", {"radius": 0.7}, center=model.base_point()
    )
    field = LinearCoordinateField(model, np.eye(4)[1])
    for p in interior_points(patch, rng, 3):
        s = restrict_field(patch, field, frame_at(patch, p))
        fd = intrinsic_hessian_fd(patch, lambda x: x[..., 1], p)
        assert np.abs(s.hess - fd).max() < 1e-5


# -- key inequality ----------------------------------------------------------------


def test_key_inequality_equality_on_geodesic_sphere(rng):
    patch = build_patch(E3, "geodesic_sphere", {"radius": 1.0}, center=np.zeros(3))
    for p in interior_points(patch, rng, 4):
        for k in (0, 1):
            assert key_inequality_residual(patch, p, k) == pytest.approx(0.0, abs=1e-9)


def assert_key_equality_off_level_sets(patch, points):
    # the Hessian comparison is an identity in a space form, so L_k u equals the
    # right-hand side to round-off on any hypersurface, where grad u != 0 too
    field = DistanceField(patch.ambient, np.zeros(3))
    for p in points:
        for k in (0, 1):
            res = key_inequality_residual(patch, p, k, b=0.0, origin=np.zeros(3))
            assert abs(res) <= 1e-12 * max(1.0, abs(l_k_apply(patch, p, k, field))), (p, k)


def test_key_inequality_equality_on_ellipsoid(rng):
    patch = ellipsoid_patch()
    assert_key_equality_off_level_sets(patch, interior_points(patch, rng, 10))


@pytest.mark.parametrize("epsilon", [0.01, 0.05])
def test_key_inequality_equality_on_perturbed_hyperboloid(rng, epsilon):
    patch = build_patch(M3, "perturbed_hyperboloid", {"radius": 2.0, "epsilon": epsilon})
    assert_key_equality_off_level_sets(patch, interior_points(patch, rng, 10))


def test_key_inequality_equality_on_lorentz_hyperboloid(rng):
    patch = build_patch(M3, "hyperboloid", {"radius": 2.0})
    for p in interior_points(patch, rng, 6):
        for k in (0, 1):
            res = key_inequality_residual(patch, p, k, b=0.0, origin=np.zeros(3))
            assert abs(res) < 1e-4


def test_newton_quadratic_monotone_bound(rng):
    patch = ellipsoid_patch()
    field = DistanceField(E3, np.zeros(3))
    for p in interior_points(patch, rng, 8):
        s = restrict_field(patch, field, frame_at(patch, p))
        for k in (0, 1):
            quad = newton_quadratic(s, k)
            upper = s.frame.newton_trace(k) * s.grad_norm_sq
            assert -1e-10 <= quad <= upper + 1e-10


def test_lk_of_phi_composition_chain(rng):
    patch = ellipsoid_patch()
    o = np.zeros(3)
    dist = DistanceField(E3, o)
    composed = phi_of_distance_field(E3, o, 0.0)
    for p in interior_points(patch, rng, 5):
        s = restrict_field(patch, dist, frame_at(patch, p))
        for k in (0, 1):
            fd = intrinsic_hessian_fd(patch, lambda x: phi_b(0.0, dist.jet(x)[0]), p)
            L, P = newton_oracle(s.frame, "riemannian")
            lhs = float(np.trace(P[k] @ congruent(L, fd)))
            lk_u = l_k_apply(patch, p, k, dist)
            rhs = phi_b_d1(0.0, s.u) * (
                c_b(0.0, s.u) * newton_quadratic(s, k) + lk_u
            )
            assert lhs == pytest.approx(rhs, abs=1e-4)
        assert l_k_apply(patch, p, 0, composed) == pytest.approx(
            phi_b_d1(0.0, s.u) * (c_b(0.0, s.u) * newton_quadratic(s, 0)
                                  + l_k_apply(patch, p, 0, dist)),
            abs=1e-9,
        )


def test_field_path_makes_no_per_row_python_calls(monkeypatch, tmp_path):
    # C_b, C_{-b} and phi_b run over the rows as arrays, never one Python call per row
    def refuse(*args, **kwargs):
        raise AssertionError("np.vectorize called on the field path")

    monkeypatch.setattr(np, "vectorize", refuse)
    model = AmbientModel.hyperbolic(-1.0, 3)
    o = model.base_point()
    patch = build_patch(model, "geodesic_sphere", {"radius": 0.8}, center=o)
    p = patch.domain_lo + 0.4 * patch.domain_width
    assert abs(key_inequality_residual(patch, p, 1)) < 1e-8
    assert np.isfinite(l_k_apply(patch, p, 1, phi_of_distance_field(model, o, -1.0)))
    for name in ("sphere-in-hyperbolic", "hyperboloid-equality"):
        config = load_scenario(bundled_scenarios()[name])
        config.resolution = 8
        emit_samples_csv(config, collect_samples(config), tmp_path / f"{name}.csv")


def test_operator_data_runs_one_recurrence(monkeypatch):
    # a frame batch runs the one S_k recurrence; operator data (batch or one
    # row, either signature) and every Newton-tensor contraction only read
    # its table
    calls = []
    recurrence = curvature.elementary_symmetric

    def counted(kappa):
        calls.append(np.shape(kappa))
        return recurrence(kappa)

    monkeypatch.setattr(curvature, "elementary_symmetric", counted)
    patch = ellipsoid_patch()
    field = DistanceField(E3, np.zeros(3))
    frame = frame_at(patch, interior_points(patch, np.random.default_rng(3), 1)[0])
    assert calls == [(1, 3, 2)]
    grid = sample_grid(patch, 8).frames
    assert calls == [(1, 3, 2), (len(grid.param), 3, 2)]
    for frame in (frame, grid, grid[5]):
        for signature in ("riemannian", "lorentzian"):
            sample = restrict_field(patch, field, operator_data(frame, signature))
            for k in range(patch.n):
                trace_operator(sample, k)
                newton_quadratic(sample, k)
                key_inequality_rhs(sample, k, 0.0)
    assert len(calls) == 2
    for table in (curvature.binomials(3), curvature.trace_coefficients(3)):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_one_row_operator_data_is_the_batch_row():
    # the bundled grids and the geodesic spheres of every curvature sign,
    # dimension and jet kind: a row's operator data is bit for bit that row of
    # the batch, whose H is that of a recurrence on the frames' kappa
    grids = [sample_grid(scenario_patch(load_scenario(path)), 16).frames
             for path in bundled_scenarios().values()]
    grids += [sample_grid(patch, res).frames for *_, res, patch in equality_spheres()]
    assert len(grids) == 24
    for frames in grids:
        for signature in ("riemannian", "lorentzian"):
            batch = operator_data(frames, signature)
            H = higher_mean_curvatures(frames.kappa, frames.kappa.shape[-1], signature)
            assert np.array_equal(batch.H, H)
            for i in range(len(frames.param)):
                row = operator_data(frames[i], signature)
                assert row.signature == batch.signature == signature
                for k in range(frames.kappa.shape[-1]):
                    assert np.array_equal(row.newton_trace(k), batch.newton_trace(k)[i])
                for name in ("kappa", "newton_eigenvalues", "H"):
                    assert np.array_equal(getattr(row, name), getattr(batch, name)[i])


@pytest.mark.parametrize("name", ["ellipsoid", "hyperboloid-equality", "sphere-in-hyperbolic"])
def test_operator_data_wraps_the_frames_signed_arrays(name):
    # a frame keeps H and the P_k spectra signed for its ambient signature:
    # in that signature operator data holds the frame's arrays (a grid row's
    # are views of the batch's), and in the other one they are the oracle's
    # bit for bit, signed zeros included
    patch = scenario_patch(load_scenario(bundled_scenarios()[name]))
    own = patch.ambient.signature
    other = {"riemannian": "lorentzian", "lorentzian": "riemannian"}[own]
    grid = sample_grid(patch, 8)
    i = 11
    single = frame_at(dataclasses.replace(patch), grid.frames.param[i])
    for frame, batch in ((grid.frames, grid.frames), (grid.points[i][1], grid.frames),
                         (grid.frames[i], grid.frames), (single, single)):
        assert frame.signature == own
        data = operator_data(frame, own)
        for field in ("kappa", "H", "newton_eigenvalues"):
            assert np.shares_memory(getattr(data, field), getattr(frame, field)), field
            assert np.shares_memory(getattr(data, field), getattr(batch, field)), field
        kappa = frame.kappa
        for signature, data in ((own, data), (other, operator_data(frame, other))):
            H = higher_mean_curvatures(kappa, patch.n, signature)
            assert data.H.tobytes() == H.tobytes(), signature
            newton = symmetric_values(kappa, signature)[1]
            assert data.newton_eigenvalues.tobytes() == newton.tobytes(), signature
            assert data.signature == signature
        assert not np.shares_memory(operator_data(frame, other).H, frame.H)


def test_a_frame_is_its_own_operator_data_and_a_point_keeps_one_sample_per_field():
    # in its own signature operator_data returns the frame itself: a grid
    # batch, a grid row and the frame frame_at keeps; at a point the patch
    # keeps that frame and one FieldSample per field, on that frame
    patch = ellipsoid_patch()
    grid = sample_grid(patch, 8)
    p = grid.frames.param[5]
    kept = frame_at(patch, p)
    for frame in (grid.frames, grid.points[5][1], kept):
        assert operator_data(frame, frame.signature) is frame
    fields = [DistanceField(E3, np.zeros(3)), DistanceField(E3, [0.1, 0.0, 0.0]),
              LinearCoordinateField(E3, [0.0, 0.0, 1.0])]
    samples = [restriction_at(patch, p, field) for field in fields]
    for field, sample in zip(fields, samples):
        assert isinstance(sample, FieldSample) and sample.frame is kept
    key_inequality_residual(patch, p, 1)  # its field equals fields[0]
    l_k_apply(patch, p, 0, DistanceField(E3, [0.1, 0.0, 0.0]))
    # keyed by the frame: the distance and its gradient from the center that oriented it
    distances = patch._last_frame[kept]
    rho, grad, _ = spaceform.gradient_rows(E3, patch.center, kept.position[None])
    assert [a.tobytes() for a in distances] == [rho.tobytes(), grad.tobytes()]
    assert patch._last_frame == {p.tobytes(): kept, kept: distances, **dict(zip(fields, samples))}


def test_fd_oracle_reads_one_chart_jet_per_stencil(monkeypatch):
    # the oracle's scalar is read off the stencil's positions, and the frame's
    # row is the stencil's row 0, so the chart jets are the stencil's alone
    shapes = []
    jet = PerturbedHyperboloidChart.jet

    def counted(chart, p):
        shapes.append(np.shape(p))
        return jet(chart, p)

    monkeypatch.setattr(PerturbedHyperboloidChart, "jet", counted)
    patch = build_patch(M3, "perturbed_hyperboloid", {"radius": 2.0})
    restriction_hessian(patch, np.zeros(3), interior_points(patch, np.random.default_rng(5), 1)[0])
    assert shapes == [(9, 2)]


def spectral_oracle_cases():
    """(label, patch, field, frames): the bundled grids at 16 with the distance to their
    reference points, and off-center views of geodesic spheres."""
    for name, path in bundled_scenarios().items():
        samples = collect_samples(load_scenario(path))
        patch = samples.patch
        yield name, patch, DistanceField(patch.ambient, patch.center), samples.frames
    for n in (3, 4):
        for model in (AmbientModel.sphere(1.0, n + 1), AmbientModel.hyperbolic(-1.0, n + 1)):
            center = model.base_point()
            patch = build_patch(model, "geodesic_sphere", {"radius": 0.7}, center=center)
            origin = geodesic_point(model, center, np.eye(n + 2)[1], 0.3)
            frames = sample_grid(patch, {3: 6, 4: 4}[n]).frames
            yield f"{model.model_kind} n={n}", patch, DistanceField(model, origin), frames


def test_spectral_contractions_match_newton_recursion():
    # L_k u, <grad u, P_k grad u> and Tr P_k from the spectra of P_k agree
    # with the same contractions of the recursion's matrices
    for label, patch, field, frames in spectral_oracle_cases():
        s = restrict_field(patch, field, frames)
        L, P = newton_oracle(frames, frames.signature)
        hess = congruent(L, s.hess)
        v = (np.swapaxes(L, -1, -2) @ s.grad[..., None])[..., 0]
        for k in range(patch.n):
            size = np.abs(P[k]).max(axis=(-2, -1))
            checks = (
                (trace_operator(s, k), np.trace(P[k] @ hess, axis1=-2, axis2=-1),
                 size * np.abs(hess).max(axis=(-2, -1))),
                (newton_quadratic(s, k), np.vecdot((v[:, None, :] @ P[k])[:, 0], v),
                 size * np.vecdot(v, v)),
                (frames.newton_trace(k), np.trace(P[k], axis1=-2, axis2=-1), size),
            )
            for got, want, scale in checks:
                err = np.abs(got - want) / np.maximum(1.0, patch.n * scale)
                assert err.max() < 1e-13, (label, k, err.max())


def test_restriction_evaluates_the_distance_once(monkeypatch):
    # a restriction evaluates the distance once, on the frame's rows; on the
    # frame frame_at keeps, the distance to the patch's center in its model
    # reads the distances that oriented the frame's normal, and none is evaluated
    calls = []
    distance_rows = spaceform.distance_rows

    def counted(model, o, x):
        calls.append(np.shape(x))
        return distance_rows(model, o, x)

    patch = ellipsoid_patch()
    p = interior_points(patch, np.random.default_rng(3), 1)[0]
    kept = frame_at(patch, p)
    unkept, grid = frames_at(patch, p[None])[0], sample_grid(patch, 8).frames
    monkeypatch.setattr(spaceform, "distance_rows", counted)
    center = DistanceField(E3, np.zeros(3))
    for field in (center, phi_of_distance_field(E3, np.zeros(3), 0.0),
                  DistanceField(E3, [0.1, 0.0, 0.0]), DistanceField(M3, np.zeros(3))):
        for frame in (kept, unkept, grid):
            before = len(calls)
            sample = restrict_field(patch, field, frame)
            if field is center and frame is kept:
                assert calls[before:] == []
                fresh = restrict_field(patch, field, dataclasses.replace(frame))
                for spec in dataclasses.fields(FieldSample):
                    if spec.name not in ("frame", "errors", "comparison"):
                        assert (getattr(sample, spec.name).tobytes()
                                == getattr(fresh, spec.name).tobytes()), spec.name
                assert sample.comparison[1].tobytes() == fresh.comparison[1].tobytes()
            else:
                assert calls[before:] == [frame.position.shape]


def test_a_probe_point_takes_its_distance_gradient_and_c_b_once(monkeypatch):
    # on a centered patch the five calls at one point make one gradient_rows
    # call, on p's row, as the frame orients its normal, and the FD oracle one
    # distance_rows call, on its 9-row stencil; k = 0 and 1 at the ambient b
    # share the C_b of the restriction.  Another origin or another b adds its own
    patch = ellipsoid_patch()
    p, o = interior_points(patch, np.random.default_rng(5), 1)[0], patch.center
    field = DistanceField(E3, o)
    gradients = [counted(monkeypatch, immersion, "gradient_rows"),
                 counted(monkeypatch, spaceform, "gradient_rows")]
    distances = [counted(monkeypatch, spaceform, "distance_rows"),
                 counted(monkeypatch, operators, "distance_rows")]
    comparisons = [counted(monkeypatch, spaceform, "c_b"), counted(monkeypatch, operators, "c_b")]

    def shapes(lists):
        return sorted(np.shape(args[2]) for calls in lists for args in calls)  # x's shape

    restriction_hessian(patch, o, p)
    for k in (0, 1):
        key_inequality_residual(patch, p, k, origin=o)
        l_k_apply(patch, p, k, field)
    assert shapes(gradients) == [(1, 3)]
    assert shapes(distances) == [(1, 3), (9, 3)]  # p's row in gradient_rows, the stencil
    assert len(comparisons[0]) + len(comparisons[1]) == 1
    # another origin: its own gradient and C_b, shared by k = 0 and 1
    other = np.array([0.1, 0.0, 0.0])
    for k in (0, 1):
        key_inequality_residual(patch, p, k, origin=other)
    assert shapes(gradients) == [(1, 3), (3,)]
    assert len(comparisons[0]) + len(comparisons[1]) == 2
    # another b: one c_b call per call, on u
    residuals = [key_inequality_residual(patch, p, k, b=1.0) for k in (0, 1)]
    assert len(comparisons[0]) + len(comparisons[1]) == 4
    assert shapes(gradients) == [(1, 3), (3,)]
    sample = restriction_at(patch, p, field)
    for k, residual in zip((0, 1), residuals):
        rhs = key_inequality_rhs(dataclasses.replace(sample, comparison=None), k, 1.0)
        assert residual == float(trace_operator(sample, k) - rhs)
        assert residual != key_inequality_residual(patch, p, k)


def test_repeated_key_inequality_reuses_the_frame_and_its_directions(monkeypatch):
    # one probe point's five calls factor the metric once, take kappa in closed
    # form and one eigenbasis for the principal directions, read the chart jets
    # once, on the oracle's stencil, whose row 0 is the frame's, and copy the frame's
    # congruence R nowhere: the kernels' samples-last form of a row's R is a view
    patch = ellipsoid_patch()
    p, o = interior_points(patch, np.random.default_rng(5), 1)[0], np.zeros(3)
    field = DistanceField(E3, o)
    calls = {name: counted(monkeypatch, np.linalg, name)
             for name in ("cholesky", "solve", "det", "eigvalsh", "eigh")}
    calls["ldl"] = counted(monkeypatch, immersion, "ldl")
    calls["jet_at"] = counted(monkeypatch, HypersurfacePatch, "jet_at")
    forms, samples_last = [], immersion._samples_last  # (input, samples-last form)

    def recorded(a, core=2):
        forms.append((a, samples_last(a, core)))
        return forms[-1][1]

    monkeypatch.setattr(immersion, "_samples_last", recorded)
    restriction_hessian(patch, o, p)
    for k in (0, 1):
        key_inequality_residual(patch, p, k, origin=o)
        l_k_apply(patch, p, k, field)
    assert {name: len(c) for name, c in calls.items()} == {
        "cholesky": 0, "solve": 0, "det": 0, "eigvalsh": 0, "eigh": 1, "ldl": 1, "jet_at": 1}
    assert [np.shape(q) for _, q in calls["jet_at"]] == [(9, 2)]
    R = frame_at(patch, p).congruence
    of_R = [form for a, form in forms if a is R]
    assert of_R and all(np.shares_memory(form, R) for form in of_R)
    # a repeated call runs none of them
    first = key_inequality_residual(patch, p, 1, origin=o)
    before = {name: len(c) for name, c in calls.items()}
    assert key_inequality_residual(patch, p, 1, origin=o) == first
    assert {name: len(c) for name, c in calls.items()} == before


def probe_patches():
    """The charts of the single-point probes, each with its reference point."""
    S3, H3 = AmbientModel.sphere(1.0, 3), AmbientModel.hyperbolic(-1.0, 3)
    yield pytest.param(ellipsoid_patch(), np.zeros(3), id="ellipsoid")
    for label, model, radius in (("S3", S3, 0.7), ("H3", H3, 1.1)):
        o = model.base_point()
        patch = build_patch(model, "geodesic_sphere", {"radius": radius}, center=o)
        yield pytest.param(patch, o, id=f"{label}-geodesic-sphere")
    patch = build_patch(M3, "perturbed_hyperboloid", {"radius": 2.0})
    yield pytest.param(patch, np.zeros(3), id="perturbed-hyperboloid")


@pytest.mark.parametrize("patch, o", probe_patches())
def test_single_point_calls_on_a_kept_frame_are_bit_identical(monkeypatch, patch, o):
    # the five calls at one probe point read the chart jets once, on the oracle's
    # stencil, build the frame once from its row 0 (and sign its S_k table there,
    # once), restrict the distance once, and each reads the bits of the same call
    # on a copy of the patch that has kept no frame; the FD oracle runs on every
    # restriction_hessian call
    patch = dataclasses.replace(patch)  # one that has kept nothing from other tests
    calls = {name: counted(monkeypatch, owner, name) for owner, name in (
        (immersion, "_frames_at"), (operators, "restrict_field"),
        (operators, "_christoffel_hessian"), (immersion, "signed_values"),
        (HypersurfacePatch, "jet_at"))}
    field = DistanceField(patch.ambient, o)
    points = interior_points(patch, np.random.default_rng(15), 5)
    for p in points:
        for fn, *args in ((restriction_hessian, o, p),
                          (key_inequality_residual, p, 0, None, o), (l_k_apply, p, 0, field),
                          (key_inequality_residual, p, 1, None, o), (l_k_apply, p, 1, field)):
            kept, fresh = fn(patch, *args), fn(dataclasses.replace(patch), *args)
            assert np.asarray(kept).tobytes() == np.asarray(fresh).tobytes(), fn.__name__
    # one of each per point on the kept patch; one per call on the fresh copies
    n = len(points)
    assert {name: len(c) for name, c in calls.items()} == {
        "_frames_at": n + 5 * n, "restrict_field": n + 5 * n,
        "_christoffel_hessian": n + n, "signed_values": n + 5 * n, "jet_at": n + 5 * n}
    for name in ("_frames_at", "restrict_field", "_christoffel_hessian", "jet_at"):
        assert sum(args[0] is patch for args in calls[name]) == n, name
    restriction_hessian(patch, o, points[-1])  # a repeated call runs the oracle again
    assert sum(args[0] is patch for args in calls["_christoffel_hessian"]) == n + 1
    assert sum(args[0] is patch for args in calls["jet_at"]) == n + 1


@contextlib.contextmanager
def recorded_oracle():
    """The FD Hessians the oracle behind restriction_hessian returns, while the block runs."""
    results, oracle = [], operators._christoffel_hessian

    def recording(*args):
        results.append(oracle(*args))
        return results[-1]

    operators._christoffel_hessian = recording
    try:
        yield results
    finally:
        operators._christoffel_hessian = oracle


def probe_point(patch, kind, fractions, axis, high):
    """A point of ``patch`` of one kind: inside the box, with a -0.0 coordinate, within
    one FD step of an edge that does not wrap, or on the seam of an axis that wraps."""
    lo, hi, width, steps = patch.domain_lo, patch.domain_hi, patch.domain_width, patch._fd_steps
    p = lo + (0.1 + 0.8 * np.array(fractions)) * width
    if kind == "negative zero":
        axes = np.flatnonzero((lo <= 0.0) & (hi > 0.0))
        assume(len(axes))
        p[axes[axis % len(axes)]] = -0.0
    elif kind == "edge":
        axes = np.flatnonzero(~patch.wraps)
        a = axes[axis % len(axes)]
        p[a] = hi[a] - fractions[a] * steps[a] if high else lo[a] + fractions[a] * steps[a]
    elif kind == "seam":
        axes = np.flatnonzero(patch.wraps)
        assume(len(axes))
        a = axes[axis % len(axes)]
        p[a] = hi[a] if high else lo[a]
    return p


@pytest.mark.parametrize("jets", ["auto", "fd"])
@pytest.mark.parametrize("patch, o", probe_patches())
@settings(max_examples=12)
@given(kind=st.sampled_from(["inside", "negative zero", "edge", "seam"]),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       axis=st.integers(0, 1), high=st.booleans())
@example(kind="negative zero", fractions=[0.5, 0.5], axis=0, high=False)
@example(kind="negative zero", fractions=[0.5, 0.5], axis=1, high=False)
@example(kind="seam", fractions=[0.3, 0.5], axis=0, high=True)
def test_restriction_hessian_builds_the_frame_of_frame_at_from_the_stencil_row(
        patch, o, jets, kind, fractions, axis, high):
    # the frame restriction_hessian builds from row 0 of the oracle's stencil is
    # frame_at's own, field by field, signed zeros included, and the oracle's FD
    # Hessian is intrinsic_hessian_fd's on its own call
    patch = dataclasses.replace(patch, jets=jets)  # one that has kept nothing
    p = probe_point(patch, kind, fractions, axis, high)
    with recorded_oracle() as fd:
        restriction_hessian(patch, o, p)
    built, own = frame_at(patch, p), frame_at(dataclasses.replace(patch), p)
    assert built.signature == own.signature
    for name in ROW_FIELDS:
        a, b = getattr(built, name), getattr(own, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    field = DistanceField(patch.ambient, o)

    def rho(x):
        return spaceform.distance_rows(field.model, field.origin, x)[0]

    standalone = intrinsic_hessian_fd(dataclasses.replace(patch), rho, p)
    assert len(fd) == 1 and fd[0].tobytes() == standalone.tobytes()


def first_error(call, *args):
    """(type, message) of the error ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except GeometryError as exc:
        return type(exc), str(exc)
    return None


def staged_error(patch, o, p):
    """The first error of restriction_hessian's three stages, each called on its own:
    the frame, the restriction of the distance, the FD oracle."""
    field = DistanceField(patch.ambient, o)

    def rho(x):
        values, errors = spaceform.distance_rows(field.model, field.origin, x)
        raise_first(errors)
        return values

    return (first_error(frame_at, dataclasses.replace(patch), p)
            or first_error(restriction_at, dataclasses.replace(patch), p, field)
            or first_error(intrinsic_hessian_fd, dataclasses.replace(patch), rho, p))


def tabulated_sphere(tmp_path):
    """(patch, node): the unit sphere tabulated on a 9 x 9 grid with jets, and one of its nodes."""
    sphere = build_chart(E3, "sphere", {"radius": 1.0})
    path = tmp_path / "sphere.csv"
    write_chart_csv(sphere, *sphere.default_domain(), 9, path, include_jets=True)
    table = build_patch(E3, "tabulated", {"path": str(path)}, center=np.zeros(3))
    return table, np.array([table.chart.axes[0][4], table.chart.axes[1][3]])


def test_restriction_hessian_raises_the_frame_then_the_restriction_then_the_oracle(tmp_path):
    # one chart call on the oracle's stencil gives the frame its row, but the
    # errors keep their order: a tabulated patch has no jets on the stencil
    # (an oracle error), a point outside the box no frame and a point on the
    # reference point no distance gradient (a restriction error)
    table, node = tabulated_sphere(tmp_path)
    at_node = table.chart.value(node)
    cases = [
        (table, np.zeros(3), node, DomainError, "not tabulated"),
        (table, np.zeros(3), node + 0.01, DomainError, "not tabulated"),
        (table, np.zeros(3), np.array([5.0, 1.0]), DomainError, "outside the patch domain"),
        (table, at_node, node, UndefinedGradientError, None),
        (ellipsoid_patch(), np.zeros(3), np.array([5.0, 1.0]), DomainError, "outside the patch"),
        (ellipsoid_patch(), EllipsoidChart(np.zeros(3), np.array([0.6, 1.0, 1.0])).value(
            np.array([1.0, 2.0])), np.array([1.0, 2.0]), UndefinedGradientError, None),
    ]
    for patch, o, p, kind, message in cases:
        want = staged_error(patch, o, p)
        assert want is not None and want[0] is kind and (message is None or message in want[1])
        assert first_error(restriction_hessian, dataclasses.replace(patch), o, p) == want
        kept = dataclasses.replace(patch)  # the same on a patch that keeps p's frame
        if first_error(frame_at, kept, p) is None:
            assert first_error(restriction_hessian, kept, o, p) == want


@pytest.mark.parametrize("origin", ["center", "node"])
def test_restriction_hessian_evaluates_a_failing_stencil_once(tmp_path, monkeypatch, origin):
    # at a table node the oracle's stencil has no jets: its one chart call
    # raises, p's frame takes a one-row call of its own, and the oracle raises
    # the stencil's error without a third call; an origin at the node stops
    # the call at the restriction, after the same two chart calls
    table, node = tabulated_sphere(tmp_path)
    o = np.zeros(3) if origin == "center" else table.chart.value(node)
    want = staged_error(table, o, node)
    calls = counted(monkeypatch, HypersurfacePatch, "jet_at")
    assert first_error(restriction_hessian, table, o, node) == want
    assert [np.shape(q) for _, q in calls] == [(9, 2), (1, 2)]
    assert want[0] is (DomainError if origin == "center" else UndefinedGradientError)


def test_the_principal_frame_contractions_are_kept_read_only_on_the_sample():
    # a sample's Hessian diagonal and gradient squares in the principal frame
    # are computed once, on first use, and the contractions at every k read them
    patch, p = ellipsoid_patch(), np.array([1.0, 2.0])
    field = DistanceField(E3, np.zeros(3))
    for sample in (restriction_at(patch, p, field),
                   restrict_field(patch, field, sample_grid(patch, 8).frames)):
        assert "hess_diagonal" not in vars(sample) and "grad_squares" not in vars(sample)
        lk = [trace_operator(sample, k) for k in range(3)]
        quad = [newton_quadratic(sample, k) for k in range(3)]
        diagonal, squares = sample.hess_diagonal, sample.grad_squares
        assert [trace_operator(sample, k).tobytes() for k in range(3)] == [a.tobytes() for a in lk]
        assert [newton_quadratic(sample, k).tobytes() for k in range(3)] == [
            a.tobytes() for a in quad]
        assert sample.hess_diagonal is diagonal and sample.grad_squares is squares
        E = sample.frame.principal
        assert diagonal.tobytes() == np.vecdot(E, sample.hess @ E, axis=-2).tobytes()
        for a in (diagonal, squares):
            assert a.shape == sample.u.shape + (2,)
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.hess_diagonal = 2.0 * diagonal


def test_operator_data_rejects_an_unknown_signature():
    frame = frame_at(ellipsoid_patch(), np.array([1.0, 2.0]))
    assert operator_data(frame, "riemannian") is frame
    assert operator_data(frame, "lorentzian").H[1] == -frame.H[1]
    for signature in ("Riemannian", "euclidean", None):
        with pytest.raises(DomainError, match="signature"):
            operator_data(frame, signature)


def test_contractions_reject_orders_outside_their_range():
    # Tr P_k and the key inequality's right-hand side take k in 0..n-1, the
    # others k in 0..n; a negative order would read P_{n+1+k}'s row
    patch, p = ellipsoid_patch(), np.array([1.0, 2.0])
    sample = restriction_at(patch, p, DistanceField(E3, np.zeros(3)))
    frame, n = sample.frame, patch.n
    calls = {
        "newton_trace": (frame.newton_trace, n - 1),
        "key_inequality_rhs": (lambda k: key_inequality_rhs(sample, k, 0.0), n - 1),
        "newton_psd_margin": (frame.newton_psd_margin, n),
        "trace_operator": (lambda k: trace_operator(sample, k), n),
        "newton_quadratic": (lambda k: newton_quadratic(sample, k), n),
    }
    for name, (call, top) in calls.items():
        for k in range(top + 1):
            assert np.isfinite(call(k)), (name, k)
        for k in (-1, -2, top + 1, 1.5, True):
            with pytest.raises(DomainError, match=r"outside 0\.\."):
                call(k)


def test_fields_hold_read_only_copies_and_the_kept_restriction_stays_valid():
    patch = ellipsoid_patch()
    p, o = np.array([1.0, 2.0]), np.array([0.1, 0.0, 0.0])
    field = DistanceField(E3, o)
    kept = restriction_at(patch, p, field)
    o[0] = 5.0
    assert restriction_at(patch, p, field) is kept
    fresh = restriction_at(dataclasses.replace(patch), p, DistanceField(E3, [0.1, 0.0, 0.0]))
    for name in ("u", "grad", "grad_norm_sq", "normal_coef", "hess"):
        assert getattr(kept, name).tobytes() == getattr(fresh, name).tobytes(), name
    for a in (field.origin, kept.hess, kept.grad, kept.frame.H, kept.frame.newton_eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.0
    coefficients = np.array([0.0, 0.0, 1.0])
    height = LinearCoordinateField(E3, coefficients)
    assert not np.shares_memory(height.coefficients, coefficients)
    with pytest.raises(ValueError, match="read-only"):
        height.coefficients[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.origin = o


def test_a_kept_sample_cannot_be_rebound():
    # restriction_at keeps the sample beside the patch's last frame, so a field
    # rebound on it would change every later call at that point
    patch = ellipsoid_patch()
    p, field = np.array([1.0, 2.0]), DistanceField(E3, [0.1, 0.0, 0.0])
    before = l_k_apply(patch, p, 1, field)
    kept = restriction_at(patch, p, field)
    skewed = dataclasses.replace(kept.frame, H=2.0 * kept.frame.H)
    for spec in dataclasses.fields(FieldSample):
        value = getattr(kept, spec.name)
        if spec.name == "frame":
            other = skewed
        elif spec.name == "comparison":  # (k, C_k(u))
            other = (value[0], 2.0 * value[1])
        else:
            other = value if value.dtype == object else 2.0 * value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(kept, spec.name, other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(kept, spec.name)
    assert restriction_at(patch, p, field) is kept
    assert l_k_apply(patch, p, 1, field) == before
    with pytest.raises(ValueError, match="read-only"):
        kept.comparison[1][...] = 0.0


def test_fields_are_equal_by_value():
    o = AmbientModel.sphere(1.0, 3).base_point()
    S3 = AmbientModel.sphere(1.0, 3)
    assert DistanceField(S3, o) == DistanceField(S3, list(o))
    assert hash(DistanceField(S3, o)) == hash(DistanceField(S3, o.copy()))
    assert DistanceField(S3, o) != DistanceField(S3, -o)
    assert DistanceField(E3, np.zeros(3)) != LinearCoordinateField(E3, np.zeros(3))
    composed = phi_of_distance_field(E3, np.zeros(3), 0.0)
    assert composed == dataclasses.replace(composed)
    assert composed != phi_of_distance_field(E3, np.zeros(3), 0.0)  # other phi objects


class SkewedEllipsoidChart(EllipsoidChart):
    """An ellipsoid whose analytic second derivatives are a fraction SKEW too large."""

    SKEW = 0.03

    def jet(self, p):
        x, d1, d2 = super().jet(p)
        return x, d1, (1.0 + self.SKEW) * d2


class SlightlySkewedEllipsoidChart(SkewedEllipsoidChart):
    SKEW = 3e-4


def test_restriction_hessian_raises_on_a_wrong_second_jet_on_every_call():
    # the identity route reads the chart's d2, the FD route only positions and
    # first derivatives: 3% off is far above the 1e-4 bar, and far below 1
    chart = SkewedEllipsoidChart(np.zeros(3), np.ones(3))
    patch = HypersurfacePatch(chart, E3, "inner", *chart.default_domain(), center=np.zeros(3))
    p = np.array([1.0, 2.0])
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            restriction_hessian(patch, np.zeros(3), p)
    assert patch._last_frame  # the frame and the restriction were kept


def test_restriction_hessian_bar_lies_between_fd_error_and_a_wrong_jet():
    # on an ellipsoid with semi-axes 0.1, 1 and 20 the FD truncation error of
    # right jets reaches 2.9e-5 of the Hessian's scale, which passes the 1e-4
    # bar; a second jet 3e-4 too large on the unit sphere raises
    def patch_of(chart):
        return HypersurfacePatch(chart, E3, "inner", *chart.default_domain(), center=np.zeros(3))

    eccentric = patch_of(EllipsoidChart(np.zeros(3), np.array([0.1, 1.0, 20.0])))
    restriction_hessian(eccentric, np.zeros(3), np.array([1.2, 6.2]))
    with pytest.raises(ConsistencyError):
        restriction_hessian(patch_of(SlightlySkewedEllipsoidChart(np.zeros(3), np.ones(3))),
                            np.zeros(3), np.array([1.0, 2.0]))


def test_undefined_and_violating_points_raise_on_every_call():
    patch = ellipsoid_patch()
    p = np.array([1.0, 2.0])
    x = frame_at(patch, p).position
    calls = ((restriction_hessian, x, p), (key_inequality_residual, p, 0, None, x),
             (l_k_apply, p, 0, DistanceField(E3, x)))
    for _ in range(2):
        for fn, *args in calls:
            with pytest.raises(UndefinedGradientError):
                fn(patch, *args)
    saddle = build_patch(E3, "graph", {"terms": [[1.0, [2, 0]], [-1.0, [0, 2]]],
                                       "box_lo": [-1, -1], "box_hi": [1, 1]})
    q = np.array([0.1, 0.2])
    assert frame_at(saddle, q).newton_psd_margin(1) < -1e-3
    for _ in range(2):
        with pytest.raises(HypothesisViolationError, match="P_1"):
            key_inequality_residual(saddle, q, 1, origin=np.array([0.0, 0.0, 2.0]))


def order_cases():
    """(call, args, kwargs) of each single-point call at an order outside its range, on a
    surface (n = 2): L_k for k in 0..n, the key inequality and the search for k in 0..n-1,
    each an integer (a bool is not)."""
    field = DistanceField(E3, np.zeros(3))
    p = np.array([1.0, 2.0])
    for k in (-2, -1, 3, 1.5, True):
        yield pytest.param(l_k_apply, (p, k, field), {}, id=f"l_k_apply-k={k}")
    for k in (-1, 2, 0.5, True, np.float64(1.0)):
        yield pytest.param(key_inequality_residual, (p, k), {}, id=f"key_inequality-k={k}")
        yield pytest.param(omori_yau_search, (field, k), {}, id=f"search-k={k}")
    # the order is checked before the point (here it has no frame) and the grid
    outside = np.array([5.0, 2.0])
    yield pytest.param(l_k_apply, (outside, 3, field), {}, id="l_k_apply-k=3-outside")
    yield pytest.param(key_inequality_residual, (outside, 2), {}, id="key_inequality-k=2-outside")
    yield pytest.param(omori_yau_search, (field, 2), {"resolution": 1}, id="search-k=2-resolution=1")
    for j_max in (0, -1, 2.5, True):  # a fractional count or a bool is not a count
        yield pytest.param(omori_yau_search, (field, 0), {"j_max": j_max},
                           id=f"search-j_max={j_max}")


@pytest.mark.parametrize("call, args, kwargs", order_cases())
def test_orders_outside_their_range_raise_domain_error(call, args, kwargs):
    # a negative order would read P_{n+1+k}'s row and a large one a row that is
    # not there; both are rejected where the order enters
    with pytest.raises(DomainError, match=r"outside 0\.\."):
        call(ellipsoid_patch(), *args, **kwargs)


def plane_patch():
    """The flat graph z = 0 over [-1, 1]^2, without a center: H_1 = 0 everywhere."""
    return build_patch(E3, "graph", {"terms": [[0.0, [1, 0]]], "box_lo": [-1, -1],
                                     "box_hi": [1, 1]})


# (call, message) of each single-point or search call that has nothing to work on
NO_INPUT_ERRORS = {
    "key-inequality-without-an-origin": (
        lambda: key_inequality_residual(plane_patch(), np.zeros(2), 0), "no reference point"),
    "search-where-every-trace-vanishes": (
        lambda: omori_yau_search(plane_patch(), DistanceField(E3, np.array([0.0, 0.0, 1.0])), 1,
                                 resolution=6), "no valid samples"),
}


@pytest.mark.parametrize("case", NO_INPUT_ERRORS)
def test_calls_without_input_raise_geometry_errors(case):
    call, message = NO_INPUT_ERRORS[case]
    with pytest.raises(GeometryError, match=message):
        call()


def test_orders_at_the_ends_of_their_range_are_accepted():
    patch, p, field = ellipsoid_patch(), np.array([1.0, 2.0]), DistanceField(E3, np.zeros(3))
    assert l_k_apply(patch, p, 2, field) == 0.0  # P_n = 0
    assert np.isfinite(l_k_apply(patch, p, 0, field))
    assert key_inequality_residual(patch, p, 1) >= -1e-9
    assert l_k_apply(patch, p, np.int64(1), field) == l_k_apply(patch, p, 1, field)
    assert key_inequality_residual(patch, p, np.int64(1)) == key_inequality_residual(patch, p, 1)
    report = omori_yau_search(patch, phi_of_distance_field(E3, np.zeros(3), 0.0), 1,
                              resolution=8, j_max=1, rounds=2)
    assert [o.j for o in report.outcomes] == [1]
    report = omori_yau_search(patch, phi_of_distance_field(E3, np.zeros(3), 0.0), 1,
                              resolution=np.int64(8), j_max=np.int64(2), rounds=2)
    assert [o.j for o in report.outcomes] == [1, 2]


def test_kept_frames_and_their_copies_are_read_only():
    # frames_at marks its batch read-only, so a grid, a scenario's kept grid,
    # every row frame and the other-signature copy of operator_data follow the rule
    patch = ellipsoid_patch()
    grid = sample_grid(patch, 8)
    report = run_scenario(load_scenario(bundled_scenarios()["ellipsoid"]))
    records = [grid.frames, report.samples.frames, *(frame for _, frame in grid.points),
               frames_at(patch, grid.frames.param[:3])[0], frame_at(patch, grid.frames.param[4])]
    records += [operator_data(frame, "lorentzian") for frame in records[:3]]
    for record in records:
        arrays = [getattr(record, f.name) for f in dataclasses.fields(record)
                  if f.name != "signature"]
        assert not any(a.flags.writeable for a in (*arrays, record.principal))


def test_two_origins_at_one_point_give_two_restrictions():
    S3 = AmbientModel.sphere(1.0, 3)
    o = S3.base_point()
    patch = build_patch(S3, "geodesic_sphere", {"radius": 0.7}, center=o)
    origins = [o, geodesic_point(S3, o, np.eye(4)[1], 0.3)]
    p = interior_points(patch, np.random.default_rng(4), 1)[0]
    for _ in range(2):
        for origin in origins:
            for k in (0, 1):
                kept = key_inequality_residual(patch, p, k, origin=origin)
                fresh = key_inequality_residual(dataclasses.replace(patch), p, k, origin=origin)
                assert kept == fresh
                assert l_k_apply(patch, p, k, DistanceField(S3, origin)) == l_k_apply(
                    dataclasses.replace(patch), p, k, DistanceField(S3, origin))
    samples = [restriction_at(patch, p, DistanceField(S3, origin)) for origin in origins]
    assert not np.array_equal(samples[0].hess, samples[1].hess)


def test_an_origin_is_validated_once_where_it_enters(monkeypatch):
    # a field validates its origin when it is built and a patch its center;
    # frames and single-point calls on a kept frame check neither again, and
    # the calls that take an origin build its field once per patch
    patch = ellipsoid_patch()
    o = np.array([0.1, 0.0, 0.0])
    checked = counted(monkeypatch, AmbientModel, "point_errors")

    def count(a):
        return sum(np.array_equal(x, a) for _, x in checked)

    field = DistanceField(E3, o)
    assert count(o) == 1
    checked.clear()
    for point in (np.array([1.0, 2.0]), np.array([1.2, 2.0])):
        frame_at(patch, point)
        for k in (0, 1):
            l_k_apply(patch, point, k, field)
        restriction_hessian(patch, o, point)
        key_inequality_residual(patch, point, 0, origin=o.copy())
    assert count(o) == 1  # the raw origin, as the patch builds its field
    assert count(patch.center) == 0



# -- extremum-sequence search ---------------------------------------------------------


@pytest.mark.parametrize("rounds", [-1, 0.5, True])
def test_search_rounds_must_be_a_non_negative_integer(rounds):
    height = LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError, match="rounds"):
        omori_yau_search(ellipsoid_patch(), height, 0, resolution=8, rounds=rounds)


def test_search_on_unit_sphere_height():
    patch = build_patch(E3, "sphere", {"radius": 1.0}, center=np.zeros(3))
    height = LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
    report = omori_yau_search(patch, height, 0, resolution=24, j_max=6, rounds=20)
    assert report.all_found
    # 24 * 23 grid rows (the longitude wraps) and 4 stencils of 25, the start
    # the first one's middle row: each round quarters the cell, and the fourth
    # one's fit predicts no gain
    assert report.evaluations == 24 * 23 + 4 * 25
    assert report.u_star == pytest.approx(1.0, abs=1e-9)
    assert report.refined_max.grad_norm < 1e-6
    assert report.refined_max.q_lu <= 1e-6
    assert report.refined_max.q_lu == pytest.approx(-1.0, abs=1e-6)  # q Lu = -z at the top


def test_search_stops_where_its_fit_predicts_no_gain(monkeypatch):
    # the 20 rounds allowed are not spent: the refinement ends at the peak of
    # the height, to its last bit, once its fit's predicted gain is under an ulp
    patch = build_patch(E3, "sphere", {"radius": 1.0}, center=np.zeros(3))
    height = LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
    rows = counted(monkeypatch, operators, "_evaluate_rows")
    report = omori_yau_search(patch, height, 0, resolution=24, rounds=20)
    assert len(rows) == 5  # the grid and 4 stencils
    assert report.evaluations == 24 * 23 + 4 * 25
    assert report.u_star == 1.0
    assert report.refined_max.grad_norm < 1e-12


def test_search_grid_samples_each_point_once(monkeypatch):
    patch = build_patch(E3, "sphere", {"radius": 1.0}, center=np.zeros(3))
    height = LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
    rows = counted(monkeypatch, operators, "_evaluate_rows")
    omori_yau_search(patch, height, 0, resolution=12, rounds=0)
    grid = rows[0][3]  # the coarse grid, before the refinement's start point
    assert len(grid) == 12 * 11  # the longitude wraps: 11 nodes
    assert coincident_rows(patch.chart.value(grid)) == []


def test_search_trivial_for_constant_function():
    patch = build_patch(E3, "geodesic_sphere", {"radius": 1.0}, center=np.zeros(3))
    report = omori_yau_search(patch, DistanceField(E3, np.zeros(3)), 0, resolution=10, j_max=6)
    assert report.all_found
    for outcome in report.outcomes:
        assert outcome.candidate.grad_norm < 1e-9
        assert abs(outcome.candidate.q_lu) < 1e-9


def test_search_reports_failure_without_raising():
    # height restricted to a band that excludes its maximum: the gradient
    # condition must eventually fail and be reported, not raised
    patch = build_patch(
        E3,
        "sphere",
        {"radius": 1.0},
        center=np.zeros(3),
        domain=([0.3, 0.2], [np.pi - 0.3, 1.0]),
    )
    height = LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
    report = omori_yau_search(patch, height, 0, resolution=12, j_max=6, rounds=6)
    failed = [o for o in report.outcomes if o.candidate is None]
    assert failed
    assert all(o.best_violation > 0 for o in failed)


def test_search_counts_skipped_rows():
    # the distance field has no gradient at its own origin, grid row 37
    patch = build_patch(E3, "sphere", {"radius": 1.0}, center=np.zeros(3))
    origin = patch.chart.value(grid_points(grid_axes(patch.domain_lo, patch.domain_hi, 10))[37])
    report = omori_yau_search(patch, DistanceField(E3, origin), 0, resolution=10, rounds=4)
    # 10 * 9 grid rows (the longitude wraps) but the origin's and 2 quartering
    # stencils of 25, the start the first one's middle row
    assert (report.skipped, report.excluded, report.evaluations) == (1, 0, 10 * 9 - 1 + 2 * 25)


def test_search_counts_excluded_rows():
    # on z = x^3, Tr P_1 = c_1 H_1 is not positive on the 5 grid columns with
    # x <= 0; L_1 u is divided by Tr P_1 only on the other rows
    patch = build_patch(E3, "graph", {"terms": [[1.0, [3, 0]]], "box_lo": [-1, -1],
                                      "box_hi": [1, 1]})
    height = LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = omori_yau_search(patch, height, 1, resolution=9)
    assert (report.excluded, report.skipped) == (45, 0)


def test_search_reproduces_ratio_bound_on_ellipsoid(rng):
    # drive L_1 with phi_0(rho): candidates pile up where the ellipsoid
    # touches its enclosing sphere, and the measured ratio dominates C_0(r)
    patch = ellipsoid_patch()
    composed = phi_of_distance_field(E3, np.zeros(3), 0.0)
    report = omori_yau_search(patch, composed, 1, resolution=16, j_max=4, rounds=12)
    assert report.all_found
    assert abs(report.refined_max.param[0] - np.pi / 2) < 0.2  # equator touches
    grid = sample_grid(patch, 16)
    dist = DistanceField(E3, np.zeros(3))
    ratios, radii = [], []
    for p, frame in grid.points:
        data = operator_data(frame, "riemannian")
        ratios.append(data.H[2] / data.H[1])
        radii.append(dist.jet(frame.position)[0])
    r = max(radii)
    assert c_b(0.0, r) - max(ratios) <= 1e-9


def test_search_skips_rows_beyond_comparison_radius():
    # C_1(rho) = cot(rho) is undefined from rho = pi/2 on: the 27 coarse-grid
    # rows that far from the reference point are skipped, not fatal
    model = AmbientModel.sphere(1.0, 3)
    patch = build_patch(model, "geodesic_sphere", {"radius": 0.7}, center=model.base_point())
    far = geodesic_point(model, model.base_point(), np.eye(4)[1], 1.2)
    field = DistanceField(model, far)
    report = omori_yau_search(patch, field, 0, resolution=10, rounds=2)
    assert (report.skipped, report.excluded) == (27, 0)
    assert report.u_star < np.pi / 2
    frames, _ = frames_at(patch, patch.grid(10)[0])
    beyond = frames.param[np.vecdot(frames.position, far) <= 0.0]
    assert len(beyond) == 27
    with pytest.raises(DomainError):
        l_k_apply(patch, beyond[0], 0, field)
