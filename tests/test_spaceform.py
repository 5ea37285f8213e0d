"""Distance machinery of the constant-curvature models."""

import dataclasses

import numpy as np
import pytest

from curvbound.errors import DomainError, UndefinedGradientError, failed
from curvbound.spaceform import (
    AmbientModel,
    ReferenceBall,
    ambient_distance,
    distance_rows,
    gradient_rows,
)

from conftest import (
    all_models,
    random_point_at,
    random_tangent,
    rho_range,
    unit_radial,
)
from oracles import (
    distance_gradient,
    distance_hessian_bilinear,
    distance_hessian_quadform,
    fd_distance_hessian_quadform,
    geodesic_point,
    geodesic_velocity,
    hessian_comparison_residual,
)


# -- distances ---------------------------------------------------------------


def test_euclidean_distance_pythagoras():
    model = AmbientModel.euclidean(2)
    assert ambient_distance(model, np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_minkowski_distance():
    model = AmbientModel.minkowski(2)
    assert ambient_distance(model, np.zeros(2), np.array([5.0, 3.0])) == pytest.approx(4.0)


def test_sphere_distance_is_arc_length():
    model = AmbientModel.sphere(1.0, 2)
    o = np.array([1.0, 0.0, 0.0])
    x = np.array([np.cos(1.0), np.sin(1.0), 0.0])
    assert ambient_distance(model, o, x) == pytest.approx(1.0, abs=1e-12)


def test_sphere_antipodal_rejected():
    model = AmbientModel.sphere(1.0, 2)
    o = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        ambient_distance(model, o, -o)


def test_minkowski_chronology_guards():
    model = AmbientModel.minkowski(2)
    o = np.zeros(2)
    with pytest.raises(DomainError):
        ambient_distance(model, o, np.array([1.0, 2.0]))  # spacelike related
    with pytest.raises(DomainError):
        ambient_distance(model, o, np.array([-2.0, 0.5]))  # past


def test_distance_along_radial_geodesics_all_models(rng):
    for model in all_models():
        o = model.base_point()
        lo, hi = rho_range(model)
        for _ in range(20):
            v = unit_radial(model, o, rng)
            t = lo + (hi - lo) * rng.random()
            x = geodesic_point(model, o, v, t)
            assert ambient_distance(model, o, x) == pytest.approx(t, abs=1e-9), model.model_kind


# -- gradients ---------------------------------------------------------------


def test_euclidean_gradient_is_radial_unit():
    model = AmbientModel.euclidean(2)
    g = distance_gradient(model, np.zeros(2), np.array([0.0, 2.0]))
    np.testing.assert_allclose(g, [0.0, 1.0], atol=1e-14)


def test_minkowski_gradient_past_directed_unit():
    model = AmbientModel.minkowski(2)
    g = distance_gradient(model, np.zeros(2), np.array([5.0, 3.0]))
    np.testing.assert_allclose(g, [-5.0 / 4.0, -3.0 / 4.0], atol=1e-14)
    assert model.flat_inner(g, g) == pytest.approx(-1.0, abs=1e-12)


def test_gradient_unit_norm_everywhere(rng):
    for model in all_models():
        o = model.base_point()
        lo, hi = rho_range(model)
        for _ in range(25):
            x = random_point_at(model, o, lo + (hi - lo) * rng.random(), rng)
            g = distance_gradient(model, o, x)
            assert abs(abs(model.flat_inner(g, g)) - 1.0) < 1e-12, model.model_kind


def test_gradient_is_radial_velocity(rng):
    # Riemannian: grad rho = gamma'(rho); Lorentzian: grad rho = -gamma'(rho).
    for model in all_models():
        o = model.base_point()
        lo, hi = rho_range(model)
        sign = 1.0 if model.signature == "riemannian" else -1.0
        for _ in range(10):
            v = unit_radial(model, o, rng)
            t = lo + (hi - lo) * rng.random()
            x = geodesic_point(model, o, v, t)
            g = distance_gradient(model, o, x)
            np.testing.assert_allclose(
                g, sign * geodesic_velocity(model, o, v, t), atol=1e-9
            )


def test_gradient_rejected_at_reference():
    model = AmbientModel.euclidean(3)
    with pytest.raises(UndefinedGradientError):
        distance_gradient(model, np.zeros(3), np.zeros(3))


def test_near_coincident_rejected():
    model = AmbientModel.euclidean(2)
    o = np.array([1.0, 0.0])
    with pytest.raises(UndefinedGradientError):
        distance_hessian_quadform(model, o, o + np.array([1e-9, 0.0]), np.array([0.0, 1.0]))


def test_coincidence_floor_is_relative_to_the_coordinates():
    """The floor is COINCIDENCE_TOL times the coordinate scale, so a point at relative
    distance 1e-6 has a gradient at every scale, and a tiny model keeps its gradients."""
    model = AmbientModel.euclidean(2)
    for scale in (1e-12, 1.0, 1e8):
        o = np.array([scale, 0.0])
        x = o + np.array([0.0, 1e-6 * scale])
        np.testing.assert_allclose(distance_gradient(model, o, x), [0.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(distance_gradient(model, 0.0 * o, 1e-6 * o), [1.0, 0.0])


# -- Hessians ----------------------------------------------------------------


def test_euclidean_hessian_orthogonal_direction():
    model = AmbientModel.euclidean(2)
    o = np.zeros(2)
    x = np.array([0.0, 2.0])
    assert distance_hessian_quadform(model, o, x, np.array([1.0, 0.0])) == pytest.approx(0.5)


def test_radial_direction_annihilated(rng):
    for model in all_models():
        if model.signature != "riemannian":
            continue
        o = model.base_point()
        lo, hi = rho_range(model)
        x = random_point_at(model, o, 0.5 * (lo + hi), rng)
        g = distance_gradient(model, o, x)
        assert abs(distance_hessian_quadform(model, o, x, g)) < 1e-10


def test_minkowski_hessian_spacelike_orthogonal():
    model = AmbientModel.minkowski(2)
    o = np.zeros(2)
    x = np.array([2.0, 0.0])
    X = np.array([0.0, 1.0])
    assert distance_hessian_quadform(model, o, x, X) == pytest.approx(-0.5)
    assert fd_distance_hessian_quadform(model, o, x, X) == pytest.approx(-0.5, abs=1e-8)


def test_hyperbolic_hessian_is_coth(rng):
    model = AmbientModel.hyperbolic(-1.0, 3)
    o = model.base_point()
    x = random_point_at(model, o, 1.0, rng)
    g = distance_gradient(model, o, x)
    X = random_tangent(model, x, rng)
    X = X - model.flat_inner(X, g) * g
    X = X / np.sqrt(model.flat_inner(X, X))
    expected = 1.0 / np.tanh(1.0)  # 1.3130352854993312
    assert distance_hessian_quadform(model, o, x, X) == pytest.approx(expected, abs=1e-10)
    assert hessian_comparison_residual(model, o, x, X) == pytest.approx(0.0, abs=1e-6)


def test_hessian_polarization_symmetry(rng):
    for model in all_models():
        o = model.base_point()
        lo, hi = rho_range(model)
        for _ in range(10):
            x = random_point_at(model, o, lo + (hi - lo) * rng.random(), rng)
            X = random_tangent(model, x, rng)
            Y = random_tangent(model, x, rng)
            lhs = distance_hessian_quadform(model, o, x, X + Y) - distance_hessian_quadform(
                model, o, x, X - Y
            )
            rhs = 4.0 * distance_hessian_bilinear(model, o, x, X, Y)
            assert lhs == pytest.approx(rhs, abs=1e-8)
            assert distance_hessian_bilinear(model, o, x, X, Y) == pytest.approx(
                distance_hessian_bilinear(model, o, x, Y, X), abs=1e-12
            )


def test_fd_hessian_matches_closed_form_all_models(rng):
    for model in all_models():
        o = model.base_point()
        lo, hi = rho_range(model)
        for _ in range(100):
            x = random_point_at(model, o, lo + (hi - lo) * rng.random(), rng)
            X = random_tangent(model, x, rng, spacelike=True)
            closed = distance_hessian_quadform(model, o, x, X)
            fd = fd_distance_hessian_quadform(model, o, x, X)
            assert abs(closed - fd) < 1e-6 * max(1.0, abs(closed)), model.model_kind


def test_comparison_residual_vanishes_in_space_forms(rng):
    for model in all_models():
        o = model.base_point()
        lo, hi = rho_range(model)
        for _ in range(30):
            x = random_point_at(model, o, lo + (hi - lo) * rng.random(), rng)
            X = random_tangent(model, x, rng, spacelike=True)
            assert abs(hessian_comparison_residual(model, o, x, X)) < 1e-6 * max(
                1.0, float(np.dot(X, X))
            )


def test_non_tangent_vector_rejected():
    model = AmbientModel.sphere(1.0, 2)
    o = np.array([1.0, 0.0, 0.0])
    x = np.array([np.cos(1.0), np.sin(1.0), 0.0])
    with pytest.raises(DomainError):
        distance_hessian_quadform(model, o, x, x)  # position vector is normal
    tangent = np.array([-np.sin(1.0), np.cos(1.0), 0.0])
    distance_hessian_quadform(model, o, x, tangent)
    with pytest.raises(DomainError):  # a normal component of 1e-5 of its size
        distance_hessian_quadform(model, o, x, tangent + 1e-5 * x)
    for X, Y in ((tangent, x), (x, tangent)):  # either vector of a pair
        with pytest.raises(DomainError, match="not tangent"):
            distance_hessian_bilinear(model, o, x, X, Y)


# -- reference balls and model validation ------------------------------------


def test_reference_ball_guards():
    sphere = AmbientModel.sphere(1.0, 3)
    ReferenceBall(sphere.base_point(), 1.5).validate(sphere)
    with pytest.raises(DomainError):
        ReferenceBall(sphere.base_point(), np.pi / 2).validate(sphere)
    ads = AmbientModel.lorentz_space_form(-1.0, 3)
    with pytest.raises(DomainError):
        ReferenceBall(ads.base_point(), np.pi / 2).validate(ads)
    with pytest.raises(DomainError):
        ReferenceBall(sphere.base_point(), -1.0).validate(sphere)


def test_model_invariants_enforced():
    with pytest.raises(ValueError):
        AmbientModel.sphere(-1.0, 3)
    with pytest.raises(ValueError):
        AmbientModel.hyperbolic(0.5, 3)
    with pytest.raises(ValueError):
        AmbientModel.sphere(1.0, 1)
    with pytest.raises(ValueError):
        AmbientModel.lorentz_space_form(0.0, 3)


E3 = AmbientModel.euclidean(3)

# (call, error type, message) of each model call on an input it rejects
MODEL_ERRORS = {
    "unknown-signature": (lambda: AmbientModel("euclidean", 0.0, 3), ValueError,
                          "unknown signature"),
    "point-of-another-length": (lambda: E3.check_point(np.zeros(2)), DomainError,
                                r"point has \(2,\) coordinates"),
    "vector-of-another-length": (lambda: E3.check_tangent(np.zeros(3), np.zeros(4)), DomainError,
                                 "wrong length"),
    "riemannian-time-orientation": (lambda: E3.time_orientation(np.zeros(3)), DomainError,
                                    "only defined for lorentzian"),
}


@pytest.mark.parametrize("case", MODEL_ERRORS)
def test_model_calls_reject_what_they_cannot_take(case):
    call, kind, message = MODEL_ERRORS[case]
    with pytest.raises(kind, match=message):
        call()


def test_model_is_signature_curvature_and_dimension():
    assert [f.name for f in dataclasses.fields(AmbientModel)] == [
        "signature", "curvature", "dimension"]
    kinds = [model.model_kind for model in all_models()]
    assert kinds == ["euclidean", "sphere_embedded", "hyperboloid_embedded", "minkowski",
                     "lorentz_spaceform", "lorentz_spaceform"]
    assert AmbientModel("riemannian", -2.0, 3) == AmbientModel.hyperbolic(-2.0, 3)
    for b in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            AmbientModel("lorentzian", b, 3)


def test_off_model_points_rejected():
    model = AmbientModel.sphere(1.0, 2)
    with pytest.raises(DomainError):
        ambient_distance(model, np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))


def test_non_finite_points_are_domain_errors():
    nan = np.nan
    for model, bad in ((AmbientModel.sphere(1.0, 3), [nan] * 4),
                       (AmbientModel.euclidean(3), [nan, 0.0, 0.0])):
        o = model.base_point()
        good = geodesic_point(model, o, unit_radial(model, o, np.random.default_rng(0)), 0.5)
        for x in ([bad], [good, bad, good]):
            _, _, errors = gradient_rows(model, o, np.array(x))
            assert [type(e) for e in errors] == [
                DomainError if np.isnan(row).any() else type(None) for row in x]
        with pytest.raises(DomainError, match="non-finite"):
            model.check_point(np.array(bad))


def test_exact_hyperboloid_points_far_from_the_vertex_are_accepted():
    model = AmbientModel.hyperbolic(-1.0, 3)
    o = model.base_point()
    t = np.linspace(5.0, 15.0, 1001)[:, None]
    x = geodesic_point(model, o, np.array([0.0, 1.0, 0.0, 0.0]), t)
    assert not failed(model.point_errors(x)).any()
    # 1e-6 relative off the quadric is rejected, near the vertex and far from it
    for y in (x, geodesic_point(model, o, np.array([0.0, 1.0, 0.0, 0.0]), t - 5.0)):
        y[:, 0] *= 1.0 + 1e-6
        assert failed(model.point_errors(y)).all()


def test_nearby_points_far_from_the_hyperbolic_vertex_have_a_distance(rng):
    """c = b<x,o> reads 1 from terms of size cosh^2 of the distance to the vertex, so it
    can fall below 1 for two points 1e-4 apart at distance 10 from it: both lie on the
    upper sheet, and their distance is defined.  It lies within the round-off of
    arccosh near 1, and only the coincidence floor (1e-8 x 1.1e4) speaks for it."""
    model = AmbientModel.hyperbolic(-1.0, 3)
    for _ in range(200):
        o = random_point_at(model, model.base_point(), 10.0, rng)
        x = random_point_at(model, o, 1e-4, rng)
        rho, errors = distance_rows(model, o, x)
        assert not failed(errors)
        assert abs(rho - 1e-4) <= 2.5e-4
        _, _, errors = gradient_rows(model, o, x)
        assert errors.item() is None or isinstance(errors.item(), UndefinedGradientError)


def test_quadric_tolerance_only_widens(rng):
    """Every finite point the absolute tolerance 1e-9 max(1, 1/|b|) accepted is still
    accepted: on-model points at distances up to 12 and points moved off by 1e-12 to 1e-3."""
    for model in all_models():
        if not model.is_quadric:
            continue
        o = model.base_point()
        b = model.curvature
        x = np.array([random_point_at(model, o, rho, rng)
                      for rho in rng.uniform(*rho_range(model), size=200)]
                     + [geodesic_point(model, o, random_tangent(model, o, rng, spacelike=True), s)
                        for s in rng.uniform(0.0, 12.0, size=200)])
        x = x * (1.0 + 10.0 ** rng.uniform(-12.0, -3.0, size=(len(x), 1))
                 * rng.choice([-1.0, 0.0, 1.0], size=x.shape))
        accepted_before = np.abs(model.flat_inner(x, x) - 1.0 / b) <= 1e-9 * max(1.0, 1.0 / abs(b))
        if model.signature == "riemannian" and b < 0.0:
            accepted_before &= x[:, 0] > 0.0
        assert accepted_before.any() and not accepted_before.all()
        assert not failed(model.point_errors(x[accepted_before])).any()
