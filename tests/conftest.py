"""Shared sampling helpers: random points and tangents in each model space."""

import numpy as np
import pytest
from hypothesis import settings

from curvbound.immersion import build_patch
from curvbound.spaceform import LORENTZIAN, RIEMANNIAN, AmbientModel, distance_rows

from oracles import geodesic_point

# Property tests draw the same bounded set of examples on every run, so
# tier-1 stays deterministic and fast.
settings.register_profile(
    "tier1", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("tier1")


def all_models(dimension=3):
    """One model of every kind, Lorentz space forms in both curvature signs."""
    return [
        AmbientModel.euclidean(dimension),
        AmbientModel.sphere(1.0, dimension),
        AmbientModel.hyperbolic(-1.0, dimension),
        AmbientModel.minkowski(dimension),
        AmbientModel.lorentz_space_form(0.7, dimension),
        AmbientModel.lorentz_space_form(-0.8, dimension),
    ]


def riemannian_space_form(b, dimension):
    if b > 0:
        return AmbientModel.sphere(b, dimension)
    if b < 0:
        return AmbientModel.hyperbolic(b, dimension)
    return AmbientModel.euclidean(dimension)


def equality_spheres():
    """(b, radius, n, jets, resolution, patch): the 18 geodesic spheres on which
    H_{k+1}/H_k = C_b(radius), for b in {-1, 0, 1}, n in 2..4, analytic and FD jets."""
    for b in (-1.0, 0.0, 1.0):
        r = np.pi / 4.0 if b > 0 else 1.0
        for n, resolution in ((2, 10), (3, 6), (4, 4)):
            model = riemannian_space_form(b, n + 1)
            for jets in ("analytic", "fd"):
                patch = build_patch(model, "geodesic_sphere", {"radius": r},
                                    center=model.base_point(), jets=jets)
                yield b, r, n, jets, resolution, patch


def congruent(L, form):
    """L^-1 form L^-T by two LU solves: a chart-basis bilinear form in the frame orthonormalized by L."""
    tmp = np.linalg.solve(L, form)
    return np.swapaxes(np.linalg.solve(L, np.swapaxes(tmp, -1, -2)), -1, -2)


def coincident_rows(x, tol=1e-12):
    """Pairs [i, j], i < j, of rows of x (N, m) within ``tol`` of each other in every coordinate."""
    close = np.all(np.abs(x[:, None, :] - x[None, :, :]) <= tol, axis=-1)
    return np.argwhere(np.triu(close, 1)).tolist()


def assert_u_is_the_distance_of_the_kept_rows(grid):
    """A grid's u is distance_rows over its kept positions, bit for bit, read-only."""
    rho, errors = distance_rows(grid.patch.ambient, grid.patch.center, grid.frames.position)
    assert not any(e is not None for e in errors)
    assert grid.u.shape == rho.shape == (len(grid.frames.param),)
    assert grid.u.tobytes() == rho.tobytes() and not grid.u.flags.writeable


def rho_range(model):
    """A distance range staying inside every domain guard of the model."""
    b = model.curvature
    if model.signature == RIEMANNIAN and b > 0:
        return 0.1, 0.95 * np.pi / (2.0 * np.sqrt(b))
    if model.signature == LORENTZIAN and b < 0:
        return 0.1, 0.9 * np.pi / (2.0 * np.sqrt(-b))
    return 0.1, 2.5


def unit_timelike_future(model, x, rng, tilt=0.9):
    """Random future-directed unit timelike tangent vector at x."""
    t = model.time_orientation(x)
    that = t / np.sqrt(-model.flat_inner(t, t))
    w = model.tangent_project(x, rng.standard_normal(model.embedding_dim))
    w = w + model.flat_inner(w, that) * that  # remove timelike part
    nw = model.flat_inner(w, w)
    xi = tilt * rng.random()
    if nw < 1e-12:
        return that
    w = w / np.sqrt(nw)
    return (that + xi * w) / np.sqrt(1.0 - xi * xi)


def unit_radial(model, o, rng):
    """Random initial velocity for a radial geodesic from o."""
    if model.signature == LORENTZIAN:
        return unit_timelike_future(model, o, rng)
    v = model.tangent_project(o, rng.standard_normal(model.embedding_dim))
    return v / np.sqrt(model.flat_inner(v, v))


def random_point_at(model, o, rho, rng):
    """Point at distance rho from o along a random radial geodesic."""
    return geodesic_point(model, o, unit_radial(model, o, rng), rho)


def random_tangent(model, x, rng, spacelike=False):
    """Random tangent vector at x; optionally forced spacelike (Lorentzian)."""
    v = model.tangent_project(x, rng.standard_normal(model.embedding_dim))
    if spacelike and model.signature == LORENTZIAN:
        t = model.time_orientation(x)
        that = t / np.sqrt(-model.flat_inner(t, t))
        v = v + model.flat_inner(v, that) * that
    return v


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def counted(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call is appended to the returned list."""
    calls, fn = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls
