"""Parametric charts with exact second-order jets, and the finite-difference stencil.

:func:`build_chart` makes a chart of a kind in ``_KINDS``; the kind's constructor
signature is its parameter schema (README's table of chart kinds).
"""

from __future__ import annotations

import csv
from functools import lru_cache, reduce
from operator import mul

import numpy as np

from .comparison import cs, sn
from .errors import (
    ConfigError,
    DomainError,
    flag,
    is_integer,
    no_errors,
    raise_first,
    read_only,
    read_only_copy,
)
from .spaceform import LORENTZIAN, RIEMANNIAN, AmbientModel

# Default exclusion band around the coordinate poles of spherical charts.
POLAR_MARGIN = 0.15


def hypersphere_direction(angles: np.ndarray) -> np.ndarray:
    """Unit vectors on S^n (n = angles.shape[-1]) over the leading sample axes of ``angles``.

    omega_0 = cos t_0, omega_j = sin t_0 .. sin t_{j-1} cos t_j, omega_n = sin t_0 ..
    sin t_{n-1}; the prefix products of sines have the bits of a cumulative product.
    """
    return _direction(np.sin(angles), np.cos(angles))


def _direction(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:func:`hypersphere_direction` from the sines s and cosines c (..., n) of its angles."""
    omega = np.concatenate([c, np.ones(np.shape(c)[:-1] + (1,))], -1)
    prefix = s[..., 0]
    omega[..., 1] *= prefix
    for j in range(1, s.shape[-1]):
        prefix = prefix * s[..., j]
        omega[..., j + 1] *= prefix
    return omega


def hypersphere_direction_jet(angles: np.ndarray):
    """:func:`hypersphere_direction` with exact first and second jets.

    The value is built from the sines and cosines the derivatives use.
    """
    angles = np.asarray(angles, dtype=float)
    batch, n = angles.shape[:-1], angles.shape[-1]
    m = n + 1
    s, c = np.sin(angles), np.cos(angles)
    value = _direction(s, c)
    d1 = np.zeros(batch + (m, n))
    d2 = np.zeros(batch + (m, n, n))
    for j in range(m):
        idx = list(range(j + 1)) if j < n else list(range(n))
        fv = [c[..., i] if (i == j and j < n) else s[..., i] for i in idx]
        fd = [-s[..., i] if (i == j and j < n) else c[..., i] for i in idx]
        for a_pos, a in enumerate(idx):
            rest = reduce(mul, fv[:a_pos] + fv[a_pos + 1:], 1.0)
            d1[..., j, a] = rest * fd[a_pos]
            d2[..., j, a, a] = -value[..., j]
            for b_pos in range(a_pos):
                b = idx[b_pos]
                core = reduce(mul, [fv[q] for q in range(len(idx)) if q not in (a_pos, b_pos)], 1.0)
                mixed = core * fd[a_pos] * fd[b_pos]
                d2[..., j, a, b] = mixed
                d2[..., j, b, a] = mixed
    return value, d1, d2


@lru_cache(maxsize=None)
def _unit_stencil(n: int) -> np.ndarray:
    """:func:`fd_jet`'s 1 + 2n^2 offsets (S, n) for unit steps, read-only, in stencil order.

    Built by the signed sums that scaled steps would take, so their product with
    positive steps has those sums' bits, signed zeros included.
    """
    e = np.eye(n)
    offsets = [np.zeros(n)]
    for i in range(n):
        offsets += [e[i], -e[i]]
        for j in range(i):
            offsets += [e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]]
    return read_only(np.stack(offsets))


def fd_stencil(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """:func:`fd_jet`'s stencil at p (..., n) along a new leading axis: p itself (signed zeros
    kept), then per axis i +-e_i and, for each j < i, +-e_i +-e_j; ``h`` is one step per axis."""
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    h = np.broadcast_to(np.asarray(h, dtype=float), p.shape)
    Q = p + _unit_stencil(n).reshape((-1,) + (1,) * (p.ndim - 1) + (n,)) * h
    Q[0] = p  # p + 0 h would turn a -0.0 coordinate into +0.0
    return Q


def fd_jet(value, p: np.ndarray, h: np.ndarray):
    """(position, d1, d2) of ``value`` at the points p (..., n) by central differences.

    ``value`` maps (..., n) to (..., m) and is called once, on :func:`fd_stencil`.
    """
    p = np.asarray(p, dtype=float)
    h = np.broadcast_to(np.asarray(h, dtype=float), p.shape)
    return fd_differences(np.asarray(value(fd_stencil(p, h)), dtype=float), h)


def fd_differences(f: np.ndarray, h: np.ndarray):
    """(position, d1, d2) from values f (S, ..., m) on a :func:`fd_stencil` of steps h (..., n)."""
    n = h.shape[-1]
    f = iter(f)
    x = next(f)
    d1 = np.empty(x.shape + (n,))
    d2 = np.empty(x.shape + (n, n))
    for i in range(n):
        hi = h[..., i, None]
        fp, fm = next(f), next(f)
        d1[..., i] = (fp - fm) / (2.0 * hi)
        d2[..., i, i] = (fp - 2.0 * x + fm) / hi**2
        for j in range(i):
            a, b, c, d = next(f), next(f), next(f), next(f)
            d2[..., i, j] = d2[..., j, i] = (a - b - c + d) / (4.0 * hi * h[..., j, None])
    return x, d1, d2


def grid_points(axes: list) -> np.ndarray:
    """The product grid of ``axes`` as rows (N, n), last axis varying fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def grid_axes(lo, hi, resolution) -> list:
    """Grid axes over the box [lo, hi]: ``resolution`` points each, or one per axis; integers >= 2."""
    n = len(lo)
    res = [resolution] * n if np.ndim(resolution) == 0 else list(resolution)
    if len(res) != n:
        raise DomainError("resolution must give one count per parameter axis")
    if not all(is_integer(r) and r >= 2 for r in res):
        raise DomainError(f"resolution = {resolution!r}: expected integers of at least 2 per axis")
    return [np.linspace(lo[i], hi[i], res[i]) for i in range(n)]


def _angle_domain(n: int):
    lo = np.zeros(n)
    hi = np.full(n, 2.0 * np.pi)
    lo[: n - 1] = POLAR_MARGIN
    hi[: n - 1] = np.pi - POLAR_MARGIN
    return lo, hi


class Chart:
    """Map from an n-dimensional parameter box into the embedding space.

    ``value`` and ``jet`` take points (..., n) and carry their leading sample axes.  A
    chart is immutable: rebinding or deleting any attribute, a method included, raises
    AttributeError.
    """

    nparams: int
    # the parameter axes (negative ones count from the last) on which the chart
    # is 2 pi periodic; a patch whose box spans exactly 2 pi on one wraps it
    periodic_axes: tuple = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is set once")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is set once")

    def value(self, p: np.ndarray) -> np.ndarray:
        return self.jet(p)[0]

    def jet(self, p: np.ndarray):
        """(position, d1 (..., m, n), d2 (..., m, n, n)), or None without closed-form jets."""
        return None

    def undefined(self, p: np.ndarray, jet: bool = False):
        """Per-row DomainError where ``value`` (``jet`` if set) is undefined at p, else None.

        A chart defined on its whole box keeps this base method.
        """
        return no_errors(np.shape(p)[:-1])

    def default_domain(self):
        raise NotImplementedError


class EllipsoidChart(Chart):
    """Axis-aligned ellipsoid; chart poles sit on the first semi-axis."""

    periodic_axes = (-1,)  # the longitude

    def __init__(self, center: np.ndarray, semi_axes: np.ndarray):
        self.center = read_only_copy(center)
        self.semi_axes = read_only_copy(semi_axes)
        if np.any(self.semi_axes <= 0):
            raise ConfigError("ellipsoid semi-axes must be positive")
        if self.semi_axes.size != self.center.size:
            raise ConfigError("semi_axes and center dimensions disagree")
        self.nparams = self.center.size - 1

    def value(self, p):
        return self.center + self.semi_axes * hypersphere_direction(p)

    def jet(self, p):
        omega, d1, d2 = hypersphere_direction_jet(p)
        a = self.semi_axes
        return self.center + a * omega, a[:, None] * d1, a[:, None, None] * d2

    def default_domain(self):
        return _angle_domain(self.nparams)


class CylinderChart(Chart):
    """Circular cylinder in R^3, parameters (angle, height)."""

    nparams = 2
    periodic_axes = (0,)  # the angle

    def __init__(self, center: np.ndarray, radius: float, half_length: float = 1.0):
        self.center = read_only_copy(center)
        if self.center.size != 3:
            raise ConfigError("cylinder chart lives in R^3")
        self.radius = float(radius)
        self.half_length = float(half_length)

    def jet(self, p):
        p = np.asarray(p, dtype=float)
        phi, z = p[..., 0], p[..., 1]
        r = self.radius
        x = self.center + np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
        d1 = np.zeros(phi.shape + (3, 2))
        d1[..., 0, 0] = -r * np.sin(phi)
        d1[..., 1, 0] = r * np.cos(phi)
        d1[..., 2, 1] = 1.0
        d2 = np.zeros(phi.shape + (3, 2, 2))
        d2[..., 0, 0, 0] = -r * np.cos(phi)
        d2[..., 1, 0, 0] = -r * np.sin(phi)
        return x, d1, d2

    def default_domain(self):
        return np.array([0.0, -self.half_length]), np.array([2.0 * np.pi, self.half_length])


class PolynomialGraphChart(Chart):
    """Graph of a polynomial height over a box; ``terms`` are (coefficient, exponents) pairs."""

    def __init__(self, terms, box_lo, box_hi):
        self.box_lo = read_only_copy(box_lo)
        self.box_hi = read_only_copy(box_hi)
        self.nparams = self.box_lo.size
        self.terms = tuple(
            (float(c), tuple(int(e) for e in exps)) for c, exps in terms
        )
        for _, exps in self.terms:
            if len(exps) != self.nparams:
                raise ConfigError("polynomial exponents must match parameter count")

    def jet(self, p):
        p = np.asarray(p, dtype=float)
        n = self.nparams

        def term(coeff, ex, *axes):
            """coeff * prod_q p_q^ex_q, differentiated along ``axes``."""
            ex = list(ex)
            for a in axes:
                coeff, ex[a] = coeff * ex[a], ex[a] - 1
            if coeff == 0.0:
                return 0.0
            return coeff * reduce(mul, [p[..., q] ** ex[q] for q in range(n)], 1.0)

        h = np.zeros(p.shape[:-1])
        dh = np.zeros(p.shape)
        d2h = np.zeros(p.shape + (n,))
        for c, exps in self.terms:
            h = h + term(c, exps)
            for i in range(n):
                dh[..., i] += term(c, exps, i)
                for j in range(n):
                    d2h[..., i, j] += term(c, exps, i, j)
        x = np.concatenate([p, h[..., None]], axis=-1)
        d1 = np.zeros(p.shape[:-1] + (n + 1, n))
        d1[..., :n, :] = np.eye(n)
        d1[..., n, :] = dh
        d2 = np.zeros(p.shape[:-1] + (n + 1, n, n))
        d2[..., n, :, :] = d2h
        return x, d1, d2

    def default_domain(self):
        return self.box_lo, self.box_hi


class GeodesicSphereChart(Chart):
    """Distance sphere of radius r about a model point.

    Riemannian models: angles over the unit sphere of the tangent space at the center.
    Lorentzian models: future timelike directions v(y) = sqrt(1+|y|^2) T + y_j E_j
    over a box, smooth through y = 0.
    """

    def __init__(self, model: AmbientModel, center: np.ndarray, radius: float,
                 half_width: float = 2.0):
        if radius <= 0:
            raise ConfigError("geodesic sphere radius must be positive")
        # the radial geodesics have <v,v> = eps, so they run with k = eps b and,
        # for k > 0, refocus at the conjugate radius pi/sqrt(k)
        k = model.epsilon * model.curvature
        if k > 0.0 and radius >= np.pi / np.sqrt(k):
            raise ConfigError("geodesic sphere radius reaches the conjugate locus")
        self.model = model
        self.center = model.check_point(read_only_copy(center))
        self.radius = float(radius)
        self.half_width = float(half_width)
        self.nparams = model.dimension - 1
        self._frame = read_only(self._tangent_frame())
        self._alpha, self._beta = cs(k, self.radius), sn(k, self.radius)

    @property
    def periodic_axes(self) -> tuple:
        """The longitude of the Riemannian angle chart; the Lorentzian box has none."""
        return (-1,) if self.model.signature == RIEMANNIAN else ()

    def _tangent_frame(self):
        model, o = self.model, self.center
        m = model.embedding_dim
        basis = []
        if model.signature == LORENTZIAN:
            t = model.time_orientation(o)
            basis.append(t / np.sqrt(-model.flat_inner(t, t)))
        for v in np.eye(m):
            w = model.tangent_project(o, v)
            for k, u in enumerate(basis):
                sign = -1.0 if (model.signature == LORENTZIAN and k == 0) else 1.0
                w = w - sign * model.flat_inner(w, u) * u
            norm = model.flat_inner(w, w)
            if norm > 1e-10:
                basis.append(w / np.sqrt(norm))
            if len(basis) == model.dimension:
                break
        if len(basis) != model.dimension:
            raise ConfigError("failed to build a tangent frame at the center")
        return np.array(basis)

    def _direction_jet(self, p):
        p = np.asarray(p, dtype=float)
        if self.model.signature == RIEMANNIAN:
            omega, d1, d2 = hypersphere_direction_jet(p)
            E = self._frame  # (n+1, m)
            v = (omega[..., None, :] @ E)[..., 0, :]
            return v, E.T @ d1, np.einsum("...jab,jm->...mab", d2, E)
        y = p
        n = y.shape[-1]
        S = np.sqrt(1.0 + np.vecdot(y, y))[..., None]
        dS = y / S
        d2S = (np.eye(n) - dS[..., :, None] * dS[..., None, :]) / S[..., None]
        that, E = self._frame[0], self._frame[1:]
        v = S * that + (y[..., None, :] @ E)[..., 0, :]
        d1 = that[:, None] * dS[..., None, :] + E.T
        d2 = that[:, None, None] * d2S[..., None, :, :]
        return v, d1, d2

    def value(self, p):
        if self.model.signature != RIEMANNIAN:
            return self.jet(p)[0]
        x = self._beta * (hypersphere_direction(p)[..., None, :] @ self._frame)[..., 0, :]
        x += self._alpha * self.center  # in place: a whole FD stencil makes large temporaries
        return x

    def jet(self, p):
        v, d1, d2 = self._direction_jet(p)
        x = self._alpha * self.center + self._beta * v
        return x, self._beta * d1, self._beta * d2

    def default_domain(self):
        if self.model.signature == RIEMANNIAN:
            return _angle_domain(self.nparams)
        n = self.nparams
        return np.full(n, -self.half_width), np.full(n, self.half_width)


class PerturbedHyperboloidChart(Chart):
    """Hyperboloid graph with a dipole radial perturbation.

    t(y) = sqrt(q(y)^2 + |y|^2), q(y) = r + eps (e^{-|y-y0|^2} - e^{-|y+y0|^2}), y0 =
    (offset, 0, ..): the distance to the vertex is q(y), with an interior max near
    +y0 and min near -y0.  With eps = 0 it is the distance sphere rho = r.
    """

    def __init__(self, center, radius, epsilon=0.01, offset=1.0, half_width=2.0):
        if radius <= 0:
            raise ConfigError("hyperboloid radius must be positive")
        self.center = read_only_copy(center)
        self.radius = float(radius)
        self.epsilon = float(epsilon)
        self.half_width = float(half_width)
        self.nparams = self.center.size - 1
        self.y0 = read_only_copy([float(offset)] + [0.0] * (self.nparams - 1))

    def _radial(self, y):
        """q(y) and the two dipole bumps (sign, z = y - sign y0, e^{-|z|^2}) it sums."""
        q, bumps = self.radius, []
        for sgn in (1.0, -1.0):
            z = y - sgn * self.y0
            g = np.exp(-np.vecdot(z, z))[..., None]
            q = q + sgn * self.epsilon * g
            bumps.append((sgn, z, g))
        return q, bumps

    def _position(self, y, q):
        """(T, x) at y: T = sqrt(q^2 + |y|^2) and the point x = center + (T, y)."""
        T = np.sqrt(q * q + np.vecdot(y, y)[..., None])
        return T, self.center + np.concatenate([T, y], axis=-1)

    def value(self, p):
        y = np.asarray(p, dtype=float)
        return self._position(y, self._radial(y)[0])[1]

    def jet(self, p):
        y = np.asarray(p, dtype=float)
        n = self.nparams
        q, bumps = self._radial(y)
        dq = np.zeros(y.shape)
        d2q = np.zeros(y.shape + (n,))
        for sgn, z, g in bumps:
            dq = dq + sgn * self.epsilon * (-2.0 * z) * g
            outer = z[..., :, None] * z[..., None, :]
            d2q = d2q + sgn * self.epsilon * (4.0 * outer - 2.0 * np.eye(n)) * g[..., None]
        T, x = self._position(y, q)
        dT = (q * dq + y) / T
        outer_q = dq[..., :, None] * dq[..., None, :]
        outer_T = dT[..., :, None] * dT[..., None, :]
        d2T = (outer_q + q[..., None] * d2q + np.eye(n) - outer_T) / T[..., None]
        d1 = np.zeros(y.shape[:-1] + (n + 1, n))
        d1[..., 0, :] = dT
        d1[..., 1:, :] = np.eye(n)
        d2 = np.zeros(y.shape[:-1] + (n + 1, n, n))
        d2[..., 0, :, :] = d2T
        return x, d1, d2

    def default_domain(self):
        n = self.nparams
        return np.full(n, -self.half_width), np.full(n, self.half_width)


class TabulatedChart(Chart):
    """Chart backed by a CSV table on a complete regular grid (README: tabulated charts).

    A parameter coordinate matches the nearest grid value within ``MATCH_TOL``;
    evaluation anywhere else is a DomainError.
    """

    MATCH_TOL = 1e-9

    def __init__(self, params, positions, d1=None, d2=None):
        self.params = read_only_copy(params)
        self.positions = read_only_copy(positions)
        self.nparams = self.params.shape[1]
        self.d1 = None if d1 is None else read_only_copy(d1)
        self.d2 = None if d2 is None else read_only_copy(d2)
        self.axes = read_only(tuple(np.unique(np.round(p, 9)) for p in self.params.T))
        self._rows = np.full([a.size for a in self.axes], -1)
        index, _ = self._lookup(self.params)
        self._rows[tuple(np.moveaxis(index, -1, 0))] = np.arange(self.params.shape[0])
        if self._rows.size != self.params.shape[0] or np.any(self._rows < 0):
            raise ConfigError("tabulated samples do not form a complete grid")
        read_only(self._rows)

    def _lookup(self, p, jet=False):
        """(index, errors): per-axis grid index of each point of p (..., n).

        With ``jet`` on a table without jet columns, boundary points fail too.
        """
        p = np.asarray(p, dtype=float)
        index = np.empty(p.shape, dtype=np.intp)
        miss = np.zeros(p.shape[:-1], dtype=bool)
        for i, axis in enumerate(self.axes):
            v = p[..., i]
            # |axis - v| falls up to the first node >= v and rises after it,
            # though rounding can hold it flat: step back from that node while
            # the previous one is no farther, to the first nearest node
            j = np.minimum(np.searchsorted(axis, v), axis.size - 1)
            while np.any(back := (j > 0) & (np.abs(axis[j - 1] - v) <= np.abs(axis[j] - v))):
                j = j - back
            miss |= ~(np.abs(axis[j] - v) <= self.MATCH_TOL)  # NaN misses too
            index[..., i] = j
        errors = no_errors(p.shape[:-1])
        flag(errors, miss, DomainError, "parameter point is not tabulated")
        if jet and (self.d1 is None or self.d2 is None):
            last = np.array([a.size - 1 for a in self.axes])
            flag(errors, np.any((index == 0) | (index == last), axis=-1),
                 DomainError, "finite differences unavailable at the grid boundary")
        return index, errors

    def _table_rows(self, index):
        return self._rows[tuple(np.moveaxis(index, -1, 0))]

    def undefined(self, p, jet=False):
        return self._lookup(p, jet)[1]

    def value(self, p):
        index, errors = self._lookup(p)
        raise_first(errors)
        return self.positions[self._table_rows(index)]

    def jet(self, p):
        index, errors = self._lookup(p, jet=True)
        raise_first(errors)
        if self.d1 is not None and self.d2 is not None:
            rows = self._table_rows(index)
            return self.positions[rows], self.d1[rows], self.d2[rows]
        steps = np.empty(index.shape)
        for i, axis in enumerate(self.axes):
            j = index[..., i]
            steps[..., i] = 0.5 * (axis[j + 1] - axis[j - 1])
        return fd_jet(self.value, p, steps)

    def default_domain(self):
        return np.array([a[0] for a in self.axes]), np.array([a[-1] for a in self.axes])

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(v) for v in row] for row in reader if row]
        if not rows:
            raise ConfigError(f"no samples in {path}")
        data = np.asarray(rows)
        n = sum(1 for name in header if name.startswith("p"))
        m = sum(1 for name in header if name.startswith("x"))
        if n == 0 or m == 0:
            raise ConfigError("tabulated CSV needs p* and x* columns")
        params, positions = data[:, :n], data[:, n : n + m]
        rest = data.shape[1] - n - m
        if rest == 0:
            return cls(params, positions)
        if rest != m * n + m * n * n:
            raise ConfigError("jet columns are incomplete")
        d1 = data[:, n + m : n + m + m * n].reshape(-1, m, n)
        d2 = data[:, n + m + m * n :].reshape(-1, m, n, n)
        return cls(params, positions, d1, d2)


def write_chart_csv(chart, domain_lo, domain_hi, resolution, path, include_jets=True):
    """Dump chart samples over a grid to CSV in the tabulated-chart format."""
    n = chart.nparams
    points = grid_points(grid_axes(domain_lo, domain_hi, resolution))
    jet = chart.jet(points) if include_jets else (chart.value(points),)
    if jet is None:
        raise ConfigError("chart has no analytic jets to export")
    columns = [points] + [a.reshape(len(points), -1) for a in jet]
    m = jet[0].shape[-1]
    header = [f"p{i}" for i in range(n)] + [f"x{a}" for a in range(m)]
    if include_jets:
        header += [f"d1_{a}_{i}" for a in range(m) for i in range(n)]
        header += [f"d2_{a}_{i}_{j}" for a in range(m) for i in range(n) for j in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(np.hstack(columns).tolist())


def _model_free(make):
    return lambda model, **params: make(**params)


def _sphere(model, center, radius):
    """``sphere``: an ellipsoid with equal semi-axes."""
    return EllipsoidChart(center, np.full(np.size(center), float(radius)))


def _hyperboloid(model, center, radius, **params):
    """``hyperboloid``: a perturbed hyperboloid with epsilon = 0."""
    return PerturbedHyperboloidChart(center, radius, epsilon=0.0, **params)


# kind -> (make, called as make(model, **params); required model_kind; default center)
_KINDS = {
    "sphere": (_sphere, "euclidean", AmbientModel.base_point),
    "ellipsoid": (_model_free(EllipsoidChart), "euclidean", AmbientModel.base_point),
    "cylinder": (_model_free(CylinderChart), "euclidean", AmbientModel.base_point),
    "graph": (_model_free(PolynomialGraphChart), "euclidean", None),
    "geodesic_sphere": (GeodesicSphereChart, None, AmbientModel.base_point),
    "hyperboloid": (_hyperboloid, "minkowski", AmbientModel.base_point),
    "perturbed_hyperboloid": (_model_free(PerturbedHyperboloidChart), "minkowski",
                              AmbientModel.base_point),
    "tabulated": (_model_free(TabulatedChart.from_csv), None, None),
}


def build_chart(model: AmbientModel, kind: str, params: dict) -> Chart:
    """A chart of a kind in ``_KINDS``; a bad parameter in ``params`` raises ConfigError."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown chart kind {kind!r}")
    make, model_kind, default_center = _KINDS[kind]
    if model_kind not in (None, model.model_kind):
        raise ConfigError(f"{kind} chart requires a {model_kind} ambient")
    params = dict(params)
    if default_center is not None and params.get("center") is None:
        params["center"] = default_center(model)
    try:
        if default_center is not None and np.shape(params["center"]) != (model.embedding_dim,):
            raise ConfigError(f"{kind} chart center needs {model.embedding_dim} coordinates")
        return make(model, **params)
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"bad {kind} chart parameters: {exc}") from exc
