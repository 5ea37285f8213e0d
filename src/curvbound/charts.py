"""Built-in chart library: parametric immersions with exact second-order jets.

Every chart maps an axis-aligned parameter box into the flat embedding space
of an ambient model.  Charts that can supply closed-form first and second
derivatives implement :meth:`Chart.jet`; the rest fall back to finite
differences inside the patch machinery.

Registry names: sphere, ellipsoid, cylinder, graph, geodesic_sphere,
hyperboloid, perturbed_hyperboloid, tabulated.  ``sphere`` is an alias for an
ellipsoid with equal semi-axes and ``hyperboloid`` for a perturbed hyperboloid
with epsilon = 0.
"""

from __future__ import annotations

import csv
from functools import reduce
from operator import mul

import numpy as np

from .errors import ConfigError, DomainError, flag, no_errors, raise_first
from .spaceform import LORENTZIAN, RIEMANNIAN, AmbientModel

# Default exclusion band around the coordinate poles of spherical charts.
POLAR_MARGIN = 0.15


def hypersphere_direction_jet(angles: np.ndarray):
    """Unit vectors on S^n (n = angles.shape[-1]) with exact first/second jets.

    omega_0 = cos t_0, omega_j = sin t_0 .. sin t_{j-1} cos t_j,
    omega_n = sin t_0 .. sin t_{n-1}.  Every component is a product of
    univariate sin/cos factors, so derivatives are factor replacements and
    the pure second derivative is just -omega_j.  Leading axes of ``angles``
    are sample axes.
    """
    angles = np.asarray(angles, dtype=float)
    batch, n = angles.shape[:-1], angles.shape[-1]
    m = n + 1
    s, c = np.sin(angles), np.cos(angles)
    value = np.empty(batch + (m,))
    d1 = np.zeros(batch + (m, n))
    d2 = np.zeros(batch + (m, n, n))
    for j in range(m):
        idx = list(range(j + 1)) if j < n else list(range(n))
        fv = [c[..., i] if (i == j and j < n) else s[..., i] for i in idx]
        fd = [-s[..., i] if (i == j and j < n) else c[..., i] for i in idx]
        value[..., j] = reduce(mul, fv, 1.0)
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


def fd_jet(value, p: np.ndarray, h: np.ndarray):
    """(position, d1, d2) of ``value`` at the points p (..., n) by central differences.

    ``value`` maps (..., n) to (..., m), and is called once per stencil offset
    for all points together.  ``h`` holds one step per parameter axis,
    broadcast against p; mixed second derivatives use the four-point cross
    stencil.
    """
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


def _angle_domain(n: int):
    lo = np.zeros(n)
    hi = np.full(n, 2.0 * np.pi)
    if n > 1:
        lo[: n - 1] = POLAR_MARGIN
        hi[: n - 1] = np.pi - POLAR_MARGIN
    return lo, hi


class Chart:
    """Map from an n-dimensional parameter box into the embedding space.

    ``value`` and ``jet`` take parameter points of shape (..., n); leading
    axes are sample axes and carry through to the results.
    """

    nparams: int

    def value(self, p: np.ndarray) -> np.ndarray:
        return self.jet(p)[0]

    def jet(self, p: np.ndarray):
        """(position, d1, d2) with d1 of shape (..., m, n), d2 of shape (..., m, n, n).

        Returns None when no closed-form jets are available.
        """
        return None

    def undefined(self, p: np.ndarray, jet: bool = False):
        """Per-row DomainError where ``value`` (``jet`` if set) is undefined at p.

        None when the chart is defined at every point, which holds for every
        chart defined by a formula on its whole parameter box.
        """
        return None

    def default_domain(self):
        raise NotImplementedError


class EllipsoidChart(Chart):
    """Axis-aligned ellipsoid; chart poles sit on the first semi-axis."""

    def __init__(self, center: np.ndarray, semi_axes: np.ndarray):
        self.center = np.asarray(center, dtype=float)
        self.semi_axes = np.asarray(semi_axes, dtype=float)
        if np.any(self.semi_axes <= 0):
            raise ConfigError("ellipsoid semi-axes must be positive")
        if self.semi_axes.size != self.center.size:
            raise ConfigError("semi_axes and center dimensions disagree")
        self.nparams = self.center.size - 1

    def jet(self, p):
        omega, d1, d2 = hypersphere_direction_jet(p)
        a = self.semi_axes
        return self.center + a * omega, a[:, None] * d1, a[:, None, None] * d2

    def default_domain(self):
        return _angle_domain(self.nparams)


class CylinderChart(Chart):
    """Circular cylinder in R^3, parameters (angle, height)."""

    nparams = 2

    def __init__(self, center: np.ndarray, radius: float, half_length: float = 1.0):
        self.center = np.asarray(center, dtype=float)
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
    """Graph of a polynomial height over a parameter box in Euclidean space.

    ``terms`` is a list of (coefficient, exponent-tuple) pairs.
    """

    def __init__(self, terms, box_lo, box_hi):
        self.box_lo = np.asarray(box_lo, dtype=float)
        self.box_hi = np.asarray(box_hi, dtype=float)
        self.nparams = self.box_lo.size
        self.terms = [
            (float(c), tuple(int(e) for e in exps)) for c, exps in terms
        ]
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
    """Distance sphere (level set of rho) of radius r about a model point.

    Riemannian models: directions run over the unit sphere of the tangent
    space at the center.  Lorentzian models: future timelike directions are
    parametrized as v(y) = sqrt(1+|y|^2) T + y_j E_j over a box, which keeps
    the chart smooth through y = 0.
    """

    def __init__(self, model: AmbientModel, center: np.ndarray, radius: float,
                 half_width: float = 2.0):
        if radius <= 0:
            raise ConfigError("geodesic sphere radius must be positive")
        b = model.curvature
        if model.signature == RIEMANNIAN and b > 0 and radius >= np.pi / np.sqrt(b):
            raise ConfigError("geodesic sphere radius reaches the conjugate locus")
        self.model = model
        self.center = model.check_point(np.asarray(center, dtype=float))
        self.radius = float(radius)
        self.half_width = float(half_width)
        self.nparams = model.dimension - 1
        self._frame = self._tangent_frame()
        self._alpha, self._beta = self._exp_coefficients()

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

    def _exp_coefficients(self):
        b, r = self.model.curvature, self.radius
        if not self.model.is_quadric:
            return 1.0, r
        # geodesics satisfy gamma'' = -b <v,v> gamma with <v,v> = +-1
        vv = -1.0 if self.model.signature == LORENTZIAN else 1.0
        w2 = b * vv
        if w2 > 0:
            w = np.sqrt(w2)
            return np.cos(w * r), np.sin(w * r) / w
        mu = np.sqrt(-w2)
        return np.cosh(mu * r), np.sinh(mu * r) / mu

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

    t(y) = sqrt(q(y)^2 + |y|^2) with q(y) = r + eps (e^{-|y-y0|^2} -
    e^{-|y+y0|^2}), y0 = (offset, 0, ..).  The distance to the vertex is then
    exactly q(y), so it attains an interior max near +y0 and an interior min
    near -y0 -- the regime the sandwich estimate describes.  With eps = 0 the
    chart is the distance sphere rho = r itself.
    """

    def __init__(self, center, radius, epsilon=0.01, offset=1.0, half_width=2.0):
        if radius <= 0:
            raise ConfigError("hyperboloid radius must be positive")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.epsilon = float(epsilon)
        self.half_width = float(half_width)
        self.nparams = self.center.size - 1
        y0 = np.zeros(self.nparams)
        y0[0] = float(offset)
        self.y0 = y0

    def _radial_jet(self, y):
        n = y.shape[-1]
        q = self.radius
        dq = np.zeros(y.shape)
        d2q = np.zeros(y.shape + (n,))
        for sgn in (1.0, -1.0):
            z = y - sgn * self.y0
            g = np.exp(-np.vecdot(z, z))[..., None]
            q = q + sgn * self.epsilon * g
            dq = dq + sgn * self.epsilon * (-2.0 * z) * g
            outer = z[..., :, None] * z[..., None, :]
            d2q = d2q + sgn * self.epsilon * (4.0 * outer - 2.0 * np.eye(n)) * g[..., None]
        return q, dq, d2q

    def jet(self, p):
        y = np.asarray(p, dtype=float)
        n = self.nparams
        q, dq, d2q = self._radial_jet(y)
        T = np.sqrt(q * q + np.vecdot(y, y)[..., None])
        dT = (q * dq + y) / T
        outer_q = dq[..., :, None] * dq[..., None, :]
        outer_T = dT[..., :, None] * dT[..., None, :]
        d2T = (outer_q + q[..., None] * d2q + np.eye(n) - outer_T) / T[..., None]
        x = self.center + np.concatenate([T, y], axis=-1)
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
    """Chart backed by a CSV table of samples on a complete regular grid.

    Columns: p0..p{n-1}, x0..x{m-1}, then optionally d1_{a}_{i} and
    d2_{a}_{i}_{j} in row-major order.  Each parameter coordinate is matched
    to the nearest grid value within 1e-9; evaluation anywhere else is
    rejected.
    """

    MATCH_TOL = 1e-9

    def __init__(self, params, positions, d1=None, d2=None):
        self.params = np.asarray(params, dtype=float)
        self.positions = np.asarray(positions, dtype=float)
        self.nparams = self.params.shape[1]
        self.d1 = None if d1 is None else np.asarray(d1, dtype=float)
        self.d2 = None if d2 is None else np.asarray(d2, dtype=float)
        self.axes = [np.unique(np.round(self.params[:, i], 9)) for i in range(self.nparams)]
        self._rows = np.full([a.size for a in self.axes], -1)
        index, _ = self._lookup(self.params)
        self._rows[tuple(np.moveaxis(index, -1, 0))] = np.arange(self.params.shape[0])
        if self._rows.size != self.params.shape[0] or np.any(self._rows < 0):
            raise ConfigError("tabulated samples do not form a complete grid")

    def _lookup(self, p, jet=False):
        """(index, errors): per-axis grid index of each point of p (..., n).

        With ``jet`` set on a table without jet columns, points on the grid
        boundary fail too: their finite differences lack a neighbor.
        """
        p = np.asarray(p, dtype=float)
        index = np.empty(p.shape, dtype=np.intp)
        miss = np.zeros(p.shape[:-1], dtype=bool)
        for i, axis in enumerate(self.axes):
            v = p[..., i]
            j = np.abs(axis - v[..., None]).argmin(axis=-1)
            miss |= np.abs(axis[j] - v) > self.MATCH_TOL
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
        lo = np.array([a[0] for a in self.axes])
        hi = np.array([a[-1] for a in self.axes])
        return lo, hi

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
        params = data[:, :n]
        positions = data[:, n : n + m]
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
    res = [resolution] * n if np.isscalar(resolution) else list(resolution)
    axes = [np.linspace(domain_lo[i], domain_hi[i], res[i]) for i in range(n)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    if include_jets:
        jet = chart.jet(points)
        if jet is None:
            raise ConfigError("chart has no analytic jets to export")
        x, d1, d2 = jet
        columns = [points, x, d1.reshape(len(points), -1), d2.reshape(len(points), -1)]
    else:
        x = chart.value(points)
        columns = [points, x]
    m = x.shape[-1]
    header = [f"p{i}" for i in range(n)] + [f"x{a}" for a in range(m)]
    if include_jets:
        header += [f"d1_{a}_{i}" for a in range(m) for i in range(n)]
        header += [f"d2_{a}_{i}_{j}" for a in range(m) for i in range(n) for j in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(np.hstack(columns).tolist())


def build_chart(model: AmbientModel, kind: str, params: dict) -> Chart:
    """Instantiate a chart by registry name against an ambient model."""
    params = dict(params)
    center = params.pop("center", None)
    if center is not None:
        center = np.asarray(center, dtype=float)
    if kind == "sphere":
        if model.model_kind != "euclidean":
            raise ConfigError("sphere chart requires a euclidean ambient")
        radius = float(params.pop("radius"))
        if radius <= 0:
            raise ConfigError("sphere radius must be positive")
        c = center if center is not None else np.zeros(model.embedding_dim)
        return EllipsoidChart(c, np.full(c.size, radius))
    if kind == "ellipsoid":
        if model.model_kind != "euclidean":
            raise ConfigError("ellipsoid chart requires a euclidean ambient")
        c = center if center is not None else np.zeros(model.embedding_dim)
        return EllipsoidChart(c, np.asarray(params.pop("semi_axes"), dtype=float))
    if kind == "cylinder":
        if model.model_kind != "euclidean" or model.embedding_dim != 3:
            raise ConfigError("cylinder chart requires euclidean R^3")
        c = center if center is not None else np.zeros(3)
        return CylinderChart(c, params.pop("radius"), params.pop("half_length", 1.0))
    if kind == "graph":
        if model.model_kind != "euclidean":
            raise ConfigError("graph chart requires a euclidean ambient")
        return PolynomialGraphChart(
            params.pop("terms"), params.pop("box_lo"), params.pop("box_hi")
        )
    if kind == "geodesic_sphere":
        c = center if center is not None else model.base_point()
        return GeodesicSphereChart(
            model, c, params.pop("radius"), params.pop("half_width", 2.0)
        )
    if kind in ("hyperboloid", "perturbed_hyperboloid"):
        if model.model_kind != "minkowski":
            raise ConfigError(f"{kind} chart requires a minkowski ambient")
        c = center if center is not None else np.zeros(model.embedding_dim)
        return PerturbedHyperboloidChart(
            c,
            params.pop("radius"),
            0.0 if kind == "hyperboloid" else params.pop("epsilon", 0.01),
            params.pop("offset", 1.0),
            params.pop("half_width", 2.0),
        )
    if kind == "tabulated":
        return TabulatedChart.from_csv(params.pop("path"))
    raise ConfigError(f"unknown chart kind {kind!r}")
