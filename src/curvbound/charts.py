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

import numpy as np

from .errors import ConfigError, DomainError
from .spaceform import LORENTZIAN, RIEMANNIAN, AmbientModel

# Default exclusion band around the coordinate poles of spherical charts.
POLAR_MARGIN = 0.15


def hypersphere_direction_jet(angles: np.ndarray):
    """Unit vector on S^n (n = len(angles)) with exact first/second jets.

    omega_0 = cos t_0, omega_j = sin t_0 .. sin t_{j-1} cos t_j,
    omega_n = sin t_0 .. sin t_{n-1}.  Every component is a product of
    univariate sin/cos factors, so derivatives are factor replacements and
    the pure second derivative is just -omega_j.
    """
    angles = np.asarray(angles, dtype=float)
    n = angles.size
    m = n + 1
    s, c = np.sin(angles), np.cos(angles)
    value = np.empty(m)
    d1 = np.zeros((m, n))
    d2 = np.zeros((m, n, n))
    for j in range(m):
        idx = list(range(j + 1)) if j < n else list(range(n))
        fv = [c[i] if (i == j and j < n) else s[i] for i in idx]
        fd = [-s[i] if (i == j and j < n) else c[i] for i in idx]
        value[j] = np.prod(fv)
        for a_pos, a in enumerate(idx):
            rest = np.prod([fv[q] for q in range(len(idx)) if q != a_pos])
            d1[j, a] = rest * fd[a_pos]
            d2[j, a, a] = -value[j]
            for b_pos in range(a_pos):
                b = idx[b_pos]
                core = np.prod(
                    [fv[q] for q in range(len(idx)) if q not in (a_pos, b_pos)]
                )
                mixed = core * fd[a_pos] * fd[b_pos]
                d2[j, a, b] = mixed
                d2[j, b, a] = mixed
    return value, d1, d2


def fd_jet(value, p: np.ndarray, h: np.ndarray):
    """(position, d1, d2) of ``value`` at p by central differences.

    ``h`` holds one step per parameter axis; mixed second derivatives use the
    four-point cross stencil.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    x = np.asarray(value(p), dtype=float)
    m = x.size
    d1 = np.empty((m, n))
    d2 = np.empty((m, n, n))

    def at(dp):
        return np.asarray(value(p + dp), dtype=float)

    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        fp, fm = at(ei), at(-ei)
        d1[:, i] = (fp - fm) / (2.0 * h[i])
        d2[:, i, i] = (fp - 2.0 * x + fm) / h[i] ** 2
        for j in range(i):
            ej = np.zeros(n)
            ej[j] = h[j]
            mixed = (at(ei + ej) - at(ei - ej) - at(-ei + ej) + at(-ei - ej)) / (
                4.0 * h[i] * h[j]
            )
            d2[:, i, j] = mixed
            d2[:, j, i] = mixed
    return x, d1, d2


def _angle_domain(n: int):
    lo = np.zeros(n)
    hi = np.full(n, 2.0 * np.pi)
    if n > 1:
        lo[: n - 1] = POLAR_MARGIN
        hi[: n - 1] = np.pi - POLAR_MARGIN
    return lo, hi


class Chart:
    """Map from an n-dimensional parameter box into the embedding space."""

    nparams: int

    def value(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jet(self, p: np.ndarray):
        """(position, d1, d2) with d1 of shape (m, n), d2 of shape (m, n, n).

        Returns None when no closed-form jets are available.
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

    def value(self, p):
        omega, _, _ = hypersphere_direction_jet(p)
        return self.center + self.semi_axes * omega

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

    def value(self, p):
        phi, z = p
        r = self.radius
        return self.center + np.array([r * np.cos(phi), r * np.sin(phi), z])

    def jet(self, p):
        phi, _ = p
        r = self.radius
        x = self.value(p)
        d1 = np.array([[-r * np.sin(phi), 0.0], [r * np.cos(phi), 0.0], [0.0, 1.0]])
        d2 = np.zeros((3, 2, 2))
        d2[0, 0, 0] = -r * np.cos(phi)
        d2[1, 0, 0] = -r * np.sin(phi)
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

    def _height_jet(self, p):
        n = self.nparams
        h = 0.0
        dh = np.zeros(n)
        d2h = np.zeros((n, n))
        for c, exps in self.terms:
            mono = c * np.prod([p[i] ** exps[i] for i in range(n)])
            h += mono

            def partial(coeff, ex, axis):
                if ex[axis] == 0:
                    return 0.0, ex
                new = list(ex)
                new[axis] -= 1
                return coeff * ex[axis], tuple(new)

            for i in range(n):
                ci, ei = partial(c, exps, i)
                if ci == 0.0:
                    continue
                dh[i] += ci * np.prod([p[q] ** ei[q] for q in range(n)])
                for j in range(n):
                    cij, eij = partial(ci, ei, j)
                    if cij == 0.0:
                        continue
                    d2h[i, j] += cij * np.prod([p[q] ** eij[q] for q in range(n)])
        return h, dh, d2h

    def value(self, p):
        h, _, _ = self._height_jet(p)
        return np.concatenate([np.asarray(p, dtype=float), [h]])

    def jet(self, p):
        n = self.nparams
        h, dh, d2h = self._height_jet(p)
        x = np.concatenate([np.asarray(p, dtype=float), [h]])
        d1 = np.vstack([np.eye(n), dh])
        d2 = np.zeros((n + 1, n, n))
        d2[n] = d2h
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
        if self.model.signature == RIEMANNIAN:
            omega, d1, d2 = hypersphere_direction_jet(p)
            E = self._frame  # (n+1, m)
            return omega @ E, E.T @ d1, np.einsum("jab,jm->mab", d2, E)
        y = np.asarray(p, dtype=float)
        n = y.size
        S = np.sqrt(1.0 + y @ y)
        dS = y / S
        d2S = (np.eye(n) - np.outer(dS, dS)) / S
        that, E = self._frame[0], self._frame[1:]
        v = S * that + y @ E
        d1 = that[:, None] * dS[None, :] + E.T
        d2 = that[:, None, None] * d2S[None, :, :]
        return v, d1, d2

    def value(self, p):
        v, _, _ = self._direction_jet(p)
        return self._alpha * self.center + self._beta * v

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
        n = y.size
        q = self.radius
        dq = np.zeros(n)
        d2q = np.zeros((n, n))
        for sgn in (1.0, -1.0):
            z = y - sgn * self.y0
            g = np.exp(-(z @ z))
            q += sgn * self.epsilon * g
            dq += sgn * self.epsilon * (-2.0 * z) * g
            d2q += sgn * self.epsilon * (4.0 * np.outer(z, z) - 2.0 * np.eye(n)) * g
        return q, dq, d2q

    def _graph_jet(self, y):
        y = np.asarray(y, dtype=float)
        n = y.size
        q, dq, d2q = self._radial_jet(y)
        T = np.sqrt(q * q + y @ y)
        dT = (q * dq + y) / T
        d2T = (np.outer(dq, dq) + q * d2q + np.eye(n) - np.outer(dT, dT)) / T
        return T, dT, d2T

    def value(self, p):
        T, _, _ = self._graph_jet(p)
        return self.center + np.concatenate([[T], np.asarray(p, dtype=float)])

    def jet(self, p):
        n = self.nparams
        T, dT, d2T = self._graph_jet(np.asarray(p, dtype=float))
        x = self.center + np.concatenate([[T], np.asarray(p, dtype=float)])
        d1 = np.vstack([dT, np.eye(n)])
        d2 = np.zeros((n + 1, n, n))
        d2[0] = d2T
        return x, d1, d2

    def default_domain(self):
        n = self.nparams
        return np.full(n, -self.half_width), np.full(n, self.half_width)


class TabulatedChart(Chart):
    """Chart backed by a CSV table of samples on a complete regular grid.

    Columns: p0..p{n-1}, x0..x{m-1}, then optionally d1_{a}_{i} and
    d2_{a}_{i}_{j} in row-major order.  Lookups match parameters to 1e-9;
    evaluation anywhere else is rejected.
    """

    def __init__(self, params, positions, d1=None, d2=None):
        self.params = np.asarray(params, dtype=float)
        self.positions = np.asarray(positions, dtype=float)
        self.nparams = self.params.shape[1]
        self.d1 = None if d1 is None else np.asarray(d1, dtype=float)
        self.d2 = None if d2 is None else np.asarray(d2, dtype=float)
        self._index = {self._key(p): i for i, p in enumerate(self.params)}
        self.axes = [np.unique(np.round(self.params[:, i], 9)) for i in range(self.nparams)]
        expected = int(np.prod([a.size for a in self.axes]))
        if expected != self.params.shape[0]:
            raise ConfigError("tabulated samples do not form a complete grid")

    @staticmethod
    def _key(p):
        return tuple(np.round(np.asarray(p, dtype=float), 9).tolist())

    def _row(self, p) -> int:
        key = self._key(p)
        if key not in self._index:
            raise DomainError("parameter point is not tabulated")
        return self._index[key]

    def value(self, p):
        return self.positions[self._row(p)].copy()

    def jet(self, p):
        i = self._row(p)
        if self.d1 is not None and self.d2 is not None:
            return self.positions[i].copy(), self.d1[i].copy(), self.d2[i].copy()
        p = np.asarray(p, dtype=float)
        steps = np.empty(self.nparams)
        for i, axis in enumerate(self.axes):
            j = int(np.argmin(np.abs(axis - p[i])))
            if j == 0 or j == axis.size - 1:
                raise DomainError("finite differences unavailable at the grid boundary")
            steps[i] = 0.5 * (axis[j + 1] - axis[j - 1])
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
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=-1)
    m = chart.value(points[0]).size
    header = [f"p{i}" for i in range(n)] + [f"x{a}" for a in range(m)]
    if include_jets:
        header += [f"d1_{a}_{i}" for a in range(m) for i in range(n)]
        header += [f"d2_{a}_{i}_{j}" for a in range(m) for i in range(n) for j in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p in points:
            if include_jets:
                jet = chart.jet(p)
                if jet is None:
                    raise ConfigError("chart has no analytic jets to export")
                x, d1, d2 = jet
                writer.writerow(
                    list(p) + list(x) + list(d1.ravel()) + list(d2.ravel())
                )
            else:
                writer.writerow(list(p) + list(chart.value(p)))


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
