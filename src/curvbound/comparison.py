"""Comparison functions and the Sturm/barrier machinery.

Contains the model functions sn_k, cs_k of constant curvature k, the
geodesic-sphere mean curvature C_b, its primitive-side companion phi_b and
the Lorentzian counterpart C_{-b} (each over a float or an array of t),
admissible curvature-growth bounds G (over arrays of times), the Cauchy
problem g'' = G^2 g, the explicit supersolution quotient psi, and the
barrier ingredients phi (A10-style primitive) and the finite supremum
Lambda, in closed form.

The scenario pipeline needs only these closed forms, which use no scipy.
scipy loads on the first call of a function that integrates:
``CurvatureBoundG.integral`` and ``admissibility`` (so ``require_admissible``),
``solve_cauchy_g`` (so ``sturm_profile``/``sturm_margin``), ``psi``,
``lambda_sup``, ``phi_gamma``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, HypothesisViolationError, NumericalError


def sn(k: float, t):
    """sin(sqrt(k) t)/sqrt(k), t or sinh(sqrt(-k) t)/sqrt(-k): f'' + k f = 0, f(0) = 0, f'(0) = 1.

    k is a scalar; t is a float or an array, and the result has its shape.
    """
    if k == 0.0:
        return t * 1.0
    sk = math.sqrt(abs(k))
    return (np.sin if k > 0.0 else np.sinh)(sk * t) / sk


def cs(k: float, t):
    """cos(sqrt(k) t), 1 or cosh(sqrt(-k) t): the derivative of :func:`sn`."""
    if k == 0.0:
        return np.ones(np.shape(t))[()]
    return (np.cos if k > 0.0 else np.cosh)(math.sqrt(abs(k)) * t)


def c_b(b: float, t):
    """Mean curvature of the geodesic sphere of radius t, curvature b, per entry of t.

    sqrt(b) cot(sqrt(b) t) for b > 0 (valid for t < pi/(2 sqrt(b))),
    1/t for b = 0, sqrt(-b) coth(sqrt(-b) t) for b < 0; cs/sn would overflow
    to inf/inf from sqrt(|b|) t > 710 on.  Raises if b or any t is out of the domain.
    """
    t = np.asarray(t, dtype=float)
    if not (math.isfinite(b) and np.isfinite(t).all()):
        raise DomainError("c_b requires finite b and t")
    if (t <= 0.0).any():
        raise DomainError("c_b requires t > 0")
    if b == 0.0:
        return 1.0 / t
    sb = math.sqrt(abs(b))
    if b > 0.0 and (t >= math.pi / (2.0 * sb)).any():
        raise DomainError("c_b requires t < pi/(2 sqrt(b)) when b > 0")
    return sb / (np.tan if b > 0.0 else np.tanh)(sb * t)


def c_hat_b(b: float, t):
    """Future mean curvature of the Lorentzian distance level set: C_{-b}(t)."""
    return c_b(-b, t)


def phi_b(b: float, t):
    """Increasing solution of phi'' - C_b(t) phi' = 0 with phi(0) = 0, per entry of t.

    1 - cos(sqrt(b) t) for b > 0, t^2 for b = 0, cosh(sqrt(-b) t) - 1 for
    b < 0.  The hyperbolic branch is the unique choice with phi' > 0 that
    actually satisfies the defining equation (coth fails both).  So phi_b' and
    phi_b'' are |b| sn_b and |b| cs_b (2 sn_0 and 2 cs_0 for b = 0).
    """
    return t * t if b == 0.0 else np.abs(1.0 - cs(b, t))


def phi_b_d1(b: float, t):
    return (abs(b) or 2.0) * sn(b, t)


def phi_b_d2(b: float, t):
    return (abs(b) or 2.0) * cs(b, t)


def phi_ode_residual(b: float, t):
    """phi_b''(t) - C_b(t) phi_b'(t); zero on the valid domain."""
    return phi_b_d2(b, t) - c_b(b, t) * phi_b_d1(b, t)


# ---------------------------------------------------------------------------
# admissible curvature bounds G
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityFlags:
    positive_at_zero: bool
    nondecreasing: bool
    reciprocal_not_integrable: bool

    @property
    def ok(self) -> bool:
        return self.positive_at_zero and self.nondecreasing and self.reciprocal_not_integrable


@dataclass(frozen=True)
class CurvatureBoundG:
    """A curvature-growth bound G with the three admissibility conditions.

    Admissibility means G(0) > 0, G' >= 0 and 1/G not integrable at infinity.
    The last condition is asymptotic, hence only heuristically checkable: we
    accept G when the reciprocal integral over decade windows [10^k, 10^k+1]
    is not shrinking geometrically (or when the total mass is already large).

    ``fn`` and ``dfn`` (G and G') take a float or an array of times; a
    constant may come back as a scalar, and is broadcast to the times' shape.
    """

    fn: Callable
    dfn: Callable
    name: str = "G"

    def __call__(self, t):
        return _over(t, self.fn(t))

    def derivative(self, t):
        return _over(t, self.dfn(t))

    def integral(self, a: float, b: float) -> float:
        """int_a^b G by adaptive quadrature; every integral of G goes through here."""
        from scipy import integrate
        return integrate.quad(self, a, b, limit=200)[0]

    def admissibility(self) -> AdmissibilityFlags:
        """The three conditions, checked on the first call and kept: the bound is frozen."""
        return self._admissibility

    @cached_property
    def _admissibility(self) -> AdmissibilityFlags:
        from scipy import integrate
        positive = self(0.0) > 0.0
        nondec = bool(np.all(self.derivative(np.linspace(0.0, 100.0, 501)) >= -1e-10))
        if not (positive and nondec):  # 1/G may be undefined; the test would mean nothing
            return AdmissibilityFlags(positive, nondec, False)
        windows = []
        for k in range(6):
            val, _ = integrate.quad(lambda s: 1.0 / self(s), 10.0**k, 10.0 ** (k + 1), limit=200)
            windows.append(val)
        total = sum(windows)
        not_l1 = total > 50.0 or windows[5] >= 0.5 * windows[4]
        return AdmissibilityFlags(positive, nondec, not_l1)

    def require_admissible(self) -> None:
        flags = self.admissibility()
        if not flags.ok:
            raise HypothesisViolationError(
                f"{self.name} is not an admissible growth bound: {flags}"
            )


def _over(t, values):
    """values as a float for a scalar t, else as an array of t's shape."""
    if np.ndim(t) == 0:
        return float(values)
    return np.broadcast_to(np.asarray(values, dtype=float), np.shape(t))


_BOUND_PATTERN = re.compile(r"^\s*(\w+)\s*\(\s*([^)]*)\s*\)\s*$")


def make_bound(spec: str) -> CurvatureBoundG:
    """Build a named growth bound: const(c), affine(a,b), sqrt_growth(a)."""
    m = _BOUND_PATTERN.match(spec)
    if not m:
        raise DomainError(f"cannot parse growth-bound spec {spec!r}")
    name, raw = m.group(1), m.group(2)
    try:
        args = [float(s) for s in raw.split(",")] if raw.strip() else []
    except ValueError as exc:
        raise DomainError(f"bad parameters in {spec!r}") from exc
    if not all(map(math.isfinite, args)):
        raise DomainError(f"parameters of {spec!r} must be finite")
    if name == "const" and len(args) == 1:
        c = args[0]
        return CurvatureBoundG(lambda t: c, lambda t: 0.0, spec.strip())
    if name == "affine" and len(args) == 2:
        a, sl = args
        return CurvatureBoundG(lambda t: a + sl * t, lambda t: sl, spec.strip())
    if name == "sqrt_growth" and len(args) == 1:
        a = args[0]
        if a < 0.0:
            raise DomainError(f"sqrt_growth(a) needs a >= 0 to be defined on [0, inf): {spec!r}")

        def dfn(t):
            with np.errstate(divide="ignore"):  # G'(0) = +inf for a = 0 is admissible
                return 0.5 / np.sqrt(a + t)

        return CurvatureBoundG(lambda t: 1.0 + np.sqrt(a + t), dfn, spec.strip())
    raise DomainError(f"unknown growth bound {spec!r}")


# ---------------------------------------------------------------------------
# the Cauchy problem g'' = G^2 g and the Sturm quotient comparison
# ---------------------------------------------------------------------------


@dataclass
class OdeSolution:
    """Solution of g'' = G^2 g, g(0) = 0, g'(0) = 1 on a grid over [0, T].

    ``integral_G`` carries int_0^t G alongside, so quotient comparisons can
    be formed without re-quadrature.
    """

    grid: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    integral_G: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def solve_cauchy_g(G: CurvatureBoundG, T: float, num: int = 1001) -> OdeSolution:
    """Integrate the Cauchy problem with an adaptive high-order RK scheme.

    The first step is taken from the series g = t + G(0)^2 t^3/6 + O(t^4) to
    avoid quotient singularities at t = 0.  Raises DomainError when g would
    overflow float64 before T.
    """
    if not 0.0 < T < math.inf:  # written so that NaN fails it
        raise DomainError("solve_cauchy_g requires a finite T > 0")
    from scipy import integrate
    G.require_admissible()

    # g <= psi and g' <= psi' (Sturm comparison), so log_stage bounds the log of the
    # integrator's stages g' and G^2 g; DOP853 sums them with weights of a few hundred
    def log_stage(t):
        gt = G(t)
        return G.integral(0.0, t) + math.log(gt * max(1.0, gt) / G(0.0))

    limit = math.log(np.finfo(float).max / 1e3)
    t_hi = min(T, (limit + 1.0) / G(0.0))  # log_stage(t) >= t G(0)
    if log_stage(t_hi) > limit:
        from scipy import optimize
        where = optimize.brentq(lambda t: log_stage(t) - limit, 0.0, t_hi)
        raise DomainError(f"g overflows float64 near t = {where:.6g}; choose T below it")
    g0sq = G(0.0) ** 2
    t0 = min(1e-6, T * 1e-6)
    y0 = [
        t0 + g0sq * t0**3 / 6.0,
        1.0 + g0sq * t0**2 / 2.0,
        G.integral(0.0, t0),
    ]

    def rhs(t, y):
        gval = G(t)
        return [y[1], gval * gval * y[0], gval]

    sol = integrate.solve_ivp(
        rhs, (t0, T), y0, method="DOP853", rtol=1e-9, atol=1e-12, dense_output=True
    )
    if not sol.success:
        raise NumericalError(f"Cauchy integration failed: {sol.message}")
    grid = np.linspace(0.0, T, num)
    vals = np.empty((3, num))
    vals[:, 0] = [0.0, 1.0, 0.0]
    inside = grid > t0
    vals[:, inside] = sol.sol(grid[inside])
    small = (~inside) & (grid > 0.0)
    if small.any():
        ts = grid[small]
        vals[0, small] = ts + g0sq * ts**3 / 6.0
        vals[1, small] = 1.0 + g0sq * ts**2 / 2.0
        vals[2, small] = ts * G(0.0)
    if np.any(vals[0, grid > 0.0] <= 0.0):
        raise NumericalError("positivity of g lost: bound inadmissible or tolerance too loose")
    return OdeSolution(
        grid=grid,
        g=vals[0],
        dg=vals[1],
        integral_G=vals[2],
        diagnostics={"nfev": sol.nfev, "status": sol.status},
    )


def psi(G: CurvatureBoundG, t: float) -> float:
    """Explicit subsolution (e^{int_0^t G} - 1)/G(0) of the Cauchy problem."""
    if t < 0.0:
        raise DomainError("psi requires t >= 0")
    if t == 0.0:
        return 0.0
    return math.expm1(G.integral(0.0, t)) / G(0.0)


def psi_quotient(G: CurvatureBoundG, integral: np.ndarray, t: np.ndarray) -> np.ndarray:
    """psi'/psi = G(t) e^I / (e^I - 1), evaluated overflow-free."""
    return G(np.asarray(t, dtype=float)) / (-np.expm1(-np.asarray(integral)))


def sturm_profile(G: CurvatureBoundG, T: float):
    """Grid, g, g', psi, and the margin psi'/psi - g'/g at 1000 points over (0, T]."""
    if not 0.1 <= T < math.inf:
        raise DomainError("sturm comparison requires a finite T >= 0.1")
    sol = solve_cauchy_g(G, T, num=1001)
    grid = sol.grid[1:]
    g = sol.g[1:]
    dg = sol.dg[1:]
    integral = sol.integral_G[1:]
    margins = psi_quotient(G, integral, grid) - dg / g
    psi_vals = np.expm1(integral) / G(0.0)
    return grid, g, dg, psi_vals, margins


def sturm_margin(G: CurvatureBoundG, T: float) -> float:
    """Minimum of psi'/psi - g'/g over the grid of :func:`sturm_profile`; nonnegative in theory."""
    _, _, _, _, margins = sturm_profile(G, T)
    return float(margins.min())


# ---------------------------------------------------------------------------
# barrier ingredients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaResult:
    value: float
    argmax: float
    tail_limit: float


def lambda_sup(G: CurvatureBoundG, t_max: float = 50.0) -> LambdaResult:
    """Supremum over [2, t_max] of F(t) = e^{int_0^t G} / (e^{int_1^t G} - 1).

    An admissible G has G(0) > 0 and G' >= 0, so G > 0 and F(t) =
    e^{I1} / (1 - e^{-int_1^t G}) is strictly decreasing: Lambda = F(2) =
    e^{I1} / (-expm1(-int_1^2 G)) for every horizon, with I1 = int_0^1 G.
    ``t_max`` is only validated.  The tail limit lim F = e^{I1} is reported
    separately.
    """
    if not 2.0 <= t_max < math.inf:
        raise DomainError("lambda_sup requires a finite t_max >= 2")
    G.require_admissible()
    tail = math.exp(G.integral(0.0, 1.0))
    value = tail / -math.expm1(-G.integral(1.0, 2.0))
    return LambdaResult(value=value, argmax=2.0, tail_limit=tail)


def phi_gamma(G: CurvatureBoundG, t: float) -> float:
    """Increasing concave primitive int_0^t ds / G(s+1) of the barrier."""
    if t < 0.0:
        raise DomainError("phi_gamma requires t >= 0")
    if t == 0.0:
        return 0.0
    from scipy import integrate
    val, _ = integrate.quad(lambda s: 1.0 / G(s + 1.0), 0.0, t, limit=200)
    return val
