"""Comparison functions, admissible growth bounds and the Sturm and barrier machinery.

numpy only: a growth bound carries its primitive, so every integral of G is a
closed form, and the Cauchy problem g'' = G^2 g takes fourth-order Magnus steps
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009).  README's "Design" section
(scalar ODEs) summarizes the methods.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
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
    """Mean curvature of the geodesic sphere of radius t in curvature b, per entry of t.

    sqrt(b) cot(sqrt(b) t) (for t < pi/(2 sqrt(b))), 1/t or sqrt(-b) coth(sqrt(-b) t).
    A non-finite b or t, or a t outside the domain, raises DomainError.
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

    1 - cos(sqrt(b) t), t^2 or cosh(sqrt(-b) t) - 1, so phi_b' = |b| sn_b and
    phi_b'' = |b| cs_b (2 sn_0 and 2 cs_0 for b = 0).
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

GL_NODES = 10  # Gauss-Legendre nodes per panel of CurvatureBoundG.reciprocal_integral


@cache
def _gauss_legendre():
    """Nodes and weights on [-1, 1]; numpy.polynomial loads on the first 1/G integral."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(GL_NODES)


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
    """A curvature-growth bound G: G(0) > 0, G' >= 0 and 1/G not integrable at infinity.

    ``fn``, ``dfn`` and ``ifn`` (G, G' and I(t) = int_0^t G) take a float or an
    array of times; a scalar result is broadcast to their shape.  The last condition
    is only checked heuristically, on decade windows (:meth:`admissibility`).
    """

    fn: Callable
    dfn: Callable
    ifn: Callable
    name: str = "G"

    def __call__(self, t):
        return _over(t, self.fn(t))

    def derivative(self, t):
        return _over(t, self.dfn(t))

    def primitive(self, t):
        """I(t) = int_0^t G from ``ifn``; every integral of G goes through here."""
        return _over(t, self.ifn(t))

    def reciprocal_integral(self, a: float, length: float) -> float:
        """int_a^{a+length} ds / G(s) for a > 0 and length >= 0.

        Composite Gauss-Legendre on the panels [a 2^i, a 2^(i+1)], the last one cut at
        a + length, so each panel lies its own length away from a singularity at s <= 0.
        """
        nodes, weights = _gauss_legendre()
        panels = max(1, math.ceil(math.log2(1.0 + length / a)))
        edges = np.minimum(a * (2.0 ** np.arange(panels + 1) - 1.0), length)  # offsets from a
        edges[-1] = length
        half = 0.5 * np.diff(edges)[:, None]
        s = a + edges[:-1, None] + half * (1.0 + nodes)
        return float(np.sum(half * weights / self(s)))

    def admissibility(self) -> AdmissibilityFlags:
        """The three conditions, checked on the first call and kept: the bound is frozen."""
        return self._admissibility

    @cached_property
    def _admissibility(self) -> AdmissibilityFlags:
        positive = self(0.0) > 0.0
        nondec = bool(np.all(self.derivative(np.linspace(0.0, 100.0, 501)) >= -1e-10))
        if not (positive and nondec):  # 1/G may be undefined; the test would mean nothing
            return AdmissibilityFlags(positive, nondec, False)
        windows = [self.reciprocal_integral(10.0**k, 9.0 * 10.0**k) for k in range(6)]
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
    """Build a named growth bound: const(c), affine(a,b), sqrt_growth(a), with its primitive."""
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
        return CurvatureBoundG(lambda t: c, lambda t: 0.0, lambda t: c * t, spec.strip())
    if name == "affine" and len(args) == 2:
        a, sl = args
        return CurvatureBoundG(
            lambda t: a + sl * t, lambda t: sl, lambda t: a * t + 0.5 * sl * t * t, spec.strip()
        )
    if name == "sqrt_growth" and len(args) == 1:
        a = args[0]
        if a < 0.0:
            raise DomainError(f"sqrt_growth(a) needs a >= 0 to be defined on [0, inf): {spec!r}")

        def dfn(t):
            with np.errstate(divide="ignore"):  # G'(0) = +inf for a = 0 is admissible
                return 0.5 / np.sqrt(a + t)

        def ifn(t):  # t + 2/3 ((a + t)^(3/2) - a^(3/2)), with no cancellation at small t
            rise = np.power(t, 1.5) if a == 0.0 else a**1.5 * np.expm1(1.5 * np.log1p(t / a))
            return t + 2.0 / 3.0 * rise

        return CurvatureBoundG(lambda t: 1.0 + np.sqrt(a + t), dfn, ifn, spec.strip())
    raise DomainError(f"unknown growth bound {spec!r}")


# ---------------------------------------------------------------------------
# the Cauchy problem g'' = G^2 g and the Sturm quotient comparison
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class OdeSolution:
    """Solution of g'' = G^2 g, g(0) = 0, g'(0) = 1 on a grid over [0, T].

    ``diagnostics["steps"]`` is the number of Magnus steps taken.
    """

    grid: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# 2-point Gauss nodes on [0, 1] and the weight of the commutator in Omega
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
_COMMUTATOR = math.sqrt(3.0) / 12.0
MAX_STEP_GH = 0.02  # largest G h of a Magnus step
FIRST_STEP_GRADING = 30  # the first step is cut at 2^-30, ..., 1/2 of its length


def _magnus_propagators(G: CurvatureBoundG, lo: np.ndarray, h: np.ndarray) -> np.ndarray:
    """exp(Omega) of the fourth-order Magnus step over each [lo, lo + h], shape (n, 2, 2).

    With A = [[0, 1], [q, 0]], q = G^2, at the two Gauss nodes (q1, q2),
    Omega = h (A1 + A2)/2 - sqrt(3)/12 h^2 [A1, A2] = [[-d, h], [h qm, d]] with
    d = sqrt(3)/12 h^2 (q2 - q1) and qm = (q1 + q2)/2.  Omega is traceless, so
    Omega^2 = delta^2 I with delta^2 = -det Omega = d^2 + h^2 qm > 0 and
    exp(Omega) = cosh(delta) I + sinh(delta)/delta Omega.
    """
    q = G(lo[:, None] + h[:, None] * _GAUSS) ** 2
    d = _COMMUTATOR * h * h * (q[:, 1] - q[:, 0])
    qm = 0.5 * (q[:, 0] + q[:, 1])
    delta = np.sqrt(d * d + h * h * qm)
    c, s = np.cosh(delta), np.sinh(delta) / delta
    return np.stack([c - s * d, s * h, s * h * qm, c + s * d], axis=-1).reshape(-1, 2, 2)


def _prefix_products(E: np.ndarray) -> np.ndarray:
    """P[j] = E[j] @ ... @ E[0] over an (n, 2, 2) stack, in ceil(log2 n) batched rounds."""
    n = len(E)
    if n == 1:
        return E.copy()
    pairs = _prefix_products(E[1::2] @ E[:-1:2])  # pairs[i] = P[2i + 1]
    P = np.empty_like(E)
    P[0] = E[0]
    P[1::2] = pairs
    P[2::2] = E[2::2] @ pairs[: (n - 1) // 2]
    return P


def _require_no_overflow(G: CurvatureBoundG, T: float) -> None:
    """Raise DomainError when the propagator entries could overflow float64 before T.

    g <= psi < e^I/G(0) and g' <= psi' = G e^I/G(0) (Sturm comparison), and
    the solution from (1, 0) stays below e^I and G e^I, so every entry is below
    e^I max(1, G)^2/G(0), whose log is log_stage (G >= G(0)).  log_stage
    increases, so its crossing of the limit is found by bisection.
    """

    def log_stage(t):
        return G.primitive(t) + math.log(max(1.0, G(t)) ** 2 / G(0.0))

    limit = math.log(np.finfo(float).max / 1e3)
    hi = min(T, (limit + 1.0) / G(0.0))  # log_stage(t) >= t G(0)
    if log_stage(hi) <= limit:
        return
    lo = 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if log_stage(mid) > limit else (mid, hi)
    raise DomainError(f"g overflows float64 near t = {hi:.6g}; choose T below it")


def solve_cauchy_g(G: CurvatureBoundG, T: float, num: int = 1001) -> OdeSolution:
    """Solve g'' = G^2 g, g(0) = 0, g'(0) = 1 at ``num`` points over [0, T] by Magnus steps.

    The steps are fourth-order Magnus with 2-point Gauss nodes, exact for a constant
    G.  Every grid interval takes the least number of equal steps with
    G(T) h <= MAX_STEP_GH, and the first step is graded geometrically toward t = 0,
    where G' may be infinite; ``diagnostics["steps"]`` counts them.  T must be finite
    and > 0 and ``num`` >= 2 (else DomainError).  An inadmissible G raises
    HypothesisViolationError, a T where g would overflow float64 a DomainError that
    names the overflow point, and a lost positivity of g a NumericalError.
    """
    if not 0.0 < T < math.inf:  # written so that NaN fails it
        raise DomainError("solve_cauchy_g requires a finite T > 0")
    if num < 2:
        raise DomainError("solve_cauchy_g requires num >= 2")
    G.require_admissible()
    _require_no_overflow(G, T)
    grid = np.linspace(0.0, T, num)
    sub = math.ceil(G(T) * grid[1] / MAX_STEP_GH)
    h = grid[1] / sub
    n = (num - 1) * sub
    cuts = h * 2.0 ** np.arange(-FIRST_STEP_GRADING, 1)
    lo = np.concatenate([[0.0], cuts[:-1], h * np.arange(1, n)])
    widths = np.concatenate([np.diff(cuts, prepend=0.0), np.full(n - 1, h)])
    P = _prefix_products(_magnus_propagators(G, lo, widths))
    ends = P[FIRST_STEP_GRADING - 1 + sub * np.arange(1, num)]  # the step ending at each grid point
    g = np.concatenate([[0.0], ends[:, 0, 1]])
    if np.any(g[1:] <= 0.0):
        raise NumericalError("positivity of g lost: bound inadmissible or steps too coarse")
    return OdeSolution(
        grid=grid,
        g=g,
        dg=np.concatenate([[1.0], ends[:, 1, 1]]),
        diagnostics={"steps": widths.size},
    )


def psi(G: CurvatureBoundG, t):
    """Explicit subsolution (e^{int_0^t G} - 1)/G(0) of the Cauchy problem, at t or an array."""
    if not np.all(np.isfinite(t) & np.greater_equal(t, 0.0)):
        raise DomainError("psi requires a finite t >= 0")
    return _over(t, np.expm1(G.primitive(t)) / G(0.0))


def sturm_profile(G: CurvatureBoundG, T: float):
    """Grid, g, g', psi, and the margin psi'/psi - g'/g at 1000 points over (0, T]."""
    if not 0.1 <= T < math.inf:
        raise DomainError("sturm comparison requires a finite T >= 0.1")
    sol = solve_cauchy_g(G, T, num=1001)
    grid = sol.grid[1:]
    g = sol.g[1:]
    dg = sol.dg[1:]
    integral = G.primitive(grid)  # psi = (e^I - 1)/G(0), psi'/psi = G/(1 - e^-I)
    margins = G(grid) / -np.expm1(-integral) - dg / g
    return grid, g, dg, np.expm1(integral) / G(0.0), margins


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

    An admissible G is positive, so F decreases and Lambda = F(2) for every horizon.
    ``t_max`` must be finite and >= 2 (else DomainError) and is only validated.  The
    tail limit e^{int_0^1 G} is reported beside it.
    """
    if not 2.0 <= t_max < math.inf:
        raise DomainError("lambda_sup requires a finite t_max >= 2")
    G.require_admissible()
    tail = math.exp(G.primitive(1.0))
    value = tail / -math.expm1(-(G.primitive(2.0) - G.primitive(1.0)))
    return LambdaResult(value=value, argmax=2.0, tail_limit=tail)


def phi_gamma(G: CurvatureBoundG, t: float) -> float:
    """Increasing concave primitive int_0^t ds / G(s+1) of the barrier."""
    if not 0.0 <= t < math.inf:
        raise DomainError("phi_gamma requires a finite t >= 0")
    return G.reciprocal_integral(1.0, t)
