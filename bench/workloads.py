"""The benchmark's three workloads, driven through curvbound's public functions.

A workload builds its inputs once, then runs passes.  A pass is a fixed set of
units that this single process issues one after another, each after the
previous one returned (a closed loop with one caller).  The units are grouped
into chunks (one scenario, one surface, or one group of probes); the traced run
alternates traced and untraced runs of each chunk.  Every unit's output is
checked against the paper; a unit that raises or contradicts it is counted as
failed, never dropped.

Each pass also reports ``deviation``: the largest deviation from an equality
case of the paper that the pass computed.  It is relative to the exact value,
or absolute where the exact value is 0 (every surface here has unit-scale
curvature).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from curvbound import comparison, harness, immersion, operators
from curvbound.spaceform import LORENTZIAN, RIEMANNIAN, AmbientModel

# Library functions a pass calls.  The traced run wraps each one in a span.
PASS_FUNCTIONS = (
    harness.run_scenario,
    immersion.sample_grid,
    operators.operator_data,
    operators.omori_yau_search,
    operators.restriction_hessian,
    operators.key_inequality_residual,
    operators.l_k_apply,
    comparison.sturm_margin,
    comparison.solve_cauchy_g,
    comparison.lambda_sup,
)


def library(wrap=None) -> SimpleNamespace:
    """The pass functions by name, each passed through ``wrap`` if given."""
    return SimpleNamespace(**{fn.__name__: wrap(fn) if wrap else fn for fn in PASS_FUNCTIONS})


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    deviation: float = 0.0
    failures: list = field(default_factory=list)

    def check(self, what: str, fn, *args) -> None:
        """Run one unit; it fails if ``fn`` returns false or raises."""
        try:
            ok = bool(fn(*args))
        except Exception as exc:  # a raising unit is a failed unit, not a crash
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return
        if ok:
            self.attempted += 1
        else:
            self.fail(what, "output contradicts the paper")

    def fail(self, what: str, reason: str, units: int = 1) -> None:
        self.attempted += units
        self.failed += units
        self.failures.append(f"{what}: {reason}")

    def deviate(self, value: float) -> None:
        self.deviation = max(self.deviation, float(value))

    def merge(self, other: "PassResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.deviation = max(self.deviation, other.deviation)
        self.failures += other.failures


class Workload:
    """Inputs built once; ``chunks`` are callables ``chunk(lib) -> PassResult``."""

    chunks: list

    def run_pass(self, lib) -> PassResult:
        out = PassResult()
        for chunk in self.chunks:
            out.merge(chunk(lib))
        return out


def riemannian_space_form(b: float, dimension: int) -> AmbientModel:
    if b > 0:
        return AmbientModel.sphere(b, dimension)
    if b < 0:
        return AmbientModel.hyperbolic(b, dimension)
    return AmbientModel.euclidean(dimension)


# ---------------------------------------------------------------------------
# scenario-sweep: the `curvbound verify` path
# ---------------------------------------------------------------------------

SWEEP_RESOLUTION = 48
# Distance spheres, where the paper's estimates hold with equality.
EQUALITY_CHARTS = ("geodesic_sphere", "hyperboloid")


class ScenarioSweep(Workload):
    """All bundled scenarios through ``run_scenario``; deterministic grids."""

    def __init__(self, seed: int, tiny: bool = False):
        del seed  # grid workload: the inputs do not depend on the seed
        self.chunks = []
        for path in harness.bundled_scenarios().values():
            config = harness.load_scenario(path)
            config.resolution = 8 if tiny else SWEEP_RESOLUTION
            # Only to time patch building as part of setup_s: run_scenario
            # builds its own patch again on every pass.
            harness.scenario_patch(config)
            self.chunks.append(functools.partial(self._scenario, config))

    def _scenario(self, config, lib) -> PassResult:
        out = PassResult()
        out.check(config.name, self._verified, lib, config, out)
        return out

    @staticmethod
    def _verified(lib, config, out: PassResult) -> bool:
        report = lib.run_scenario(config)
        if any(c.status not in ("pass", "info") for c in report.checks):
            return False
        checks = {c.id: c for c in report.checks}
        b = config.model.curvature
        lorentz = config.model.signature == LORENTZIAN
        equality = config.chart_kind in EQUALITY_CHARTS
        if lorentz:
            exact = comparison.c_hat_b(b, config.chart_params["radius"])
        else:
            exact = comparison.c_b(b, checks["enclosing-radius"].residual)
        ok = True
        for k in range(config.k_range[0], config.k_range[1] + 1):
            ids = (
                (f"sandwich-lower-k{k}", f"sandwich-upper-k{k}")
                if lorentz
                else (f"ratio-lower-bound-k{k}",)
            )
            margins = [checks[i].residual for i in ids]
            if equality:
                ok &= all(abs(m) <= config.tol_equality for m in margins)
                out.deviate(max(abs(m) for m in margins) / exact)
            else:
                ok &= all(m > config.tol_margin for m in margins)
        return ok


# ---------------------------------------------------------------------------
# highdim-equality: geodesic spheres across b, n and jet kind
# ---------------------------------------------------------------------------

HIGHDIM_CURVATURES = (-1.0, 0.0, 1.0)
HIGHDIM_RESOLUTION = {2: 10, 3: 6, 4: 4}
HIGHDIM_TINY_RESOLUTION = {2: 3, 3: 2, 4: 2}
JET_TOLERANCE = {"analytic": 1e-6, "fd": 1e-3}


class HighdimEquality(Workload):
    """H_{k+1}/H_k = C_b(r) at every grid point of every geodesic sphere."""

    def __init__(self, seed: int, tiny: bool = False):
        del seed  # grid workload: the inputs do not depend on the seed
        resolution = HIGHDIM_TINY_RESOLUTION if tiny else HIGHDIM_RESOLUTION
        self.chunks = []
        for b in HIGHDIM_CURVATURES:
            r = np.pi / 4.0 if b > 0 else 1.0
            exact = comparison.c_b(b, r)
            for n, res in resolution.items():
                model = riemannian_space_form(b, n + 1)
                for jets, tol in JET_TOLERANCE.items():
                    patch = immersion.build_patch(
                        model, "geodesic_sphere", {"radius": r},
                        center=model.base_point(), jets=jets,
                    )
                    label = f"b={b:g} n={n} {jets}"
                    self.chunks.append(
                        functools.partial(self._surface, label, patch, res, exact, tol))

    def _surface(self, label, patch, res, exact, tol, lib) -> PassResult:
        out = PassResult()
        try:
            grid = lib.sample_grid(patch, res)
        except Exception as exc:  # every point of the surface is lost
            out.fail(label, f"{type(exc).__name__}: {exc}", units=res**patch.n)
            return out
        for p, reason in grid.skipped:
            out.fail(f"{label} at {p.tolist()}", f"skipped: {reason}")
        for _, frame in grid.points:
            out.check(label, self._ratio_ok, lib, frame, patch.n, exact, tol, out)
        return out

    @staticmethod
    def _ratio_ok(lib, frame, n, exact, tol, out: PassResult) -> bool:
        H = lib.operator_data(frame, RIEMANNIAN).H
        deviation = float(np.abs(H[1 : n + 1] / H[:n] - exact).max())
        out.deviate(deviation / exact)
        return deviation < tol


# ---------------------------------------------------------------------------
# point-probes: single-point calls at seeded scattered points
# ---------------------------------------------------------------------------

PROBES_PER_CHART = 20
TINY_PROBES_PER_CHART = 2
GROWTH_BOUNDS = ("const(1)", "const(2)", "affine(1,1)", "sqrt_growth(1)")
LAMBDA_CONST_1 = math.e**2 / (math.e - 1.0)  # Lambda for G = const(1)
ZERO_TOL = 1e-6


class PointProbes(Workload):
    """Extremum search, FD oracle, key inequality, L_k and the scalar ODEs."""

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        E3 = AmbientModel.euclidean(3)
        S3 = AmbientModel.sphere(1.0, 3)
        H3 = AmbientModel.hyperbolic(-1.0, 3)
        M3 = AmbientModel.minkowski(3)
        origin = np.zeros(3)
        # criterion-10 setup: the height function on the unit sphere
        self.sphere = immersion.build_patch(E3, "sphere", {"radius": 1.0}, center=origin)
        self.height = operators.LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
        self.search_resolution = 8 if tiny else 24
        charts = [  # (label, patch, reference point, is a level set of rho)
            ("ellipsoid",
             immersion.build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, center=origin),
             origin, False),
            ("S3 geodesic sphere",
             immersion.build_patch(S3, "geodesic_sphere", {"radius": 0.7}, center=S3.base_point()),
             S3.base_point(), True),
            ("H3 geodesic sphere",
             immersion.build_patch(H3, "geodesic_sphere", {"radius": 1.1}, center=H3.base_point()),
             H3.base_point(), True),
            ("perturbed hyperboloid",
             immersion.build_patch(M3, "perturbed_hyperboloid", {"radius": 2.0}),
             origin, False),
        ]
        count = TINY_PROBES_PER_CHART if tiny else PROBES_PER_CHART
        self.chunks = [self._search]
        for label, patch, o, level in charts:
            field_ = operators.DistanceField(patch.ambient, o)
            points = [patch.domain_lo + rng.uniform(0.1, 0.9, patch.n) * patch.domain_width
                      for _ in range(count)]
            self.chunks.append(
                functools.partial(self._probes, label, patch, o, field_, level, points))
        self.bounds = [comparison.make_bound(spec) for spec in GROWTH_BOUNDS]
        self.horizons = rng.uniform(1.0, 5.0, size=len(self.bounds))
        self.chunks.append(self._scalar_odes)

    def _search(self, lib) -> PassResult:
        out = PassResult()
        out.check("omori_yau_search", self._search_ok, lib)
        return out

    def _probes(self, label, patch, o, field_, level, points, lib) -> PassResult:
        out = PassResult()
        for p in points:
            where = f"{label} at {p.tolist()}"
            out.check(f"restriction_hessian {where}", self._hessian_ok, lib, patch, o, p)
            for k in (0, 1):
                out.check(f"key residual k={k} {where}", self._key_ok, lib, patch, p, k, o, out)
                out.check(f"L_{k} u {where}", self._l_k_ok, lib, patch, p, k, field_, level, out)
        return out

    def _scalar_odes(self, lib) -> PassResult:
        out = PassResult()
        for G, T in zip(self.bounds, self.horizons):
            out.check(f"sturm_margin {G.name} T={T}", self._sturm_ok, lib, G, T)
            out.check(f"solve_cauchy_g {G.name} T={T}", self._cauchy_ok, lib, G, T)
            out.check(f"lambda_sup {G.name}", self._lambda_ok, lib, G, out)
        return out

    def _search_ok(self, lib) -> bool:
        report = lib.omori_yau_search(
            self.sphere, self.height, 0, resolution=self.search_resolution, j_max=6, rounds=20
        )
        return report.all_found and report.refined_max.grad_norm < ZERO_TOL

    @staticmethod
    def _hessian_ok(lib, patch, o, p) -> bool:
        # raises ConsistencyError when the identity and FD routes disagree
        return bool(np.all(np.isfinite(lib.restriction_hessian(patch, o, p))))

    @staticmethod
    def _key_ok(lib, patch, p, k, o, out: PassResult) -> bool:
        residual = lib.key_inequality_residual(patch, p, k, origin=o)
        out.deviate(abs(residual))  # zero in space forms
        return residual >= -ZERO_TOL

    @staticmethod
    def _l_k_ok(lib, patch, p, k, field_, level, out: PassResult) -> bool:
        value = lib.l_k_apply(patch, p, k, field_)
        if not level:
            return math.isfinite(value)
        out.deviate(abs(value))  # L_k u = 0 on level sets of the distance
        return abs(value) < ZERO_TOL

    @staticmethod
    def _sturm_ok(lib, G, T) -> bool:
        return lib.sturm_margin(G, T) >= -ZERO_TOL

    @staticmethod
    def _cauchy_ok(lib, G, T) -> bool:
        sol = lib.solve_cauchy_g(G, T)
        return bool(np.all(sol.g[1:] > 0.0) and np.all(np.isfinite(sol.dg)))

    @staticmethod
    def _lambda_ok(lib, G, out: PassResult) -> bool:
        value = lib.lambda_sup(G).value
        if G.name != "const(1)":
            return math.isfinite(value) and value > 0.0
        out.deviate(abs(value - LAMBDA_CONST_1) / LAMBDA_CONST_1)
        return abs(value - LAMBDA_CONST_1) < 1e-4


WORKLOADS = {
    "scenario-sweep": ScenarioSweep,
    "highdim-equality": HighdimEquality,
    "point-probes": PointProbes,
}
