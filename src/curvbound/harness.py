"""Scenario-driven verification of the curvature estimates.

A scenario binds an ambient model, a chart, a reference point and a range of
curvature orders k, then checks every estimate that applies:

  riemannian:  sup |H_{k+1}|/H_k >= C_b(r)   (r = refined max distance),
               the power chain, the product bound, and the H_2 corollary;
  lorentzian:  the four-term sandwich between inf/sup of H_{k+1}/H_k and
               C_{-b} at the refined distance extrema, plus the outer-ball
               bound.

Reports are deterministic given the configuration (fixed grids, no
randomness); only ``timing_ms`` varies between runs.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .comparison import c_b, c_hat_b
from .curvature import TAU_ELL
from .errors import ConfigError
from .immersion import build_patch, refine_extremum, sample_grid
from .operators import (
    DistanceField,
    OperatorData,
    key_inequality_rhs,
    operator_data,
    restrict_field,
    trace_operator,
)
from .spaceform import RIEMANNIAN, AmbientModel, ReferenceBall

H_FLOOR = 1e-9  # samples with H_k at or below this are excluded from ratios
MAX_EXCLUSION_RATE = 0.10
MIN_RESOLUTION = 8


@dataclass
class ScenarioConfig:
    name: str
    model: AmbientModel
    reference_center: np.ndarray
    reference_radius: float | None
    chart_kind: str
    chart_params: dict
    orientation: str | None
    k_range: tuple
    resolution: int
    tol_equality: float
    tol_margin: float
    jets: str

    @property
    def n(self) -> int:
        return self.model.dimension - 1


def checked_resolution(value) -> int:
    """Grid points per axis, rejected below what the estimates need."""
    resolution = int(value)
    if resolution < MIN_RESOLUTION:
        raise ConfigError(f"estimate scenarios need resolution >= {MIN_RESOLUTION} per axis")
    return resolution


def load_scenario(source) -> ScenarioConfig:
    """Parse a scenario from a dict, a JSON string, or a file path."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"scenario file not found: {source}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {source}: {exc}") from exc
    elif isinstance(source, dict):
        raw = source
    else:
        raise ConfigError("scenario source must be a path or a dict")

    def need(obj, key, where):
        if key not in obj:
            raise ConfigError(f"missing field {key!r} in {where}")
        return obj[key]

    name = need(raw, "name", "scenario")
    amb = need(raw, "ambient", "scenario")
    try:
        model = AmbientModel(
            signature=need(amb, "signature", "ambient"),
            curvature=float(need(amb, "curvature", "ambient")),
            dimension=int(need(amb, "dimension", "ambient")),
            model_kind=need(amb, "model_kind", "ambient"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad ambient model: {exc}") from exc
    ref = need(raw, "reference", "scenario")
    center = np.asarray(need(ref, "center", "reference"), dtype=float)
    radius = ref.get("radius")
    chart = need(raw, "chart", "scenario")
    k_range = tuple(int(v) for v in need(raw, "k_range", "scenario"))
    n = model.dimension - 1
    if len(k_range) != 2 or not (0 <= k_range[0] <= k_range[1] <= n - 1):
        raise ConfigError(
            f"k_range must lie within [0, {n - 1}] for dimension {model.dimension}"
        )
    resolution = checked_resolution(raw.get("resolution", 16))
    tol = raw.get("tolerances", {})
    jets = raw.get("jets", "auto")
    default_eq = 1e-3 if jets == "fd" else 1e-6
    return ScenarioConfig(
        name=name,
        model=model,
        reference_center=center,
        reference_radius=None if radius is None else float(radius),
        chart_kind=need(chart, "kind", "chart"),
        chart_params=dict(chart.get("params", {})),
        orientation=chart.get("orientation"),
        k_range=k_range,
        resolution=resolution,
        tol_equality=float(tol.get("equality", default_eq)),
        tol_margin=float(tol.get("margin", 1e-6)),
        jets=jets,
    )


@dataclass
class CheckRecord:
    id: str
    anchor: str
    status: str  # pass | fail | hypothesis-violation | inconclusive | info
    residual: float | None
    worst_sample: list | None


@dataclass
class VerificationReport:
    scenario: str
    checks: list
    env: dict
    timing_ms: float

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "checks": [asdict(c) for c in self.checks],
            "env": self.env,
            "timing_ms": self.timing_ms,
        }

    @property
    def exit_code(self) -> int:
        statuses = {c.status for c in self.checks}
        if "hypothesis-violation" in statuses:
            return 2
        if "fail" in statuses or "inconclusive" in statuses:
            return 1
        return 0


def scenario_patch(config: ScenarioConfig):
    params = dict(config.chart_params)
    if config.chart_kind in ("geodesic_sphere", "hyperboloid", "perturbed_hyperboloid"):
        params.setdefault("center", list(config.reference_center))
    return build_patch(
        config.model,
        config.chart_kind,
        params,
        orientation=config.orientation,
        center=config.reference_center,
        jets=config.jets,
    )


@dataclass
class ScenarioSamples:
    """Grid samples as arrays over a leading sample axis.

    ``params`` (N, n) are the grid points that have a frame, ``data`` their
    operator data (H, kappa, Newton eigenvalues), ``u`` (N,) the distance.
    """

    params: np.ndarray
    data: OperatorData
    u: np.ndarray
    skipped: list
    patch: object = None
    field: object = None


def collect_samples(config: ScenarioConfig, resolution=None) -> ScenarioSamples:
    patch = scenario_patch(config)
    dist = DistanceField(config.model, config.reference_center)
    grid = sample_grid(patch, resolution or config.resolution)
    return ScenarioSamples(
        params=grid.frames.param,
        data=operator_data(grid.frames, config.model.signature),
        u=dist.value(grid.frames.position),
        skipped=grid.skipped,
        patch=patch,
        field=dist,
    )


def refined_distance_extremum(samples: ScenarioSamples, mode: str):
    """(param, value) of the refined max or min of u over the patch."""
    sign = 1.0 if mode == "max" else -1.0
    patch, dist = samples.patch, samples.field
    idx = np.argmax(samples.u) if mode == "max" else np.argmin(samples.u)
    cell = patch.domain_width / max(2, len(samples.u) ** (1.0 / patch.n))

    def fn(q):
        return dist.value(np.asarray(patch.chart.value(q), dtype=float))

    return refine_extremum(patch, fn, samples.params[idx], cell, sign=sign)


def _ratio_pool(samples: ScenarioSamples, k: int):
    """Per-sample H_{k+1}/H_k with the H_k floor applied; returns exclusions."""
    H = samples.data.H
    kept = H[:, k] > H_FLOOR
    return H[kept, k + 1] / H[kept, k], samples.params[kept], int(np.count_nonzero(~kept))


def _margin_check(cid, anchor, margin, tol, worst=None) -> CheckRecord:
    """A check that passes when ``margin`` >= -tol; ``worst`` is the sample attaining it."""
    status = "pass" if margin >= -tol else "fail"
    return CheckRecord(
        cid, anchor, status, float(margin), None if worst is None else list(map(float, worst))
    )


def _hypothesis_check(samples: ScenarioSamples, k: int) -> CheckRecord:
    margins = samples.data.newton_psd_margin(k)
    worst = np.argmin(margins)
    # Tr P_k = c_k H_k
    positive_trace = not np.any(samples.data.c[k] * samples.data.H[:, k] <= TAU_ELL)
    ok = margins[worst] >= -TAU_ELL and positive_trace
    return CheckRecord(
        id=f"newton-psd-k{k}",
        anchor="P_k positive semidefinite with Tr P_k > 0",
        status="pass" if ok else "hypothesis-violation",
        residual=float(margins[worst]),
        worst_sample=list(map(float, samples.params[worst])),
    )


def verify_riemannian_estimate(config: ScenarioConfig, samples: ScenarioSamples, r: float) -> list:
    """Ratio, power-chain and product bounds; ``r`` is the refined max of u."""
    checks = []
    b = config.model.curvature
    cbr = c_b(b, r)
    checks.append(
        CheckRecord("enclosing-radius", "plumbing", "info", float(r), None)
    )
    if config.reference_radius is not None:
        status = "pass" if r <= config.reference_radius + config.tol_equality else "fail"
        checks.append(
            CheckRecord(
                "declared-radius-consistent",
                "plumbing",
                status,
                float(config.reference_radius - r),
                None,
            )
        )
    if samples.skipped:
        rate = len(samples.skipped) / (len(samples.skipped) + len(samples.u))
        checks.append(
            CheckRecord(
                "skipped-samples",
                "plumbing",
                "inconclusive" if rate > MAX_EXCLUSION_RATE else "info",
                float(len(samples.skipped)),
                None,
            )
        )
    total = len(samples.u)
    H = samples.data.H
    for k in range(config.k_range[0], config.k_range[1] + 1):
        checks.append(_hypothesis_check(samples, k))
        signed, params, excluded = _ratio_pool(samples, k)
        rate = excluded / max(total, 1)
        if rate > MAX_EXCLUSION_RATE:
            checks.append(
                CheckRecord(
                    f"ratio-lower-bound-k{k}",
                    "sup |H_{k+1}|/H_k >= C_b(r)",
                    "inconclusive",
                    float(rate),
                    None,
                )
            )
            continue
        ratios = np.abs(signed)
        i_best = int(np.argmax(ratios))
        margin = float(ratios[i_best] - cbr)
        checks.append(
            _margin_check(f"ratio-lower-bound-k{k}", "sup |H_{k+1}|/H_k >= C_b(r)", margin,
                          config.tol_margin, params[i_best])
        )
        checks.append(
            CheckRecord(
                f"equality-flag-k{k}",
                "equality is the distance-sphere case",
                "info",
                margin,
                None,
            )
        )
        # power chain needs positive H_{k+1} throughout
        hk1 = H[:, k + 1]
        if np.all(hk1 > 0.0):
            power = float(np.max(hk1 ** (1.0 / (k + 1))))
            chain_margin = power - float(signed.max())
            checks.append(
                _margin_check(f"power-chain-k{k}", "sup H_{k+1}^{1/(k+1)} >= sup H_{k+1}/H_k",
                              chain_margin, config.tol_margin)
            )
        # product bound never needs exclusions
        sup_abs = float(np.max(np.abs(hk1)))
        inf_hk = float(np.min(H[:, k]))
        margin2 = sup_abs - cbr * inf_hk
        checks.append(
            _margin_check(f"product-bound-k{k}", "sup |H_{k+1}| >= C_b(r) inf H_k", margin2,
                          config.tol_margin)
        )
        checks.append(
            CheckRecord(
                f"exclusion-rate-k{k}", "plumbing", "info", float(rate), None
            )
        )
    return checks


def verify_h2_corollary(config: ScenarioConfig, samples: ScenarioSamples, r: float) -> list:
    """The H_2 corollary; ``r`` is the refined max of u."""
    checks = []
    b = config.model.curvature
    n = config.n
    h1, h2 = samples.data.H[:, 1], samples.data.H[:, 2]
    if np.any(h2 <= 0.0):
        return [
            CheckRecord(
                "h2-positive",
                "H_2 > 0 throughout",
                "hypothesis-violation",
                float(h2.min()),
                None,
            )
        ]
    checks.append(CheckRecord("h2-positive", "H_2 > 0 throughout", "pass", float(h2.min()), None))
    cbr = c_b(b, r)
    sup_ratio = float(np.max(h2 / h1))
    sup_sqrt = float(np.sqrt(h2.max()))
    m1 = sup_sqrt - sup_ratio
    m2 = sup_ratio - cbr
    checks.append(
        _margin_check("sqrt-h2-dominates-ratio", "sup sqrt(H_2) >= sup H_2/H_1", m1,
                      config.tol_margin)
    )
    checks.append(
        _margin_check("h2-ratio-lower-bound", "sup H_2/H_1 >= C_b(r)", m2, config.tol_margin)
    )
    # normalized scalar curvature bound, s = b + H_2
    sup_s = b + float(h2.max())
    m3 = sup_s - (b + cbr * float(h1.min()))
    checks.append(
        _margin_check("scalar-curvature-bound", "sup s >= b + C_b(r) inf H_1", m3,
                      config.tol_margin)
    )
    mu = (n * h1[:, None] - samples.data.kappa).min(axis=-1)
    worst = np.argmin(mu)
    checks.append(
        CheckRecord(
            "first-newton-eigenvalues-positive",
            "n H - kappa_j > 0 when H_2 > 0 and H > 0",
            "pass" if mu[worst] > 0.0 else "fail",
            float(mu[worst]),
            list(map(float, samples.params[worst])),
        )
    )
    return checks


def verify_lorentz_estimates(config: ScenarioConfig, samples: ScenarioSamples) -> list:
    checks = []
    b = config.model.curvature
    checks.append(
        CheckRecord(
            "spacelike-samples",
            "every grid point is spacelike and chronology-admissible",
            "pass" if not samples.skipped else "hypothesis-violation",
            float(len(samples.skipped)),
            None,
        )
    )
    if samples.skipped:
        return checks
    _, u_sup = refined_distance_extremum(samples, "max")
    _, u_inf = refined_distance_extremum(samples, "min")
    c_at_sup = c_hat_b(b, u_sup)
    c_at_inf = c_hat_b(b, u_inf)
    for k in range(config.k_range[0], config.k_range[1] + 1):
        checks.append(_hypothesis_check(samples, k))
        ratios, params, excluded = _ratio_pool(samples, k)
        if excluded:
            checks.append(
                CheckRecord(
                    f"sandwich-k{k}",
                    "ratio sandwich",
                    "inconclusive",
                    float(excluded),
                    None,
                )
            )
            continue
        inf_ratio = float(ratios.min())
        sup_ratio = float(ratios.max())
        gaps = {
            f"sandwich-lower-k{k}": (
                "inf H_{k+1}/H_k <= C_{-b}(sup u)",
                c_at_sup - inf_ratio,
                params[int(np.argmin(ratios))],
            ),
            f"sandwich-middle-k{k}": (
                "C_{-b}(sup u) <= C_{-b}(inf u)",
                c_at_inf - c_at_sup,
                None,
            ),
            f"sandwich-upper-k{k}": (
                "C_{-b}(inf u) <= sup H_{k+1}/H_k",
                sup_ratio - c_at_inf,
                params[int(np.argmax(ratios))],
            ),
        }
        for cid, (anchor, gap, wp) in gaps.items():
            checks.append(_margin_check(cid, anchor, gap, config.tol_margin, wp))
        checks.append(
            CheckRecord(
                f"equality-flag-k{k}",
                "equality is the distance-level-set case",
                "info",
                float(max(abs(c_at_sup - inf_ratio), abs(sup_ratio - c_at_inf))),
                None,
            )
        )
    delta = u_inf
    checks.append(
        CheckRecord(
            "outer-ball",
            "bounded ratio keeps the image outside a future ball of radius delta",
            "pass" if delta > 0.0 else "fail",
            float(delta),
            None,
        )
    )
    return checks


def run_scenario(config: ScenarioConfig) -> VerificationReport:
    t0 = time.perf_counter()
    if config.reference_radius is not None:
        ReferenceBall(config.reference_center, config.reference_radius).validate(config.model)
    samples = collect_samples(config)
    if config.model.signature == RIEMANNIAN:
        _, r = refined_distance_extremum(samples, "max")
        checks = verify_riemannian_estimate(config, samples, r)
        if config.n >= 2:
            checks += verify_h2_corollary(config, samples, r)
    else:
        checks = verify_lorentz_estimates(config, samples)
    timing = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        scenario=config.name,
        checks=checks,
        env={
            "resolution": config.resolution,
            "tol": {"equality": config.tol_equality, "margin": config.tol_margin},
            "jets": config.jets,
        },
        timing_ms=timing,
    )


def emit_report(report: VerificationReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def emit_samples_csv(config: ScenarioConfig, path) -> None:
    """Per-sample dump: parameters, u, |grad u|, and per-k operator data."""
    patch = scenario_patch(config)
    dist = DistanceField(config.model, config.reference_center)
    ks = list(range(config.k_range[0], config.k_range[1] + 1))
    n = patch.n
    header = [f"p{i}" for i in range(n)] + ["u", "grad_norm"]
    for k in ks:
        header += [f"H{k}", f"H{k + 1}", f"ratio_k{k}", f"q_lu_k{k}", f"key_residual_k{k}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p, frame in sample_grid(patch, config.resolution).points:
            data = operator_data(frame, config.model.signature)
            s = restrict_field(patch, dist, p, frame=frame)
            row = list(map(float, p)) + [s.u, float(np.sqrt(s.grad_norm_sq))]
            for k in ks:
                tr = float(np.trace(data.P[k]))
                lk = trace_operator(s, data, k)
                rhs = key_inequality_rhs(s, data, k, config.model.curvature)
                Hk, Hk1 = data.H[k], data.H[k + 1]
                ratio = Hk1 / Hk if Hk > H_FLOOR else np.nan
                row += [Hk, Hk1, ratio, lk / tr if tr > 0 else np.nan, lk - rhs]
            writer.writerow(row)


def bundled_scenarios() -> dict:
    """Name -> path for the scenario files shipped with the package."""
    out = {}
    root = resources.files("curvbound").joinpath("scenarios")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry
    return out
