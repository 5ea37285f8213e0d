"""Scenario-driven verification of the curvature estimates.

A scenario binds a model, a chart, a reference point and the orders k;
:func:`scenario_checks` states each estimate that applies as :func:`evaluate`
calls.  Reports are deterministic up to ``timing_ms``.  README's "Design" section
(checks) lists the estimates.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .comparison import c_b, c_hat_b
from .curvature import TAU_ELL
from .errors import ConfigError, DomainError, failed, fold_last, raise_first
from .immersion import GridSamples, build_patch, refine_extremum, sample_grid
from .operators import DistanceField, key_inequality_rhs, restrict_field, trace_operator
from .spaceform import RIEMANNIAN, AmbientModel, ReferenceBall, distance_rows

H_FLOOR = 1e-9  # samples with H_k at or below this are excluded from ratios
MAX_EXCLUSION_RATE = 0.10
# Tie band of worst samples, in ulp of the largest |value| in a check's pool, so
# that values which differ only by round-off resolve to the same sample.
TIE_ULPS = 32
MIN_RESOLUTION = 8


@dataclass(eq=False)
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

    @property
    def orders(self) -> range:
        """The curvature orders k the estimates are checked at."""
        return range(self.k_range[0], self.k_range[1] + 1)


def checked_resolution(value) -> int:
    """Grid points per axis, rejected below what the estimates need."""
    resolution = int(value)
    if resolution < MIN_RESOLUTION:
        raise ConfigError(f"estimate scenarios need resolution >= {MIN_RESOLUTION} per axis")
    return resolution


def checked_tolerance(value) -> float:
    """A check tolerance, rejected unless a finite and non-negative number."""
    tol = _real(value)
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"tolerances must be finite and non-negative, not {tol!r}")
    return tol


def load_scenario(source) -> ScenarioConfig:
    """Parse a scenario from a dict or a file path; a malformed one raises ConfigError."""
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
    return _parse_scenario(raw)


_REQUIRED = object()


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, not {type(value).__name__}")
    return value


def _whole(value) -> int:
    """A JSON number with no fractional part (16 or 16.0, not 16.9, "16" or true)."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected a whole number, not {value!r}")
    return int(value)


def _real(value) -> float:
    """A JSON number (0.5, 1 or 1e-3, not "0.5" or true)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, not {value!r}")
    return float(value)


def _reals(value) -> np.ndarray:
    if not isinstance(value, list):
        raise ValueError(f"expected a list of numbers, not {value!r}")
    return np.array([_real(x) for x in value], dtype=float)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, not {type(value).__name__}")
    return value


def _parse_scenario(raw: dict) -> ScenarioConfig:
    def need(obj, key, where, read=None, default=_REQUIRED):
        """obj[key], or ``default`` if given, through ``read``; a value it rejects names the key."""
        value = obj.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing field {key!r} in {where}")
        try:
            return value if read is None else read(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed scenario value {key!r} in {where}: {exc}") from exc

    def known(obj, where, keys):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where} must be a JSON object")
        unknown = set(obj) - set(keys.split())
        if unknown:
            raise ConfigError(f"unknown key {min(unknown)!r} in {where}")
        return obj

    known(raw, "scenario", "name ambient reference chart k_range resolution tolerances jets")
    name = need(raw, "name", "scenario", _string)
    amb = known(need(raw, "ambient", "scenario"), "ambient",
                "signature curvature dimension model_kind")
    try:
        model = AmbientModel(
            signature=need(amb, "signature", "ambient"),
            curvature=need(amb, "curvature", "ambient", _real),
            dimension=need(amb, "dimension", "ambient", _whole),
        )
    except ValueError as exc:
        raise ConfigError(f"bad ambient model: {exc}") from exc
    if need(amb, "model_kind", "ambient") != model.model_kind:
        raise ConfigError(
            f"bad ambient model: model_kind {amb['model_kind']!r} disagrees with the signature "
            f"and the sign of b, which make it {model.model_kind!r}"
        )
    ref = known(need(raw, "reference", "scenario"), "reference", "center radius")
    center = need(ref, "center", "reference", _reals)
    radius = need(ref, "radius", "reference", lambda v: None if v is None else _real(v), None)
    chart = known(need(raw, "chart", "scenario"), "chart", "kind params orientation")
    k_range = need(raw, "k_range", "scenario", lambda v: tuple(_whole(x) for x in v))
    n = model.dimension - 1
    if len(k_range) != 2 or not (0 <= k_range[0] <= k_range[1] <= n - 1):
        raise ConfigError(f"k_range must lie within [0, {n - 1}] for dimension {model.dimension}")
    resolution = need(raw, "resolution", "scenario", lambda v: checked_resolution(_whole(v)), 16)
    tol = known(raw.get("tolerances", {}), "tolerances", "equality margin")
    jets = raw.get("jets", "auto")
    default_eq = 1e-3 if jets == "fd" else 1e-6
    return ScenarioConfig(
        name=name,
        model=model,
        reference_center=center,
        reference_radius=radius,
        chart_kind=need(chart, "kind", "chart", _string),
        chart_params=need(chart, "params", "chart", _object, {}),
        orientation=chart.get("orientation"),
        k_range=k_range,
        resolution=resolution,
        tol_equality=need(tol, "equality", "tolerances", checked_tolerance, default_eq),
        tol_margin=need(tol, "margin", "tolerances", checked_tolerance, 1e-6),
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
    samples: object = field(default=None, repr=False, compare=False)  # the run's grid

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
    return build_patch(config.model, config.chart_kind, params, config.orientation,
                       config.reference_center, config.jets)


def collect_samples(config: ScenarioConfig) -> GridSamples:
    """The scenario patch's grid, with the distances ``u`` to its reference point."""
    samples = sample_grid(scenario_patch(config), config.resolution)
    samples.u  # a kept row without a distance raises here, skipped rows or not
    return samples


def refined_distance_extremum(samples: GridSamples, modes: tuple):
    """(params, values) (J, n) and (J,) of the refined extrema of u named by the J ``modes``.

    ``modes`` is a tuple of "max" and "min"; another value raises a DomainError.  One
    refinement from the grid's cell takes each mode's grid extremum as a start, so the
    modes share each call of the distance."""
    if not (isinstance(modes, tuple) and modes and all(m in ("max", "min") for m in modes)):
        raise DomainError(f"unknown extremum modes {modes!r}: expected a tuple of 'max' or 'min'")
    patch, u = samples.patch, samples.u
    starts = samples.frames.param[[np.argmax(u) if m == "max" else np.argmin(u) for m in modes]]
    signs = [1.0 if m == "max" else -1.0 for m in modes]

    def fn(Q):
        errors = patch.chart.undefined(Q)
        ok = ~failed(errors)
        rho = np.zeros(len(Q))
        rho[ok], errors[ok] = distance_rows(patch.ambient, patch.center, patch.chart.value(Q[ok]))
        return rho, errors

    return refine_extremum(patch, fn, starts, samples.cell, signs)


def floored_ratio(H: np.ndarray, k: int, floor: float = H_FLOOR):
    """Per-sample H_{k+1}/H_k where H_k > ``floor`` (NaN elsewhere), and that mask."""
    kept = H[:, k] > floor
    return np.divide(H[:, k + 1], H[:, k], out=np.full(len(kept), np.nan), where=kept), kept


def _ratio_pool(samples: GridSamples, k: int):
    """The floored ratios H_{k+1}/H_k that are kept, their parameters and the exclusion count."""
    ratio, kept = floored_ratio(samples.frames.H, k)
    return ratio[kept], samples.frames.param[kept], int(np.count_nonzero(~kept))


def evaluate(id: str, anchor: str, values, reduce: str = "inf", rhs: float = 0.0,
             upper: bool = False, tol: float | None = 0.0, on_fail: str = "fail",
             params: np.ndarray | None = None, status: str | None = None,
             guard: float | None = None) -> CheckRecord:
    """One inequality of the paper, or one plumbing figure, as a :class:`CheckRecord`.

    The check states ``reduce(values) >= rhs`` (``<= rhs`` when ``upper``), ``reduce``
    inf or sup, over per-sample ``values`` at ``params`` or over a scalar.  Its margin is
    the signed gap from the exact extremum; it passes when margin >= -tol (margin > 0
    when ``tol`` is None) and reports ``on_fail`` otherwise.  A ``status`` reports the
    margin with that status.  A ``guard``, the residual of a failed hypothesis, is
    reported as a hypothesis violation in place of the margin.  The worst sample (None
    without ``params``) is the first in grid order within ``TIE_ULPS`` ulp (of the
    pool's largest |value|) of the extremum.
    """
    if guard is not None:
        return CheckRecord(id, anchor, "hypothesis-violation", float(guard), None)
    values = np.asarray(values, dtype=float)
    extremum = values.max() if reduce == "sup" else values.min()
    margin = float(rhs - extremum if upper else extremum - rhs)
    if status is not None:
        return CheckRecord(id, anchor, status, margin, None)
    ok = margin > 0.0 if tol is None else margin >= -tol
    worst = None
    if params is not None:
        band = TIE_ULPS * np.spacing(np.abs(values).max())
        worst = params[np.argmax(np.abs(values - extremum) <= band)].tolist()
    return CheckRecord(id, anchor, "pass" if ok else on_fail, margin, worst)


def _newton_psd_check(samples: GridSamples, k: int) -> CheckRecord:
    margins = samples.frames.newton_psd_margin(k)
    positive_trace = np.all(samples.frames.newton_trace(k) > TAU_ELL)
    return evaluate(f"newton-psd-k{k}", "P_k positive semidefinite with Tr P_k > 0", margins,
                    tol=TAU_ELL, on_fail="hypothesis-violation", params=samples.frames.param,
                    guard=None if positive_trace else margins.min())


def verify_riemannian_estimate(config: ScenarioConfig, samples: GridSamples, r: float) -> list:
    """Ratio, power-chain and product bounds; ``r`` is the refined max of u."""
    cbr, tol = c_b(config.model.curvature, r), config.tol_margin
    H, params = samples.frames.H, samples.frames.param
    checks = [evaluate("enclosing-radius", "plumbing", r, status="info")]
    if config.reference_radius is not None:
        checks.append(evaluate("declared-radius-consistent", "plumbing", r, upper=True,
                               rhs=config.reference_radius, tol=config.tol_equality))
    if samples.skipped:
        rate = len(samples.skipped) / (len(samples.skipped) + len(samples.u))
        checks.append(evaluate("skipped-samples", "plumbing", float(len(samples.skipped)),
                               status="inconclusive" if rate > MAX_EXCLUSION_RATE else "info"))
    for k in config.orders:
        checks.append(_newton_psd_check(samples, k))
        signed, kept_params, excluded = _ratio_pool(samples, k)
        rate = excluded / max(len(samples.u), 1)
        ratio_id, ratio_anchor = f"ratio-lower-bound-k{k}", "sup |H_{k+1}|/H_k >= C_b(r)"
        if rate > MAX_EXCLUSION_RATE:
            checks.append(evaluate(ratio_id, ratio_anchor, rate, status="inconclusive"))
            continue
        ratios, hk1 = np.abs(signed), H[:, k + 1]
        checks += [
            evaluate(ratio_id, ratio_anchor, ratios, "sup", cbr, tol=tol, params=kept_params),
            evaluate(f"equality-flag-k{k}", "equality is the distance-sphere case", ratios, "sup",
                     cbr, status="info"),
        ]
        if np.all(hk1 > 0.0):  # the power chain needs H_{k+1} > 0 throughout
            checks.append(evaluate(f"power-chain-k{k}", "sup H_{k+1}^{1/(k+1)} >= sup H_{k+1}/H_k",
                                   hk1 ** (1.0 / (k + 1)), "sup", signed.max(), tol=tol,
                                   params=params))
        checks += [  # the product bound never needs exclusions
            evaluate(f"product-bound-k{k}", "sup |H_{k+1}| >= C_b(r) inf H_k", np.abs(hk1), "sup",
                     cbr * H[:, k].min(), tol=tol, params=params),
            evaluate(f"exclusion-rate-k{k}", "plumbing", rate, status="info"),
        ]
    return checks


def verify_h2_corollary(config: ScenarioConfig, samples: GridSamples, r: float) -> list:
    """The H_2 corollary; ``r`` is the refined max of u."""
    b, tol, params = config.model.curvature, config.tol_margin, samples.frames.param
    h1, h2 = samples.frames.H[:, 1], samples.frames.H[:, 2]
    positive = evaluate("h2-positive", "H_2 > 0 throughout", h2, tol=None,
                        on_fail="hypothesis-violation")
    if positive.status != "pass":
        return [positive]
    cbr = c_b(b, r)
    # the ratio bounds and the first Newton eigenvalues presuppose H_1 > 0
    ratio, h1_positive = floored_ratio(samples.frames.H, 1, floor=0.0)
    guard = None if h1_positive.all() else h1.min()
    # P_1's eigenvalues n H_1 - kappa_j, as the frame's S_k table gives them
    mu = fold_last(np.minimum, samples.frames.newton_eigenvalues[:, 1, :])
    return [
        positive,
        evaluate("sqrt-h2-dominates-ratio", "sup sqrt(H_2) >= sup H_2/H_1", np.sqrt(h2), "sup",
                 ratio.max(), tol=tol, params=params, guard=guard),
        evaluate("h2-ratio-lower-bound", "sup H_2/H_1 >= C_b(r)", ratio, "sup", cbr, tol=tol,
                 params=params, guard=guard),
        # normalized scalar curvature s = b + H_2
        evaluate("scalar-curvature-bound", "sup s >= b + C_b(r) inf H_1", b + h2, "sup",
                 b + cbr * h1.min(), tol=tol, params=params),
        evaluate("first-newton-eigenvalues-positive", "n H - kappa_j > 0 when H_2 > 0 and H > 0",
                 mu, tol=None, params=params, guard=guard),
    ]


def verify_lorentz_estimates(config: ScenarioConfig, samples: GridSamples) -> list:
    """The ratio sandwich at the refined distance extrema, and the outer-ball bound."""
    checks = [evaluate("spacelike-samples",
                       "every grid point is spacelike and chronology-admissible",
                       float(len(samples.skipped)),
                       status="hypothesis-violation" if samples.skipped else "pass")]
    if samples.skipped:
        return checks
    b, tol = config.model.curvature, config.tol_margin
    _, (u_sup, u_inf) = refined_distance_extremum(samples, ("max", "min"))
    c_at_sup, c_at_inf = c_hat_b(b, u_sup), c_hat_b(b, u_inf)
    for k in config.orders:
        checks.append(_newton_psd_check(samples, k))
        ratios, params, excluded = _ratio_pool(samples, k)
        if excluded:
            checks.append(evaluate(f"sandwich-k{k}", "ratio sandwich", float(excluded),
                                   status="inconclusive"))
            continue
        checks += [
            evaluate(f"sandwich-lower-k{k}", "inf H_{k+1}/H_k <= C_{-b}(sup u)", ratios, "inf",
                     c_at_sup, upper=True, tol=tol, params=params),
            evaluate(f"sandwich-middle-k{k}", "C_{-b}(sup u) <= C_{-b}(inf u)", c_at_sup,
                     rhs=c_at_inf, upper=True, tol=tol),
            evaluate(f"sandwich-upper-k{k}", "C_{-b}(inf u) <= sup H_{k+1}/H_k", ratios, "sup",
                     c_at_inf, tol=tol, params=params),
            evaluate(f"equality-flag-k{k}", "equality is the distance-level-set case",
                     max(abs(c_at_sup - ratios.min()), abs(ratios.max() - c_at_inf)),
                     status="info"),
        ]
    checks.append(evaluate("outer-ball",
                           "bounded ratio keeps the image outside a future ball of radius delta",
                           u_inf, tol=None))
    return checks


def scenario_checks(config: ScenarioConfig, samples: GridSamples) -> list:
    """The checks of every estimate that applies to the scenario, over its samples."""
    if config.model.signature != RIEMANNIAN:
        return verify_lorentz_estimates(config, samples)
    _, (r,) = refined_distance_extremum(samples, ("max",))
    checks = verify_riemannian_estimate(config, samples, r)
    if config.n >= 2:
        checks += verify_h2_corollary(config, samples, r)
    return checks


def run_scenario(config: ScenarioConfig) -> VerificationReport:
    t0 = time.perf_counter()
    if config.reference_radius is not None:
        ReferenceBall(config.reference_center, config.reference_radius).validate(config.model)
    samples = collect_samples(config)
    checks = scenario_checks(config, samples)
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
        samples=samples,
    )


def emit_report(report: VerificationReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def emit_samples_csv(config: ScenarioConfig, samples: GridSamples, path) -> None:
    """Per-sample dump of a run's grid: parameters, u, |grad u|, and per-k operator data."""
    frames, patch = samples.frames, samples.patch
    header = [f"p{i}" for i in range(patch.n)] + ["u", "grad_norm"]
    for k in config.orders:
        header += [f"H{k}", f"H{k + 1}", f"ratio_k{k}", f"q_lu_k{k}", f"key_residual_k{k}"]
    s = restrict_field(patch, DistanceField(patch.ambient, patch.center), frames)
    raise_first(s.errors)
    columns = [frames.param, s.u[:, None], np.sqrt(s.grad_norm_sq)[:, None]]
    for k in config.orders:
        tr = frames.newton_trace(k)
        lk = trace_operator(s, k)
        rhs = key_inequality_rhs(s, k, config.model.curvature)
        ratio, _ = floored_ratio(frames.H, k)
        q_lu = np.divide(lk, tr, out=np.full(len(tr), np.nan), where=tr > 0)
        columns += [np.stack([frames.H[:, k], frames.H[:, k + 1], ratio, q_lu, lk - rhs], axis=-1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(np.concatenate(columns, axis=-1).tolist())


def bundled_scenarios() -> dict:
    """Name -> path for the scenario files shipped with the package."""
    entries = sorted(resources.files("curvbound").joinpath("scenarios").iterdir(),
                     key=lambda e: e.name)
    return {e.name[:-5]: e for e in entries if e.name.endswith(".json")}
