"""Scenario loading, verification reports, CSV emission, CLI exit codes."""

import ctypes
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import curvbound
from curvbound import harness, immersion, operators
from curvbound.cli import main
from curvbound.curvature import complement_symmetric, signed_values
from curvbound.errors import ConfigError, DomainError
from curvbound.harness import (
    H_FLOOR,
    TIE_ULPS,
    bundled_scenarios,
    collect_samples,
    emit_report,
    emit_samples_csv,
    evaluate,
    load_scenario,
    refined_distance_extremum,
    run_scenario,
    scenario_checks,
    scenario_patch,
)
from curvbound.immersion import GridSamples
from curvbound.operators import DistanceField, key_inequality_residual
from curvbound.spaceform import LORENTZIAN, AmbientModel, ambient_distance

from conftest import assert_u_is_the_distance_of_the_kept_rows, coincident_rows, counted
from oracles import halving_reference


def bundled(name):
    return load_scenario(bundled_scenarios()[name])


def strip_timing(report_dict):
    out = dict(report_dict)
    out.pop("timing_ms")
    return out


# -- configuration ---------------------------------------------------------------


def test_all_bundled_scenarios_pass():
    for name in bundled_scenarios():
        report = run_scenario(bundled(name))
        assert report.exit_code == 0, (name, [c for c in report.checks if c.status != "pass"])


def scaled_sphere_scenario(lam, name="sphere-equality"):
    """A bundled geodesic-sphere scenario under the homothety x -> lam x, b -> b / lam^2."""
    raw = json.loads(Path(bundled_scenarios()[name]).read_text())
    raw["ambient"]["curvature"] /= lam**2
    raw["reference"]["center"] = [lam * c for c in raw["reference"]["center"]]
    raw["reference"]["radius"] *= lam
    raw["chart"]["params"]["radius"] *= lam
    return run_scenario(load_scenario(raw))


@pytest.mark.parametrize("lam", [1e-12, 1e-9, 1e-8, 1e4, 1e8])
def test_sphere_equality_is_homothety_invariant(lam):
    # every floor is relative to the sample's own scale, so no status moves
    statuses = [(c.id, c.status) for c in scaled_sphere_scenario(1.0).checks]
    report = scaled_sphere_scenario(lam)
    assert report.exit_code == 0
    assert [(c.id, c.status) for c in report.checks] == statuses


@pytest.mark.parametrize("name", ["sphere-in-hyperbolic", "sphere-in-sphere"])
@pytest.mark.parametrize("lam", [1e-12, 1e-10, 1e8])
def test_spheres_in_curved_models_are_homothety_invariant(name, lam):
    # at lam = 1e-12 sphere-in-hyperbolic once failed power-chain-k1 and
    # sqrt-h2-dominates-ratio by one ulp of values near 1e12
    statuses = [(c.id, c.status) for c in scaled_sphere_scenario(1.0, name).checks]
    report = scaled_sphere_scenario(lam, name)
    assert report.exit_code == 0
    assert [(c.id, c.status) for c in report.checks] == statuses


def test_k_range_out_of_bounds_names_valid_range():
    cfg = json.loads(json.dumps({
        "name": "bad",
        "ambient": {"signature": "riemannian", "curvature": 0.0,
                    "dimension": 3, "model_kind": "euclidean"},
        "reference": {"center": [0.0, 0.0, 0.0]},
        "chart": {"kind": "sphere", "params": {"radius": 1.0}},
        "k_range": [0, 2],
        "resolution": 8,
    }))
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        load_scenario(cfg)


def test_missing_field_diagnostics():
    with pytest.raises(ConfigError, match="ambient"):
        load_scenario({"name": "x"})
    with pytest.raises(ConfigError, match="resolution"):
        load_scenario({
            "name": "x",
            "ambient": {"signature": "riemannian", "curvature": 0.0,
                        "dimension": 3, "model_kind": "euclidean"},
            "reference": {"center": [0, 0, 0]},
            "chart": {"kind": "sphere", "params": {"radius": 1.0}},
            "k_range": [0, 1],
            "resolution": 4,
        })


def test_model_kind_must_agree_with_signature_and_curvature(tmp_path, capsys):
    raw = json.loads(Path(bundled_scenarios()["sphere-in-sphere"]).read_text())
    raw["ambient"]["model_kind"] = "hyperboloid_embedded"
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "--scenario", str(path)]) == 3
    assert "'sphere_embedded'" in capsys.readouterr().err


def test_scenario_file_not_found():
    with pytest.raises(ConfigError, match="not found"):
        load_scenario("/nonexistent/path.json")


@pytest.mark.parametrize("source, message", [
    ("invalid-json", "invalid JSON"),
    (["name", "x"], "a path or a dict"),
    (3, "a path or a dict"),
    ({"name": "x", "ambient": {"signature": "euclidean", "curvature": 0.0, "dimension": 3,
                               "model_kind": "euclidean"}}, "bad ambient model"),
])
def test_load_scenario_rejects_a_source_it_cannot_read(tmp_path, source, message):
    if source == "invalid-json":
        source = tmp_path / "bad.json"
        source.write_text('{"name": "x",')
    with pytest.raises(ConfigError, match=message):
        load_scenario(source)


# -- report structure ---------------------------------------------------------------


def test_report_schema_field_names(tmp_path):
    report = run_scenario(bundled("sphere-equality"))
    d = report.to_dict()
    assert list(d.keys()) == ["scenario", "checks", "env", "timing_ms"]
    for check in d["checks"]:
        assert list(check.keys()) == ["id", "anchor", "status", "residual", "worst_sample"]
    assert list(d["env"].keys()) == ["resolution", "tol", "jets"]
    path = tmp_path / "report.json"
    emit_report(report, path)
    assert json.loads(path.read_text()) == d


def test_reports_deterministic_up_to_timing():
    a = strip_timing(run_scenario(bundled("ellipsoid")).to_dict())
    b = strip_timing(run_scenario(bundled("ellipsoid")).to_dict())
    assert json.dumps(a) == json.dumps(b)


GOLDEN_REPORTS = Path(__file__).parent / "data" / "golden_reports_res16.json"


@pytest.mark.parametrize("name", sorted(json.loads(GOLDEN_REPORTS.read_text())))
def test_bundled_reports_match_golden_set(name):
    # Reports of the bundled scenarios at resolution 16, from
    # `curvbound verify --emit-report`.  Ids, anchors, statuses and residuals
    # date from before the per-sample pipeline was batched.  The worst samples
    # were regenerated once, when checks became rows of one evaluator: five
    # checks gained one, and ties within round-off now resolve to the first
    # sample in grid order.  Statuses must match exactly; numbers to
    # round-off, so that a reordered evaluation can still be checked.
    golden = json.loads(GOLDEN_REPORTS.read_text())[name]
    config = bundled(name)
    config.resolution = 16
    report = strip_timing(run_scenario(config).to_dict())
    assert report["scenario"] == golden["scenario"]
    assert report["env"] == golden["env"]
    assert [(c["id"], c["anchor"], c["status"]) for c in report["checks"]] == [
        (c["id"], c["anchor"], c["status"]) for c in golden["checks"]
    ]
    for got, want in zip(report["checks"], golden["checks"]):
        for key in ("residual", "worst_sample"):
            if want[key] is None:
                assert got[key] is None, (got["id"], key)
            else:
                assert got[key] == pytest.approx(want[key], rel=1e-10, abs=1e-12), (got["id"], key)


def nudge_kappa(samples, rng):
    """``samples`` with every principal curvature moved one ulp up or down."""
    kappa = samples.frames.kappa
    kappa = np.nextafter(kappa, rng.choice([-np.inf, np.inf], kappa.shape))
    H, newton_eigenvalues = signed_values(complement_symmetric(kappa), samples.frames.signature)
    frames = dataclasses.replace(samples.frames, kappa=kappa, H=H,
                                 newton_eigenvalues=newton_eigenvalues)
    return dataclasses.replace(samples, frames=frames)


EQUALITY_SCENARIOS = [
    "sphere-equality", "sphere-in-sphere", "sphere-in-hyperbolic", "hyperboloid-equality"
]


@pytest.mark.parametrize("name", EQUALITY_SCENARIOS)
def test_worst_samples_survive_round_off(name):
    # on the equality scenarios every pool is constant up to round-off, so a
    # worst sample picked by a bare argmin/argmax follows the rounding noise
    config = dataclasses.replace(bundled(name), resolution=16)
    samples = collect_samples(config)
    base = scenario_checks(config, samples)
    assert any(c.worst_sample is not None for c in base)
    for seed in range(3):
        nudged = scenario_checks(config, nudge_kappa(samples, np.random.default_rng(seed)))
        assert [c.id for c in nudged] == [c.id for c in base]
        for got, want in zip(nudged, base):
            assert got.worst_sample == want.worst_sample, (seed, got.id)
            assert abs(got.residual - want.residual) < 1e-14, (seed, got.id)


def check_pools(config, samples):
    """Check id -> (per-sample values, their grid rows, reduction) of every check with a pool."""
    frames, b = samples.frames, config.model.curvature
    param = frames.param
    pools = {}
    for k in config.orders:
        hk, hk1 = frames.H[:, k], frames.H[:, k + 1]
        kept = hk > H_FLOOR
        ratio = hk1[kept] / hk[kept]
        pools[f"newton-psd-k{k}"] = (frames.newton_psd_margin(k), param, "inf")
        pools[f"ratio-lower-bound-k{k}"] = (np.abs(ratio), param[kept], "sup")
        pools[f"power-chain-k{k}"] = (hk1 ** (1.0 / (k + 1)), param, "sup")
        pools[f"product-bound-k{k}"] = (np.abs(hk1), param, "sup")
        pools[f"sandwich-lower-k{k}"] = (ratio, param[kept], "inf")
        pools[f"sandwich-upper-k{k}"] = (ratio, param[kept], "sup")
    if config.n >= 2:
        h1, h2 = frames.H[:, 1], frames.H[:, 2]
        pools["sqrt-h2-dominates-ratio"] = (np.sqrt(h2), param, "sup")
        pools["h2-ratio-lower-bound"] = (h2 / h1, param, "sup")
        pools["scalar-curvature-bound"] = (b + h2, param, "sup")
        pools["first-newton-eigenvalues-positive"] = (
            (config.n * h1[:, None] - frames.kappa).min(axis=-1), param, "inf")
    return pools


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_worst_samples_lie_in_the_tie_band(name):
    config = dataclasses.replace(bundled(name), resolution=16)
    samples = collect_samples(config)
    pools = check_pools(config, samples)
    checks = scenario_checks(config, samples)
    located = [c for c in checks if c.worst_sample is not None]
    # every check over a pool of samples names one (none is guarded here)
    assert [c.id for c in located] == [c.id for c in checks if c.id in pools]
    for check in located:
        values, params, reduce = pools[check.id]
        rows = np.flatnonzero(np.all(params == check.worst_sample, axis=-1))
        assert len(rows) == 1, check.id
        assert np.any(np.all(samples.frames.param == check.worst_sample, axis=-1))
        extremum = values.max() if reduce == "sup" else values.min()
        band = TIE_ULPS * np.spacing(np.abs(values).max())
        assert abs(values[rows[0]] - extremum) <= band, check.id
        # and no earlier sample in grid order lies in the band
        assert np.all(np.abs(values[: rows[0]] - extremum) > band), check.id


def test_worst_sample_band_is_a_few_ulp():
    # the first sample in grid order within TIE_ULPS of the extremum is the worst;
    # one 16 ulp below the sup is within the band, one 1000 ulp below it is not
    top, params = 3.0, np.array([[0.0], [1.0]])
    for ulps, worst in ((16, [0.0]), (1000, [1.0])):
        values = np.array([top - ulps * np.spacing(top), top])
        assert evaluate("x", "test", values, reduce="sup", params=params).worst_sample == worst


def test_a_margin_beyond_its_tolerance_fails():
    # a check passes down to margin = -tol and no further
    tol = 1e-3
    for margin, status in ((-0.5 * tol, "pass"), (-tol, "pass"), (-2.0 * tol, "fail")):
        record = evaluate("x", "test", np.array([margin, 1.0]), rhs=0.0, tol=tol)
        assert (record.status, record.residual) == (status, margin)


def test_equality_scenarios_hit_tolerance():
    for name in ("sphere-equality", "sphere-in-sphere", "sphere-in-hyperbolic"):
        report = run_scenario(bundled(name))
        flags = [c for c in report.checks if c.id.startswith("equality-flag")]
        assert flags
        for c in flags:
            assert abs(c.residual) < 1e-6, (name, c.id, c.residual)


def test_hyperboloid_equality_sandwich_tight():
    report = run_scenario(bundled("hyperboloid-equality"))
    for c in report.checks:
        if c.id.startswith("sandwich-"):
            assert abs(c.residual) < 1e-6


def test_strict_margin_grows_under_refinement():
    config = bundled("ellipsoid")
    report1 = run_scenario(config)
    config.resolution *= 2
    report2 = run_scenario(config)

    def margin(report, cid):
        return next(c.residual for c in report.checks if c.id == cid)

    for cid in ("ratio-lower-bound-k1", "h2-ratio-lower-bound"):
        m1, m2 = margin(report1, cid), margin(report2, cid)
        assert m1 > 0.0
        assert m2 >= m1 - 1e-4


def test_cylinder_triggers_hypothesis_violation():
    report = run_scenario(load_scenario({
        "name": "cylinder-degenerate",
        "ambient": {"signature": "riemannian", "curvature": 0.0,
                    "dimension": 3, "model_kind": "euclidean"},
        "reference": {"center": [0.0, 0.0, 0.0]},
        "chart": {"kind": "cylinder", "params": {"radius": 1.0}, "orientation": "inner"},
        "k_range": [0, 1],
        "resolution": 8,
    }))
    assert report.exit_code == 2
    h2 = next(c for c in report.checks if c.id == "h2-positive")
    assert h2.status == "hypothesis-violation"
    # H_2 is exactly 0 on the grid, so the power chain H_2^(1/2) <= ... is not checked
    assert "power-chain-k1" not in {c.id for c in report.checks}


def test_h2_corollary_needs_positive_mean_curvature():
    # the outer-oriented ellipsoid has H_1 < 0 < H_2 everywhere: the
    # corollary's hypotheses fail, its conclusions are not falsified
    config = bundled("ellipsoid")
    config.orientation = "outer"
    report = run_scenario(config)
    h1_min = collect_samples(config).frames.H[:, 1].min()
    assert h1_min < 0.0
    statuses = {c.id: (c.status, c.residual) for c in report.checks}
    for cid in ("sqrt-h2-dominates-ratio", "h2-ratio-lower-bound",
                "first-newton-eigenvalues-positive"):
        assert statuses[cid] == ("hypothesis-violation", h1_min)
    assert statuses["h2-positive"][0] == "pass"
    assert not any(c.status == "fail" for c in report.checks)
    assert report.exit_code == 2


def test_h2_corollary_reads_the_first_newton_eigenvalues_from_the_frame():
    # P_1's spectrum from the frame's S_k table is n H_1 - kappa_j, and the
    # corollary's residual is its minimum over the grid
    for name, path in bundled_scenarios().items():
        config = load_scenario(path)
        if config.model.signature != "riemannian":
            continue
        assert config.resolution == 16
        samples = collect_samples(config)
        frames = samples.frames
        expected = config.n * frames.H[:, 1, None] - frames.kappa
        mu = frames.newton_eigenvalues[:, 1, :]
        assert np.all(np.abs(mu - expected) <= 1e-15 * np.abs(expected)), name
        check = next(c for c in scenario_checks(config, samples)
                     if c.id == "first-newton-eigenvalues-positive")
        assert abs(check.residual - expected.min()) <= 4 * np.spacing(expected.min()), name


def test_collect_samples_is_the_scenario_patch_grid():
    config = dataclasses.replace(bundled("ellipsoid"), resolution=16)
    samples = collect_samples(config)
    assert isinstance(samples, GridSamples)
    assert samples.patch.center.tobytes() == config.reference_center.tobytes()
    expected = ambient_distance(config.model, config.reference_center, samples.frames.position)
    assert samples.u.tobytes() == expected.tobytes()


def test_collect_samples_checks_the_reference_point_once(monkeypatch):
    # the patch validates its center where it enters, and the distances trust it
    config = bundled("ellipsoid")
    checked = counted(monkeypatch, AmbientModel, "check_point")
    collect_samples(config)
    assert [args[1].tobytes() for args in checked] == [config.reference_center.tobytes()]


def test_collect_samples_raises_where_a_kept_row_has_no_distance():
    # the hyperboloid is centered at the origin and the reference point is not:
    # every grid point has a frame, but some lie outside the reference's future
    config = bundled("hyperboloid-equality")
    config = dataclasses.replace(config, reference_center=np.array([1.5, 0.0, 0.0]),
                                 chart_params={**config.chart_params, "center": [0.0, 0.0, 0.0]})
    with pytest.raises(DomainError, match="not in the chronological future"):
        collect_samples(config)


def test_run_scenario_builds_no_distance_field(monkeypatch):
    # the reference point is the patch's center: the checks read the distance
    # off the grid and refine it with the patch's model and center
    built = counted(monkeypatch, DistanceField, "__post_init__")
    for name in bundled_scenarios():
        run_scenario(dataclasses.replace(bundled(name), resolution=8))
    assert built == []


def test_refined_extremum_reaches_touching_radius():
    samples = collect_samples(bundled("ellipsoid"))
    _, (r,) = refined_distance_extremum(samples, ("max",))
    assert r == pytest.approx(1.0, abs=1e-9)


def test_no_bundled_grid_samples_a_point_twice():
    # the spherical scenarios' longitude wraps: its node at 2 pi is not sampled
    # beside its node at 0, where the chart takes the same position
    for name in bundled_scenarios():
        samples = collect_samples(dataclasses.replace(bundled(name), resolution=16))
        assert not samples.skipped, name
        assert coincident_rows(samples.frames.position) == [], name


@pytest.mark.parametrize("resolution", [16, 48])
def test_refined_extrema_match_a_long_halving_reference(monkeypatch, resolution):
    # each extremum the checks read is the 60-round halving loop's to 1e-15;
    # quadratic steps get there in at most 6 stencils, the start among the
    # first one's rows and the stencils that cross the ellipsoid's seam
    # included, and a distance sphere's first stencil is flat to round-off, so
    # its refinement stops there
    runs = []

    def recorded(patch, fn, starts, cell, signs, rounds=14):
        calls = []

        def counted_fn(Q):
            calls.append(len(Q))
            return fn(Q)

        [start], [sign] = starts, signs
        runs.append((halving_reference(patch, fn, start, cell, sign), calls))
        return immersion.refine_extremum(patch, counted_fn, starts, cell, signs, rounds)

    monkeypatch.setattr(harness, "refine_extremum", recorded)
    for name in bundled_scenarios():
        config = dataclasses.replace(bundled(name), resolution=resolution)
        samples = collect_samples(config)
        flat = np.ptp(samples.u) <= 1e-12 * samples.u.max()
        for mode in ("max", "min") if config.model.signature == LORENTZIAN else ("max",):
            runs.clear()
            _, [value] = refined_distance_extremum(samples, (mode,))
            [((_, reference), calls)] = runs
            assert abs(value - reference) <= 1e-15 * abs(reference), (name, mode)
            assert len(calls) == 1 if flat else len(calls) <= 6, (name, mode, len(calls))


def test_grid_distances_are_measured_once_per_riemannian_run(monkeypatch):
    # the grid's u is the distance that oriented its normals: one grid-sized
    # evaluation per run, and each kept row's u is distance_rows' bit for bit
    from curvbound import spaceform

    sizes = []
    for module in (spaceform, immersion, harness, operators):
        rows = module.distance_rows

        def counted_rows(model, o, x, rows=rows):
            sizes.append(len(x))
            return rows(model, o, x)

        monkeypatch.setattr(module, "distance_rows", counted_rows)
    for name in bundled_scenarios():
        config = dataclasses.replace(bundled(name), resolution=16)
        sizes.clear()
        samples = run_scenario(config).samples
        kept = len(samples.frames.param)
        if config.model.signature != LORENTZIAN:
            assert [m for m in sizes if m >= kept] == [kept], name
        assert_u_is_the_distance_of_the_kept_rows(samples)


def test_lorentzian_extrema_share_each_refinement_call(monkeypatch):
    # perturbed-hyperboloid at res 48: the max and the min take 5 rounds each,
    # one refinement evaluating both stencils, 2 x 25 rows, in each call
    runs = []
    refine = harness.refine_extremum

    def recorded(patch, fn, *args, **kwargs):
        calls = []
        runs.append(calls)

        def counted_fn(Q):
            calls.append(len(Q))
            return fn(Q)

        return refine(patch, counted_fn, *args, **kwargs)

    monkeypatch.setattr(harness, "refine_extremum", recorded)
    config = dataclasses.replace(bundled("perturbed-hyperboloid"), resolution=48)
    samples = collect_samples(config)
    _, (u_sup, u_inf) = refined_distance_extremum(samples, ("max", "min"))
    assert runs == [[50] * 5]
    # each is the extremum a refinement of its own finds
    assert refined_distance_extremum(samples, ("max",))[1] == [u_sup]
    assert refined_distance_extremum(samples, ("min",))[1] == [u_inf]
    assert runs[1:] == [[25] * 5, [25] * 5]


def perturbed_hyperboloid(epsilon):
    """The bundled perturbed-hyperboloid scenario with the dipole's amplitude ``epsilon``."""
    raw = json.loads(Path(bundled_scenarios()["perturbed-hyperboloid"]).read_text())
    raw["chart"]["params"]["epsilon"] = epsilon
    return load_scenario(raw)


def test_lorentz_checks_stop_at_skipped_samples(monkeypatch):
    # at epsilon 0.5 two grid points are not spacelike: the sandwich presupposes
    # them all, so the report is that one hypothesis violation and the distance
    # is not refined
    monkeypatch.setattr(harness, "refine_extremum", None)
    report = run_scenario(perturbed_hyperboloid(0.5))
    assert len(report.samples.skipped) == 2
    assert [(c.id, c.status, c.residual) for c in report.checks] == [
        ("spacelike-samples", "hypothesis-violation", 2.0)]
    assert report.exit_code == 2


def test_lorentz_sandwich_is_inconclusive_where_h_k_is_excluded():
    # at epsilon 0.2 H_1 falls to the floor at two grid points: the k = 1
    # sandwich reads inconclusive with that count, and k = 0 is checked in full
    config = perturbed_hyperboloid(0.2)
    report = run_scenario(config)
    excluded = np.count_nonzero(report.samples.frames.H[:, 1] <= H_FLOOR)
    assert excluded == 2 and not report.samples.skipped
    checks = {c.id: c for c in report.checks}
    assert (checks["sandwich-k1"].status, checks["sandwich-k1"].residual) == (
        "inconclusive", float(excluded))
    assert not any(name.endswith("-k1") and name.startswith("sandwich-") and name != "sandwich-k1"
                   for name in checks)
    assert [checks[f"sandwich-{side}-k0"].status for side in ("lower", "middle", "upper")] == [
        "pass"] * 3
    assert checks["outer-ball"].status == "pass"


def test_cli_exits_1_on_another_geometry_error(tmp_path, capsys):
    # a table whose every d1 entry is NaN leaves no grid row with a frame:
    # EmptySampleError is neither a usage error nor a hypothesis violation
    tabulated_sphere_scenario(tmp_path, 9, include_jets=True)  # writes the table
    table, config_path = tmp_path / "table9.csv", tmp_path / "scenario.json"
    lines = table.read_text().splitlines()
    header = lines[0].split(",")
    d1 = [i for i, name in enumerate(header) if name.startswith("d1_")]
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        for i in d1:
            row[i] = "nan"
    table.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
    config_path.write_text(json.dumps({
        "name": "tabulated-nan",
        "ambient": {"signature": "riemannian", "curvature": 0.0, "dimension": 3,
                    "model_kind": "euclidean"},
        "reference": {"center": [0.0, 0.0, 0.0]},
        "chart": {"kind": "tabulated", "params": {"path": str(table)}, "orientation": "inner"},
        "k_range": [0, 1], "resolution": 9}))
    assert main(["verify", "--scenario", str(config_path)]) == 1
    assert capsys.readouterr().err == "error: every grid point was rejected\n"


@pytest.mark.parametrize("mode", ["Max", "sup", None, (), ("max", "mid"), ["max", "min"],
                                  "max"])  # one mode is a 1-tuple
def test_refined_extremum_rejects_an_unknown_mode(mode):
    samples = collect_samples(dataclasses.replace(bundled("perturbed-hyperboloid"), resolution=16))
    with pytest.raises(DomainError, match="mode"):
        refined_distance_extremum(samples, mode)


def test_tabulated_chart_scenario(tmp_path):
    # a grid over the table's own (rounded) domain lands up to ~5e-10 off the
    # tabulated parameters; every grid point must still be found
    for resolution in (12, 16):
        config = tabulated_sphere_scenario(tmp_path, resolution, include_jets=True)
        assert collect_samples(config).skipped == []
        report = run_scenario(config)
        assert report.exit_code == 0
        flags = [c for c in report.checks if c.id.startswith("equality-flag")]
        assert flags and all(abs(c.residual) < 1e-6 for c in flags)


def test_tabulated_chart_rejects_fd_jets(tmp_path, capsys):
    # a table is defined only at its nodes, where FD stencils do not sample it:
    # the patch refuses the policy, with or without jet columns
    for include_jets in (True, False):
        config = tabulated_sphere_scenario(tmp_path, 12, include_jets=include_jets)
        with pytest.raises(ConfigError, match="jet policy 'fd'"):
            collect_samples(dataclasses.replace(config, jets="fd"))
    raw = {"name": "tabulated-fd",
           "ambient": {"signature": "riemannian", "curvature": 0.0, "dimension": 3,
                       "model_kind": "euclidean"},
           "reference": {"center": [0.0, 0.0, 0.0]},
           "chart": {"kind": "tabulated", "params": {"path": str(tmp_path / "table12.csv")},
                     "orientation": "inner"},
           "k_range": [0, 1], "resolution": 12, "jets": "fd"}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    assert main(["verify", "--scenario", str(scenario)]) == 3
    assert "jet policy 'fd'" in capsys.readouterr().err


def test_riemannian_report_flags_skipped_samples(tmp_path):
    # without jet columns the 32 boundary points of a 9x9 table have no
    # finite differences: 40% of the grid is lost, so the run is inconclusive
    report = run_scenario(tabulated_sphere_scenario(tmp_path, 9, include_jets=False))
    skipped = next(c for c in report.checks if c.id == "skipped-samples")
    assert (skipped.status, skipped.residual) == ("inconclusive", 32.0)
    assert report.exit_code == 1


def test_non_finite_jets_are_skipped_not_fatal(tmp_path, capsys):
    # an ellipsoid table with one NaN in d1 (row 17) and one in d2 (row 90):
    # both rows are skipped with a DomainError, and the run reports them
    from curvbound.charts import build_chart, grid_axes, grid_points, write_chart_csv
    from curvbound.errors import DomainError, failed
    from curvbound.immersion import frames_at

    raw = json.loads(Path(bundled_scenarios()["ellipsoid"]).read_text())
    chart = build_chart(AmbientModel.euclidean(3), "ellipsoid", raw["chart"]["params"])
    table = tmp_path / "ellipsoid.csv"
    write_chart_csv(chart, *chart.default_domain(), 12, table, include_jets=True)
    lines = table.read_text().splitlines()
    header = lines[0].split(",")
    for row, column in ((17, "d1_1_0"), (90, "d2_2_1_1")):
        values = lines[1 + row].split(",")
        values[header.index(column)] = "nan"
        lines[1 + row] = ",".join(values)
    table.write_text("\n".join(lines) + "\n")
    raw["chart"] = {"kind": "tabulated", "params": {"path": str(table)}, "orientation": "inner"}
    raw["resolution"] = 12
    scenario, report = tmp_path / "scenario.json", tmp_path / "report.json"
    scenario.write_text(json.dumps(raw))
    assert main(["verify", "--scenario", str(scenario), "--emit-report", str(report)]) == 0
    assert capsys.readouterr().err == ""
    checks = {c["id"]: c for c in json.loads(report.read_text())["checks"]}
    assert (checks["skipped-samples"]["status"], checks["skipped-samples"]["residual"]) == (
        "info", 2.0)
    patch = scenario_patch(load_scenario(scenario))
    errors = frames_at(patch, grid_points(grid_axes(patch.domain_lo, patch.domain_hi, 12)))[1]
    assert np.flatnonzero(failed(errors)).tolist() == [17, 90]
    assert all(type(errors[i]) is DomainError for i in (17, 90))
    assert "not finite" in str(errors[17])


def tabulated_sphere_scenario(tmp_path, resolution, include_jets):
    from curvbound.charts import build_chart, write_chart_csv
    from curvbound.spaceform import AmbientModel

    src = build_chart(AmbientModel.euclidean(3), "sphere",
                      {"radius": 1.0, "center": [0.0, 0.0, 0.0]})
    lo, hi = src.default_domain()
    path = tmp_path / f"table{resolution}.csv"
    write_chart_csv(src, lo, hi, resolution, path, include_jets=include_jets)
    return load_scenario({
        "name": "tabulated-sphere",
        "ambient": {"signature": "riemannian", "curvature": 0.0,
                    "dimension": 3, "model_kind": "euclidean"},
        "reference": {"center": [0.0, 0.0, 0.0]},
        "chart": {"kind": "tabulated", "params": {"path": str(path)},
                  "orientation": "inner"},
        "k_range": [0, 1],
        "resolution": resolution,
    })


# -- CSV emission ----------------------------------------------------------------------


def test_emit_samples_csv(tmp_path):
    config = bundled("ellipsoid")
    path = tmp_path / "samples.csv"
    emit_samples_csv(config, run_scenario(config).samples, path)
    rows = path.read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header[:4] == ["p0", "p1", "u", "grad_norm"]
    for k in (0, 1):
        for col in (f"H{k}", f"H{k + 1}", f"ratio_k{k}", f"q_lu_k{k}", f"key_residual_k{k}"):
            assert col in header
    # the longitude wraps, so its node at 2 pi is its node at 0 and is not sampled
    assert len(rows) - 1 == config.resolution * (config.resolution - 1)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    key_cols = [header.index(f"key_residual_k{k}") for k in (0, 1)]
    assert np.abs(data[:, key_cols]).max() < 1e-8  # space-form equality throughout
    patch = scenario_patch(config)
    for row in data[:: len(data) // 5]:
        for k, col in zip((0, 1), key_cols):
            expected = key_inequality_residual(
                patch, row[:2], k, b=config.model.curvature, origin=config.reference_center
            )
            assert row[col] == pytest.approx(expected, abs=1e-12)


def test_cli_emit_samples_builds_one_grid(tmp_path, monkeypatch):
    # the CSV is written from the frames the run sampled, not from a second grid;
    # every frame batch, the grid's and each other caller's, is built by frames_at,
    # and the CSV's distances are those that oriented the grid's normals
    from curvbound import spaceform

    rows, gradients = [], []
    build, gradient_rows = immersion.frames_at, spaceform.gradient_rows

    def counted(patch, P, jets=None):
        rows.append(len(P))
        return build(patch, P, jets)

    def counted_gradients(model, o, x):
        gradients.append(len(x))
        return gradient_rows(model, o, x)

    for module in (immersion, operators):
        monkeypatch.setattr(module, "frames_at", counted)
    for module in (immersion, spaceform):
        monkeypatch.setattr(module, "gradient_rows", counted_gradients)
    path = tmp_path / "run.csv"
    assert main(["verify", "--scenario", "ellipsoid", "--resolution", "16",
                 "--emit-samples", str(path)]) == 0
    assert sum(rows) == 16 * 15  # the longitude wraps: 15 nodes
    assert gradients == [16 * 15]
    config = bundled("ellipsoid")
    config.resolution = 16
    fresh = tmp_path / "fresh.csv"
    emit_samples_csv(config, collect_samples(config), fresh)
    assert path.read_bytes() == fresh.read_bytes()


# -- CLI ---------------------------------------------------------------------------------


def test_cli_verify_bundled(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code = main([
        "verify", "--scenario", "sphere-equality", "--emit-report", str(report_path)
    ])
    assert code == 0
    assert report_path.exists()
    out = capsys.readouterr().out
    assert "ratio-lower-bound-k1" in out


def _params(raw):
    return raw["chart"]["params"]


# case -> (bundled scenario, an edit that breaks it, text its usage error names)
BAD_SCENARIOS = {
    "k_range": ("sphere-equality", lambda raw: raw.update(k_range=[0, 2]), "[0, 1]"),
    "eps": ("perturbed-hyperboloid",
            lambda raw: _params(raw).update(eps=_params(raw).pop("epsilon")), "'eps'"),
    "missing-radius": ("sphere-equality", lambda raw: _params(raw).pop("radius"), "'radius'"),
    "radius-two": ("sphere-equality", lambda raw: _params(raw).update(radius="two"), "'str'"),
    "epsilon-on-hyperboloid": ("hyperboloid-equality",
                               lambda raw: _params(raw).update(epsilon=0.3), "'epsilon'"),
    "center-on-graph": ("ellipsoid", lambda raw: raw["chart"].update(kind="graph", params={
        "terms": [[1.0, [2, 0]]], "box_lo": [-1, -1], "box_hi": [1, 1], "center": [0, 0, 0]}),
        "'center'"),
    "short-center": ("ellipsoid", lambda raw: _params(raw).update(center=[0.0, 0.0]),
                     "3 coordinates"),
    "missing-table": ("ellipsoid", lambda raw: raw["chart"].update(
        kind="tabulated", params={"path": "/nonexistent/table.csv"}), "/nonexistent/table.csv"),
    "tolerance": ("ellipsoid", lambda raw: raw.update(tolerance=raw.pop("tolerances")),
                  "'tolerance' in scenario"),
    "tolerances-scalar": ("ellipsoid", lambda raw: raw.update(tolerances=0.5), "tolerances"),
    "margin-abc": ("ellipsoid", lambda raw: raw["tolerances"].update(margin="abc"), "'abc'"),
    "k_range-letter": ("ellipsoid", lambda raw: raw.update(k_range=["a", 1]), "'a'"),
    "resolution-x": ("ellipsoid", lambda raw: raw.update(resolution="x"), "'x'"),
    "center-abc": ("ellipsoid", lambda raw: raw["reference"].update(center="abc"), "'abc'"),
    "margin-infinity": ("ellipsoid", lambda raw: raw["tolerances"].update(margin=float("inf")),
                        "inf"),
    "name-list": ("ellipsoid", lambda raw: raw.update(name=[1]), "'name'"),
    "kind-list": ("ellipsoid", lambda raw: raw["chart"].update(kind=[1]), "'kind'"),
    "k_range-int": ("ellipsoid", lambda raw: raw.update(k_range=5), "'k_range'"),
    "params-int": ("ellipsoid", lambda raw: raw["chart"].update(params=5), "'params'"),
    "k_range-fractional": ("ellipsoid", lambda raw: raw.update(k_range=[0.7, 1.9]), "'k_range'"),
    "resolution-fractional": ("ellipsoid", lambda raw: raw.update(resolution=16.9),
                              "'resolution'"),
    "dimension-fractional": ("ellipsoid", lambda raw: raw["ambient"].update(dimension=3.6),
                             "'dimension'"),
    "margin-true": ("sphere-in-sphere", lambda raw: raw["tolerances"].update(margin=True),
                    "'margin'"),
    "equality-true": ("sphere-in-sphere", lambda raw: raw["tolerances"].update(equality=True),
                      "'equality'"),
    "curvature-true": ("sphere-in-sphere", lambda raw: raw["ambient"].update(curvature=True),
                       "'curvature'"),
    "radius-string": ("sphere-in-sphere", lambda raw: raw["reference"].update(radius="0.5"),
                      "'radius' in reference"),
    "margin-string": ("sphere-in-sphere", lambda raw: raw["tolerances"].update(margin="1e-3"),
                      "'margin'"),
    "center-strings": ("sphere-in-sphere",
                       lambda raw: raw["reference"].update(center=["1", "0", "0", "0"]),
                       "'center'"),
    "curvature-huge": ("sphere-in-sphere", lambda raw: raw["ambient"].update(curvature=10**400),
                       "'curvature'"),
    "params-pairs": ("ellipsoid",
                     lambda raw: raw["chart"].update(params=[["semi_axes", [0.6, 1, 1]]]),
                     "'params'"),
}


@pytest.mark.parametrize("case", BAD_SCENARIOS)
def test_cli_usage_error_for_bad_scenario(case, tmp_path, capsys):
    name, edit, named = BAD_SCENARIOS[case]
    raw = json.loads(Path(bundled_scenarios()[name]).read_text())
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["verify", "--scenario", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert named in err


def test_cli_analysis_subcommands(tmp_path, capsys):
    csv_path = tmp_path / "sturm.csv"
    assert main(["sturm", "--G", "const(1)", "--T", "5", "--emit-csv", str(csv_path)]) == 0
    assert csv_path.read_text().startswith("t,g,dg,psi,margin")
    assert capsys.readouterr().out == (
        "min margin psi'/psi - g'/g on (0, 5.0]: 0.006692851\n"
        "margin at T: 0.006692851\n"
        f"profile written to {csv_path}\n"
    )
    assert main(["lambda", "--G", "const(1)"]) == 0
    out = capsys.readouterr().out
    assert "4.300258" in out  # e^2/(e-1)
    assert out == "Lambda = 4.300258535 attained at t = 2.000000\ntail limit = 2.718281828\n"
    assert main(["comparison", "--b", "-1", "--t", "1"]) == 0
    assert "1.313035" in capsys.readouterr().out
    assert main(["list-scenarios"]) == 0


@pytest.mark.parametrize("argv", [
    ["sturm", "--G", "const(1)", "--T", "nan"],
    ["sturm", "--G", "const(1)", "--T", "inf"],
    ["lambda", "--G", "const(1)", "--t-max", "nan"],
    ["lambda", "--G", "const(1)", "--t-max", "inf"],
    ["lambda", "--G", "const(1)", "--t-max", "1"],
    ["lambda", "--G", "const(1)", "--t-max", "1.5"],
    ["lambda", "--G", "const(1)", "--t-max", "-5"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_cli_rejects_bad_horizons(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and "finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["lambda", "--G", "const(inf)"],
    ["lambda", "--G", "const(nan)"],
    ["lambda", "--G", "sqrt_growth(-5)"],
    ["sturm", "--G", "const(inf)", "--T", "3"],
    ["sturm", "--G", "affine(1,nan)", "--T", "3"],
    ["sturm", "--G", "sqrt_growth(-5)", "--T", "3"],
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_cli_rejects_bad_bound_parameters(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and argv[2] in captured.err


@pytest.mark.parametrize("argv", [
    ["comparison", "--b", "1", "--t", "nan"],
    ["comparison", "--b", "nan", "--t", "1"],
    ["comparison", "--b", "-1", "--t", "inf"],
    ["comparison", "--b", "0", "--t", "inf"],
], ids=lambda argv: f"b{argv[2]}-t{argv[4]}")
def test_cli_rejects_non_finite_comparison_arguments(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: c_b requires finite b and t\n"


def test_cli_lambda_accepts_an_infinite_initial_slope(capsys):
    # sqrt_growth(0) has G'(0) = +inf, which is admissible and must not warn
    assert main(["lambda", "--G", "sqrt_growth(0)"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "Lambda = 5.940342198 attained at t = 2.000000\ntail limit = 5.294490050\n"
    assert captured.err == ""


@pytest.mark.parametrize("spec", ["const(0)", "const(-1)"])
def test_cli_reports_a_non_positive_constant_bound_as_a_hypothesis_violation(spec, capsys):
    assert main(["lambda", "--G", spec]) == 2
    assert capsys.readouterr().err.startswith(f"hypothesis violation: {spec}")


@pytest.mark.parametrize("t_max", ["50", "5000"])
def test_cli_lambda_does_not_depend_on_the_horizon(t_max, capsys):
    assert main(["lambda", "--G", "sqrt_growth(1)", "--t-max", t_max]) == 0
    assert capsys.readouterr().out == (
        "Lambda = 9.953004857 attained at t = 2.000000\ntail limit = 9.197681271\n"
    )


def test_cli_rejects_a_horizon_where_g_overflows(capsys):
    # g grows like e^{int_0^t G}; the horizon is rejected before integrating,
    # with no overflow warning from the integrator
    assert main(["sturm", "--G", "const(1)", "--T", "1e5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: g overflows float64 near t = 702.875; choose T below it\n"


def test_cli_resolution_and_tol_overrides():
    assert main(["verify", "--scenario", "sphere-equality", "--resolution", "8",
                 "--tol", "1e-5"]) == 0
    assert main(["verify", "--scenario", "sphere-equality", "--resolution", "2"]) == 3


def test_json_infinity_is_a_rejected_tolerance(tmp_path):
    raw = json.loads(Path(bundled_scenarios()["ellipsoid"]).read_text())
    raw["tolerances"]["equality"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(raw))
    assert "Infinity" in path.read_text()
    with pytest.raises(ConfigError, match="finite and non-negative, not inf"):
        load_scenario(path)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_cli_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol, tmp_path, capsys):
    # ellipsoid.json with reference radius 0.5 fails declared-radius-consistent,
    # and an infinite tolerance would turn that failure into a pass
    raw = json.loads(Path(bundled_scenarios()["ellipsoid"]).read_text())
    raw["reference"]["radius"] = 0.5
    path = tmp_path / "small-ball.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "--scenario", str(path)]) == 1
    capsys.readouterr()
    assert main(["verify", "--scenario", str(path), "--tol", tol]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage error: tolerances must be finite and non-negative, not {float(tol)!r}\n")


def test_package_namespace_resolves():
    # a name deleted from a module but left in __all__ breaks the star import
    namespace = {}
    exec("from curvbound import *", namespace)
    missing = [name for name in curvbound.__all__
               if name not in namespace or not hasattr(curvbound, name)]
    assert missing == []
    assert len(set(curvbound.__all__)) == len(curvbound.__all__)


# The child imports the package, runs every bundled scenario, every CLI
# command and each growth function, then prints the scipy modules loaded
# and a Sturm margin.
NO_SCIPY_CHILD = """
import json, sys
import curvbound
from curvbound import cli
from curvbound.harness import bundled_scenarios, load_scenario, run_scenario

for source in bundled_scenarios().values():
    config = load_scenario(source)
    config.resolution = 8
    run_scenario(config)
codes = [
    cli.main(["verify", "--scenario", "sphere-equality", "--resolution", "8"]),
    cli.main(["comparison", "--b", "-1", "--t", "1"]),
    cli.main(["list-scenarios"]),
    cli.main(["sturm", "--G", "sqrt_growth(0)", "--T", "5"]),
    cli.main(["lambda", "--G", "affine(1,1)"]),
]
G = curvbound.make_bound("const(1)")
curvbound.psi(G, 2.0)
curvbound.phi_gamma(G, 1e4)
margin = curvbound.sturm_margin(G, 5.0)
print(json.dumps({"codes": codes, "margin": margin.hex(),
                  "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_verify_path_imports_no_scipy():
    src = str(Path(curvbound.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD], capture_output=True,
                          text=True, check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    child = json.loads(done.stdout.splitlines()[-1])
    assert child["codes"] == [0, 0, 0, 0, 0]
    assert child["scipy"] == []
    margin = curvbound.sturm_margin(curvbound.make_bound("const(1)"), 5.0)
    assert float.fromhex(child["margin"]) == margin


# The child warms up on two resolution-48 scenarios, runs them once more and
# prints the minor page faults of that last pass.
WARM_PASS_CHILD = """
import json, resource
from curvbound.harness import bundled_scenarios, load_scenario, run_scenario

sources = bundled_scenarios()

def one_pass():
    for name in ("ellipsoid", "sphere-in-sphere"):
        config = load_scenario(sources[name])
        config.resolution = 48
        run_scenario(config)

one_pass()
one_pass()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
one_pass()
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy sets glibc's mallopt")
def test_a_warm_verify_pass_takes_no_page_faults():
    # glibc's default thresholds give the freed batch arrays back to the kernel
    # and fault them in again: about 300 and 615 faults for these two scenarios
    src = str(Path(curvbound.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", WARM_PASS_CHILD], capture_output=True,
                          text=True, check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert json.loads(done.stdout.splitlines()[-1]) <= 16


def _raising(exc):
    def cdll(name):
        raise exc
    return cdll


@pytest.mark.parametrize("cdll", [
    pytest.param(lambda name: object(), id="no-mallopt"),
    pytest.param(_raising(OSError("no such library")), id="oserror"),
    pytest.param(_raising(TypeError("expected str, not None")), id="windows"),
])
def test_the_heap_policy_is_skipped_where_libc_has_no_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert curvbound._keep_freed_heap() is None


# -- invariances -------------------------------------------------------------------

RIEMANNIAN_SCENARIOS = ["ellipsoid", "sphere-equality", "sphere-in-hyperbolic", "sphere-in-sphere"]


@given(name=st.sampled_from(RIEMANNIAN_SCENARIOS), resolution=st.integers(4, 16))
def test_orientation_flip_negates_odd_mean_curvatures(name, resolution):
    # kappa -> -kappa under the flip, so H_k -> (-1)^k H_k exactly
    config = dataclasses.replace(bundled(name), resolution=resolution)
    inner = collect_samples(dataclasses.replace(config, orientation="inner")).frames.H
    outer = collect_samples(dataclasses.replace(config, orientation="outer")).frames.H
    signs = (-1.0) ** np.arange(inner.shape[-1])
    assert np.array_equal(outer, signs * inner)
