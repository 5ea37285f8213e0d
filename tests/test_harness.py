"""Scenario loading, verification reports, CSV emission, CLI exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from curvbound.cli import main
from curvbound.errors import ConfigError
from curvbound.harness import (
    bundled_scenarios,
    collect_samples,
    emit_report,
    emit_samples_csv,
    load_scenario,
    refined_distance_extremum,
    run_scenario,
    scenario_patch,
)
from curvbound.operators import key_inequality_residual


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


def test_scenario_file_not_found():
    with pytest.raises(ConfigError, match="not found"):
        load_scenario("/nonexistent/path.json")


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
    # Reports of the bundled scenarios at resolution 16, recorded with
    # `curvbound verify --emit-report` before the per-sample pipeline was
    # reworked.  Statuses must match exactly; numbers to round-off, so that
    # a reordered (e.g. batched) evaluation can still be checked against it.
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


def test_refined_extremum_reaches_touching_radius():
    samples = collect_samples(bundled("ellipsoid"))
    _, r = refined_distance_extremum(samples, "max")
    assert r == pytest.approx(1.0, abs=1e-9)


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


def test_riemannian_report_flags_skipped_samples(tmp_path):
    # without jet columns the 32 boundary points of a 9x9 table have no
    # finite differences: 40% of the grid is lost, so the run is inconclusive
    report = run_scenario(tabulated_sphere_scenario(tmp_path, 9, include_jets=False))
    skipped = next(c for c in report.checks if c.id == "skipped-samples")
    assert (skipped.status, skipped.residual) == ("inconclusive", 32.0)
    assert report.exit_code == 1


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
    emit_samples_csv(config, path)
    rows = path.read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header[:4] == ["p0", "p1", "u", "grad_norm"]
    for k in (0, 1):
        for col in (f"H{k}", f"H{k + 1}", f"ratio_k{k}", f"q_lu_k{k}", f"key_residual_k{k}"):
            assert col in header
    assert len(rows) - 1 == config.resolution**2
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


def test_cli_usage_error_for_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "ambient": {"signature": "riemannian", "curvature": 0.0,
                    "dimension": 3, "model_kind": "euclidean"},
        "reference": {"center": [0.0, 0.0, 0.0]},
        "chart": {"kind": "sphere", "params": {"radius": 1.0}},
        "k_range": [0, 2],
        "resolution": 8,
    }))
    assert main(["verify", "--scenario", str(bad)]) == 3
    assert "[0, 1]" in capsys.readouterr().err


def test_cli_analysis_subcommands(tmp_path, capsys):
    assert main(["sturm", "--G", "const(1)", "--T", "5",
                 "--emit-csv", str(tmp_path / "sturm.csv")]) == 0
    assert (tmp_path / "sturm.csv").read_text().startswith("t,g,dg,psi,margin")
    assert main(["lambda", "--G", "const(1)"]) == 0
    out = capsys.readouterr().out
    assert "4.300258" in out  # e^2/(e-1)
    assert main(["comparison", "--b", "-1", "--t", "1"]) == 0
    assert "1.313035" in capsys.readouterr().out
    assert main(["list-scenarios"]) == 0


def test_cli_resolution_and_tol_overrides():
    assert main(["verify", "--scenario", "sphere-equality", "--resolution", "8",
                 "--tol", "1e-5"]) == 0
    assert main(["verify", "--scenario", "sphere-equality", "--resolution", "2"]) == 3
