"""SHA-256 digests of what the library reports, to tell two versions of ``src/`` apart.

It prints one line per digest, ``<what> <digest>``:

- ``verify``: for each bundled scenario at resolutions 16, 32 and 48, the
  report JSON (``timing_ms`` masked), the stdout (the run time and the output
  paths masked) and the samples CSV of ``verify --emit-report --emit-samples``;
- ``grid``: for each bundled scenario at those resolutions, the counts of
  grid rows kept and skipped, so a diff names a change of the grid itself;
- ``refine``: for each bundled scenario at those resolutions and each refined
  distance extremum its checks read (the max, and in a Lorentzian scenario
  the min), the value and parameter bytes in hex in place of a digest, and
  for each refinement the checks run, one line with the number of calls of
  the refined function, named by the extrema it refines (``max calls``, or
  ``max+min calls`` where one refinement takes both), so a diff shows which
  extrema moved and which refinements changed their work;
- ``sturm``, ``lambda`` and ``comparison``: the stdout (and ``sturm``'s CSV)
  for a few growth bounds and arguments;
- ``point``: ``restriction_hessian``, ``key_inequality_residual`` and
  ``l_k_apply`` (k = 0, 1) at seeded points on the four probe charts, the
  bytes of each value or the type and message of each error; the same at
  points the frame rejects (of shape (3,), with a NaN or infinite
  coordinate, outside the box), at the parameter origin and at a point that
  is its own reference point, and at a node of a tabulated sphere; and per
  chart, in place of a digest, the shapes of its chart calls in order
  (``9x2*6,0x2*5``: six calls of shape (9, 2), then five of (0, 2)), so a
  diff shows a change of error order or of the chart calls per point;
- ``search``: every field of two ``omori_yau_search`` reports.

Run it from the root of a checkout:

    python tests/report_digests.py                  # the library in the src/ beside it
    python tests/report_digests.py --src DIR        # the library in DIR
    python tests/report_digests.py --against REV    # diff against git revision REV

``--against`` exports REV's ``src/`` into a temporary directory with
``git archive``, computes the digests of both libraries in child processes,
prints the lines that differ and exits 1 if any do (0 if none).  pytest does
not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESOLUTIONS = (16, 32, 48)
STURM_BOUNDS = ("const(1)", "const(2)", "affine(1,1)", "sqrt_growth(1)", "sqrt_growth(0)")
STURM_T = "5"
COMPARISON_ARGS = (("1", "0.5"), ("0", "1"), ("-1", "1"), ("0.25", "2"))
POINT_SEED = 20
POINTS_PER_CHART = 6


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list, tmp: Path) -> bytes:
    """The stdout of ``curvbound <argv>``, with the temporary directory masked."""
    from curvbound.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue().replace(str(tmp), "<dir>").encode()


def verify_digests(name: str, resolution: int, tmp: Path) -> dict:
    report, samples = tmp / "report.json", tmp / "samples.csv"
    stdout = run(["verify", "--scenario", name, "--resolution", str(resolution),
                  "--emit-report", str(report), "--emit-samples", str(samples)], tmp)
    stdout = re.sub(rb"\([0-9.]+ ms\)", b"(<ms> ms)", stdout)
    masked = json.loads(report.read_text())
    masked["timing_ms"] = None
    return {"report": sha(json.dumps(masked, indent=2).encode()), "stdout": sha(stdout),
            "samples": sha(samples.read_bytes())}


def scenario_samples(name: str, resolution: int):
    """(config, samples): the bundled scenario at ``resolution`` and its samples."""
    import dataclasses

    from curvbound import harness

    config = harness.load_scenario(harness.bundled_scenarios()[name])
    config = dataclasses.replace(config, resolution=resolution)
    return config, harness.collect_samples(config)


def refine_values(config, samples) -> dict:
    """``value=<float hex>,param=<bytes hex>`` of each extremum the checks read, and the
    fn call count of each refinement they run, as ``scenario_checks`` runs them."""
    import numpy as np
    from curvbound import harness

    refine, values = harness.refine_extremum, {}

    def counted(patch, fn, *args, **kwargs):
        calls = []

        def counted_fn(Q):
            calls.append(len(Q))
            return fn(Q)

        params, found = refine(patch, counted_fn, *args, **kwargs)
        # the signs by name: ``signs`` (J,) here, ``sign`` in versions that also took one start (n,)
        bound = inspect.signature(refine).bind(patch, fn, *args, **kwargs)
        bound.apply_defaults()
        signs = bound.arguments.get("signs", bound.arguments.get("sign"))
        modes = ["max" if s > 0.0 else "min" for s in np.atleast_1d(signs)]
        for mode, param, value in zip(modes, np.reshape(params, (len(modes), -1)),
                                      np.atleast_1d(found)):
            values[mode] = f"value={float(value).hex()},param={param.tobytes().hex()}"
        values["+".join(modes) + " calls"] = str(len(calls))
        return params, found

    harness.refine_extremum = counted
    try:
        harness.scenario_checks(config, samples)
        return values
    finally:
        harness.refine_extremum = refine


def sturm_digests(spec: str, tmp: Path) -> dict:
    profile = tmp / "sturm.csv"
    stdout = run(["sturm", "--G", spec, "--T", STURM_T, "--emit-csv", str(profile)], tmp)
    return {"stdout": sha(stdout), "csv": sha(profile.read_bytes())}


def encode(value) -> bytes:
    """Bytes that tell any two values apart: array bytes and shape, float hex, repr otherwise."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return repr(value.shape).encode() + value.tobytes()
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, (list, tuple)):
        return b"(" + b",".join(encode(v) for v in value) + b")"
    if hasattr(value, "__dataclass_fields__"):
        return encode([getattr(value, name) for name in value.__dataclass_fields__])
    return repr(value).encode()


def outcome(call) -> bytes:
    """The encoded value of ``call()``, or the type and message of its GeometryError."""
    from curvbound.errors import GeometryError

    try:
        return encode(call())
    except GeometryError as exc:
        return f"{type(exc).__name__}: {exc}".encode()


def single_point_calls(patch, o, p) -> dict:
    """The single-point calls at p with reference point o: name -> a call of no arguments."""
    from curvbound.operators import (
        DistanceField,
        key_inequality_residual,
        l_k_apply,
        restriction_hessian,
    )

    field = DistanceField(patch.ambient, o)
    calls = {"restriction_hessian": lambda: restriction_hessian(patch, o, p)}
    for k in (0, 1):
        calls[f"key_inequality_residual k={k}"] = (
            lambda k=k: key_inequality_residual(patch, p, k, origin=o))
        calls[f"l_k_apply k={k}"] = lambda k=k: l_k_apply(patch, p, k, field)
    return calls


def rejected_points(patch) -> dict:
    """Points the frame rejects before any chart jet: what -> p."""
    import numpy as np

    middle = patch.domain_lo + 0.5 * patch.domain_width
    points = {"shape (3,)": np.zeros(3)}
    for what, axis, value in (("nan p0", 0, np.nan), ("nan p1", 1, np.nan),
                              ("inf p0", 0, np.inf), ("-inf p1", 1, -np.inf),
                              ("above p0", 0, patch.domain_hi[0] + patch.domain_width[0]),
                              ("below p1", 1, patch.domain_lo[1] - 0.5 * patch.domain_width[1])):
        points[what] = middle.copy()
        points[what][axis] = value
    return points


def chart_call_shapes(shapes: list) -> str:
    """The shapes of a run of chart calls, run-length coded: ``9x2*6,0x2*5``."""
    runs = []
    for shape in shapes:
        code = "x".join(map(str, shape))
        if runs and runs[-1][0] == code:
            runs[-1][1] += 1
        else:
            runs.append([code, 1])
    return ",".join(f"{code}*{count}" for code, count in runs) or "none"


def point_digests(tmp: Path) -> dict:
    """The single-point calls on the four probe charts and a tabulated sphere, one digest per
    call and case, and per chart the shapes of its ``patch.jet_at`` calls, in order.

    The cases are seeded points; on each probe chart, the points :func:`rejected_points`
    names, the parameter origin, and the middle of the box with its own image as the
    reference point (the restriction's error); on the table, a node with the center as
    the reference point (the oracle's error) and with the node's own image.
    """
    import numpy as np
    from curvbound.charts import build_chart, write_chart_csv
    from curvbound.immersion import HypersurfacePatch, build_patch
    from curvbound.spaceform import AmbientModel

    E3, S3 = AmbientModel.euclidean(3), AmbientModel.sphere(1.0, 3)
    H3, M3 = AmbientModel.hyperbolic(-1.0, 3), AmbientModel.minkowski(3)
    origin = np.zeros(3)
    charts = (
        ("ellipsoid", build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, center=origin),
         origin),
        ("S3-geodesic-sphere", build_patch(S3, "geodesic_sphere", {"radius": 0.7},
                                           center=S3.base_point()), S3.base_point()),
        ("H3-geodesic-sphere", build_patch(H3, "geodesic_sphere", {"radius": 1.1},
                                           center=H3.base_point()), H3.base_point()),
        ("perturbed-hyperboloid", build_patch(M3, "perturbed_hyperboloid", {"radius": 2.0}),
         origin),
    )
    sphere = build_chart(E3, "sphere", {"radius": 1.0})
    write_chart_csv(sphere, *sphere.default_domain(), 9, tmp / "sphere.csv", include_jets=True)
    table = build_patch(E3, "tabulated", {"path": str(tmp / "sphere.csv")}, center=origin)
    node = np.array([table.chart.axes[0][4], table.chart.axes[1][3]])
    rng = np.random.default_rng(POINT_SEED)
    digests, shapes, jet_at = {}, [], HypersurfacePatch.jet_at

    def recorded(patch, p):
        shapes.append(np.shape(p))
        return jet_at(patch, p)

    HypersurfacePatch.jet_at = recorded
    try:
        for label, patch, o in charts:
            shapes.clear()
            parts = {}
            for _ in range(POINTS_PER_CHART):
                p = patch.domain_lo + rng.uniform(0.1, 0.9, patch.n) * patch.domain_width
                for name, call in single_point_calls(patch, o, p).items():
                    parts.setdefault(name, []).append(outcome(call))
            for name, values in parts.items():
                digests[f"{label} {name}"] = sha(b"|".join(values))
            middle = patch.domain_lo + 0.5 * patch.domain_width
            cases = {**{f"rejected {what}": (p, o) for what, p in rejected_points(patch).items()},
                     "param origin": (np.zeros(patch.n), o),
                     "at the reference point": (middle, patch.chart.value(middle))}
            for what, (p, ref) in cases.items():
                values = [outcome(call) for call in single_point_calls(patch, ref, p).values()]
                digests[f"{label} {what}"] = sha(b"|".join(values))
            digests[f"{label} chart calls"] = chart_call_shapes(shapes)
        shapes.clear()
        for what, ref in (("node", origin),
                          ("node at the reference point", table.chart.value(node))):
            values = [outcome(call) for call in single_point_calls(table, ref, node).values()]
            digests[f"tabulated-sphere {what}"] = sha(b"|".join(values))
        digests["tabulated-sphere chart calls"] = chart_call_shapes(shapes)
    finally:
        HypersurfacePatch.jet_at = jet_at
    return digests


def search_digests() -> dict:
    """Every field of the searches on the unit sphere (height) and the ellipsoid (phi_0(rho))."""
    import numpy as np
    from curvbound.immersion import build_patch
    from curvbound.operators import LinearCoordinateField, omori_yau_search
    from curvbound.spaceform import AmbientModel

    from oracles import phi_of_distance_field

    E3, origin = AmbientModel.euclidean(3), np.zeros(3)
    sphere = build_patch(E3, "sphere", {"radius": 1.0}, center=origin)
    ellipsoid = build_patch(E3, "ellipsoid", {"semi_axes": [0.6, 1.0, 1.0]}, center=origin)
    height = LinearCoordinateField(E3, np.array([0.0, 0.0, 1.0]))
    return {
        "sphere height k=0": sha(outcome(lambda: omori_yau_search(
            sphere, height, 0, resolution=12, j_max=6, rounds=8))),
        "ellipsoid phi_0(rho) k=1": sha(outcome(lambda: omori_yau_search(
            ellipsoid, phi_of_distance_field(E3, origin, 0.0), 1, resolution=12, j_max=4))),
    }


def print_digests(src: Path) -> None:
    """Print every digest of the library in ``src``."""
    sys.path.insert(0, str(src))
    from curvbound.harness import bundled_scenarios

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in bundled_scenarios():
            for resolution in RESOLUTIONS:
                for kind, digest in verify_digests(name, resolution, tmp).items():
                    print(f"verify {name} {resolution} {kind} {digest}", flush=True)
                config, samples = scenario_samples(name, resolution)
                print(f"grid {name} {resolution} kept={len(samples.frames.param)},"
                      f"skipped={len(samples.skipped)}", flush=True)
                for mode, value in refine_values(config, samples).items():
                    print(f"refine {name} {resolution} {mode} {value}", flush=True)
        for spec in STURM_BOUNDS:
            for kind, digest in sturm_digests(spec, tmp).items():
                print(f"sturm {spec} T={STURM_T} {kind} {digest}", flush=True)
            print(f"lambda {spec} stdout {sha(run(['lambda', '--G', spec], tmp))}", flush=True)
        for b, t in COMPARISON_ARGS:
            stdout = run(["comparison", "--b", b, "--t", t], tmp)
            print(f"comparison b={b} t={t} stdout {sha(stdout)}", flush=True)
        for what, digest in point_digests(tmp).items():
            print(f"point {what} {digest}", flush=True)
    for what, digest in search_digests().items():
        print(f"search {what} {digest}", flush=True)


def against(rev: str) -> int:
    """Diff the digests of the src/ beside this file and of REV's src/; 1 if any differ."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        children = {label: subprocess.Popen([sys.executable, __file__, "--src", str(src)],
                                            stdout=subprocess.PIPE, text=True)
                    for label, src in ((rev, Path(tmp) / "src"), ("here", ROOT / "src"))}
        lines = {label: child.communicate()[0].splitlines() for label, child in children.items()}
        if any(child.returncode for child in children.values()):
            print("a digest run failed", file=sys.stderr)
            return 2
    theirs, ours = ({line.rsplit(" ", 1)[0]: line.rsplit(" ", 1)[1] for line in lines[label]}
                    for label in (rev, "here"))
    differ = [what for what in {**theirs, **ours} if theirs.get(what) != ours.get(what)]
    for what in differ:
        print(f"{what}: {rev} {theirs.get(what, '-')} here {ours.get(what, '-')}")
    print(f"{len(differ)} of {len(ours)} digests differ from {rev}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory of the library to digest")
    parser.add_argument("--against", metavar="REV",
                        help="diff against the src/ of git revision REV")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    print_digests(args.src.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
