"""Mutation probe: which one-edit mutants of the library does tier-1 let through?

Each mutant is (name, file, old text, new text): one edit to a file under
``src/curvbound``, where ``old`` occurs exactly once.  The probe copies
``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` (which
``test_docs.py`` reads) into a temporary directory once, then for each mutant
applies its edit, runs the tier-1 suite there (stopping at the first failure)
and restores the file.  A mutant that passes tier-1 survives.  pytest does not
collect this file (its name does not start with ``test_``).  Run it from the
root of a checkout:

    python tests/mutation_probe.py              # every mutant
    python tests/mutation_probe.py TIE cache    # mutants whose name contains TIE or cache
    python tests/mutation_probe.py --changed-since REV   # mutants of the files changed since REV

``--changed-since REV`` adds the mutants whose file differs from git revision
REV (``git diff --name-only REV -- src/curvbound``) to those the name patterns
select.  It prints one line per mutant and, last, the survivors.  ``EQUIVALENT``
names the mutants that cannot change any result, with the reason.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

MUTANTS = [
    # tolerances and floors
    ("DEGENERACY_TOL 1e-12 -> 1e-6", "immersion.py",
     "DEGENERACY_TOL = 1e-12", "DEGENERACY_TOL = 1e-6"),
    ("DEGENERACY_TOL 1e-12 -> 1e-15", "immersion.py",
     "DEGENERACY_TOL = 1e-12", "DEGENERACY_TOL = 1e-15"),
    ("TIE_ULPS 32 -> 32000", "harness.py", "TIE_ULPS = 32", "TIE_ULPS = 32000"),
    ("contains pad 1e-9 -> 1e-3", "immersion.py",
     "pad = 1e-9 * np.maximum(1.0, np.abs(width))", "pad = 1e-3 * np.maximum(1.0, np.abs(width))"),
    ("check_tangent 1e-8 -> 1e-3", "spaceform.py", "> 1e-8 * scale", "> 1e-3 * scale"),
    ("distance Hessian: only the first tangent column checked", "spaceform.py",
     "model.check_tangent(x, columns)", "model.check_tangent(x, columns[..., :1, :])"),
    ("restriction_hessian FD bar 1e-4 -> 1", "operators.py",
     "max() > 1e-4 * scale:", "max() > 1.0 * scale:"),
    ("restriction_hessian FD bar 1e-4 -> 1e-3", "operators.py",
     "max() > 1e-4 * scale:", "max() > 1e-3 * scale:"),
    ("restriction_hessian FD bar 1e-4 -> 1e-5", "operators.py",
     "max() > 1e-4 * scale:", "max() > 1e-5 * scale:"),
    ("FD_JET_SCALE 1e-4 -> 1e-2", "immersion.py", "FD_JET_SCALE = 1e-4", "FD_JET_SCALE = 1e-2"),
    ("evaluate: a margin passes down to -10 tol", "harness.py",
     "else margin >= -tol", "else margin >= -10.0 * tol"),
    ("TabulatedChart.MATCH_TOL 1e-9 -> 1e-3", "charts.py", "MATCH_TOL = 1e-9", "MATCH_TOL = 1e-3"),
    ("MAX_EXCLUSION_RATE 0.10 -> 0.5", "harness.py",
     "MAX_EXCLUSION_RATE = 0.10", "MAX_EXCLUSION_RATE = 0.5"),
    ("POLAR_MARGIN 0.15 -> 0.3", "charts.py", "POLAR_MARGIN = 0.15", "POLAR_MARGIN = 0.3"),
    ("FIRST_STEP_GRADING 30 -> 0", "comparison.py",
     "FIRST_STEP_GRADING = 30", "FIRST_STEP_GRADING = 0"),
    ("FIRST_STEP_GRADING 30 -> 3", "comparison.py",
     "FIRST_STEP_GRADING = 30", "FIRST_STEP_GRADING = 3"),
    # formulas
    ("Lorentzian key rhs sqrt(1 + 2|grad u|^2)", "operators.py",
     "np.sqrt(1.0 + sample.grad_norm_sq)", "np.sqrt(1.0 + 2.0 * sample.grad_norm_sq)"),
    ("power-chain guard hk1 > 0 -> hk1 > -1", "harness.py",
     "if np.all(hk1 > 0.0):", "if np.all(hk1 > -1.0):"),
    ("orientation flip s > 0 -> s >= 0", "immersion.py",
     "flip = s > 0.0 if", "flip = s >= 0.0 if"),
    ("distance Hessian: the rank-one term's sign", "spaceform.py",
     "metric - eps * (dr[..., :, None]", "metric + eps * (dr[..., :, None]"),
    ("composed field Hessian: the phi'' term dropped", "operators.py",
     "(d2u[..., None, None] * (du[..., :, None] * du[..., None, :])", "(0.0"),
    ("linear field Hessian: the curvature term dropped", "operators.py",
     "return -self.model.curvature * metric * u[..., None, None]", "return 0.0 * metric"),
    ("Riemannian normal term sign", "operators.py",
     "+ ck * Hk1 * sample.normal_coef", "- ck * Hk1 * sample.normal_coef"),
    ("newton_quadratic halved", "operators.py",
     "return np.vecdot(eigenvalues[..., k, :], sample.grad_squares)",
     "return 0.5 * np.vecdot(eigenvalues[..., k, :], sample.grad_squares)"),
    ("key_inequality_rhs: the Riemannian branch whatever the frame's signature", "operators.py",
     "    if frame.signature == RIEMANNIAN:\n", "    if True:\n"),
    ("H_2 corollary dropped", "harness.py",
     "checks += verify_h2_corollary(config, samples, r)", "checks += []"),
    ("H_2 corollary: P_0's row read for P_1", "harness.py",
     "newton_eigenvalues[:, 1, :]", "newton_eigenvalues[:, 0, :]"),
    # input checks
    ("frames_at: non-finite jets kept", "immersion.py",
     "reject(~finite, DomainError(", "reject(finite & False, DomainError("),
    ("frames_at: the whole-array finite gate always passes", "immersion.py",
     "    if not (np.isfinite(x).all() and np.isfinite(d1).all() and np.isfinite(d2).all()):\n",
     "    if False:\n"),
    ("immersive: a NaN pivot passes", "immersion.py",
     "return np.all(d > DEGENERACY_TOL", "return ~np.any(d <= DEGENERACY_TOL"),
    ("build_chart: no ConfigError conversion", "charts.py",
     "except (TypeError, ValueError, OSError) as exc:", "except () as exc:"),
    ("load_scenario: unknown keys accepted", "harness.py", "        if unknown:\n",
     "        if False:\n"),
    ("load_scenario: no ConfigError conversion", "harness.py",
     "        except (TypeError, ValueError, OverflowError) as exc:\n", "        except () as exc:\n"),
    ("load_scenario: a string field takes any value", "harness.py",
     "    if not isinstance(value, str):\n", "    if False:\n"),
    ("load_scenario: a fractional integer field is truncated", "harness.py",
     '        raise ValueError(f"expected a whole number, not {value!r}")\n', "        pass\n"),
    ("load_scenario: a real field takes true", "harness.py",
     "    if isinstance(value, bool) or not isinstance(value, (int, float)):\n",
     "    if not isinstance(value, (int, float)):\n"),
    ("checked_tolerance: any float accepted", "harness.py",
     "    if not 0.0 <= tol < np.inf:\n", "    if False:\n"),
    ("chart: an attribute can be rebound", "charts.py",
     "        if hasattr(self, name):\n", "        if False:\n"),
    ("frame_at: a point of any shape is taken", "immersion.py",
     "    if p.shape != (patch.n,):\n", "    if False:\n"),
    ("frames_at: a chart's undefined rows go unchecked", "immersion.py",
     "    if type(patch.chart).undefined is not Chart.undefined:", "    if False:"),
    ("patch: FD jets taken on a tabulated chart", "immersion.py",
     'if self.jets == "fd" and type(self.chart).undefined is not Chart.undefined:',
     "if False:"),
    # the tables built once
    ("fd_jet stencil: a cross row's sign flipped", "charts.py",
     "offsets += [e[i] + e[j], e[i] - e[j],", "offsets += [e[i] + e[j], e[i] + e[j],"),
    ("fd_jet stencil: writable", "charts.py",
     "    return read_only(np.stack(offsets))", "    return np.stack(offsets)"),
    ("patch FD steps: writable", "immersion.py",
     '"_fd_steps", read_only(FD_JET_SCALE * width)', '"_fd_steps", FD_JET_SCALE * width'),
    # the S_k table, signed once per frame batch
    ("operator_data: the other signature is not sign-flipped", "operators.py",
     "flips = convention_signs(frame.kappa.shape[-1], LORENTZIAN)",
     "flips = np.ones(frame.kappa.shape[-1] + 1)"),
    ("frames_at: the table is always signed riemannian", "immersion.py",
     "signed_values(complement_symmetric(kappa), model.signature)",
     'signed_values(complement_symmetric(kappa), "riemannian")'),
    # the closed-form spectrum of surfaces
    ("closed-form spectrum: eigenvalues swapped", "immersion.py",
     "    spectrum[..., 0] = m - r\n    spectrum[..., 1] = m + r\n",
     "    spectrum[..., 0] = m + r\n    spectrum[..., 1] = m - r\n"),
    ("closed-form spectrum: radius of a - c, not (a - c)/2", "immersion.py",
     "np.hypot(0.5 * (a - c), b)", "np.hypot((a - c), b)"),
    # reductions over a short per-sample axis, folded elementwise
    ("fold drops the last entry", "errors.py",
     "    for i in range(1, a.shape[-1]):\n", "    for i in range(1, a.shape[-1] - 1):\n"),
    # the single-point keep, and the distances a frame carries
    ("cache: key without the origin", "operators.py",
     'object.__setattr__(self, "_origin_bits", origin.tobytes())',
     'object.__setattr__(self, "_origin_bits", b"")'),
    ("cache: a distance field kept whatever its origin", "operators.py",
     "key = (origin.shape, origin.tobytes())", "key = origin.shape"),
    ("cache: the center's distances serve a distance field of any origin", "operators.py",
     "\n                and field._origin_bits == carried[0] else None)", " else None)"),
    ("cache: the center's distances serve a distance field of any model", "operators.py",
     "carried is not None and field.model == model\n", "carried is not None\n"),
    ("cache: the reuse checks the patch's center, not the frame's", "operators.py",
     "field._origin_bits == carried[0]", "field._origin_bits == patch.center.tobytes()"),
    ("cache: the kept C_b serves any b", "operators.py",
     "kept[1] if kept is not None and kept[0] == b else", "kept[1] if kept is not None else"),
    ("cache: entry kept across points", "operators.py",
     "frame_at(patch, p, jets), {})",
     "frame_at(patch, p, jets), patch._kept.get('point', (0, 0, {}))[2])"),
    ("cache: a point's key without its shape", "operators.py",
     "record[0] == (p.shape, p.tobytes())", "record[0][1] == p.tobytes()"),
    ("cache: a point's key without its bytes", "operators.py",
     "record[0] == (p.shape, p.tobytes())", "record[0][0] == p.shape"),
    ("cache: FD check skipped on a hit", "operators.py",
     "    fd = intrinsic_hessian_fd(patch, field.value, p, jets)",
     "    hit = getattr(sample, 'checked', False)\n"
     "    object.__setattr__(sample, 'checked', True)\n"
     "    fd = sample.hess if hit else intrinsic_hessian_fd(patch, field.value, p, jets)"),
    ("cache: the sample's principal-frame arrays writable", "operators.py",
     "return read_only(np.vecdot(E, self.hess @ E, axis=-2))",
     "return np.vecdot(E, self.hess @ E, axis=-2)"),
    ("cache: a kept sample can be rebound", "operators.py",
     "@dataclass(frozen=True, eq=False)\nclass FieldSample:",
     "@dataclass(eq=False)\nclass FieldSample:"),
    # one chart call per probe point: the frame's row is row 0 of the oracle's stencil
    ("fd_stencil: row 0 built as p + 0 h", "charts.py",
     "    Q[0] = p  # p + 0 h would turn a -0.0 coordinate into +0.0\n", ""),
    ("restriction_hessian: the frame built from stencil row 1", "operators.py",
     "[a[:1] for a in jets]", "[a[1:2] for a in jets]"),
    ("restriction_hessian: a failing stencil evaluated again", "operators.py",
     "        except GeometryError as exc:\n            failure = exc\n",
     "        except GeometryError:\n            pass\n"),
    ("restriction_hessian: the stencil evaluated before p's box check", "operators.py",
     "if p.shape == (patch.n,) and patch.contains(p) and",
     "if p.shape == (patch.n,) and"),
    ("restriction_hessian: a kept frame's stencil evaluated before the restriction",
     "operators.py", " and _record_of(patch, p) is None:", ":"),
    # a scenario's samples: the patch's grid and the distances to its center
    ("collect_samples: the distances are not evaluated", "harness.py",
     "    samples.u  # a kept row without a distance raises here, skipped rows or not\n", ""),
    # the one elimination on [g | I]: L^-1 comes from the row operations on I
    ("ldl: the identity block left out of the row update", "immersion.py",
     "S[k + 1:, k + 1:] -= (S[k + 1:, k] / S[k, k])[:, None] * S[k, k + 1:]\n",
     "S[k + 1:, k + 1:n] -= (S[k + 1:, k] / S[k, k])[:, None] * S[k, k + 1:n]\n"),
    # the read-only rule, applied where the batch is built
    ("frames_at: the batch is not marked read-only", "immersion.py",
     "    return read_only(frames), errors\n", "    return frames, errors\n"),
    ("operator_data: the other signature's H writable", "operators.py",
     "H=read_only(frame.H * flips)", "H=frame.H * flips"),
    # a single-point fact with one owner each
    ("restriction_at: the sample's errors not raised", "operators.py",
     "    raise_first(samples[field].errors)\n", ""),
    # orders checked where they enter
    ("l_k_apply: any order k taken", "operators.py",
     "    check_order(k, patch.n)\n    return float(", "    return float("),
    ("key_inequality_residual: any order k taken", "operators.py",
     "    check_order(k, patch.n - 1)\n    if b is None:", "    if b is None:"),
    ("omori_yau_search: any order k taken", "operators.py",
     "if not (is_integer(k) and 0 <= k < patch.n and is_integer(j_max) and j_max >= 1):",
     "if not (is_integer(j_max) and j_max >= 1):"),
    ("solve_cauchy_g: a num that is not an integer taken", "comparison.py",
     "if not (is_integer(num) and num >= 2):", "if not num >= 2:"),
    ("AmbientModel: a dimension that is not an integer taken", "spaceform.py",
     "if not is_integer(self.dimension):", "if False:"),
    ("omori_yau_search: j_max below 1 taken", "operators.py",
     "if not (is_integer(k) and 0 <= k < patch.n and is_integer(j_max) and j_max >= 1):",
     "if not (is_integer(k) and 0 <= k < patch.n and is_integer(j_max)):"),
    ("omori_yau_search: a fractional or bool j_max taken", "operators.py",
     "if not (is_integer(k) and 0 <= k < patch.n and is_integer(j_max) and j_max >= 1):",
     "if not (is_integer(k) and 0 <= k < patch.n and j_max >= 1):"),
    ("grid_axes: a fractional or bool count taken", "charts.py",
     "    if not all(is_integer(r) and r >= 2 for r in res):\n",
     "    if not all(r >= 2 for r in res):\n"),
    ("patch: a non-finite box bound taken", "immersion.py",
     "        if not all(a.shape == (self.n,) and np.isfinite(a).all() for a in (lo, hi)):\n",
     "        if not all(a.shape == (self.n,) for a in (lo, hi)):\n"),
    ("patch: a box of another length taken", "immersion.py",
     "        if not all(a.shape == (self.n,) and np.isfinite(a).all() for a in (lo, hi)):\n",
     "        if not all(np.isfinite(a).all() for a in (lo, hi)):\n"),
    ("orders: a fractional order taken", "errors.py",
     "return isinstance(value, (int, np.integer)) and not isinstance(value, bool)",
     "return not isinstance(value, bool)"),
    ("orders: a bool taken as an order", "errors.py",
     "return isinstance(value, (int, np.integer)) and not isinstance(value, bool)",
     "return isinstance(value, (int, np.integer))"),
    ("trace_operator: k = -1 taken", "operators.py",
     "    check_order(k, eigenvalues.shape[-1])\n    return np.vecdot(eigenvalues[..., k, :], "
     "sample.hess_diagonal)",
     "    check_order(max(k, 0), eigenvalues.shape[-1])\n"
     "    return np.vecdot(eigenvalues[..., k, :], sample.hess_diagonal)"),
    ("operator_data: an unknown signature accepted", "operators.py",
     "    if signature not in (RIEMANNIAN, LORENTZIAN):\n", "    if False:\n"),
    ("refine_extremum: negative rounds taken", "immersion.py",
     "if not (is_integer(rounds) and rounds >= 0):", "if not is_integer(rounds):"),
    # the refiner's quadratic step and round-off stop
    ("refine: the definiteness test's sign flipped", "immersion.py",
     "down = lam < -noise", "down = lam > noise"),
    ("refine: a clipped or failed stencil fitted", "immersion.py",
     "            if complete and not np.any(outside[k] & ~wraps):\n",
     "            if True:\n"),
    ("refine: round-off stop ulps x1e6", "immersion.py",
     "ROUNDOFF_ULPS = 16", "ROUNDOFF_ULPS = 16e6"),
    ("refine: a quartering round counted as one halving", "immersion.py",
     "cells[j] / 4.0, halvings[j] + 2", "cells[j] / 4.0, halvings[j] + 1"),
    ("refine: predicted-gain stop ulps x1e6", "immersion.py", "GAIN_ULPS = 1\n", "GAIN_ULPS = 1e6\n"),
    ("refine: the start's value read from stencil row 0", "immersion.py",
     "                best[j] = v[mid]\n", "                best[j] = v[0]\n"),
    ("refine: the start's error not raised", "immersion.py",
     "            raise_first(errors[mid::size])\n", "            pass\n"),
    ("refine: a step's center not wrapped", "immersion.py",
     "                middle[j] = np.where(wraps, lo + np.mod(step - lo, width), step)\n",
     "                middle[j] = step\n"),
    # the grid and the refiner know the seam of a periodic axis
    ("grid: the last node of a wrapping axis kept", "immersion.py",
     "grid_points([a[:-1] if w else a for a, w in zip(axes, self.wraps)])", "grid_points(axes)"),
    ("refine: a wrapping coordinate clipped", "immersion.py",
     "Q = np.where(wraps, lo + np.mod(Q - lo, width), np.clip(Q, lo, hi))",
     "Q = np.clip(Q, lo, hi)"),
    ("wraps: a periodic axis wraps whatever the box's width", "immersion.py",
     "read_only(wraps & (width == 2.0 * np.pi))", "read_only(wraps)"),
    # one refinement for J starts: each start keeps its own sign and stop
    ("refine: one start's stop ends the starts after it", "immersion.py",
     "            if complete and v.max() - v.min() <= noise:\n                continue\n",
     "            if complete and v.max() - v.min() <= noise:\n                break\n"),
    ("refine: signs swapped between starts", "immersion.py",
     "v, failing = signs[j] * values[rows], bad[rows]",
     "v, failing = signs[-1 - j] * values[rows], bad[rows]"),
    ("refine_extremum: a start of any shape taken", "immersion.py",
     "    if starts.ndim != 2 or starts.shape[1] != patch.n or not len(starts):\n",
     "    if False:\n"),
    ("refine_extremum: a sign count other than J taken", "immersion.py",
     "    if np.shape(signs) != (len(starts),):\n", "    if False:\n"),
    ("refine_extremum: any sign taken", "immersion.py",
     "    if not set(np.asarray(signs).tolist()) <= {1.0, -1.0}:\n", "    if False:\n"),
    ("refine_extremum: a cell of any shape taken", "immersion.py",
     "    if cell.shape != (patch.n,):\n", "    if False:\n"),
    ("refine_extremum: an infinite cell taken", "immersion.py",
     "if not (np.isfinite(cell).all() and (cell > 0.0).all()):", "if not (cell > 0.0).all():"),
    ("refine_extremum: a zero or negative cell taken", "immersion.py",
     "if not (np.isfinite(cell).all() and (cell > 0.0).all()):", "if not np.isfinite(cell).all():"),
    ("refined_distance_extremum: an unknown mode accepted", "harness.py",
     '    if not (isinstance(modes, tuple) and modes and all(m in ("max", "min") for m in modes)):\n',
     "    if not (isinstance(modes, tuple) and modes):\n"),
    ("refined_distance_extremum: modes other than a tuple taken", "harness.py",
     '    if not (isinstance(modes, tuple) and modes and all(m in ("max", "min") for m in modes)):\n',
     '    if not (modes and all(m in ("max", "min") for m in modes)):\n'),
    # each distance once: the grid's u is the orientation step's rho
    ("frames_at: u read from rows before the orientation reject", "immersion.py",
     "x, d1, d2, g, normal, radial, rho = reject(", "x, d1, d2, g, normal, radial, _ = reject("),
    # the direction's prefix products, folded elementwise
    ("hypersphere_direction: the prefix fold drops a factor", "charts.py",
     "        prefix = prefix * s[..., j]\n", ""),
    # the heap policy set on import
    ("heap policy: trim threshold 8 MiB -> 8 KiB", "__init__.py",
     "_TRIM_THRESHOLD_BYTES = 8 * 2**20", "_TRIM_THRESHOLD_BYTES = 8 * 2**10"),
    ("heap policy: mmap threshold 4 MiB -> 64 KiB", "__init__.py",
     "_MMAP_THRESHOLD_BYTES = 4 * 2**20", "_MMAP_THRESHOLD_BYTES = 64 * 2**10"),
    ("heap policy: the mallopt calls dropped", "__init__.py",
     "    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)\n"
     "    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)\n", ""),
    # the tabulated chart's node lookup
    ("tabulated lookup: a NaN coordinate matches", "charts.py",
     "miss |= ~(np.abs(axis[j] - v) <= self.MATCH_TOL)", "miss |= np.abs(axis[j] - v) > self.MATCH_TOL"),
]

EQUIVALENT = {
    "orientation flip s > 0 -> s >= 0":
        "likely (not proved): it differs only where s = <N, grad rho> is exactly 0, where the "
        "surface contains the radial direction of its center and neither side is inner",
    "FIRST_STEP_GRADING 30 -> 3":
        "within the bar, not in value: on sqrt_growth(0) at T = 5 the largest relative error "
        "against the Runge-Kutta reference moves from 4.8e-10 to 5.0e-10, under the 1e-9 bar; "
        "grading 0 reaches 7.0e-9 and is killed",
}


def run_tier1(root: Path) -> tuple[bool, str]:
    """(passed, last line of the pytest summary) of tier-1 on the copy at ``root``.

    ``test_mutation_probe.py`` is left out: it checks that each mutant's old
    text is in the library, which every applied mutant removes, so it would
    kill them all whatever the behaviour.
    """
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore", str(root / "tests" / "test_mutation_probe.py")],
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode == 0, lines[-1] if lines else done.stderr.strip()[-200:]


def changed_files(rev: str) -> set:
    """The names of the files of ``src/curvbound`` that differ from git revision ``rev``."""
    diff = subprocess.run(["git", "diff", "--name-only", rev, "--", "src/curvbound"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return {Path(line).name for line in diff.stdout.split()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run tier-1 on one-edit mutants of the library.")
    parser.add_argument("patterns", nargs="*", help="select the mutants whose name contains one")
    parser.add_argument("--changed-since", metavar="REV",
                        help="select the mutants of the files that differ from git revision REV")
    args = parser.parse_args(argv)
    changed = set() if args.changed_since is None else changed_files(args.changed_since)
    everything = not args.patterns and args.changed_since is None
    chosen = [m for m in MUTANTS if everything or m[1] in changed
              or any(p in m[0] for p in args.patterns)]
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, root)
        passed, summary = run_tier1(root)
        if not passed:
            print(f"tier-1 fails on the unmutated copy: {summary}")
            return 2
        for name, file, old, new in chosen:
            path = root / "src" / "curvbound" / file
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {file}")
            path.write_text(text.replace(old, new))
            t0 = time.perf_counter()
            try:
                passed, summary = run_tier1(root)
            finally:
                path.write_text(text)
            verdict = "SURVIVES" if passed else "killed"
            print(f"{verdict:8}  {name}  ({summary}; {time.perf_counter() - t0:.1f} s)", flush=True)
            if passed:
                survivors.append(name)
    print(f"\n{len(survivors)} of {len(chosen)} mutants survive tier-1:")
    for name in survivors:
        note = EQUIVALENT.get(name)
        print(f"  {name}" + (f"  [equivalent: {note}]" if note else ""))
    return 1 if set(survivors) - set(EQUIVALENT) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
