"""Command line: ``curvbound verify | sturm | lambda | comparison | list-scenarios``.

README's "Command line" section gives the subcommands and the exit codes: 0 all
checks pass, 1 check failure, 2 hypothesis violation, 3 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .comparison import (
    c_b,
    c_hat_b,
    lambda_sup,
    make_bound,
    phi_b,
    phi_b_d1,
    phi_ode_residual,
    sturm_profile,
)
from .errors import ConfigError, DomainError, GeometryError, HypothesisViolationError
from .harness import (
    bundled_scenarios,
    checked_resolution,
    checked_tolerance,
    emit_report,
    emit_samples_csv,
    load_scenario,
    run_scenario,
)

USAGE_ERROR = 3
HYPOTHESIS_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvbound",
        description="Verify sharp mean-curvature bounds on bundled hypersurface scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a scenario and report pass/fail checks")
    verify.add_argument("--scenario", required=True, help="scenario JSON file or bundled name")
    verify.add_argument("--emit-samples", metavar="CSV", help="write per-sample data")
    verify.add_argument("--emit-report", metavar="JSON", help="write the structured report")
    verify.add_argument("--resolution", type=int, help="override grid resolution")
    verify.add_argument("--tol", type=float, help="override both tolerances")

    sturm = sub.add_parser("sturm", help="Sturm quotient margin for a growth bound")
    sturm.add_argument("--G", required=True, help='growth bound, e.g. "const(1)" or "affine(1,1)"')
    sturm.add_argument("--T", type=float, required=True, help="horizon")
    sturm.add_argument("--emit-csv", metavar="CSV", help="dump (t, g, g', psi, margin)")

    lam = sub.add_parser("lambda", help="finite supremum of the barrier quotient")
    lam.add_argument("--G", required=True)
    lam.add_argument("--t-max", type=float, default=50.0)

    comp = sub.add_parser("comparison", help="evaluate the comparison functions")
    comp.add_argument("--b", type=float, required=True)
    comp.add_argument("--t", type=float, required=True)

    sub.add_parser("list-scenarios", help="list bundled scenario names")
    return parser


def _resolve_scenario(name: str):
    bundled = bundled_scenarios()
    if name in bundled:
        return bundled[name]
    return name


def _cmd_verify(args) -> int:
    config = load_scenario(_resolve_scenario(args.scenario))
    if args.resolution is not None:
        config.resolution = checked_resolution(args.resolution)
    if args.tol is not None:
        config.tol_equality = config.tol_margin = checked_tolerance(args.tol)
    report = run_scenario(config)
    for check in report.checks:
        residual = "" if check.residual is None else f" residual={check.residual:+.6e}"
        print(f"[{check.status:^20}] {check.id}:{residual}  ({check.anchor})")
    if args.emit_report:
        emit_report(report, args.emit_report)
        print(f"report written to {args.emit_report}")
    if args.emit_samples:
        emit_samples_csv(config, report.samples, args.emit_samples)
        print(f"samples written to {args.emit_samples}")
    print(f"scenario {report.scenario}: exit {report.exit_code} ({report.timing_ms:.1f} ms)")
    return report.exit_code


def _cmd_sturm(args) -> int:
    G = make_bound(args.G)
    grid, g, dg, psi_vals, margins = sturm_profile(G, args.T)
    print(f"min margin psi'/psi - g'/g on (0, {args.T}]: {margins.min():.9f}")
    print(f"margin at T: {margins[-1]:.9f}")
    if args.emit_csv:
        with open(args.emit_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "g", "dg", "psi", "margin"])
            for row in zip(grid, g, dg, psi_vals, margins):
                writer.writerow([f"{v:.12g}" for v in row])
        print(f"profile written to {args.emit_csv}")
    return 0


def _cmd_lambda(args) -> int:
    res = lambda_sup(make_bound(args.G), t_max=args.t_max)
    print(f"Lambda = {res.value:.9f} attained at t = {res.argmax:.6f}")
    print(f"tail limit = {res.tail_limit:.9f}")
    return 0


def _cmd_comparison(args) -> int:
    b, t = args.b, args.t
    print(f"C_b({t}) = {c_b(b, t):.12f}")
    print(f"phi_b({t}) = {phi_b(b, t):.12f}, phi_b'({t}) = {phi_b_d1(b, t):.12f}")
    print(f"ode residual = {phi_ode_residual(b, t):.3e}")
    print(f"C_-b({t}) = {c_hat_b(b, t):.12f}")
    return 0


def _cmd_list() -> int:
    for name in bundled_scenarios():
        print(name)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sturm":
            return _cmd_sturm(args)
        if args.command == "lambda":
            return _cmd_lambda(args)
        if args.command == "comparison":
            return _cmd_comparison(args)
        if args.command == "list-scenarios":
            return _cmd_list()
    except (ConfigError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return HYPOTHESIS_ERROR
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
