"""Command-line surface: radius solving, table reproduction, verification.

Commands write a single machine-readable record (JSON by default, CSV
or text on request) and exit with 0 on success, 2 on a validation
error, 3 when an equation has no root or a calibration is infeasible,
and 4 when a verification fails (guarantee violated below a radius, or
a reference-table mismatch without --allow-errata).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from .bloch import HyperbolicDensity, bloch_radius, bloch_radius_gamma, \
    bloch_refined_radius, gamma_equation_value
from .errors import (BohradError, ConfigurationError, InfeasibleError,
                     NoRootError, NonConvergenceError, SingularIntegrandError)
from .functionals import (MuFunction, _first_violation, bohr_area_functional,
                          bohr_beta_functional, bohr_energy_functional,
                          family_gamma, problem_functional)
from .phi import BUILTIN_PHI, MONOMIAL
from .polynomials import calibrate_area_poly, calibration_residual, peak_weight
from .radii import (RadiusProblem, radius_refined, radius_rogosinski,
                    reproduce_all_tables, reproduce_table, rp_bounds)
from .roots import count_sign_changes
from .series import DomainSpec, _check_index, mobius_gamma_coeffs

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_ROOT = 3
EXIT_VERIFY_FAILED = 4

TABLE_MATCH_TOL = 1e-5  # printed values carry six significant figures
PROBE_OFFSET = 0.01
SWEEP_A_GRID = (0.5, 0.9, 0.99, 0.999, 0.9999)

VERIFY_FAMILIES = ("bohr", "refined", "rogosinski", "area-poly", "beta-square",
                   "energy", "tables")
# the verify options only some families read, and the families that read each;
# bohr and refined solve p phi_m = 2 lambda_H Phi_{m+1}, which has no N
FAMILY_OPTIONS = {"phi": ("bohr", "refined", "rogosinski"),
                  "p": ("bohr", "refined", "rogosinski"),
                  "m": ("bohr", "refined", "rogosinski"),
                  "N": ("rogosinski",),
                  "mu_const": ("refined", "rogosinski"),
                  "beta": ("beta-square",),
                  "degree": ("area-poly",),
                  "allow_errata": ("tables",)}


def _sig9(x):
    """Round floats to 9 significant digits so JSON and CSV agree."""
    if isinstance(x, float):
        return float(f"{x:.9g}")
    if isinstance(x, dict):
        return {k: _sig9(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig9(v) for v in x]
    return x


class _SingleLineParser(argparse.ArgumentParser):
    """Argument parser whose failures print one diagnostic line."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bohrad argument parser, built on first use and once per process.

    Every call returns the same shared parser, so callers must not
    mutate it (add arguments, set defaults); parsing leaves it unchanged.
    """
    parser = _SingleLineParser(
        prog="bohrad",
        description="Bohr-type radii and inequality checks for operator-valued "
                    "holomorphic functions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, solves=True):
        """Output options, and the root solver's on commands that solve."""
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
        if solves:
            sp.add_argument("--tol", type=float, default=1e-12)
            sp.add_argument("--scan-step", type=float, default=1e-3)
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")

    def problem(sp, **phi):
        sp.add_argument("--phi", choices=tuple(BUILTIN_PHI), **phi)
        sp.add_argument("--p", type=float, default=1.0)
        sp.add_argument("--m", type=int, default=0)
        sp.add_argument("--N", type=int, default=1)
        sp.add_argument("--mu-const", type=float, default=0.0)
        sp.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--lambda-h", type=float, default=None)

    sp = sub.add_parser("radius", help="solve one radius equation")
    problem(sp, required=True)
    sp.add_argument("--kind", choices=("refined", "rogosinski"), default="refined")
    common(sp)

    sp = sub.add_parser("tables", help="recompute the reference radius tables")
    sp.add_argument("--id", type=int, default=None, choices=(1, 2, 3, 4))
    sp.add_argument("--allow-errata", action="store_true")
    common(sp)

    sp = sub.add_parser("verify", help="guarantee sweep below a radius, probe above it")
    sp.add_argument("--family", choices=VERIFY_FAMILIES, default="bohr")
    problem(sp, default=MONOMIAL.kind)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--degree", type=int, default=2)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--allow-errata", action="store_true")
    sp.set_defaults(id=None)  # read by --family tables
    common(sp)

    sp = sub.add_parser("calibrate", help="calibrate the positive-coefficient polynomial")
    sp.add_argument("--degree", type=int, default=1)
    sp.add_argument("--c", type=float, action="append", default=None,
                    help="tail coefficient (repeat for c_2, c_3, ...)")
    common(sp, solves=False)

    sp = sub.add_parser("bloch", help="Bloch-space Bohr radii")
    sp.add_argument("--domain", choices=("disk", "gamma"), default="disk")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--variant", choices=("majorant", "majorant-gamma", "refined"),
                    default="majorant")
    common(sp)

    sp = sub.add_parser("bounds", help="two-sided bounds on the p-powered Bohr radius")
    sp.add_argument("--p", type=float, required=True)
    common(sp, solves=False)

    return parser


def _validated(args):
    """The parsed arguments, once the ranges argparse cannot express hold."""
    if "tol" in args and not 0.0 < args.tol <= 1e-3:
        raise ConfigurationError("tol must lie in (0, 1e-3]")
    if "scan_step" in args and not 0.0 < args.scan_step < 1.0:  # also rejects nan
        raise ConfigurationError("scan-step must lie in (0, 1)")
    for count in ("seed", "samples"):
        if count in args:
            _check_index(count, getattr(args, count))
    if getattr(args, "gamma", None) is not None and getattr(args, "lambda_h", None) is not None:
        raise ConfigurationError("give exactly one of --gamma / --lambda-h")
    if args.command == "verify":
        defaults = build_parser().parse_args(["verify"])
        for option, families in FAMILY_OPTIONS.items():
            if args.family not in families and getattr(args, option) != getattr(defaults, option):
                raise ConfigurationError(f"--{option.replace('_', '-')} does not apply "
                                         f"to --family {args.family}")
    rogosinski = "rogosinski" in (getattr(args, "kind", None), getattr(args, "family", None))
    if rogosinski and (args.gamma is not None or args.lambda_h is not None):
        raise ConfigurationError("the rogosinski equation is posed on the unit disk; "
                                 "--gamma and --lambda-h do not apply")
    return args


def _domain(args, default_gamma=None) -> DomainSpec:
    if args.gamma is not None:
        return DomainSpec.omega_gamma(args.gamma)
    if args.lambda_h is not None:
        return DomainSpec.general(args.lambda_h)
    if default_gamma is not None:
        return DomainSpec.omega_gamma(default_gamma)
    raise ConfigurationError("this command needs --gamma or --lambda-h")


# ---------------------------------------------------------------- commands

def _cmd_radius(args):
    phi = BUILTIN_PHI[args.phi]
    mu = MuFunction.constant(args.mu_const)
    refined = args.kind == "refined"
    problem = RadiusProblem(phi, args.p, m=args.m, N=args.N, mu=mu,
                            domain=_domain(args) if refined else DomainSpec.disk(),
                            equation_kind=args.kind)
    result = (radius_refined if refined else radius_rogosinski)(problem, args.tol, args.scan_step)
    params = {"phi": args.phi, "p": args.p, "m": args.m, "N": args.N,
              "mu": args.mu_const, "kind": args.kind,
              "gamma": args.gamma, "lambda_h": args.lambda_h}
    record = {"command": "radius", "params": params, "radius": result.value,
              "residual": result.residual, "bracket": list(result.bracket),
              "iterations": result.iterations, "flags": []}
    return EXIT_OK, record


def _cmd_tables(args):
    rows = reproduce_table(args.id, args.tol, args.scan_step) if args.id \
        else reproduce_all_tables(args.tol, args.scan_step)
    flags = [f"erratum:table{row.table_id}:(p={row.p:g},m={row.m},mu={row.mu:g})"
             for row in rows if row.erratum]
    mismatched = [row for row in rows if row.delta > TABLE_MATCH_TOL]
    record = {"command": "tables",
              "params": {"id": args.id, "allow_errata": args.allow_errata},
              "rows": [{"table": row.table_id, "phi": row.phi_kind, "p": row.p,
                        "m": row.m, "mu": row.mu, "R_printed": row.printed,
                        "R_computed": row.computed, "delta": row.delta,
                        "erratum": row.erratum} for row in rows],
              "flags": flags}
    code = EXIT_OK if (not mismatched or args.allow_errata) else EXIT_VERIFY_FAILED
    return code, record


def _verify_setup(args):
    """(radius, bind: r -> (a -> report) on the extremal family, sampled).

    The family is ``family_gamma``'s, so a general lambda_h != 1 exits 2
    before any solve.  Seeded draws of a join the fixed grid (sampled)
    only on the unshifted disk family (gamma = 0, and m = 0 for
    bohr/refined), whose norm sequences are those of every diagonal
    Mobius blend with a common parameter.
    """
    mu = MuFunction.constant(args.mu_const)
    phi = BUILTIN_PHI[args.phi]
    if args.family == "rogosinski":
        # m is the Schwarz order here; the family itself is never shifted
        problem = RadiusProblem(phi, args.p, m=args.m, N=args.N, mu=mu,
                                equation_kind="rogosinski")
        radius = radius_rogosinski(problem, args.tol, args.scan_step).value
        return radius, lambda r: problem_functional(problem, r), True

    domain = _domain(args, default_gamma=0.0)
    gamma = family_gamma(domain)
    disk = gamma == 0.0
    if args.family in ("bohr", "refined"):
        # "bohr" is the plain weighted sum: the refined functional at mu = 0
        problem = RadiusProblem(phi, args.p, m=args.m, N=args.N,
                                mu=MuFunction.zero() if args.family == "bohr" else mu,
                                domain=domain, equation_kind="refined")
        radius = radius_refined(problem, args.tol, args.scan_step).value
        return radius, lambda r: problem_functional(problem, r), args.m == 0 and disk

    lam = domain.effective_lambda
    if args.family == "area-poly":
        functional = lambda c, r: bohr_area_functional(c, r, lam, args.degree)
    elif args.family == "beta-square":
        beta = args.beta if args.beta is not None else 1.0 / (4.0 * lam)
        if beta > 1.0 / (4.0 * lam) + 1e-12:
            raise ConfigurationError("beta must be at most 1/(4 lambda_h)")
        functional = lambda c, r: bohr_beta_functional(c, r, beta)
    else:
        functional = lambda c, r: bohr_energy_functional(c, r, lam)
    radius = 1.0 / (1.0 + 2.0 * lam)
    return radius, lambda r: lambda a: functional(mobius_gamma_coeffs(a, gamma), r), disk


def _cmd_verify(args):
    if args.family == "tables":
        code, record = _cmd_tables(args)
        record["command"] = "verify"
        record["summary"] = {"family": "tables", "mismatches": sum(
            r["delta"] > TABLE_MATCH_TOL for r in record["rows"])}
        return code, record

    radius, bind, sampled = _verify_setup(args)
    r_below = max(radius - PROBE_OFFSET, radius / 2.0)
    r_above = radius + PROBE_OFFSET
    a_values = list(SWEEP_A_GRID)
    if sampled:
        a_values += np.random.default_rng(args.seed).uniform(0.05, 0.995, args.samples).tolist()
    reports = list(zip(a_values, map(bind(r_below), a_values)))
    checked = len(reports)
    failures = sum(not rep.satisfied for _, rep in reports)
    worst_margin, worst_a = min((rep.margin, a) for a, rep in reports)

    expect_witness = r_above < 1.0
    witness = _first_violation(bind(r_above), SWEEP_A_GRID) if expect_witness else None

    passed = not failures and (witness is not None or not expect_witness)
    flags = [] if passed else ["verification-failed"]
    if failures:
        print(f"error: guarantee fails at {failures} of {checked} parameters; "
              f"worst a = {worst_a:.9g}, margin {worst_margin:.9g}", file=sys.stderr)
    elif not passed:
        print(f"error: no violation found above the radius, at r = {r_above:.9g}",
              file=sys.stderr)
    summary = {"family": args.family, "radius": radius, "r_below": r_below,
               "r_above": r_above if expect_witness else None,
               "checked": checked, "failures": failures, "worst_margin": worst_margin,
               "witness_a": witness, "passed": passed}
    record = {"command": "verify",
              "params": {"family": args.family, "phi": args.phi, "p": args.p,
                         "m": args.m, "N": args.N, "mu": args.mu_const,
                         "gamma": args.gamma, "lambda_h": args.lambda_h,
                         "beta": args.beta, "seed": args.seed},
              "summary": summary,
              "flags": flags}
    return (EXIT_OK if passed else EXIT_VERIFY_FAILED), record


def _cmd_calibrate(args):
    tail = tuple(args.c or ())
    if len(tail) != args.degree - 1:
        raise ConfigurationError("give exactly degree-1 tail coefficients")
    spec = calibrate_area_poly(tail)
    record = {"command": "calibrate",
              "params": {"degree": args.degree, "tail": list(tail)},
              "coefficients": list(spec.coefficients),
              "residual": calibration_residual(spec),
              "peak_weights": [peak_weight(s) for s in range(2, spec.degree + 1)],
              "flags": []}
    return EXIT_OK, record


def _cmd_bloch(args):
    if (args.domain == "gamma" or args.variant == "majorant-gamma") and args.gamma is None:
        raise ConfigurationError("this bloch variant needs --gamma")
    if args.domain == "disk" and args.variant != "majorant-gamma" and args.gamma is not None:
        raise ConfigurationError("--gamma needs --domain gamma on this bloch variant")
    density = HyperbolicDensity.unit_disk() if args.domain == "disk" \
        else HyperbolicDensity.omega_gamma(args.gamma)
    flags = []
    if args.variant == "majorant":
        result = bloch_radius(density, args.nu, args.tol, args.scan_step)
    elif args.variant == "majorant-gamma":
        result = bloch_radius_gamma(args.gamma, args.nu, args.tol, args.scan_step)
        F = lambda r: gamma_equation_value(args.gamma, args.nu, r)
        changes = count_sign_changes(F, args.scan_step)
        flags.append(f"sign-changes:{changes}")
    else:
        result = bloch_refined_radius(density, args.nu, args.tol, args.scan_step)
    record = {"command": "bloch",
              "params": {"domain": args.domain, "gamma": args.gamma,
                         "nu": args.nu, "variant": args.variant},
              "radius": result.value, "residual": result.residual,
              "flags": flags}
    return EXIT_OK, record


def _cmd_bounds(args):
    lower, upper = rp_bounds(args.p)
    record = {"command": "bounds", "params": {"p": args.p},
              "lower": lower, "upper": upper, "flags": []}
    return EXIT_OK, record


_COMMANDS = {"radius": _cmd_radius, "tables": _cmd_tables, "verify": _cmd_verify,
             "calibrate": _cmd_calibrate, "bloch": _cmd_bloch, "bounds": _cmd_bounds}


# ------------------------------------------------------------------ output

def _flatten_rows(record):
    """Rows for CSV output: tables get one row each, scalars one row total."""
    if "rows" in record:
        return record["rows"]
    def plain(value):
        if isinstance(value, list):
            return " ".join(str(v) for v in value)
        return value

    flat = {}
    for key, value in record.items():
        if key in ("command", "flags"):
            continue
        if isinstance(value, dict):
            flat.update({k: plain(v) for k, v in value.items()})
        else:
            flat[key] = plain(value)
    return [flat]


def render(record, fmt: str) -> str:
    record = _sig9(record)
    if fmt == "json":
        return json.dumps(record) + "\n"
    if fmt == "csv":
        rows = _flatten_rows(record)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    lines = [f"command: {record['command']}"]
    lines += [f"{key}: {value}" for key, value in record.items() if key != "command"]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse validation already printed one line
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    try:
        code, record = _COMMANDS[args.command](_validated(args))
    except (NoRootError, InfeasibleError, NonConvergenceError,
            SingularIntegrandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except BohradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    text = render(record, args.format)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        sys.stdout.write(text)
    return code


def console_main():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
