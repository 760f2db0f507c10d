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

from .bloch import HyperbolicDensity, bloch_radius, bloch_radius_gamma, \
    bloch_refined_radius, gamma_equation_value
from .errors import (BohradError, ConfigurationError, InfeasibleError,
                     NoRootError, NonConvergenceError, SingularIntegrandError)
from .functionals import MuFunction
from .phi import BUILTIN_PHI, MONOMIAL
from .polynomials import calibrate_area_poly, calibration_residual, peak_weight
from .radii import (RadiusProblem, radius_refined, radius_rogosinski, reproduce_all_tables,
                    reproduce_table, rp_bounds, verify)
from .roots import count_sign_changes
from .series import DomainSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_ROOT = 3
EXIT_VERIFY_FAILED = 4

TABLE_MATCH_TOL = 1e-5  # printed values carry six significant figures

# The options each run reads besides --format and --out, as argparse dests, by command
# and the value of its selector (None on a command without one).  Any other option must
# keep its default; a record's params echoes the selector and exactly these.
_SOLVER = ("tol", "scan_step")
_REFINED = ("phi", "p", "m", "gamma")  # p phi_m = 2 lambda_H Phi_{m+1}
_ROGOSINSKI = ("phi", "p", "m", "N", "mu_const")  # posed on the disk
READS = {
    "radius": ("kind", {"refined": _REFINED + ("lambda_h",) + _SOLVER,
                        "rogosinski": _ROGOSINSKI + _SOLVER}),
    "tables": (None, {None: ("id", "allow_errata") + _SOLVER}),
    "verify": ("family", {
        "bohr": _REFINED + _SOLVER,  # mu = 0
        "refined": _REFINED + ("mu_const",) + _SOLVER,
        "rogosinski": _ROGOSINSKI + _SOLVER,
        # these three radii are the closed form 1/(1 + 2 lambda_H): no solve
        "area-poly": ("gamma", "degree"),
        "beta-square": ("gamma", "beta"),
        "energy": ("gamma",)}),
    "calibrate": (None, {None: ("degree", "c")}),
    # the closed form takes gamma itself, on no --domain
    "bloch": ("variant", {"majorant": ("domain", "gamma", "nu") + _SOLVER,
                          "majorant-gamma": ("gamma", "nu") + _SOLVER,
                          "refined": ("domain", "gamma", "nu") + _SOLVER}),
    "bounds": (None, {None: ("p",)}),
}
VERIFY_FAMILIES = tuple(READS["verify"][1])


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

    sp = sub.add_parser("radius", help="solve one radius equation")
    problem(sp, required=True)
    sp.add_argument("--lambda-h", type=float, default=None)
    sp.add_argument("--kind", choices=tuple(READS["radius"][1]), default="refined")
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
    sp.add_argument("--variant", choices=tuple(READS["bloch"][1]), default="majorant")
    common(sp)

    sp = sub.add_parser("bounds", help="two-sided bounds on the p-powered Bohr radius")
    sp.add_argument("--p", type=float, required=True)
    common(sp, solves=False)

    return parser


@functools.cache
def _reads(command, choice):
    """(dest, flag, default) of each option of command but --format and --out, in
    parser order: (those a run at this selector value reads, selector included; the rest)."""
    selector, reads = READS[command]
    commands, = (a for a in build_parser()._actions if a.dest == "command")
    options = [(a.dest, a.option_strings[0], a.default) for a in commands.choices[command]._actions
               if a.dest not in ("help", "format", "out")]
    read = tuple(o for o in options if o[0] == selector or o[0] in reads[choice])
    return read, tuple(o for o in options if o not in read)


def _validated(args):
    """The options args reads, in parser order, once every option it does not
    read keeps its default and --tol lies in (0, 1e-3], the commands' own bound:
    the library checks every other range, the solvers' tol > 0 included."""
    selector = READS[args.command][0]
    choice = getattr(args, selector) if selector else None
    read, unread = _reads(args.command, choice)
    for dest, flag, default in unread:  # the first, in parser order, off its default
        if getattr(args, dest) != default:
            where = f"--{selector} {choice}" if selector else args.command
            raise ConfigurationError(f"{flag} does not apply to {where}")
    if "tol" in args and not 0.0 < args.tol <= 1e-3:
        raise ConfigurationError("tol must lie in (0, 1e-3]")
    return read


# ---------------------------------------------------------------- commands

def _problem(args, kind, domain):
    """The radius problem args pose on domain."""
    return RadiusProblem(BUILTIN_PHI[args.phi], args.p, m=args.m, N=args.N,
                         mu=MuFunction.constant(args.mu_const), domain=domain,
                         equation_kind=kind)


def _cmd_radius(args):
    domain = DomainSpec(lambda_h=args.lambda_h, gamma=args.gamma) if args.kind == "refined" \
        else DomainSpec.disk()
    solve = radius_refined if args.kind == "refined" else radius_rogosinski
    result = solve(_problem(args, args.kind, domain), args.tol, args.scan_step)
    return EXIT_OK, {"radius": result.value, "residual": result.residual,
                     "bracket": list(result.bracket), "iterations": result.iterations,
                     "flags": []}


def _cmd_tables(args):
    rows = reproduce_table(args.id, args.tol, args.scan_step) if args.id \
        else reproduce_all_tables(args.tol, args.scan_step)
    flags = [f"erratum:table{row.table_id}:(p={row.p:g},m={row.m},mu={row.mu:g})"
             for row in rows if row.erratum]
    mismatched = [row for row in rows if row.delta > TABLE_MATCH_TOL]
    code = EXIT_OK if (not mismatched or args.allow_errata) else EXIT_VERIFY_FAILED
    return code, {"rows": [{"table": row.table_id, "phi": row.phi_kind, "p": row.p,
                            "m": row.m, "mu": row.mu, "R_printed": row.printed,
                            "R_computed": row.computed, "delta": row.delta,
                            "erratum": row.erratum} for row in rows],
                  "flags": flags}


def _cmd_verify(args):
    gamma = args.gamma = 0.0 if args.gamma is None else args.gamma  # set for params to echo
    if args.family in ("area-poly", "beta-square", "energy"):
        report = verify(args.family, gamma, args.degree, args.beta)
    else:  # "bohr" is the plain weighted sum: the refined problem at mu = 0
        kind = "rogosinski" if args.family == "rogosinski" else "refined"
        report = verify(_problem(args, kind, DomainSpec.omega_gamma(gamma)), tol=args.tol,
                        scan_step=args.scan_step)
    if report.failures:
        print(f"error: guarantee fails at {report.failures} of {report.checked} parameters; "
              f"worst a = {report.worst_a:.9g}, margin {report.worst_margin:.9g}", file=sys.stderr)
    elif not report.passed:
        print(f"error: no violation found above the radius, at r = {report.r_above:.9g}",
              file=sys.stderr)
    summary = {"family": args.family, **vars(report)}
    del summary["worst_a"]  # stderr names it
    flags = [] if report.passed else ["verification-failed"]
    return (EXIT_OK if report.passed else EXIT_VERIFY_FAILED), {"summary": summary, "flags": flags}


def _cmd_calibrate(args):
    tail = tuple(args.c or ())
    if len(tail) != args.degree - 1:
        raise ConfigurationError("give exactly degree-1 tail coefficients")
    spec = calibrate_area_poly(tail)
    return EXIT_OK, {"coefficients": list(spec.coefficients),
                     "residual": calibration_residual(spec),
                     "peak_weights": [peak_weight(s) for s in range(2, spec.degree + 1)],
                     "flags": []}


def _cmd_bloch(args):
    if (args.domain == "gamma" or args.variant == "majorant-gamma") and args.gamma is None:
        raise ConfigurationError("this bloch variant needs --gamma")
    if args.domain == "disk" and args.variant != "majorant-gamma" and args.gamma is not None:
        raise ConfigurationError("--gamma needs --domain gamma on this bloch variant")
    flags = []
    if args.variant == "majorant-gamma":
        result = bloch_radius_gamma(args.gamma, args.nu, args.tol, args.scan_step)
        F = lambda r: gamma_equation_value(args.gamma, args.nu, r)
        changes = count_sign_changes(F, args.scan_step)
        flags.append(f"sign-changes:{changes}")
    else:
        if args.domain == "disk":
            args.gamma = 0.0  # the disk is Omega_0, and params echoes it so
        solve = bloch_radius if args.variant == "majorant" else bloch_refined_radius
        result = solve(HyperbolicDensity.omega_gamma(args.gamma), args.nu, args.tol,
                       args.scan_step)
    return EXIT_OK, {"radius": result.value, "residual": result.residual, "flags": flags}


def _cmd_bounds(args):
    lower, upper = rp_bounds(args.p)
    return EXIT_OK, {"lower": lower, "upper": upper, "flags": []}


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
        read = _validated(args)
        code, record = _COMMANDS[args.command](args)
    except (NoRootError, InfeasibleError, NonConvergenceError,
            SingularIntegrandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except BohradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    params = {dest: getattr(args, dest) for dest, _, _ in read}
    text = render({"command": args.command, "params": params, **record}, args.format)
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
