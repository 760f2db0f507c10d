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
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bloch import HyperbolicDensity, bloch_radius, bloch_radius_gamma, \
    bloch_refined_radius, gamma_equation_value
from .errors import (BohradError, ConfigurationError, DomainError,
                     InfeasibleError, NoRootError, NonConvergenceError,
                     SingularIntegrandError)
from .functionals import (MuFunction, bohr_area_functional,
                          bohr_beta_functional, bohr_energy_functional,
                          problem_functional)
from .phi import BUILTIN_PHI
from .polynomials import calibrate_area_poly, calibration_residual, peak_weight
from .radii import (RadiusProblem, radius_refined, radius_rogosinski,
                    reproduce_all_tables, reproduce_table, rp_bounds)
from .roots import count_sign_changes
from .series import DomainSpec, mobius_gamma_coeffs

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_ROOT = 3
EXIT_VERIFY_FAILED = 4

TABLE_MATCH_TOL = 1e-5  # printed values carry six significant figures
PROBE_OFFSET = 0.01
SWEEP_A_GRID = (0.5, 0.9, 0.99, 0.999, 0.9999)

VERIFY_FAMILIES = ("bohr", "refined", "rogosinski", "area-poly", "beta-square",
                   "energy", "tables")


def _sig9(x):
    """Round floats to 9 significant digits so JSON and CSV agree."""
    if isinstance(x, float):
        return float(f"{x:.9g}")
    if isinstance(x, dict):
        return {k: _sig9(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig9(v) for v in x]
    return x


@dataclass
class RunConfig:
    """Validated invocation of one command."""

    command: str
    phi_kind: str = "monomial"
    p: float = 1.0
    m: int = 0
    N: int = 1
    mu_const: float = 0.0
    gamma: float | None = None
    lambda_h: float | None = None
    nu: float = 0.5
    beta: float | None = None
    degree: int = 1
    tail: tuple[float, ...] = ()
    equation: str = "refined"
    variant: str = "majorant"
    bloch_domain: str = "disk"
    table_id: int | None = None
    family: str = "bohr"
    allow_errata: bool = False
    tol: float = 1e-12
    scan_step: float = 1e-3
    fmt: str = "json"
    seed: int = 0
    out_path: str | None = None
    samples: int = 100

    def __post_init__(self):
        if not 0.0 < self.tol <= 1e-3:
            raise ConfigurationError("tol must lie in (0, 1e-3]")
        if not 0.0 < self.scan_step < 1.0:  # also rejects nan
            raise ConfigurationError("scan-step must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.samples < 0:
            raise ConfigurationError("samples must be non-negative")
        if self.gamma is not None and self.lambda_h is not None:
            raise ConfigurationError("give exactly one of --gamma / --lambda-h")

    def domain(self, default_gamma=None) -> DomainSpec:
        if self.gamma is not None:
            return DomainSpec.omega_gamma(self.gamma)
        if self.lambda_h is not None:
            return DomainSpec.general(self.lambda_h)
        if default_gamma is not None:
            return DomainSpec.omega_gamma(default_gamma)
        raise ConfigurationError("this command needs --gamma or --lambda-h")

    def phi(self):
        if self.phi_kind not in BUILTIN_PHI:
            raise ConfigurationError(f"unknown phi kind {self.phi_kind!r}")
        return BUILTIN_PHI[self.phi_kind]


class _SingleLineParser(argparse.ArgumentParser):
    """Argument parser whose failures print one diagnostic line."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _SingleLineParser(
        prog="bohrad",
        description="Bohr-type radii and inequality checks for operator-valued "
                    "holomorphic functions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
        sp.add_argument("--tol", type=float, default=1e-12)
        sp.add_argument("--scan-step", type=float, default=1e-3)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")

    def problem(sp, **phi):
        sp.add_argument("--phi", **phi)
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
    problem(sp, default="monomial")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--degree", type=int, default=2)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--allow-errata", action="store_true")
    common(sp)

    sp = sub.add_parser("calibrate", help="calibrate the positive-coefficient polynomial")
    sp.add_argument("--degree", type=int, default=1)
    sp.add_argument("--c", type=float, action="append", default=None,
                    help="tail coefficient (repeat for c_2, c_3, ...)")
    common(sp)

    sp = sub.add_parser("bloch", help="Bloch-space Bohr radii")
    sp.add_argument("--domain", choices=("disk", "gamma"), default="disk")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--variant", choices=("majorant", "majorant-gamma", "refined"),
                    default="majorant")
    common(sp)

    sp = sub.add_parser("bounds", help="two-sided bounds on the p-powered Bohr radius")
    sp.add_argument("--p", type=float, required=True)
    common(sp)

    return parser


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command, fmt=args.format, tol=args.tol,
                    scan_step=args.scan_step, seed=args.seed, out_path=args.out)
    for name, attr in (("phi_kind", "phi"), ("p", "p"), ("m", "m"), ("N", "N"),
                       ("mu_const", "mu_const"), ("gamma", "gamma"),
                       ("lambda_h", "lambda_h"), ("nu", "nu"), ("beta", "beta"),
                       ("degree", "degree"), ("equation", "kind"),
                       ("variant", "variant"), ("bloch_domain", "domain"),
                       ("table_id", "id"), ("family", "family"),
                       ("allow_errata", "allow_errata"), ("samples", "samples")):
        if hasattr(args, attr):
            setattr(cfg, name, getattr(args, attr))
    if getattr(args, "c", None):
        cfg.tail = tuple(args.c)
    cfg.__post_init__()
    return cfg


# ---------------------------------------------------------------- commands

def _cmd_radius(cfg: RunConfig):
    phi = cfg.phi()
    mu = MuFunction.constant(cfg.mu_const)
    if cfg.equation == "refined":
        problem = RadiusProblem(phi, cfg.p, m=cfg.m, N=cfg.N, mu=mu,
                                domain=cfg.domain(), equation_kind="refined")
        result = radius_refined(problem, cfg.tol, cfg.scan_step)
    else:
        problem = RadiusProblem(phi, cfg.p, m=cfg.m, N=cfg.N, mu=mu,
                                equation_kind="rogosinski")
        result = radius_rogosinski(problem, cfg.tol, cfg.scan_step)
    params = {"phi": cfg.phi_kind, "p": cfg.p, "m": cfg.m, "N": cfg.N,
              "mu": cfg.mu_const, "kind": cfg.equation,
              "gamma": cfg.gamma, "lambda_h": cfg.lambda_h}
    record = {"command": "radius", "params": params, "radius": result.value,
              "residual": result.residual, "bracket": list(result.bracket),
              "iterations": result.iterations, "flags": []}
    return EXIT_OK, record


def _cmd_tables(cfg: RunConfig):
    rows = reproduce_table(cfg.table_id, cfg.tol) if cfg.table_id \
        else reproduce_all_tables(cfg.tol)
    flags = [f"erratum:table{row.table_id}:(p={row.p:g},m={row.m},mu={row.mu:g})"
             for row in rows if row.erratum]
    mismatched = [row for row in rows if row.delta > TABLE_MATCH_TOL]
    record = {"command": "tables",
              "params": {"id": cfg.table_id, "allow_errata": cfg.allow_errata},
              "rows": [{"table": row.table_id, "phi": row.phi_kind, "p": row.p,
                        "m": row.m, "mu": row.mu, "R_printed": row.printed,
                        "R_computed": row.computed, "delta": row.delta,
                        "erratum": row.erratum} for row in rows],
              "flags": flags}
    code = EXIT_OK if (not mismatched or cfg.allow_errata) else EXIT_VERIFY_FAILED
    return code, record


def _verify_functional(cfg: RunConfig, domain: DomainSpec):
    """(radius, coeffs -> report) for the improved-functional families."""
    lam = domain.effective_lambda
    base = 1.0 / (1.0 + 2.0 * lam)
    if cfg.family == "area-poly":
        return base, lambda c, r: bohr_area_functional(c, r, lam, cfg.degree)
    if cfg.family == "beta-square":
        beta = cfg.beta if cfg.beta is not None else 1.0 / (4.0 * lam)
        if beta > 1.0 / (4.0 * lam) + 1e-12:
            raise ConfigurationError("beta must be at most 1/(4 lambda_h)")
        return base, lambda c, r: bohr_beta_functional(c, r, beta)
    if cfg.family == "energy":
        return base, lambda c, r: bohr_energy_functional(c, r, lam)
    raise ConfigurationError(f"family {cfg.family!r} has no direct functional")


def _cmd_verify(cfg: RunConfig):
    if cfg.family == "tables":
        code, record = _cmd_tables(cfg)
        record["command"] = "verify"
        record["summary"] = {"family": "tables",
                             "mismatches": sum(1 for r in record["rows"]
                                               if r["delta"] > TABLE_MATCH_TOL)}
        return code, record

    mu = MuFunction.constant(cfg.mu_const)
    phi = cfg.phi()

    # on the unshifted disk family (lambda_H = 1, m = 0), whose norm
    # sequences are those of every diagonal Mobius blend with a common
    # parameter, seeded draws of a join the fixed grid
    if cfg.family in ("bohr", "refined"):
        # "bohr" is the plain weighted sum: the refined functional at mu = 0
        if cfg.family == "bohr":
            mu = MuFunction.zero()
        domain = cfg.domain(default_gamma=0.0)
        problem = RadiusProblem(phi, cfg.p, m=cfg.m, N=cfg.N, mu=mu,
                                domain=domain, equation_kind="refined")
        radius = radius_refined(problem, cfg.tol, cfg.scan_step).value
        extremal = problem_functional(problem)
        sampled = cfg.m == 0 and abs(domain.effective_lambda - 1.0) <= 1e-12
    elif cfg.family == "rogosinski":
        # m is the Schwarz order here; the family itself is never shifted
        problem = RadiusProblem(phi, cfg.p, m=cfg.m, N=cfg.N, mu=mu,
                                equation_kind="rogosinski")
        radius = radius_rogosinski(problem, cfg.tol, cfg.scan_step).value
        extremal = problem_functional(problem)
        sampled = True
    else:
        domain = cfg.domain(default_gamma=0.0)
        radius, functional = _verify_functional(cfg, domain)
        gamma = domain.gamma if domain.mode == "gamma" else None

        def extremal(a, r):
            return functional(mobius_gamma_coeffs(a, gamma or 0.0), r)
        sampled = abs(domain.effective_lambda - 1.0) <= 1e-12
        if gamma is None and not sampled:
            extremal = None  # no constructible family for general lambda_h != 1

    r_below = max(radius - PROBE_OFFSET, radius / 2.0)
    r_above = radius + PROBE_OFFSET
    a_values = list(SWEEP_A_GRID) if extremal is not None else []
    if sampled:
        a_values += np.random.default_rng(cfg.seed).uniform(0.05, 0.995, cfg.samples).tolist()
    reports = [(a, extremal(a, r_below)) for a in a_values]
    checked = len(reports)
    worst_margin = min((rep.margin for _, rep in reports), default=math.inf)
    failures = [{"a": a, "margin": rep.margin} for a, rep in reports if not rep.satisfied]

    witness = None
    expect_witness = extremal is not None and r_above < 1.0
    if expect_witness:
        for a in SWEEP_A_GRID:
            rep = extremal(a, r_above)
            if not rep.satisfied:
                witness = a
                break

    passed = not failures and (witness is not None or not expect_witness)
    flags = [] if passed else ["verification-failed"]
    if checked == 0:
        flags.append("no-constructible-test-family")
    summary = {"family": cfg.family, "radius": radius, "r_below": r_below,
               "r_above": r_above if expect_witness else None,
               "checked": checked, "failures": len(failures),
               "worst_margin": None if checked == 0 else worst_margin,
               "witness_a": witness, "passed": passed}
    record = {"command": "verify",
              "params": {"family": cfg.family, "phi": cfg.phi_kind, "p": cfg.p,
                         "m": cfg.m, "N": cfg.N, "mu": cfg.mu_const,
                         "gamma": cfg.gamma, "lambda_h": cfg.lambda_h,
                         "beta": cfg.beta, "seed": cfg.seed},
              "summary": summary,
              "flags": flags}
    return (EXIT_OK if passed else EXIT_VERIFY_FAILED), record


def _cmd_calibrate(cfg: RunConfig):
    tail = cfg.tail
    if tail and len(tail) != cfg.degree - 1:
        raise ConfigurationError("give exactly degree-1 tail coefficients")
    spec = calibrate_area_poly(tail)
    record = {"command": "calibrate",
              "params": {"degree": max(cfg.degree, spec.degree), "tail": list(tail)},
              "coefficients": list(spec.coefficients),
              "residual": calibration_residual(spec),
              "peak_weights": [peak_weight(s) for s in range(2, spec.degree + 1)],
              "flags": []}
    return EXIT_OK, record


def _cmd_bloch(cfg: RunConfig):
    if (cfg.bloch_domain == "gamma" or cfg.variant == "majorant-gamma") and cfg.gamma is None:
        raise ConfigurationError("this bloch variant needs --gamma")
    density = HyperbolicDensity.unit_disk() if cfg.bloch_domain == "disk" \
        else HyperbolicDensity.omega_gamma(cfg.gamma)
    flags = []
    if cfg.variant == "majorant":
        result = bloch_radius(density, cfg.nu, cfg.tol, cfg.scan_step)
    elif cfg.variant == "majorant-gamma":
        result = bloch_radius_gamma(cfg.gamma, cfg.nu, cfg.tol, cfg.scan_step)
        changes = count_sign_changes(
            lambda r: gamma_equation_value(cfg.gamma, cfg.nu, r), cfg.scan_step)
        flags.append(f"sign-changes:{changes}")
    else:
        result = bloch_refined_radius(density, cfg.nu, cfg.tol, cfg.scan_step)
    record = {"command": "bloch",
              "params": {"domain": cfg.bloch_domain, "gamma": cfg.gamma,
                         "nu": cfg.nu, "variant": cfg.variant},
              "radius": result.value, "residual": result.residual,
              "flags": flags}
    return EXIT_OK, record


def _cmd_bounds(cfg: RunConfig):
    lower, upper = rp_bounds(cfg.p)
    record = {"command": "bounds", "params": {"p": cfg.p},
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
        for row in rows:
            writer.writerow(row)
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
        cfg = config_from_args(args)
        code, record = _COMMANDS[cfg.command](cfg)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NoRootError, InfeasibleError, NonConvergenceError,
            SingularIntegrandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except BohradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    text = render(record, cfg.fmt)
    if cfg.out_path:
        with open(cfg.out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


def console_main():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
