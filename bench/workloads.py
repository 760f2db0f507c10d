"""Seeded operation lists for the two benchmark workloads.

Each workload is a closed loop with one caller: ``build(name, seed)``
returns a fixed list of operations that the runner repeats, and every
operation carries its own oracle from ``oracles``.  Inputs come only
from the seed; costly inputs that would make one seed much slower than
another (the custom weights, the near-1 probe block) are fixed, and the
seeded draws are stratified so that a pass costs about the same work on
every seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracles as O
from bohrad import bloch, functionals, phi, radii, series
from bohrad.errors import NoRootError

WORKLOADS = ("radius_sweep", "probe_sweep")
KINDS = ("monomial", "weighted_linear", "weighted_quadratic", "even_only", "odd_only")
# indices m for which phi_m is not identically zero
VALID_M = {"monomial": (0, 1, 2, 3), "weighted_linear": (0, 1, 2, 3),
           "weighted_quadratic": (0, 1, 2, 3), "even_only": (0, 2, 4),
           "odd_only": (0, 1, 3)}
SCAN_STEP = 1e-3
# op_tail_ms percentile per workload, placed inside a group of operations
# of similar cost so that it does not jump between groups as the pass
# count changes: radius_sweep -> the slowest tenth of its library solves,
# about 25 stratified even/odd solves (the 18 CLI requests and the
# truncated-tail custom solve lie above them and show in wall_s);
# probe_sweep -> the middle of the near-1 sums.  The runner falls back to the
# highest percentile with ten kept samples above it when a run is too
# short.
TAIL_PERCENTILE = {"radius_sweep": 84.5, "probe_sweep": 96.0}
# the two reference rows the tool flags as errata (see README)
ERRATA = {(1, 1.5, 5, 10.0), (3, 2.0, 15, 30.0)}


@dataclass
class Op:
    """One operation: ``run()`` is timed, ``check(value, error)`` is the oracle.

    ``near_one`` marks the probe inputs with a and r near 1, where the
    program is known to truncate its sums short; their misses are
    counted as failures and reported, but are expected at this commit.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], str | None]
    near_one: bool = False
    argv: tuple[str, ...] | None = None


def build(name: str, seed: int) -> list[Op]:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}")
    return globals()[f"_{name}"](rng)


def _strata(rng, n, lo, hi):
    """n draws, one from each of n equal slices of [lo, hi), shuffled."""
    xs = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(xs)
    return xs


def _cells(rng, nx, x_range, ny, y_range):
    """One draw from each cell of an nx-by-ny grid over two ranges.

    Every seed covers the same cells, so a pass costs about the same on
    every seed while its exact inputs still come from the seed.
    """
    (x0, x1), (y0, y1) = x_range, y_range
    return [(x0 + (x1 - x0) * (i + rng.random()) / nx, y0 + (y1 - y0) * (j + rng.random()) / ny)
            for i in range(nx) for j in range(ny)]


def _value(check):
    """Oracle for an operation that must return normally."""
    def wrapped(value, error):
        if error is not None:
            return f"raised {error!r}"
        return check(value)
    return wrapped


def _first(*messages):
    return next((m for m in messages if m), None)


def _lazy(fn):
    """Memoised thunk: reference values are computed when checking, not in set-up."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]
    return get


# ------------------------------------------------------------ radius_sweep

def _custom_power(n, r):
    return r**n


def _custom_linear(n, r):
    return (n + 1) * r**n


def _custom_linear_tail(N, r):
    return r**N * ((N + 1) - N * r) / (1.0 - r) ** 2


def _closed_form(kind, p, m, gamma, lambda_h):
    """Closed-form radius of a refined problem, where one exists."""
    if kind == "monomial":
        if lambda_h is not None:
            return radii.closed_form_radius("lambda_base", lambda_h=lambda_h) if p == 1.0 \
                else O.monomial_radius(p, lambda_h)
        if p in (1.0, 2.0):
            return radii.closed_form_radius("gamma_p1" if p == 1.0 else "gamma_p2", gamma=gamma)
        return O.monomial_radius(p, 1.0 / (1.0 + gamma))
    if lambda_h is not None:
        return None
    if (kind == "even_only" and m % 2 == 0) or (kind == "odd_only" and m % 2 == 1):
        return radii.closed_form_radius("even_p", gamma=gamma, p=p)
    if kind == "odd_only" and m == 0:
        return radii.closed_form_radius("odd_p", gamma=gamma, p=p).derived
    return None


def _refined_op(label, weights, oracle_kind, p, m, gamma=0.0, lambda_h=None):
    domain = series.DomainSpec.general(lambda_h) if lambda_h is not None \
        else series.DomainSpec.omega_gamma(gamma)
    lam = domain.effective_lambda
    problem = radii.RadiusProblem(weights, p, m=m, domain=domain)
    closed = _closed_form(oracle_kind, p, m, gamma, lambda_h)

    def check(res):
        msg = None
        if closed is not None and abs(res.value - closed) > O.ROOT_TOL:
            msg = f"closed form {closed!r} vs {res.value!r}"
        return _first(msg, O.check_root(O.refined_F(oracle_kind, p, m, lam),
                                        res.value, SCAN_STEP, label=label))
    return Op(label, lambda: radii.radius_refined(problem), _value(check))


def _rogosinski_op(kind, p, m, N, mu):
    problem = radii.RadiusProblem(phi.BUILTIN_PHI[kind], p, m=m, N=N, mu=mu,
                                  equation_kind="rogosinski")
    F = O.rogosinski_F(kind, p, m, N, mu)
    return Op("rogosinski/" + kind, lambda: radii.radius_rogosinski(problem),
              _value(lambda res: O.check_root(F, res.value, SCAN_STEP)))


def _no_root_op(kind, m, p, gamma):
    problem = radii.RadiusProblem(phi.BUILTIN_PHI[kind], p, m=m,
                                  domain=series.DomainSpec.omega_gamma(gamma))

    def check(value, error):
        # phi_m vanishes identically, so F = -2 lam Phi_{m+1} < 0 on (0, 1)
        if float(O.weight(kind, m)) != 0.0:
            return "oracle expects a root"
        if not isinstance(error, NoRootError) or not error.all_negative:
            return f"expected NoRootError(all_negative), got {error!r} / {value!r}"
        return None
    return Op("no_root/" + kind, lambda: radii.radius_refined(problem), check)


def _table_op(table_id):
    def check(rows):
        if len(rows) != 4:
            return f"table {table_id}: {len(rows)} rows"
        for row in rows:
            expected = (row.table_id, row.p, row.m, row.mu) in ERRATA
            if row.erratum != expected:
                return f"table {table_id} row {row.p, row.m, row.mu}: erratum={row.erratum}"
            msg = O.check_root(O.rogosinski_F(row.phi_kind, row.p, row.m, 1, row.mu),
                               row.computed, SCAN_STEP, label=f"table {table_id}")
            if msg:
                return msg
        return None
    return Op("tables", lambda: radii.reproduce_table(table_id), _value(check))


def _radius_sweep(rng):
    ops = []
    for kind in KINDS:
        weights = phi.BUILTIN_PHI[kind]
        valid_m = VALID_M[kind]
        for i, (p, g) in enumerate(_cells(rng, 6, (0.02, 2.0), 6, (0.0, 0.95))):
            if kind == "monomial" and i % 6 == 5:   # the gamma_p1 / gamma_p2 forms
                p = 1.0 if i % 12 == 5 else 2.0
            ops.append(_refined_op("refined/" + kind, weights, kind, p, valid_m[i % len(valid_m)], g))
        for i, (p, mu) in enumerate(_cells(rng, 4, (0.02, 2.0), 3, (0.5, 10.0))):
            ops.append(_rogosinski_op(kind, p, 1 + i % 5, 1 + i % 3, mu))
    for L in _strata(rng, 4, 0.3, 2.0):  # general lambda_h: lambda_base
        ops.append(_refined_op("refined/lambda_h", phi.MONOMIAL, "monomial", 1.0,
                               rng.randint(0, 3), lambda_h=L))
    ops.append(_no_root_op("even_only", 1, rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.9)))
    ops.append(_no_root_op("odd_only", 2, rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.9)))
    ops.extend(_table_op(t) for t in (1, 2, 3, 4))
    # fixed custom weights: one with a closed-form tail, one that forces
    # the 512-term truncated tail on every evaluation
    with_tail = phi.PhiSequence("custom", custom_term=_custom_linear,
                                custom_tail=_custom_linear_tail)
    no_tail = phi.PhiSequence("custom", custom_term=_custom_power)
    ops.append(_refined_op("custom/tail", with_tail, "weighted_linear", 1.0, 0, 0.0))
    ops.append(_refined_op("custom/truncated", no_tail, "monomial", 1.0, 0, 0.0))
    ops.extend(_cli_requests(rng))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------- probe_sweep

def _report_check(ref, rhs, weight=1.0):
    """Oracle for a FunctionalReport; ``ref()`` is evaluated only when checking.

    ``weight`` is the total coefficient the functional puts on its
    certified sums, each of which may miss by abs_tol.
    """
    def check(rep):
        if not O.close(rep.value, ref(), O.SUM_TOL * weight) or not O.close(rep.rhs, rhs):
            return f"value {rep.value!r} vs oracle {ref()!r}"
        return None
    return check


def _sum_check(ref, relative=False):
    def check(v):
        return None if O.close(v, ref(), relative=relative) else f"sum {v!r} vs oracle {ref()!r}"
    return check


def _probe_op(rng, which, kind, a, g, r, near_one=False):
    """One probe operation on the extremal family at (a, gamma, r).

    Near-1 operations use the unshifted family (m = 0), where the sums'
    leading term does not mask a short tail.
    """
    lam = 1.0 / (1.0 + g)
    if which == "majorant":
        m = 0 if near_one else rng.choice((0, 1, 2))
        fam = O.Mobius(a, g, m)
        run = lambda: functionals.majorant(series.mobius_gamma_coeffs(a, g).shifted(m),
                                           phi.BUILTIN_PHI[kind], r)
        return Op("majorant", run, _value(_sum_check(lambda: fam.majorant(kind, r))), near_one)
    if which == "s_r":
        m = 0 if near_one else rng.choice((0, 1, 2))
        fam = O.Mobius(a, g, m)
        run = lambda: series.s_r(series.mobius_gamma_coeffs(a, g).shifted(m), r)
        return Op("s_r", run, _value(_sum_check(lambda: fam.s_r(r), relative=True)), near_one)
    if which == "refined":
        m = 0 if near_one else rng.choice(VALID_M[kind][:2])
        p, mu = rng.uniform(0.2, 2.0), rng.uniform(0.0, 3.0)
        fam = O.Mobius(a, g, m)
        cm = float(O.weight(kind, m)) * r**m
        ref = lambda: (cm * fam.a0**p + fam.majorant(kind, r) - fam.a0 * cm
                       + mu * fam.refined_sum(kind, r))
        run = lambda: functionals.refined_functional(
            series.mobius_gamma_coeffs(a, g).shifted(m), phi.BUILTIN_PHI[kind], p, m, mu, r)
        return Op("refined", run, _value(_report_check(ref, cm, 1.0 + mu)), near_one)
    if which == "rogosinski":
        p, N, k, mu = rng.uniform(0.2, 2.0), rng.randint(1, 3), rng.randint(1, 4), rng.uniform(0.1, 5.0)
        fam = O.Mobius(a, 0.0)
        ref = lambda: O.point_bound(fam.a0, r**k) ** p + mu * fam.tail_majorant(kind, N, r)
        run = lambda: functionals.rogosinski_functional(
            series.mobius_gamma_coeffs(a, 0.0), phi.BUILTIN_PHI[kind], p, N, k, mu, r)
        return Op("rogosinski", run, _value(_report_check(ref, 1.0, 1.0 + mu)), near_one)
    fam = O.Mobius(a, g)
    if which == "area":
        degree = rng.randint(1, 4)
        base = ((1.0 + lam) / (1.0 + 2.0 * lam)) ** 2
        ref = lambda: fam.majorant("monomial", r) + math.fsum(
            (base * fam.s_r(r)) ** j for j in range(1, degree + 1))
        run = lambda: functionals.bohr_area_functional(series.mobius_gamma_coeffs(a, g), r, lam, degree)
        return Op("area", run, _value(_report_check(ref, 1.0)), near_one)
    if which == "beta":
        beta = rng.uniform(0.0, 1.0 / (4.0 * lam))
        ref = lambda: fam.majorant("monomial", r) + beta * fam.square_majorant(r)
        run = lambda: functionals.bohr_beta_functional(series.mobius_gamma_coeffs(a, g), r, beta)
        return Op("beta", run, _value(_report_check(ref, 1.0, 1.0 + beta)), near_one)
    weight = (1.0 + lam) / (2.0 * lam * (1.0 + fam.a0)) + 2.0 * (1.0 + lam) * r / (3.0 * (1.0 - r))
    ref = lambda: fam.majorant("monomial", r) + weight * fam.energy(r)
    run = lambda: functionals.bohr_energy_functional(series.mobius_gamma_coeffs(a, g), r, lam)
    return Op("energy", run, _value(_report_check(ref, 1.0)), near_one)


def _sharpness_op(rng, kind, above):
    """sharpness_probe just below (no violation) or above (violation) a radius."""
    m = {"monomial": 0, "even_only": 0, "odd_only": 1}[kind]
    p, g = rng.uniform(0.3, 2.0), rng.uniform(0.0, 0.9)
    radius = _closed_form(kind, p, m, g, None)
    r = radius + 0.01 if above else radius - 0.01
    problem = radii.RadiusProblem(phi.BUILTIN_PHI[kind], p, m=m,
                                  domain=series.DomainSpec.omega_gamma(g))

    def check(found):
        # acceptable answers: the first a whose oracle margin is clearly
        # negative, or any earlier a whose margin sits at the threshold
        allowed = []
        for a in O.DEFAULT_A_GRID:
            fam = O.Mobius(a, g, m)
            cm = float(O.weight(kind, m)) * r**m
            value = cm * fam.a0**p + fam.majorant(kind, r) - fam.a0 * cm
            margin = cm - value
            if abs(margin + O.VIOLATION_TOL) <= 1e-10:
                allowed.append(a)
            elif margin < -O.VIOLATION_TOL:
                allowed.append(a)
                break
        else:
            allowed.append(None)
        return None if found in allowed else f"probe returned {found!r}, oracle allows {allowed}"
    return Op("sharpness_probe", lambda: functionals.sharpness_probe(problem, r), _value(check))


def _blend_op(rng, which):
    """A diagonal Mobius blend drawn the way ``bohrad verify`` draws it."""
    d = rng.randint(1, 8)
    a = rng.uniform(0.05, 0.995)
    phases = tuple(complex(math.cos(t), math.sin(t))
                   for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(d)))
    r = rng.uniform(0.2, 0.4)
    fn = series.MatrixCoeffFn((a,) * d, phases)
    # every entry has norms (1-a^2) a^{n-1}: the disk Mobius family at a
    fam = O.Mobius(a, 0.0)
    if which == "refined":
        p, mu = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2.0)
        ref = lambda: (fam.a0**p + fam.majorant("monomial", r) - fam.a0
                       + mu * fam.refined_sum("monomial", r))
        run = lambda: functionals.refined_functional(series.diag_blend_coeffs(fn), phi.MONOMIAL,
                                                     p, 0, mu, r)
        weight = 1.0 + mu
    elif which == "area":
        ref = lambda: (fam.majorant("monomial", r) + (4.0 / 9.0) * fam.s_r(r)
                       + ((4.0 / 9.0) * fam.s_r(r)) ** 2)
        run = lambda: functionals.bohr_area_functional(series.diag_blend_coeffs(fn), r, 1.0, 2)
        weight = 1.0
    else:
        energy_weight = 1.0 / (1.0 + fam.a0) + 4.0 * r / (3.0 * (1.0 - r))
        ref = lambda: fam.majorant("monomial", r) + energy_weight * fam.energy(r)
        run = lambda: functionals.bohr_energy_functional(series.diag_blend_coeffs(fn), r, 1.0)
        weight = 1.0
    return Op("blend/" + which, run, _value(_report_check(ref, 1.0, weight)))


def _bloch_check_op(rng):
    """bloch_majorant_check on a scaled Mobius function: majorant and s_r from bloch."""
    a = rng.uniform(0.1, 0.9)
    scale = rng.uniform(0.05, 0.2)
    r = rng.uniform(0.1, 0.5)
    mu = rng.uniform(0.0, 1.0)
    fam = O.Mobius(a, 0.0)
    norms = [scale * fam.a0] + [scale * fam.s * a**n for n in range(1, 65)]
    coeffs = series.CoeffSeries(tuple(norms), 0, a)
    base = scale * (fam.a0 + fam.s * a * r / (1.0 - a * r))
    ref = lambda: 2.0 * base - scale * fam.a0 + mu * math.pi * scale**2 * fam.s_r(r)
    dens = bloch.HyperbolicDensity.unit_disk()
    run = lambda: bloch.bloch_majorant_check(coeffs, 1.0, dens, 0.5, r, mu=mu, refined=True)
    return Op("bloch_check", run, _value(_report_check(ref, 1.0, 2.0)))


def _probe_sweep(rng):
    ops = []
    # fixed near-1 block: the long tails, including the inputs where the
    # 16384-term cap truncates the sums (ROADMAP Direction 1)
    for a in O.DEFAULT_A_GRID:
        ops.append(_probe_op(rng, "majorant", "monomial", a, 0.0, 0.999, a >= 0.999))
    # s_r misses here too (by 2.6e-9 relative); at r = 0.999 the same call
    # takes 1.5-2.5 s and would leave too few passes per run for steady timings
    ops.append(_probe_op(rng, "s_r", "monomial", 1.0 - 1e-6, 0.0, 0.995, True))
    for a, which in ((1.0 - 1e-6, "beta"), (1.0 - 1e-5, "energy"),
                     (1.0 - 1e-4, "refined"), (1.0 - 1e-5, "rogosinski")):
        ops.append(_probe_op(rng, which, "monomial", a, 0.0, 0.999, True))
    # seeded part: r up to 0.99 and a up to 0.999.  Larger a (tiny norms,
    # where the sums' stop rules truncate) stays in the fixed block above,
    # so the number of known misses is the same on every seed.  Each a is
    # paired with fixed r and gamma cells and a fixed weight kind; the
    # seed places r and gamma inside their cells, so every seed probes
    # the same mix of short and long sums.
    grid = (0.3, 0.5, 0.7, 0.85, 0.9, 0.99, 0.999)
    for which, per_a in (("majorant", 3), ("s_r", 2), ("refined", 2), ("rogosinski", 2),
                         ("area", 1), ("beta", 1), ("energy", 1)):
        cells = len(grid) * per_a
        r_cell = random.Random(cells).sample(range(cells), cells)
        g_cell = random.Random(-cells).sample(range(cells), cells)
        for i in range(cells):
            r = 0.1 + 0.89 * (r_cell[i] + rng.random()) / cells
            g = 0.9 * (g_cell[i] + rng.random()) / cells
            ops.append(_probe_op(rng, which, KINDS[i % 5], grid[i % len(grid)], g, r))
    ops.extend(_sharpness_op(rng, ("monomial", "even_only", "odd_only")[i % 3], above=i % 2 == 0)
               for i in range(8))
    # 36 blends put the median operation among the blends and refined
    # sums rather than on the step below them, where op_p50_ms would
    # jump between the two groups from seed to seed
    ops.extend(_blend_op(rng, ("refined", "area", "energy")[i % 3]) for i in range(36))
    ops.extend(_bloch_check_op(rng) for _ in range(4))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------- CLI share of radius_sweep

def _fmt(x):
    return repr(round(x, 6))


def _cli_op(label, argv, expect_code, check=None):
    """A CLI invocation: value is (exit code, stdout)."""
    def oracle(value, error):
        if error is not None:
            return f"raised {error!r}"
        code, out = value
        if code != expect_code:
            return f"exit {code}, expected {expect_code}"
        if expect_code in (0, 4):
            record = json.loads(out)
            if record.get("command") != argv[0] or "flags" not in record:
                return f"record fields: {sorted(record)}"
            return check(record) if check else None
        return None if out == "" else "stdout on a failing command"
    return Op("cli/" + label, None, oracle, argv=tuple(argv))


def _near(x, ref, rel=1e-8):
    """Printed values carry nine significant digits."""
    return abs(x - ref) <= rel * max(abs(ref), 1e-300)


def _cli_requests(rng):
    """Seeded argv across all six commands, with the exit codes they must give."""
    ops = []
    g = round(rng.uniform(0.0, 0.9), 4)
    p = rng.choice((1.0, 2.0))
    ref = _closed_form("monomial", p, 0, g, None)
    ops.append(_cli_op("radius", ["radius", "--phi", "monomial", "--p", _fmt(p), "--gamma", _fmt(g)],
                       0, lambda rec: None if _near(rec["radius"], ref) else "radius"))
    p, g = round(rng.uniform(0.2, 2.0), 4), round(rng.uniform(0.0, 0.9), 4)
    ref_even = _closed_form("even_only", p, 2, g, None)
    ops.append(_cli_op("radius", ["radius", "--phi", "even_only", "--m", "2", "--p", _fmt(p),
                                  "--gamma", _fmt(g)],
                       0, lambda rec: None if _near(rec["radius"], ref_even) else "radius"))
    p, g = round(rng.uniform(0.2, 2.0), 4), round(rng.uniform(0.0, 0.9), 4)
    ref_odd = _closed_form("odd_only", p, 0, g, None)
    ops.append(_cli_op("radius", ["radius", "--phi", "odd_only", "--p", _fmt(p), "--gamma", _fmt(g)],
                       0, lambda rec: None if _near(rec["radius"], ref_odd) else "radius"))
    kind = rng.choice(KINDS)
    p, m, N, mu = round(rng.uniform(0.2, 2.0), 4), rng.randint(1, 5), rng.randint(1, 3), \
        round(rng.uniform(0.5, 10.0), 4)
    F = O.rogosinski_F(kind, p, m, N, mu)
    ops.append(_cli_op("radius", ["radius", "--phi", kind, "--kind", "rogosinski", "--p", _fmt(p),
                                  "--m", str(m), "--N", str(N), "--mu-const", _fmt(mu)],
                       0, lambda rec: O.check_root(F, rec["radius"], SCAN_STEP, tol=1e-8)))
    ops.append(_cli_op("radius/no-root", ["radius", "--phi", "even_only", "--m", "1",
                                          "--gamma", _fmt(round(rng.uniform(0.0, 0.9), 4))], 3))
    ops.append(_cli_op("radius/invalid", ["radius", "--phi", "monomial", "--p",
                                          _fmt(round(rng.uniform(2.5, 4.0), 4))], 2))

    def tables_check(rec):
        flagged = {(r["table"], r["p"], r["m"], r["mu"]) for r in rec["rows"] if r["erratum"]}
        if flagged != {e for e in ERRATA if e[0] in {r["table"] for r in rec["rows"]}}:
            return f"errata {sorted(flagged)}"
        for r in rec["rows"]:
            F = O.rogosinski_F(r["phi"], r["p"], r["m"], 1, r["mu"])
            if O.check_root(F, r["R_computed"], SCAN_STEP, tol=1e-8 * r["R_computed"]):
                return f"table row {r}"
        return None
    ops.append(_cli_op("tables", ["tables", "--allow-errata"], 0, tables_check))
    table_id = rng.choice((1, 2, 3, 4))
    ops.append(_cli_op("tables", ["tables", "--id", str(table_id)],
                       4 if table_id in (1, 3) else 0, tables_check))

    def verify_check(radius):
        def check(rec):
            s = rec["summary"]
            if not s["passed"] or s["failures"] or not _near(s["radius"], radius()):
                return f"verify summary {s}"
            return None
        return check
    p, g = round(rng.uniform(0.3, 1.0), 4), round(rng.uniform(0.0, 0.9), 4)
    ops.append(_cli_op("verify", ["verify", "--family", "refined", "--p", _fmt(p),
                                  "--gamma", _fmt(g), "--mu-const", "1.0"],
                       0, verify_check(lambda p=p, g=g: O.monomial_radius(p, 1.0 / (1.0 + g)))))
    family = rng.choice(("area-poly", "beta-square", "energy"))
    g = round(rng.uniform(0.0, 0.9), 4)
    ops.append(_cli_op("verify", ["verify", "--family", family, "--gamma", _fmt(g)],
                       0, verify_check(lambda g=g: 1.0 / (1.0 + 2.0 / (1.0 + g)))))
    kind, p, m, mu = rng.choice(KINDS), round(rng.uniform(0.3, 2.0), 4), rng.randint(1, 3), \
        round(rng.uniform(0.5, 5.0), 4)
    rog = O.rogosinski_F(kind, p, m, 1, mu)
    ref_rog = _lazy(lambda: O.leftmost_root(rog, 0.99, SCAN_STEP / 4))
    ops.append(_cli_op("verify", ["verify", "--family", "rogosinski", "--phi", kind, "--p", _fmt(p),
                                  "--m", str(m), "--mu-const", _fmt(mu)],
                       0, verify_check(ref_rog)))

    degree = 10
    tail = [round(rng.uniform(0.01, 0.3), 4) for _ in range(degree - 1)]
    c1 = O.calibrated_c1(tail)

    def calibrate_check(rec):
        if not _near(rec["coefficients"][0], c1) or abs(rec["residual"]) > 1e-12:
            return f"c1 {rec['coefficients'][0]} vs {c1}, residual {rec['residual']}"
        for s, d in enumerate(rec["peak_weights"], start=2):
            if not _near(d, O.peak_weight(s)):
                return f"peak weight d_{s} {d} vs {O.peak_weight(s)}"
        return None
    ops.append(_cli_op("calibrate", ["calibrate", "--degree", str(degree)]
                       + [x for c in tail for x in ("--c", _fmt(c))], 0, calibrate_check))
    ops.append(_cli_op("calibrate/infeasible", ["calibrate", "--degree", "3", "--c", "40", "--c", "40"], 3))

    g, nu = round(rng.uniform(0.05, 0.9), 4), round(rng.uniform(0.1, 1.0), 4)
    quad = _lazy(lambda: O.bloch_root("omega", "majorant", nu, g, SCAN_STEP))
    ops.append(_cli_op("bloch/omega", ["bloch", "--domain", "gamma", "--gamma", _fmt(g), "--nu", _fmt(nu)],
                       0, lambda rec: None if abs(rec["radius"] - quad()) <= O.QUAD_ROOT_TOL
                       else "bloch radius"))
    closed = _lazy(lambda: O.bloch_root("gamma_closed", "majorant", nu, g, SCAN_STEP))
    ops.append(_cli_op("bloch/closed", ["bloch", "--variant", "majorant-gamma", "--gamma", _fmt(g),
                                        "--nu", _fmt(nu)], 0,
                       lambda rec: None if _near(rec["radius"], closed())
                       and rec["radius"] <= quad() + O.QUAD_ROOT_TOL
                       and rec["flags"] == ["sign-changes:1"] else f"bloch closed {rec}"))
    nu_disk = round(rng.uniform(0.1, 1.0), 4)
    disk = _lazy(lambda: O.bloch_root("disk", "refined", nu_disk))
    ops.append(_cli_op("bloch/disk", ["bloch", "--variant", "refined", "--nu", _fmt(nu_disk)],
                       0, lambda rec: None if _near(rec["radius"], disk()) else "bloch disk"))
    # gamma = 0: quadrature on Omega_0 must reproduce the disk closed form
    ops.append(_cli_op("bloch/omega0", ["bloch", "--domain", "gamma", "--gamma", "0", "--variant",
                                        "refined", "--nu", _fmt(nu_disk)],
                       0, lambda rec: None if _near(rec["radius"], disk()) else "bloch Omega_0"))
    p_rp = round(rng.uniform(1.0, 1.95), 4)
    ops.append(_cli_op("bounds", ["bounds", "--p", _fmt(p_rp)], 0,
                       lambda rec: None if _near(rec["lower"], O.rp_lower(p_rp))
                       and abs(rec["upper"] - O.rp_upper(p_rp)) <= 1e-8
                       and rec["lower"] <= rec["upper"] else f"bounds {rec}"))
    return ops
