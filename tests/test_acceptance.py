"""Acceptance gate: one test per criterion, each printing a verdict line.

Every tolerance is pinned here.  Independent oracles (bisection on the
stated equations, vectorized grid scans, partial sums) are recomputed
inline so the criteria never re-trust the code paths they judge.
"""

import math
import time

import numpy as np
import pytest

from bohrad import (BUILTIN_PHI, EVEN_ONLY, MONOMIAL, ODD_ONLY, CoeffSeries,
                    DomainSpec, HyperbolicDensity, MuFunction, RadiusProblem,
                    bloch_majorant_check, bloch_radius, bloch_radius_gamma,
                    bloch_refined_radius, bohr_area_functional,
                    bohr_beta_functional, bohr_energy_functional,
                    calibrate_area_poly, calibration_residual,
                    check_coeff_bound, classical_functional,
                    closed_form_radius, m_integral, mobius_gamma_coeffs,
                    monotonicity_check, operator_norm, peak_weight,
                    radius_refined, refined_functional, reproduce_all_tables,
                    rogosinski_functional, rp_bounds, s_r, sharpness_probe)
from bohrad.bloch import REFINED_THRESHOLD

A_GRID = (0.5, 0.9, 0.99, 0.999, 0.9999)
GAMMA_GRID = [0.1 * k for k in range(10)]


def verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def bisect_oracle(f, lo=1e-9, hi=1.0 - 1e-9, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    rows = reproduce_all_tables(tol=1e-12)
    elapsed = time.perf_counter() - start

    flagged_row = next(r for r in rows
                       if (r.table_id, r.p, r.m, r.mu) == (3, 2.0, 15, 30.0))
    oracle = bisect_oracle(
        lambda r: 2 * (1 - r**15) / (1 + r**15) - 60 * r * r / (1 - r * r))
    erratum_ok = (flagged_row.erratum
                  and abs(flagged_row.computed - oracle) <= 1e-9
                  and abs(flagged_row.computed - 0.1796) <= 1e-4)

    mismatches = [r for r in rows
                  if (r.table_id, r.p, r.m, r.mu) != (3, 2.0, 15, 30.0)
                  and r.delta > 1e-5]
    ok = erratum_ok and not mismatches and elapsed < 1.0
    verdict(1, ok, f"16 reference rows, {len(mismatches)} unexpected mismatch(es), "
                   f"erratum row recomputed {flagged_row.computed:.6f}, {elapsed:.3f}s")
    assert erratum_ok, "the even-weights row (2, 15, 30) must be flagged with root 0.1796"
    assert elapsed < 1.0, f"table reproduction took {elapsed:.3f}s"
    assert not mismatches, (
        "rows beyond the single expected exception miss their printed values: "
        + "; ".join(f"table {r.table_id} (p={r.p}, m={r.m}, mu={r.mu}): "
                    f"printed {r.printed}, recomputed {r.computed:.6f}"
                    for r in mismatches)
        + ".  The linear-weights row (1.5, 5, 10) is a second erratum: the "
          "printed 0.067495 solves the equation with mu halved (the residual "
          "at the printed value is off by exactly a factor of two), while the "
          "stated equation's minimal root is 0.035514.")


def test_criterion_2_closed_form_agreement():
    worst = 0.0
    for gamma in GAMMA_GRID:
        dom = DomainSpec.omega_gamma(gamma)
        r1 = radius_refined(RadiusProblem(MONOMIAL, 1.0, domain=dom)).value
        r2 = radius_refined(RadiusProblem(MONOMIAL, 2.0, domain=dom)).value
        worst = max(worst, abs(r1 - (1 + gamma) / (3 + gamma)),
                    abs(r2 - (1 + gamma) / (2 + gamma)))
        for p in (0.5, 1.0, 2.0):
            r_even = radius_refined(RadiusProblem(EVEN_ONLY, p, domain=dom)).value
            worst = max(worst, abs(r_even - closed_form_radius("even_p",
                                                               gamma=gamma, p=p)))
            r_odd = radius_refined(RadiusProblem(ODD_ONLY, p, domain=dom)).value
            pair = closed_form_radius("odd_p", gamma=gamma, p=p)
            worst = max(worst, abs(r_odd - pair.derived))
        lam = 1.0 / (1.0 + gamma)
        worst = max(worst, abs(closed_form_radius("lambda_base", lambda_h=lam)
                               - closed_form_radius("gamma_p1", gamma=gamma)))
    ok = worst <= 1e-10
    verdict(2, ok, f"closed form vs solver, worst |delta| = {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_3_sharpness_probes():
    cases = []
    for gamma in (0.0, 0.5):
        dom = DomainSpec.omega_gamma(gamma)
        # plain weighted sum (mu = 0) at its solved radius
        cases.append(("bohr", RadiusProblem(MONOMIAL, 1.0, domain=dom),
                      (1 + gamma) / (3 + gamma)))
        # refined variants, mu = 1
        one = MuFunction.constant(1.0)
        cases.append(("refined p=1", RadiusProblem(MONOMIAL, 1.0, mu=one, domain=dom),
                      (1 + gamma) / (3 + gamma)))
        cases.append(("refined p=2", RadiusProblem(MONOMIAL, 2.0, mu=one, domain=dom),
                      (1 + gamma) / (2 + gamma)))
        cases.append(("even p=1", RadiusProblem(EVEN_ONLY, 1.0, mu=one, domain=dom),
                      math.sqrt((1 + gamma) / (3 + gamma))))
        derived = (math.sqrt(1 + (1 + gamma) ** 2) - 1) / (1 + gamma)
        cases.append(("odd p=1", RadiusProblem(ODD_ONLY, 1.0, mu=one, domain=dom),
                      derived))
    cases.append(("rogosinski", RadiusProblem(MONOMIAL, 1.0, m=1, N=1,
                                              mu=MuFunction.constant(1.0),
                                              equation_kind="rogosinski"),
                  math.sqrt(5.0) - 2.0))

    failures = []
    for label, problem, radius in cases:
        below = sharpness_probe(problem, radius - 0.01, A_GRID)
        above = sharpness_probe(problem, radius + 0.01, A_GRID)
        if below is not None:
            failures.append(f"{label}: violation below radius at a={below}")
        if above is None:
            failures.append(f"{label}: no witness above radius")
    ok = not failures
    verdict(3, ok, f"{len(cases)} families probed at R +/- 0.01, "
                   f"{len(failures)} failure(s)")
    assert ok, failures


def test_criterion_4_equality_case():
    unit = CoeffSeries.unit_constant()
    gaps = []
    r = 0.37
    gaps.append(abs(bohr_area_functional(unit, r, 1.0, 3).value - 1.0))
    gaps.append(abs(bohr_beta_functional(unit, r, 0.25).value - 1.0))
    gaps.append(abs(bohr_energy_functional(unit, r, 1.0).value - 1.0))
    for phi in BUILTIN_PHI.values():
        ref = refined_functional(unit, phi, 1.0, 0, 1.0, r)
        gaps.append(abs(ref.value - ref.rhs))
        rog = rogosinski_functional(unit, phi, 1.0, 1, 1, 1.0, r)
        gaps.append(abs(rog.value - rog.rhs))
    for variant in ("bohr", "paulsen", "kayumov_ponnusamy", "refined_square"):
        gaps.append(abs(classical_functional(unit, r, variant).value - 1.0))
    for variant in ("rogosinski_partial", "bohr_rogosinski"):
        gaps.append(abs(classical_functional(unit, r, variant, N=1).value - 1.0))
    disk = HyperbolicDensity.unit_disk()
    gaps.append(abs(bloch_majorant_check(unit, 1.0, disk, 0.5, r).value - 1.0))
    worst = max(gaps)
    ok = worst <= 1e-15
    verdict(4, ok, f"unimodular constant hits every rhs, worst gap {worst:.2e} "
                   "(tol 1e-15)")
    assert ok


def test_criterion_5_polynomial_calibration():
    checks = []
    c1 = calibrate_area_poly().coefficients[0]
    checks.append(abs(c1 - 8.0 / 9.0) <= 1e-15)

    rng = np.random.default_rng(1234)
    for _ in range(20):
        degree = int(rng.integers(1, 5))  # total degree <= 4
        tail = tuple(float(rng.uniform(0.01, 0.6)) for _ in range(degree - 1))
        try:
            spec = calibrate_area_poly(tail)
        except Exception:
            continue
        checks.append(abs(calibration_residual(spec)) <= 1e-12)

    for s in range(2, 7):
        a = np.linspace(0.0, 1.0, 1_000_001)
        grid_max = float(np.max(a * (1 + a) ** 2 * (1 - a * a) ** (2 * s - 2)))
        checks.append(abs(peak_weight(s) - grid_max) <= 1e-8)

    # calibrated polynomial keeps the recentered majorant below 1
    for gamma in (0.0, 0.25, 0.5):
        rho0 = (1 - gamma * gamma) / (3 + gamma)
        u = (1 + gamma) / (3 + gamma)
        for a in (0.5, 0.9, 0.99):
            coeffs = mobius_gamma_coeffs(a, gamma)
            spec = calibrate_area_poly((0.05, 0.05))
            value = math.fsum(coeffs.norm(n) * u**n for n in range(600)) \
                + spec(s_r(coeffs, rho0))
            checks.append(value <= 1.0 + 1e-10)

    ok = all(checks)
    verdict(5, ok, f"{len(checks)} calibration checks (c1 = 8/9, residuals, "
                   "peak weights, recentered end-to-end)")
    assert ok


def test_criterion_6_bloch_radii():
    want = math.sqrt(6.0 / (6.0 + math.pi**2))
    disk = HyperbolicDensity.unit_disk()
    omega0 = bloch_radius(HyperbolicDensity.omega_gamma(0.0), 0.5).value
    closed = bloch_radius_gamma(0.0, 0.5).value
    refined = bloch_refined_radius(disk, 0.5).value
    want_refined = math.sqrt(3.0 / (3.0 + 2.0 * math.pi**2))
    head = 2.0 * math.pi * m_integral(disk, 0.5, 0.0) - REFINED_THRESHOLD
    ok = (abs(omega0 - want) <= 1e-8 and abs(closed - want) <= 1e-8
          and abs(refined - want_refined) <= 1e-8 and refined < omega0
          and head == -3.0 / math.pi)
    verdict(6, ok, f"Omega_0 series {omega0:.9f} and closed form {closed:.9f} vs "
                   f"{want:.9f}; refined {refined:.9f} vs {want_refined:.9f}; "
                   "H(0) = -3/pi exactly")
    assert ok


def test_criterion_7_coefficient_bounds():
    checks = []
    for gamma in (0.0, 0.25, 0.5, 0.75):
        dom = DomainSpec.omega_gamma(gamma)
        for a in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999):
            report = check_coeff_bound(mobius_gamma_coeffs(a, gamma, 32), dom)
            checks.append(report.passed)
            if a >= 0.999:
                checks.append(report.max_ratio >= 0.99)

    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        got = operator_norm(m)
        # independent power-iteration oracle on m* m
        h = m.conj().T @ m
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(20000):
            w = h @ v
            nw = float(np.linalg.norm(w))
            if nw == 0.0:
                lam = 0.0
                break
            v = w / nw
            if abs(nw - lam) <= 1e-15 * max(1.0, nw):
                lam = nw
                break
            lam = nw
        worst = max(worst, abs(got - math.sqrt(lam)))
    checks.append(worst <= 1e-10)
    ok = all(checks)
    verdict(7, ok, f"coefficient bound sharp on the extremal family; operator "
                   f"norm vs power iteration worst |delta| = {worst:.2e}")
    assert ok


def test_criterion_8_rp_bounds():
    lower_one, _ = rp_bounds(1.0)
    checks = [abs(lower_one - 1.0 / 3.0) <= 1e-9]
    worst_gap = 0.0
    for p in (1.1, 1.3, 1.5, 1.7, 1.9):
        lower, upper = rp_bounds(p)
        checks.append(lower <= upper + 1e-12)
        a = np.linspace(0.0, 1.0 - 1e-9, 100_001)
        with np.errstate(divide="ignore", invalid="ignore"):
            num = (1 - a**p) ** (1 / p)
            den = ((1 - a * a) ** p + a**p * (1 - a**p)) ** (1 / p)
            grid = np.where(a == 0.0, 1.0, num / den)
        oracle = float(np.min(grid))
        worst_gap = max(worst_gap, abs(upper - oracle))
        checks.append(abs(upper - oracle) <= 1e-8)
    ok = all(checks)
    verdict(8, ok, f"lower(1) = 1/3, ordering holds, upper vs grid oracle "
                   f"worst |delta| = {worst_gap:.2e}")
    assert ok


def test_criterion_9_monotone_profiles():
    reports = []
    for lam in (0.5, 1.0, 2.0):
        for m in (1, 2, 3):
            reports.append(monotonicity_check("area_poly", grid_size=1000,
                                              m=m, lambda_h=lam))
        reports.append(monotonicity_check("beta_square", grid_size=1000,
                                          lambda_h=lam, beta=1.0 / (4.0 * lam)))
    for gamma in (0.0, 0.5):
        spec = calibrate_area_poly((0.1,))
        reports.append(monotonicity_check("recentered", grid_size=1000,
                                          gamma=gamma, spec=spec))
    ok = all(r.passed for r in reports)
    verdict(9, ok, f"{len(reports)} slack profiles monotone with zero boundary "
                   "value (1000-point grids, tol 1e-9)")
    assert ok, [r for r in reports if not r.passed]
