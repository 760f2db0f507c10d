"""Radius equations, closed forms, reference tables, r_p bounds, and verify."""

import collections
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad import (BUILTIN_PHI, DEFAULT_A_GRID, EVEN_ONLY, MONOMIAL, ODD_ONLY, WEIGHTED_LINEAR,
                    WEIGHTED_QUADRATIC, DomainSpec, FunctionalReport, MuFunction, PhiSequence,
                    RadiusProblem, RootResult, closed_form_radius, decreasing_root,
                    min_positive_root, non_improvable, radius_refined, radius_rogosinski,
                    reproduce_all_tables, reproduce_table, rp_bounds, verify)
from bohrad import phi as phi_module
from bohrad import cli, optimize, radii
from bohrad.errors import ConfigurationError, DomainError, NonConvergenceError, NoRootError
from bohrad.phi import GEOMETRIC_FORMS, phi_tail, phi_term
from bohrad.radii import REFERENCE_TABLES, VERIFY_A_GRID, refined_equation, rogosinski_equation
from bohrad.series import TRUNCATION_N, _check_radius

GAMMAS = [0.1 * k for k in range(10)]


def bisect_oracle(f, lo=1e-9, hi=1.0 - 1e-9, iters=200):
    """Plain bisection, independent of the scanning solver."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestRefinedRadius:
    def test_monomial_disk_p1(self):
        problem = RadiusProblem(MONOMIAL, 1.0)
        assert radius_refined(problem).value == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_monomial_disk_p2(self):
        problem = RadiusProblem(MONOMIAL, 2.0)
        assert radius_refined(problem).value == pytest.approx(0.5, abs=1e-10)

    def test_even_weights_gamma_half(self):
        problem = RadiusProblem(EVEN_ONLY, 1.0, domain=DomainSpec.omega_gamma(0.5))
        want = math.sqrt(1.5 / 3.5)
        assert radius_refined(problem).value == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_monomial_closed_forms_across_gamma(self, gamma):
        dom = DomainSpec.omega_gamma(gamma)
        r1 = radius_refined(RadiusProblem(MONOMIAL, 1.0, domain=dom)).value
        r2 = radius_refined(RadiusProblem(MONOMIAL, 2.0, domain=dom)).value
        assert abs(r1 - (1 + gamma) / (3 + gamma)) <= 1e-10
        assert abs(r2 - (1 + gamma) / (2 + gamma)) <= 1e-10

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6, 0.9])
    def test_even_and_odd_closed_forms(self, p, gamma):
        dom = DomainSpec.omega_gamma(gamma)
        r_even = radius_refined(RadiusProblem(EVEN_ONLY, p, domain=dom)).value
        want_even = closed_form_radius("even_p", gamma=gamma, p=p)
        assert abs(r_even - want_even) <= 1e-10
        r_odd = radius_refined(RadiusProblem(ODD_ONLY, p, domain=dom)).value
        pair = closed_form_radius("odd_p", gamma=gamma, p=p)
        assert abs(r_odd - pair.derived) <= 1e-10

    def test_degenerate_even_weight_at_odd_m_has_no_root(self):
        problem = RadiusProblem(EVEN_ONLY, 1.0, m=1)
        with pytest.raises(NoRootError) as err:
            radius_refined(problem)
        assert err.value.all_negative

    def test_kind_mismatch(self):
        problem = RadiusProblem(MONOMIAL, 1.0, m=1, equation_kind="rogosinski")
        with pytest.raises(ConfigurationError):
            radius_refined(problem)


class TestClosedForms:
    def test_base_radius_matches_gamma_identification(self):
        # 1/(1 + 2 lambda) at lambda = 1/(1+g) equals (1+g)/(3+g)
        for gamma in GAMMAS:
            lam = 1.0 / (1.0 + gamma)
            lhs = closed_form_radius("lambda_base", lambda_h=lam)
            rhs = closed_form_radius("gamma_p1", gamma=gamma)
            assert abs(lhs - rhs) <= 1e-15

    def test_disk_constants(self):
        assert closed_form_radius("lambda_base", lambda_h=1.0) == pytest.approx(1 / 3)
        # the disk is gamma = 0, and the gamma forms give its radii exactly
        assert closed_form_radius("gamma_p1", gamma=0.0) == 1.0 / 3.0
        assert closed_form_radius("gamma_p2", gamma=0.0) == 0.5
        assert closed_form_radius("gamma_p1", gamma=0.5) == pytest.approx(1.5 / 3.5)
        assert closed_form_radius("recentered", gamma=0.5) == pytest.approx(0.75 / 3.5)

    @pytest.mark.parametrize("lam", [9e307, 1e308, 1.7976931348623157e308])
    def test_base_radius_where_two_lambda_overflows(self, lam):
        # 1/(1 + 2 lambda) read 1/inf = 0.0, outside (0, 1)
        radius = closed_form_radius("lambda_base", lambda_h=lam)
        assert 0.0 < radius < 1.0
        assert radius == pytest.approx(0.5 / lam, rel=1e-15)

    def test_base_radius_is_one_over_one_plus_two_lambda_bit_for_bit(self):
        # fl(1 + 2 lambda) = 2 fl(0.5 + lambda) wherever 2 lambda is finite
        rng = np.random.default_rng(35)
        lams = np.ldexp(rng.uniform(1.0, 2.0, 4000), rng.integers(-1074, 1023, 4000))
        for lam in map(float, lams):
            assert closed_form_radius("lambda_base", lambda_h=lam) == 1.0 / (1.0 + 2.0 * lam)

    def test_odd_pair_branches(self):
        pair = closed_form_radius("odd_p", gamma=0.0, p=1.0)
        assert pair.printed == pytest.approx(pair.derived, abs=1e-15)
        assert not pair.discrepant
        assert pair.derived == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-14)
        pair = closed_form_radius("odd_p", gamma=0.5, p=1.0)
        assert pair.discrepant
        # the derived branch solves the stated equation, the printed does not
        g = lambda r: 1.0 * 1.5 * (1 - r * r) - 2 * r
        assert abs(g(pair.derived)) <= 1e-12
        assert abs(g(pair.printed)) > 1e-3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            closed_form_radius("even_p", gamma=0.5)  # missing p
        with pytest.raises(ConfigurationError):
            closed_form_radius("unknown_case")


class TestRogosinskiTables:
    def test_reference_rows_match_where_printed_values_obey_the_equation(self):
        rows = reproduce_all_tables()
        assert len(rows) == 16
        for row in rows:
            if not row.erratum:
                assert row.delta <= 1e-5, row

    def test_known_errata_are_flagged(self):
        # two printed rows fail their own equation: the even-weights row
        # (2, 15, 30) duplicates the quadratic-weights table, and the
        # linear-weights row (1.5, 5, 10) corresponds to half its mu
        rows = reproduce_all_tables()
        errata = {(r.table_id, r.p, r.m, r.mu) for r in rows if r.erratum}
        assert (3, 2.0, 15, 30.0) in errata
        assert (1, 1.5, 5, 10.0) in errata
        assert len(errata) == 2

    def test_erratum_row_recomputed_value(self):
        # independent bisection on 2 (1-r^15)/(1+r^15) = 60 r^2/(1-r^2)
        oracle = bisect_oracle(
            lambda r: 2 * (1 - r**15) / (1 + r**15) - 60 * r * r / (1 - r * r))
        assert oracle == pytest.approx(0.1796, abs=1e-3)
        row = [r for r in reproduce_table(3) if r.p == 2.0][0]
        assert row.erratum
        assert row.computed == pytest.approx(oracle, abs=1e-9)

    def test_linear_weights_erratum_against_oracle(self):
        # the printed 0.067495 solves the equation with mu halved; the
        # stated equation's root comes from an independent bisection
        tail = lambda r: r * (2 - r) / (1 - r) ** 2
        oracle = bisect_oracle(
            lambda r: 1.5 * (1 - r**5) / (1 + r**5) - 2 * 10.0 * tail(r))
        row = [r for r in reproduce_table(1) if r.p == 1.5][0]
        assert row.computed == pytest.approx(oracle, abs=1e-9)
        halved = bisect_oracle(
            lambda r: 1.5 * (1 - r**5) / (1 + r**5) - 10.0 * tail(r))
        assert halved == pytest.approx(row.printed, abs=1e-5)

    def test_specific_rows(self):
        t1 = reproduce_table(1)
        assert t1[0].computed == pytest.approx(0.090368, abs=1e-5)
        assert t1[1].computed == pytest.approx(0.073469, abs=1e-5)
        t4 = reproduce_table(4)
        assert t4[0].computed == pytest.approx(0.171573, abs=1e-5)
        assert t4[0].computed == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-9)

    def test_all_tables_under_a_second(self):
        start = time.perf_counter()
        reproduce_all_tables()
        assert time.perf_counter() - start < 1.0

    def test_unknown_table(self):
        with pytest.raises(ConfigurationError):
            reproduce_table(5)

    def test_root_residuals(self):
        for table_id, (kind, rows) in REFERENCE_TABLES.items():
            phi = BUILTIN_PHI[kind]
            for p, m, mu, _ in rows:
                problem = RadiusProblem(phi, p, m=m, N=1,
                                        mu=MuFunction.constant(mu),
                                        equation_kind="rogosinski")
                result = radius_rogosinski(problem)
                assert abs(rogosinski_equation(problem)(result.value)) <= 1e-11


class TestRadiusMonotonicity:
    def test_nonincreasing_in_mu(self):
        values = []
        for mu in (0.5, 1.0, 2.0, 4.0):
            problem = RadiusProblem(MONOMIAL, 1.0, m=1, mu=MuFunction.constant(mu),
                                    equation_kind="rogosinski")
            values.append(radius_rogosinski(problem).value)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_nondecreasing_in_p(self):
        values = []
        for p in (0.5, 1.0, 1.5, 2.0):
            problem = RadiusProblem(MONOMIAL, p, m=1, mu=MuFunction.constant(1.0),
                                    equation_kind="rogosinski")
            values.append(radius_rogosinski(problem).value)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestNonImprovable:
    def test_bohr_case_derivative_condition_holds(self):
        problem = RadiusProblem(MONOMIAL, 1.0)
        radius = radius_refined(problem).value
        assert non_improvable(problem, radius)

    def test_rogosinski_case(self):
        problem = RadiusProblem(MONOMIAL, 1.0, m=1, mu=MuFunction.constant(1.0),
                                equation_kind="rogosinski")
        radius = radius_rogosinski(problem).value
        assert non_improvable(problem, radius)


class TestRpBounds:
    def test_limit_at_p_one_is_one_third(self):
        lower, upper = rp_bounds(1.0)
        assert abs(lower - 1.0 / 3.0) <= 1e-9
        assert lower <= upper + 1e-12

    @pytest.mark.parametrize("p", [1.1, 1.3, 1.5, 1.7, 1.9])
    def test_ordering_and_range(self, p):
        lower, upper = rp_bounds(p)
        assert 0.0 < lower <= upper < 1.0

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    def test_upper_matches_grid_scan_oracle(self, p):
        def g(a):
            if a == 0.0:
                return 1.0
            num = (1 - a**p) ** (1 / p)
            den = ((1 - a * a) ** p + a**p * (1 - a**p)) ** (1 / p)
            return num / den

        oracle = min(g(k / 100000.0) for k in range(100000))
        _, upper = rp_bounds(p)
        assert upper <= oracle + 1e-12
        assert abs(upper - oracle) <= 1e-8

    def test_upper_makes_at_most_200_objective_calls(self, monkeypatch):
        # 65 grid points, then the golden-section polish (122 to 124 calls in all)
        calls = []
        objective = radii._rp_upper_objective

        def counting(p):
            g = objective(p)
            return lambda a: calls.append(a) or g(a)
        monkeypatch.setattr(radii, "_rp_upper_objective", counting)
        for p in (1.0, 1.3, 1.95):
            calls.clear()
            radii.rp_upper(p)
            assert 65 < len(calls) <= 200

    def test_upper_matches_a_4096_cell_search(self):
        # one interior minimum on (1, 2), and 1/(1 + 2a) at p = 1: 64 cells find
        # the cell a 4096-cell grid finds, so the same golden polish gives the same value
        for p in [1.0] + [1.0 + k / 211 for k in range(1, 211)]:
            g = radii._rp_upper_objective(p)
            hi = 1.0 - 1e-9
            _, reference = optimize.grid_then_golden_min(g, 0.0, hi, coarse=4096, tol=1e-13)
            assert radii.rp_upper(p) == pytest.approx(reference, rel=1e-9, abs=0.0), p

    def test_domain(self):
        with pytest.raises(DomainError):
            rp_bounds(2.0)
        with pytest.raises(DomainError):
            rp_bounds(0.9)


class TestProblemValidation:
    def test_p_range(self):
        with pytest.raises(DomainError):
            RadiusProblem(MONOMIAL, 0.0)
        with pytest.raises(DomainError):
            RadiusProblem(MONOMIAL, 2.1)

    def test_rogosinski_needs_indices(self):
        with pytest.raises(DomainError):
            RadiusProblem(MONOMIAL, 1.0, m=1, N=0, equation_kind="rogosinski")
        with pytest.raises(DomainError):
            RadiusProblem(MONOMIAL, 1.0, m=0, equation_kind="rogosinski")


class TestVerify:
    """radii.verify, the library check that bohrad verify renders."""

    # (CLI argv after --family, the same check as a library call); one run per family
    RUNS = {
        "bohr": (("--gamma", "0.5"),
                 lambda: verify(RadiusProblem(MONOMIAL, 1.0, domain=DomainSpec.omega_gamma(0.5)))),
        "refined": (("--m", "1", "--mu-const", "1", "--gamma", "0"),
                    lambda: verify(RadiusProblem(MONOMIAL, 1.0, m=1, mu=1.0))),
        "rogosinski": (("--p", "1", "--m", "1", "--mu-const", "1"),
                       lambda: verify(RadiusProblem(MONOMIAL, 1.0, m=1, mu=1.0,
                                                    equation_kind="rogosinski"))),
        "area-poly": (("--gamma", "0.3"), lambda: verify("area-poly", 0.3)),
        "beta-square": (("--gamma", "0"), lambda: verify("beta-square")),
        "energy": (("--gamma", "0.85"), lambda: verify("energy", 0.85)),
    }
    NEAR_ONE = RadiusProblem(MONOMIAL, 2.0, m=1, mu=1e-6, equation_kind="rogosinski")
    SMALL = RadiusProblem(WEIGHTED_LINEAR, 2.0, m=10, mu=100.0, equation_kind="rogosinski")

    @staticmethod
    def summary(family, argv, capsys):
        code = cli.main(["verify", "--family", family, *argv])
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary.pop("family") == family
        return code, summary

    def test_every_cli_family_is_a_library_family(self):
        assert set(self.RUNS) == set(cli.VERIFY_FAMILIES)

    @pytest.mark.parametrize("family", RUNS)
    def test_the_report_is_the_cli_summary(self, capsys, family):
        argv, run = self.RUNS[family]
        report = run()
        code, summary = self.summary(family, argv, capsys)
        assert cli._sig9({k: v for k, v in vars(report).items() if k != "worst_a"}) == summary
        assert report.passed and code == 0
        assert report.checked == len(VERIFY_A_GRID) == 23
        assert report.witness_a in DEFAULT_A_GRID

    def test_a_radius_within_the_offset_of_one_has_no_probe_above(self, capsys):
        # R + 0.01 >= 1: the family has no point there, so no witness is sought
        report = verify(self.NEAR_ONE)
        assert round(report.radius, 6) == 0.998587
        assert (report.r_above, report.witness_a, report.failures, report.passed) \
            == (None, None, 0, True)
        code, summary = self.summary("rogosinski", ("--p", "2", "--m", "1", "--N", "1",
                                                    "--mu-const", "1e-6"), capsys)
        assert code == 0 and summary["r_above"] is None and summary["passed"] is True

    @pytest.mark.parametrize("subject, gamma, R", [
        (RadiusProblem(MONOMIAL, 1.0), 0.0, 1.0 / 3.0),
        ("energy", 0.0, 1.0 / 3.0),
        ("area-poly", 0.3, 1.3 / 3.3),
        (SMALL, 0.0, None),  # R < 0.02, so r_below is R/2
        (NEAR_ONE, 0.0, None),  # R + 0.01 > 1, so there is no r_above
    ])
    def test_the_probes_sit_a_hundredth_from_the_radius(self, subject, gamma, R):
        report = verify(subject, gamma)
        assert report.passed
        if R is not None:
            assert report.radius == pytest.approx(R, rel=1e-15)
        R = report.radius
        assert report.r_below == max(R - 0.01, R / 2.0)
        assert report.r_above == (R + 0.01 if R + 0.01 < 1.0 else None)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_beta_defaults_to_and_is_bounded_by_a_quarter_over_lambda(self, gamma):
        quarter = (1.0 + gamma) / 4.0  # 1/(4 lambda_H), lambda_H = 1/(1 + gamma)
        assert verify("beta-square", gamma) == verify("beta-square", gamma, beta=quarter)
        assert verify("beta-square", gamma, beta=quarter / 2.0).passed
        for beta in (quarter + 1e-9, 1.2 * quarter, 1.9 * quarter):
            with pytest.raises(ConfigurationError,
                               match=r"^beta must be at most 1/\(4 lambda_h\)$"):
                verify("beta-square", gamma, beta=beta)

    def test_a_nan_beta_is_refused_by_its_row(self):
        with pytest.raises(DomainError, match=r"^beta must lie in \[0, inf\), got nan$"):
            verify("beta-square", beta=math.nan)

    @pytest.mark.parametrize("call, match", [
        (lambda: verify("tables"), "^unknown verify family 'tables'$"),
        (lambda: verify(RadiusProblem(MONOMIAL, 1.0), 0.5),
         "^a RadiusProblem reads no gamma, degree or beta$"),
        (lambda: verify(RadiusProblem(MONOMIAL, 1.0), beta=0.1),
         "^a RadiusProblem reads no gamma, degree or beta$"),
        (lambda: verify(RadiusProblem(MONOMIAL, 1.0, domain=DomainSpec.general(2.0))),
         "^no extremal family is constructible for a general lambda_h$"),
    ])
    def test_a_check_it_cannot_make_raises(self, call, match):
        with pytest.raises(ConfigurationError, match=match):
            call()

    def test_a_domain_without_a_family_is_refused_before_the_solve(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("verify solved a problem it cannot check")
        monkeypatch.setattr(radii, "radius_refined", unreachable)
        monkeypatch.setattr(radii, "radius_rogosinski", unreachable)
        with pytest.raises(ConfigurationError,
                           match="^no extremal family is constructible for a general lambda_h$"):
            verify(RadiusProblem(MONOMIAL, 1.0, domain=DomainSpec.general(2.0)))

    @pytest.mark.parametrize("family, functional", [
        ("area-poly", "bohr_area_functional"), ("beta-square", "bohr_beta_functional"),
        ("energy", "bohr_energy_functional")])
    def test_each_functional_is_looked_up_when_called(self, monkeypatch, family, functional):
        # a patch of the module attribute, as a tracer makes, sees every evaluation: the 23
        # below the radius and the witness search, up to its witness
        calls = []
        real = getattr(radii, functional)
        monkeypatch.setattr(radii, functional, lambda *args: calls.append(1) or real(*args))
        report = verify(family)
        assert len(calls) == 23 + DEFAULT_A_GRID.index(report.witness_a) + 1

    def test_a_family_that_never_fails_does_not_pass(self, monkeypatch):
        monkeypatch.setattr(radii, "problem_functional",
                            lambda problem, r: lambda a: FunctionalReport.compare(0.0, 1.0))
        report = verify(RadiusProblem(MONOMIAL, 1.0))
        assert (report.failures, report.witness_a, report.passed) == (0, None, False)

    def test_a_failure_below_the_radius_names_the_worst_a(self, monkeypatch):
        monkeypatch.setattr(radii, "problem_functional",
                            lambda problem, r: lambda a: FunctionalReport.compare(1.0 + a, 1.0))
        report = verify(RadiusProblem(MONOMIAL, 1.0))
        assert (report.failures, report.checked, report.passed) == (23, 23, False)
        worst = VERIFY_A_GRID[-1]
        assert (report.worst_a, report.worst_margin) == (worst, 1.0 - (1.0 + worst))
        assert report.witness_a == DEFAULT_A_GRID[0]


VALID_M = {"monomial": (0, 1, 2, 3), "weighted_linear": (0, 1, 2, 3),
           "weighted_quadratic": (0, 1, 2, 3), "even_only": (0, 2, 4), "odd_only": (0, 1, 3)}


def outcome(solve, *args, **kwargs):
    """solve(*args, **kwargs), or the NoRootError flags (all_positive, all_negative)."""
    try:
        return solve(*args, **kwargs)
    except NoRootError as err:
        return err.all_positive, err.all_negative


def scalar_scan(problem, scan_step=1e-3):
    """The point-by-point scan of the problem's equation."""
    refined = problem.equation_kind == "refined"
    return outcome(min_positive_root,
                   (refined_equation if refined else rogosinski_equation)(problem),
                   scan_step=scan_step)


def solved(problem, scan_step=1e-3):
    refined = problem.equation_kind == "refined"
    return outcome(radius_refined if refined else radius_rogosinski, problem,
                   scan_step=scan_step)


def searched(problem, scan_step=1e-3):
    """The index search of the built-in equations: decreasing_root on the bound
    refined equation (radius_refined's fall-back), or radius_rogosinski, whose
    solve it is.  radii.refined_equation is looked up at call time, so a test can
    wrap it."""
    if problem.equation_kind == "refined":
        return outcome(decreasing_root, radii.refined_equation(problem), scan_step=scan_step)
    return solved(problem, scan_step)


def recorded(evaluations, F):
    """F, appending each radius it is called on to evaluations."""
    def wrapper(r):
        evaluations.append(r)
        return F(r)
    return wrapper


def inline_refined(problem):
    """The refined equation as first written: phi_term and phi_tail on every call.

    A built-in phi_m = a r^m != 0 gives G = p - 2 lambda_H Phi_{m+1}/phi_m
    instead, written out from GEOMETRIC_FORMS: Phi_{m+1}/phi_m = r^(E-m)
    (b0 + (b1 + b2 (1 + u)/d) u/d)/d with E the first index > m on the
    weight's indices, b0 = P(E)/a, b1 = step P'(E)/a, b2 = step^2 c2/a.
    """
    lam = problem.domain.effective_lambda
    m = problem.m
    (c0, c1, c2), step, parity, head = GEOMETRIC_FORMS.get(problem.phi.kind, ((0, 0, 0), 1, 0, 0))
    a = (c0 + c1 * m + c2 * m * m if m % step == parity else 0) + (head if m == 0 else 0)
    if a:
        E = m + 1 + (parity - m - 1) % step
        b0, b1, b2 = ((c0 + c1 * E + c2 * E * E) / a, step * (c1 + 2 * c2 * E) / a,
                      c2 * step**2 / a)

        def G(r):
            _check_radius(r)
            u, d = (r, 1.0 - r) if step == 1 else (r * r, (1.0 - r) * (1.0 + r))
            ratio = r ** (E - m) * (b0 + (b1 + b2 * (1.0 + u) / d) * u / d) / d
            return problem.p - 2.0 * lam * ratio
        return G

    def F(r):
        return problem.p * phi_term(problem.phi, problem.m, r) \
            - 2.0 * lam * phi_tail(problem.phi, problem.m + 1, r)
    return F


def inline_rogosinski(problem):
    """The Rogosinski equation as first written."""
    def F(r):
        rm = r**problem.m
        head = problem.p * (1.0 - rm) / (1.0 + rm)
        return head * phi_term(problem.phi, 0, r) \
            - 2.0 * problem.mu(r) * phi_tail(problem.phi, problem.N, r)
    return F


def evaluated(F, x):
    """F(x) as type, shape and bytes (equal means equal bit for bit), or its error."""
    try:
        value = F(x)
    except (DomainError, NonConvergenceError) as exc:
        return type(exc), str(exc)
    a = np.asarray(value, dtype=float)
    return type(value), a.shape, a.tobytes()


CUSTOM_POWER = PhiSequence("custom", custom_term=lambda n, r: r**n)


class TestBoundEquations:
    """Equations bound once per problem give the inline forms' values bit for bit."""

    # m up to 600 and N up to 60 reach where r^m and r^N underflow; every
    # built-in kind takes its step-resolved tail and phi_0 = 1 form here
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(BUILTIN_PHI) + ["custom"]), m=st.integers(0, 600),
           N=st.integers(1, 60), p=st.floats(0.01, 2.0),
           domain=st.one_of(st.floats(0.0, 0.99).map(DomainSpec.omega_gamma),
                            st.floats(0.1, 5.0).map(DomainSpec.general)),
           mu=st.one_of(st.floats(0.0, 100.0), st.just(lambda r: 1.0 + r * r)),
           r=st.floats(0.0, 1.0, exclude_max=True))
    def test_bound_equals_inline(self, kind, m, N, p, domain, mu, r):
        phi = BUILTIN_PHI.get(kind, CUSTOM_POWER)
        refined = RadiusProblem(phi, p, m=m, domain=domain)
        rogosinski = RadiusProblem(phi, p, m=max(m, 1), N=N, mu=mu, equation_kind="rogosinski")
        pairs = [(refined_equation(refined), inline_refined(refined)),
                 (rogosinski_equation(rogosinski), inline_rogosinski(rogosinski))]
        for bound, inline in pairs:
            assert evaluated(bound, r) == evaluated(inline, r)

    @pytest.mark.parametrize("kind", sorted(BUILTIN_PHI) + ["custom"])
    def test_bound_equations_find_check_radius_at_call_time(self, kind, monkeypatch):
        # a wrapper put on radii._check_radius after binding sees every
        # call: no form of F holds it as a local or a default argument
        phi = BUILTIN_PHI.get(kind, CUSTOM_POWER)
        equations = [refined_equation(RadiusProblem(phi, 1.0, m=m)) for m in (0, 1, 2)]
        equations += [rogosinski_equation(RadiusProblem(phi, 1.0, m=1, mu=mu,
                                                        equation_kind="rogosinski"))
                      for mu in (2.0, lambda r: 1.0 + r)]
        seen = []
        monkeypatch.setattr(radii, "_check_radius", seen.append)
        for F in equations:
            F(0.5)
        assert seen == [0.5] * len(equations)

    @pytest.mark.parametrize("phi", [MONOMIAL, EVEN_ONLY, CUSTOM_POWER])
    @pytest.mark.parametrize("mu", [2.0, lambda r: 1.0 + r])
    def test_out_of_range_radius_raises(self, phi, mu):
        for F in (refined_equation(RadiusProblem(phi, 1.0)),
                  rogosinski_equation(RadiusProblem(phi, 1.0, m=1, mu=mu,
                                                    equation_kind="rogosinski"))):
            for r in (1.0, -0.1, math.nan):
                with pytest.raises(DomainError, match="radius must lie in"):
                    F(r)
            with pytest.raises(DomainError, match="got ndarray$"):
                F(np.array([0.5]))
            for r in (False, np.bool_(False)):
                with pytest.raises(DomainError, match="got bool$"):
                    F(r)


class TestGridScan:
    """Built-in equations bracket by bisecting the scan index, with the scalar scan's result.

    radius_refined takes a built-in root in closed form (see TestClosedRefinedRoot);
    the refined cases here search its bound equation, as its fall-back does."""

    @pytest.mark.parametrize("kind", sorted(VALID_M))
    def test_refined_matches_scalar_scan(self, kind):
        for m in VALID_M[kind]:
            for p in (0.05, 0.4, 1.0, 1.3, 2.0):
                for gamma in (0.0, 0.25, 0.6, 0.95):
                    problem = RadiusProblem(BUILTIN_PHI[kind], p, m=m,
                                            domain=DomainSpec.omega_gamma(gamma))
                    assert searched(problem) == scalar_scan(problem), (m, p, gamma)

    @pytest.mark.parametrize("lambda_h", [0.3, 1.0, 1.5, 2.7])
    def test_general_lambda_matches_scalar_scan(self, lambda_h):
        for kind in sorted(VALID_M):
            for m in VALID_M[kind]:
                problem = RadiusProblem(BUILTIN_PHI[kind], 1.0, m=m,
                                        domain=DomainSpec.general(lambda_h))
                assert searched(problem) == scalar_scan(problem), (kind, m)

    @pytest.mark.parametrize("kind", sorted(VALID_M))
    def test_rogosinski_matches_scalar_scan(self, kind):
        for m in (1, 2, 5):
            for N in (1, 3):
                for mu in (0.0, 0.5, 3.0, 10.0):
                    for p in (0.3, 1.0, 2.0):
                        problem = RadiusProblem(BUILTIN_PHI[kind], p, m=m, N=N, mu=mu,
                                                equation_kind="rogosinski")
                        assert solved(problem) == scalar_scan(problem), (m, N, mu, p)

    @pytest.mark.parametrize("problem, root", [
        (RadiusProblem(MONOMIAL, 2.0, domain=DomainSpec.omega_gamma(0.0)), 0.5),  # gamma_p2
        (RadiusProblem(MONOMIAL, 1.0, domain=DomainSpec.general(1.5)), 0.25),    # lambda_base
    ])
    def test_root_on_a_scan_point(self, problem, root, monkeypatch):
        # the zero is confirmed by one call of F at the next scan point,
        # which iterations does not count
        evaluations = []
        equation = radii.refined_equation
        monkeypatch.setattr(radii, "refined_equation",
                            lambda problem: recorded(evaluations, equation(problem)))
        result = searched(problem)
        assert result.iterations == 1000 * root and len(evaluations) <= 12
        assert evaluations[-1] == (result.iterations + 1) * 1e-3
        assert result == scalar_scan(problem)
        assert result.value == root and result.residual == 0.0

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(BUILTIN_PHI)), m=st.integers(0, 30), p=st.floats(0.01, 2.0),
           domain=st.one_of(st.floats(0.0, 0.99).map(DomainSpec.omega_gamma),
                            st.floats(0.1, 5.0).map(DomainSpec.general)),
           N=st.integers(1, 12), mu=st.floats(0.0, 100.0), rogosinski=st.booleans(),
           scan_step=st.sampled_from([1e-3, 3e-4, 1e-4]))
    def test_matches_scalar_scan_on_random_problems(self, kind, m, p, domain, N, mu,
                                                    rogosinski, scan_step):
        if rogosinski:
            problem = RadiusProblem(BUILTIN_PHI[kind], p, m=max(m, 1), N=N, mu=mu,
                                    equation_kind="rogosinski")
        else:
            problem = RadiusProblem(BUILTIN_PHI[kind], p, m=m, domain=domain)
        assert searched(problem, scan_step) == scalar_scan(problem, scan_step)

    @pytest.mark.parametrize("phi, m, expected", [
        (MONOMIAL, 150, 1.0 / 3.0), (MONOMIAL, 200, 1.0 / 3.0), (MONOMIAL, 340, 1.0 / 3.0),
        (MONOMIAL, 400, 1.0 / 3.0), (MONOMIAL, 538, 1.0 / 3.0), (MONOMIAL, 600, 1.0 / 3.0),
        (MONOMIAL, 5000, 1.0 / 3.0),
        (CUSTOM_POWER, 110, NonConvergenceError), (CUSTOM_POWER, 150, NonConvergenceError),
    ])
    def test_underflowing_weights_never_give_a_wrong_radius(self, phi, m, expected):
        # r^m underflows on the first scan points from m = 108 (r^600 = 0
        # below r = 0.288); the radius is p/(p + 2 lambda_H) = 1/3 for every
        # m.  The built-in equation G = p - 2 lambda_H Phi_{m+1}/phi_m never
        # forms r^m, so no m underflows it; the scanned custom weight at
        # m = 110 reads 0.0 at x_1 = 0.001 and at 0.0005, but not at x_2 = 0.002
        problem = RadiusProblem(phi, 1.0, m=m)
        if expected is NonConvergenceError:
            with pytest.raises(NonConvergenceError, match=r"underflows to 0\.0 at r = "):
                radius_refined(problem)
        else:
            assert radius_refined(problem).value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind, m", [("even_only", 1), ("even_only", 3), ("odd_only", 2)])
    def test_no_root_flags_match(self, kind, m):
        problem = RadiusProblem(BUILTIN_PHI[kind], 1.0, m=m, domain=DomainSpec.omega_gamma(0.4))
        assert solved(problem) == scalar_scan(problem) == (False, True)

    def test_custom_phi_and_callable_mu_scan_point_by_point(self, monkeypatch):
        solvers = []

        def recording(solve):
            def record(f, tol, scan_step):
                solvers.append(solve.__name__)
                return solve(f, tol, scan_step)
            return record

        monkeypatch.setattr(radii, "min_positive_root", recording(min_positive_root))
        monkeypatch.setattr(radii, "decreasing_root", recording(decreasing_root))
        custom = PhiSequence("custom", custom_term=lambda n, r: r**n)
        radius_refined(RadiusProblem(custom, 1.0))
        radius_rogosinski(RadiusProblem(custom, 1.0, m=1, mu=1.0, equation_kind="rogosinski"))
        radius_rogosinski(RadiusProblem(MONOMIAL, 1.0, m=1, mu=lambda r: 1.0 + r,
                                        equation_kind="rogosinski"))
        assert solvers == ["min_positive_root"] * 3
        # a built-in refined root is closed, and certified without a solver
        assert radius_refined(RadiusProblem(MONOMIAL, 1.0)).iterations == 3
        radius_rogosinski(RadiusProblem(MONOMIAL, 1.0, m=1, mu=1.0, equation_kind="rogosinski"))
        assert solvers[3:] == ["decreasing_root"]

    @pytest.mark.parametrize("problem, step, expected", [
        (RadiusProblem(MONOMIAL, 1.0, m=1, domain=DomainSpec.omega_gamma(0.3)), 1e-6,
         RootResult(0.393939393939394, (0.393939393939, 0.39393939393978794),
                    -2.220446049250313e-16, 393943, 1e-06)),
        (RadiusProblem(MONOMIAL, 1.0, m=1, domain=DomainSpec.omega_gamma(0.3)), 3e-6,
         RootResult(0.393939393938547, (0.3939393939377, 0.393939393939394),
                    3.5476066528872252e-12, 131317, 3e-06)),
        (RadiusProblem(WEIGHTED_QUADRATIC, 1.0, m=5, mu=10.0, equation_kind="rogosinski"), 1e-6,
         RootResult(0.04216114214785444, (0.04216114214738706, 0.042161142148321826),
                    1.1102230246251565e-16, 42165, 1e-06)),
        (RadiusProblem(WEIGHTED_QUADRATIC, 1.0, m=5, mu=10.0, equation_kind="rogosinski"), 3e-6,
         RootResult(0.042161142147854436, (0.04216114214785442, 0.04216114214785445),
                    2.220446049250313e-16, 14058, 3e-06)),
    ])
    def test_fine_steps_keep_their_root_results(self, problem, step, expected):
        # computed by the point-by-point scan, which evaluated the bound
        # equation (G for the refined cases) at every scan point up to the
        # bracket; the index search needs about 20
        assert searched(problem, step) == expected

    def test_default_step_solves_make_at_most_18_evaluations(self, monkeypatch):
        # work-counter guard: about 11 evaluations of F find the 1e-3 cell
        # and about 4 narrow and certify it, where halving the cell took 29
        # more; over the sweeps above and the reference rows
        problems = [RadiusProblem(BUILTIN_PHI[kind], p, m=m, domain=domain)
                    for kind in sorted(VALID_M) for m in VALID_M[kind]
                    for p, domain in [(p, DomainSpec.omega_gamma(gamma))
                                      for p in (0.05, 0.4, 1.0, 1.3, 2.0)
                                      for gamma in (0.0, 0.25, 0.6, 0.95)]
                    + [(1.0, DomainSpec.general(lam)) for lam in (0.3, 1.0, 1.5, 2.7)]]
        problems += [RadiusProblem(BUILTIN_PHI[kind], p, m=m, N=N, mu=mu,
                                   equation_kind="rogosinski")
                     for kind in sorted(VALID_M) for m in (1, 2, 5) for N in (1, 3)
                     for mu in (0.0, 0.5, 3.0, 10.0) for p in (0.3, 1.0, 2.0)]
        problems += [RadiusProblem(BUILTIN_PHI[kind], p, m=m, mu=mu, equation_kind="rogosinski")
                     for kind, rows in REFERENCE_TABLES.values() for p, m, mu, _ in rows]
        evaluations = []
        for name in ("_refined_from", "rogosinski_equation"):  # what the solves bind
            equation = getattr(radii, name)
            monkeypatch.setattr(radii, name, lambda *args, equation=equation:
                                recorded(evaluations, equation(*args)))
        solves = 0
        for problem in problems:
            evaluations.clear()
            if isinstance(solved(problem), RootResult):
                solves += 1
                assert len(evaluations) <= 18, problem
        assert solves > 700

    @pytest.mark.parametrize("problem", [
        RadiusProblem(WEIGHTED_QUADRATIC, 1.2, m=2, domain=DomainSpec.omega_gamma(0.3)),
        RadiusProblem(ODD_ONLY, 0.5, m=1, mu=1.0, equation_kind="rogosinski"),
    ])
    def test_bracket_search_makes_about_log2_calls(self, problem, monkeypatch):
        # work-counter guard: at most ceil(log2(1/step)) + 1 evaluations of F
        # find the bracket, then one per narrowing or certificate step; F
        # is only ever called on a float
        evaluations = []
        name = f"{problem.equation_kind}_equation"
        equation = getattr(radii, name)
        monkeypatch.setattr(radii, name, lambda problem: recorded(evaluations, equation(problem)))
        for step in (1e-3, 1e-4, 1e-6):
            evaluations.clear()
            result = searched(problem, step)
            bracket_index = math.floor(result.value / step) + 1
            search = evaluations[:len(evaluations) - (result.iterations - bracket_index)]
            assert 1 <= len(search) <= math.ceil(math.log2(1.0 / step)) + 1
            assert all(type(r) is float and r == round(r / step) * step for r in search)

    @pytest.mark.parametrize("kind", sorted(BUILTIN_PHI))
    @pytest.mark.parametrize("equation_kind", ["refined", "rogosinski"])
    def test_bound_equation_checks_r_once_per_evaluation(self, kind, equation_kind, monkeypatch):
        # work-counter guard: a built-in equation is bound once per problem,
        # so its solve calls neither phi_term nor phi_tail and checks r once
        # per evaluation of F: the bracket search, then the narrowing steps.
        # The count also pins that F finds radii._check_radius at call time.
        if equation_kind == "refined":
            problem = RadiusProblem(BUILTIN_PHI[kind], 1.2, m=1 if kind == "odd_only" else 2,
                                    domain=DomainSpec.omega_gamma(0.3))
        else:
            problem = RadiusProblem(BUILTIN_PHI[kind], 0.5, m=1, mu=1.0,
                                    equation_kind="rogosinski")
        calls = collections.Counter()

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        for module, name in ((phi_module, "phi_term"), (phi_module, "phi_tail"),
                             (radii, "phi_term")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(radii, "_check_radius", counted("check", radii._check_radius))
        name = f"{problem.equation_kind}_equation"
        equation = getattr(radii, name)
        monkeypatch.setattr(radii, name, lambda problem: counted("F", equation(problem)))
        result = searched(problem)
        bracket_index = math.floor(result.value / result.scan_step) + 1
        narrowing = result.iterations - bracket_index
        assert calls["phi_term"] == calls["phi_tail"] == 0
        assert calls["check"] == calls["F"]
        assert narrowing < calls["F"] <= narrowing + math.ceil(math.log2(1e3)) + 1

    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
    def test_bad_custom_tail_raises_domain_error_not_no_root(self, value):
        # a nan tail made every scan point compare false, which read as no sign change
        phi = PhiSequence("custom", custom_term=lambda n, r: r**n,
                          custom_tail=lambda N, r: value)
        with pytest.raises(DomainError, match=r"^custom tail at N=1, r=0\.001 must be finite"):
            radius_refined(RadiusProblem(phi, 1.0))

    def test_custom_tail_calls_custom_term_directly(self, monkeypatch):
        # work-counter guard: each evaluation of F checks r once, in radii or
        # phi, and makes TRUNCATION_N + 1 custom_term calls: one for its head
        # phi_m and TRUNCATION_N for its truncated tail
        counts = collections.Counter()

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        for module in (radii, phi_module):
            monkeypatch.setattr(module, "_check_radius", counted("check", module._check_radius))
        bind = radii._refined_from
        monkeypatch.setattr(radii, "_refined_from",
                            lambda problem, form: counted("F", bind(problem, form)))
        custom = PhiSequence("custom", custom_term=counted("custom", lambda n, r: r**n))
        result = radius_refined(RadiusProblem(custom, 1.0))
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        evaluations = counts["F"]
        assert evaluations == result.iterations
        assert counts["check"] == evaluations
        assert counts["custom"] == (TRUNCATION_N + 1) * evaluations


class TestClosedRefinedRoot:
    """A built-in refined root in closed form, certified by the signs of G at R -/+ tol."""

    PROBLEMS = [RadiusProblem(BUILTIN_PHI[kind], p, m=m, domain=domain)
                for kind in sorted(VALID_M) for m in VALID_M[kind]
                for p, domain in [(0.05, DomainSpec.omega_gamma(0.95)),
                                  (1.2, DomainSpec.omega_gamma(0.3)),
                                  (2.0, DomainSpec.general(2.7))]]

    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_a_solve_calls_G_three_times_and_checks_r_three_times(self, problem, monkeypatch):
        # work-counter guard: one ratio form, which binds G and gives the closed root's
        # input, then G at R - tol, R + tol and R, and nothing else
        calls = collections.Counter()

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        for module, name in ((phi_module, "phi_term"), (phi_module, "phi_tail"),
                             (radii, "phi_term"), (radii, "decreasing_root"),
                             (radii, "min_positive_root"), (radii, "ratio_form")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(radii, "_check_radius", counted("check", radii._check_radius))
        bind = radii._refined_from
        monkeypatch.setattr(radii, "_refined_from",
                            lambda problem, form: counted("G", bind(problem, form)))
        result = radius_refined(problem)
        assert calls == {"ratio_form": 1, "G": 3, "check": 3}
        assert result.iterations == 3
        lo, hi = result.bracket
        assert (lo, hi) == (result.value - 1e-12, result.value + 1e-12)
        G = refined_equation(problem)
        assert G(lo) > 0.0 > G(hi) and result.residual == G(result.value)
        assert result.scan_step == 1e-3

    @pytest.mark.parametrize("problem", PROBLEMS[::4])
    @pytest.mark.parametrize("offset", [1e-6, -1e-6])
    def test_a_root_planted_off_falls_back_to_the_search(self, problem, offset, monkeypatch):
        # an R whose certificate fails is never returned: the result is the
        # search's, field for field
        closed = radii.refined_root
        monkeypatch.setattr(radii, "refined_root", lambda *args: closed(*args) + offset)
        assert radius_refined(problem) == decreasing_root(refined_equation(problem))

    def test_a_root_outside_tol_to_one_minus_tol_falls_back(self):
        # R = 1/3 with tol = 0.4: R - tol < 0 lies outside G's domain
        problem = RadiusProblem(MONOMIAL, 1.0)
        result = radius_refined(problem, tol=0.4)
        assert result == decreasing_root(refined_equation(problem), 0.4)
        assert result.iterations != 3

    @pytest.mark.parametrize("tol, scan_step", [(0.0, 1e-3), (-1e-12, 1e-3), (math.nan, 1e-3),
                                                (1e-12, 0.0), (1e-12, -1e-3),
                                                (1e-12, math.nan)])
    def test_non_positive_tol_or_scan_step_raises(self, tol, scan_step):
        bad, name, interval = (tol, "tol", "(0, inf)") if not tol > 0 \
            else (scan_step, "scan_step", "(0, 1)")
        with pytest.raises(DomainError, match=rf"^{name} must lie in {re.escape(interval)}, "
                                              rf"got {bad}$"):
            radius_refined(RadiusProblem(MONOMIAL, 1.0), tol, scan_step)
