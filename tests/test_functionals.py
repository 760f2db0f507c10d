"""Inequality left-hand sides, equality cases, and sharpness probes."""

import contextlib
import dataclasses
import io
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrad import (BUILTIN_PHI, DEFAULT_A_GRID, EVEN_ONLY, MONOMIAL, WEIGHTED_LINEAR,
                    CoeffSeries, FunctionalReport, MatrixCoeffFn, MuFunction, PhiSequence,
                    RadiusProblem, bohr_area_functional, bohr_beta_functional,
                    bohr_energy_functional, check_coeff_bound, classical_functional,
                    diag_blend_coeffs, majorant, mobius_gamma_coeffs,
                    mobius_partial_modulus, per_function_radius, phi_tail,
                    phi_term, problem_functional, radius_refined, refined_at,
                    refined_functional, refined_sum, rogosinski_at, rogosinski_functional, s_r,
                    schwarz_composed_bound, sharpness_probe)
from bohrad import functionals, radii
from bohrad import phi as phi_module
from bohrad.cli import main
from bohrad.errors import ConfigurationError, DomainError, NonConvergenceError
from bohrad.functionals import family_gamma
from bohrad.phi import phi_weight
from bohrad.series import ABS_TOL, CONTINUATION_FLOOR, TRUNCATION_N, DomainSpec, norm_sum

import mp_sums

UNIT = CoeffSeries.unit_constant()
GRID = [(r, q) for r in mp_sums.R_GRID for q in mp_sums.Q_GRID]
# r^n, with and without its closed-form tail
CUSTOM_MONOMIAL = [PhiSequence("custom", custom_term=lambda n, r: r**n),
                   PhiSequence("custom", custom_term=lambda n, r: r**n,
                               custom_tail=lambda N, r: r**N / (1.0 - r))]


def common_blend(rng):
    """Diagonal blend with one shared parameter: |A_0| stays scalar."""
    d = int(rng.integers(1, 9))
    a = float(rng.uniform(0.05, 0.995))
    phases = tuple(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(d))
    return diag_blend_coeffs(MatrixCoeffFn((a,) * d, phases))


def blaschke_norms(zeros, phase=1.0, rho=0.8, samples=2048, count=48):
    """Coefficient norms of a finite Blaschke product, via FFT extraction.

    Samples the product on |z| = rho and reads Taylor coefficients off
    the FFT; aliasing is below rho^samples, the FFT noise floor grows
    like (1/rho)^n (hence the moderately large circle), and truncation
    past ``count`` is harmless under any r^n damping with r < 1.
    """
    z = rho * np.exp(2j * np.pi * np.arange(samples) / samples)
    w = np.full_like(z, phase)
    for a in zeros:
        w *= (z - a) / (1.0 - np.conj(a) * z)
    coeffs = np.fft.fft(w)[:count] / samples / rho ** np.arange(count)
    return CoeffSeries(tuple(np.abs(coeffs)))


class TestMajorant:
    def test_unimodular_constant_is_the_equality_case(self):
        for kind, phi in BUILTIN_PHI.items():
            for r in (0.0, 0.3, 0.7):
                assert majorant(UNIT, phi, r) == 1.0, kind

    def test_zero_function(self):
        assert majorant(CoeffSeries((0.0,)), MONOMIAL, 0.5) == 0.0

    @pytest.mark.parametrize("a, r, abs_tol, rel_tol", [
        (0.5, 1.0 / 3.0, 1e-13, 0.0),
        (1.0 - 1e-4, 0.999, 1e-12, 1e-12),
        (1.0 - 1e-6, 0.9999, 1e-12, 1e-12)])
    def test_geometric_closed_form_oracle(self, a, r, abs_tol, rel_tol):
        # disk family: a + (1 - a^2) r / (1 - a r); a = 1/2 at r = 1/3 gives
        # 1/2 + (3/4) * (1/3) / (1 - 1/6) = 1/2 + 3/10
        coeffs = mobius_gamma_coeffs(a, 0.0)
        with mp_sums.mp.workdps(mp_sums.DPS):
            a_, r_ = mp_sums.mp.mpf(a), mp_sums.mp.mpf(r)
            want = a_ + (1 - a_ * a_) * r_ / (1 - a_ * r_)
        assert mp_sums.close(majorant(coeffs, MONOMIAL, r), want, abs_tol, rel_tol)

    @pytest.mark.parametrize("r, q", GRID)
    @pytest.mark.parametrize("kind", list(BUILTIN_PHI))
    def test_geometric_continuation_matches_mp_reference(self, kind, r, q):
        coeffs = CoeffSeries(mp_sums.NORMS, 0, q)
        assert mp_sums.close(majorant(coeffs, BUILTIN_PHI[kind], r),
                             mp_sums.majorant(coeffs, kind, r))

    @pytest.mark.parametrize("custom", CUSTOM_MONOMIAL)
    def test_custom_weight_meets_tolerance(self, custom):
        coeffs = CoeffSeries(mp_sums.NORMS, 0, 1.0 - 1e-6)
        assert mp_sums.close(majorant(coeffs, custom, 0.5),
                             mp_sums.majorant(coeffs, "monomial", 0.5))

    def test_custom_weight_that_cannot_meet_tolerance_raises(self):
        # the remainder bound falls like 0.999^n: 512 terms are far too few
        coeffs = CoeffSeries(mp_sums.NORMS, 0, 1.0 - 1e-6)
        with pytest.raises(NonConvergenceError):
            majorant(coeffs, CUSTOM_MONOMIAL[1], 0.999)

    @pytest.mark.parametrize("r, q", GRID)
    @pytest.mark.parametrize("kind", list(BUILTIN_PHI))
    def test_custom_weight_stops_where_its_bound_allows(self, kind, r, q):
        # the kind restated as a custom weight: continuation terms are added
        # until Phi_n(r) ||A_n|| / (1 - q) <= ABS_TOL, checked at indices
        # CONTINUATION_FLOOR .. CONTINUATION_FLOOR + TRUNCATION_N
        phi = BUILTIN_PHI[kind]
        custom = PhiSequence("custom", custom_term=lambda n, r: phi_term(phi, n, r),
                             custom_tail=lambda N, r: phi_tail(phi, N, r))
        coeffs = CoeffSeries(mp_sums.NORMS, 0, q)
        last = CONTINUATION_FLOOR + TRUNCATION_N
        stops = not q or mp_sums.remainder_bound(coeffs, kind, r, last, 1) <= ABS_TOL
        try:
            value = majorant(coeffs, custom, r)
        except NonConvergenceError:
            assert not stops
        else:
            assert stops
            assert mp_sums.close(value, mp_sums.majorant(coeffs, kind, r))


class TestAreaPolynomialFunctional:
    def test_equality_case(self):
        report = bohr_area_functional(UNIT, 0.31, lambda_h=1.0, degree=3)
        assert report.satisfied
        assert abs(report.value - 1.0) <= 1e-15

    def test_guaranteed_below_base_radius(self):
        coeffs = mobius_gamma_coeffs(0.9, 0.0)
        report = bohr_area_functional(coeffs, 1.0 / 3.0, lambda_h=1.0, degree=2)
        assert report.satisfied

    def test_violated_past_the_radius(self):
        coeffs = mobius_gamma_coeffs(0.999, 0.0)
        report = bohr_area_functional(coeffs, 0.45, lambda_h=1.0, degree=2)
        assert not report.satisfied


class TestBetaFunctional:
    def test_beta_zero_reduces_to_majorant(self):
        coeffs = mobius_gamma_coeffs(0.7, 0.2)
        for r in (0.1, 0.3, 0.5):
            report = bohr_beta_functional(coeffs, r, beta=0.0)
            assert report.value == pytest.approx(majorant(coeffs, MONOMIAL, r), rel=1e-14)

    def test_equality_case(self):
        report = bohr_beta_functional(UNIT, 0.25, beta=0.25)
        assert abs(report.value - 1.0) <= 1e-15

    def test_guaranteed_at_quarter_beta(self):
        coeffs = mobius_gamma_coeffs(0.99, 0.0)
        report = bohr_beta_functional(coeffs, 1.0 / 3.0, beta=0.25)
        assert report.satisfied


class TestEnergyFunctional:
    def test_equality_case(self):
        report = bohr_energy_functional(UNIT, 0.3, lambda_h=1.0)
        assert abs(report.value - 1.0) <= 1e-15

    def test_zero_function(self):
        report = bohr_energy_functional(CoeffSeries((0.0,)), 0.3, lambda_h=1.0)
        assert report.value == 0.0

    def test_guarantee_with_margin_at_base_radius(self):
        coeffs = mobius_gamma_coeffs(0.999, 0.0)
        report = bohr_energy_functional(coeffs, 1.0 / 3.0, lambda_h=1.0)
        assert report.satisfied
        assert report.margin >= -1e-15


class TestRefinedFunctional:
    def test_mu_zero_reduces_to_weighted_sum(self):
        coeffs = mobius_gamma_coeffs(0.9, 0.0)
        for r in (0.1, 0.3):
            report = refined_functional(coeffs, MONOMIAL, 1.0, 0, 0.0, r)
            assert abs(report.value - majorant(coeffs, MONOMIAL, r)) <= 1e-15
            assert report.rhs == 1.0

    def test_equality_case(self):
        for kind, phi in BUILTIN_PHI.items():
            report = refined_functional(UNIT, phi, 1.0, 0, 1.0, 0.4)
            assert abs(report.value - report.rhs) <= 1e-15, kind

    def test_guaranteed_at_bohr_radius(self):
        coeffs = mobius_gamma_coeffs(0.9, 0.0)
        report = refined_functional(coeffs, MONOMIAL, 1.0, 0, 0.0, 1.0 / 3.0)
        assert report.satisfied

    def test_even_weights_guarantee(self):
        # even weights, p = 1, disk: radius sqrt(1/3)
        coeffs = mobius_gamma_coeffs(0.99, 0.0)
        report = refined_functional(coeffs, EVEN_ONLY, 1.0, 0, 1.0, math.sqrt(1.0 / 3.0))
        assert report.satisfied

    def test_shifted_series_needs_vanishing_head(self):
        with pytest.raises(DomainError):
            refined_functional(CoeffSeries((0.5, 0.2)), MONOMIAL, 1.0, 1, 0.0, 0.3)

    def test_p_domain(self):
        with pytest.raises(DomainError):
            refined_functional(UNIT, MONOMIAL, 2.5, 0, 0.0, 0.3)

    def test_guaranteed_at_solved_radius_for_every_builtin(self):
        # the refined functional must hold at its own solved radius
        for kind, phi in BUILTIN_PHI.items():
            problem = RadiusProblem(phi, 1.0, mu=MuFunction.constant(1.0))
            radius = radius_refined(problem).value
            for a in (0.3, 0.9, 0.999):
                coeffs = mobius_gamma_coeffs(a, 0.0)
                report = refined_functional(coeffs, phi, 1.0, 0, 1.0, radius)
                assert report.satisfied, (kind, a)


class TestRogosinskiFunctional:
    def test_zero_function(self):
        # the worst-case point bound stands in for ||f(w(z))||, so the
        # zero function scores r^m, comfortably below phi_0(r)
        report = rogosinski_functional(CoeffSeries((0.0,)), MONOMIAL, 1.0, 1, 1, 1.0, 0.4)
        assert report.satisfied
        assert report.value == pytest.approx(0.4, abs=1e-15)
        assert report.rhs == 1.0

    def test_equality_case(self):
        report = rogosinski_functional(UNIT, MONOMIAL, 1.0, 1, 1, 1.0, 0.3)
        assert abs(report.value - report.rhs) <= 1e-15

    def test_around_quadratic_root(self):
        # p = mu = N = 1, order 1: the radius solves (1-r)^2 = 2(1+r) r,
        # whose positive root is sqrt(5) - 2 (quadratic-formula oracle)
        root = math.sqrt(5.0) - 2.0
        assert abs((1 - root) ** 2 - 2 * (1 + root) * root) < 1e-14
        coeffs = mobius_gamma_coeffs(0.99, 0.0)
        below = rogosinski_functional(coeffs, MONOMIAL, 1.0, 1, 1, 1.0, 0.17)
        assert below.satisfied
        above = rogosinski_functional(coeffs, MONOMIAL, 1.0, 1, 1, 1.0, 0.25)
        assert not above.satisfied

    def test_invalid_N(self):
        with pytest.raises(DomainError):
            rogosinski_functional(UNIT, MONOMIAL, 1.0, 0, 1, 1.0, 0.3)


class TestClassicalSuite:
    def test_bohr_guaranteed_at_third(self):
        coeffs = mobius_gamma_coeffs(0.9, 0.0)
        assert classical_functional(coeffs, 1.0 / 3.0, "bohr").satisfied

    def test_bohr_sharpness_past_third(self):
        coeffs = mobius_gamma_coeffs(0.99, 0.0)
        assert not classical_functional(coeffs, 0.4, "bohr").satisfied

    def test_paulsen_guaranteed_at_half(self):
        coeffs = mobius_gamma_coeffs(0.9, 0.0)
        assert classical_functional(coeffs, 0.5, "paulsen").satisfied

    def test_equality_cases(self):
        for variant in ("bohr", "paulsen", "kayumov_ponnusamy", "refined_square"):
            report = classical_functional(UNIT, 0.3, variant)
            assert abs(report.value - 1.0) <= 1e-15, variant
        for variant in ("rogosinski_partial", "bohr_rogosinski"):
            report = classical_functional(UNIT, 0.3, variant, N=1)
            assert abs(report.value - 1.0) <= 1e-15, variant

    def test_refined_square_guaranteed_at_third(self):
        coeffs = mobius_gamma_coeffs(0.99, 0.0)
        assert classical_functional(coeffs, 1.0 / 3.0, "refined_square").satisfied

    def test_kayumov_ponnusamy_holds_for_family(self):
        for a in (0.3, 0.9, 0.999):
            coeffs = mobius_gamma_coeffs(a, 0.0)
            assert classical_functional(coeffs, 1.0 / 3.0, "kayumov_ponnusamy").satisfied

    @pytest.mark.parametrize("r, q", GRID)
    def test_geometric_continuations_match_mp_reference(self, r, q):
        coeffs = CoeffSeries(mp_sums.NORMS, 0, q)
        assert mp_sums.close(classical_functional(coeffs, r, "kayumov_ponnusamy").value,
                             mp_sums.kayumov_ponnusamy(coeffs, r))
        weight = 1.0 / (1.0 + mp_sums.NORMS[0]) + r / (1.0 - r)
        want = (mp_sums.majorant(coeffs, "monomial", r)
                + weight * mp_sums.energy(coeffs, r))
        assert mp_sums.close(classical_functional(coeffs, r, "refined_square").value,
                             want, 1e-12 * (1.0 + weight))

    def test_partial_variants_require_N(self):
        coeffs = mobius_gamma_coeffs(0.5, 0.0)
        for variant in ("rogosinski_partial", "bohr_rogosinski"):
            with pytest.raises(ConfigurationError):
                classical_functional(coeffs, 0.3, variant)

    @pytest.mark.parametrize("variant", ["rogosinski_partial", "bohr_rogosinski"])
    @pytest.mark.parametrize("N", [0, -3])
    def test_partial_variants_reject_N_below_one(self, variant, N):
        with pytest.raises(DomainError, match="^N must be at least 1$"):
            classical_functional(mobius_gamma_coeffs(0.5, 0.0), 0.3, variant, N=N)

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            classical_functional(UNIT, 0.3, "landau")

    def test_partial_modulus_respects_rogosinski_radius(self):
        # exact circle scan for the extremal family: partial sums stay
        # inside the closed disk up to r = 1/2
        for a in (0.3, 0.7, 0.95):
            for N in (1, 2, 5):
                assert mobius_partial_modulus(a, 0.0, N, 0.5) <= 1.0 + 1e-12

    def test_partial_modulus_bounded_by_majorant_surrogate(self):
        for a in (0.4, 0.8):
            coeffs = mobius_gamma_coeffs(a, 0.0)
            for N in (2, 4):
                exact = mobius_partial_modulus(a, 0.0, N, 0.45)
                surrogate = classical_functional(coeffs, 0.45,
                                                 "rogosinski_partial", N=N).value
                assert exact <= surrogate + 1e-12


class TestMonotonicityInRadius:
    def test_every_functional_is_nondecreasing_in_r(self):
        coeffs = mobius_gamma_coeffs(0.8, 0.0)
        grids = [0.05 * k for k in range(19)]  # up to 0.9

        def values(fn):
            return [fn(r) for r in grids]

        for fn in (
            lambda r: bohr_area_functional(coeffs, r).value,
            lambda r: bohr_beta_functional(coeffs, r, 0.25).value,
            lambda r: bohr_energy_functional(coeffs, r).value,
            lambda r: refined_functional(coeffs, MONOMIAL, 1.0, 0, 1.0, r).value,
            lambda r: rogosinski_functional(coeffs, MONOMIAL, 1.0, 1, 1, 1.0, r).value,
            lambda r: classical_functional(coeffs, r, "bohr").value,
        ):
            vals = values(fn)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestGuaranteeSweep:
    def test_blends_and_family_at_base_radius(self):
        # lambda_H = 1 (unit disk): all three improved functionals hold
        # at r = 1/3 for scalar-head blends and the extremal family
        rng = np.random.default_rng(5150)
        subjects = [common_blend(rng) for _ in range(100)]
        subjects += [mobius_gamma_coeffs(a, 0.0)
                     for a in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)]
        r = 1.0 / 3.0
        for coeffs in subjects:
            assert bohr_area_functional(coeffs, r, 1.0, 2).satisfied
            assert bohr_beta_functional(coeffs, r, 0.25).satisfied
            assert bohr_energy_functional(coeffs, r, 1.0).satisfied


class TestBlaschkeSweep:
    """Unit-ball test subjects beyond the Mobius family.

    Finite Blaschke products are extreme points of the unit ball with a
    scalar head coefficient, so every disk-case guarantee must hold for
    them; their coefficient norms come from an FFT, independent of all
    series code under test.
    """

    def _subjects(self):
        rng = np.random.default_rng(31415)
        for _ in range(40):
            degree = int(rng.integers(1, 5))
            radii = rng.uniform(0.05, 0.9, size=degree)
            angles = rng.uniform(0.0, 2.0 * math.pi, size=degree)
            zeros = radii * np.exp(1j * angles)
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            yield blaschke_norms(zeros, phase)

    def test_fft_extraction_matches_known_coefficients(self):
        # single zero at -a: the product is (z + a)/(1 + a z) with
        # |c_0| = a, |c_n| = (1 - a^2) a^{n-1}
        got = blaschke_norms([-0.6])
        want = mobius_gamma_coeffs(0.6, 0.0)
        for n in range(20):
            assert got.norm(n) == pytest.approx(want.norm(n), abs=1e-12)

    def test_cauchy_bound(self):
        for coeffs in self._subjects():
            assert max(coeffs.norms) <= 1.0 + 1e-12

    def test_disk_guarantees_at_base_radius(self):
        r = 1.0 / 3.0
        for coeffs in self._subjects():
            assert bohr_area_functional(coeffs, r, 1.0, 2).satisfied
            assert bohr_beta_functional(coeffs, r, 0.25).satisfied
            assert bohr_energy_functional(coeffs, r, 1.0).satisfied
            assert classical_functional(coeffs, r, "bohr").satisfied
            assert classical_functional(coeffs, r, "refined_square").satisfied

    def test_paulsen_at_half(self):
        for coeffs in self._subjects():
            assert classical_functional(coeffs, 0.5, "paulsen").satisfied

    def test_rogosinski_guarantee(self):
        root = math.sqrt(5.0) - 2.0
        for coeffs in self._subjects():
            report = rogosinski_functional(coeffs, MONOMIAL, 1.0, 1, 1, 1.0,
                                           root - 0.005)
            assert report.satisfied


class TestSharpnessProbe:
    def test_no_witness_below_bohr_radius(self):
        problem = RadiusProblem(MONOMIAL, 1.0)
        r = 1.0 / 3.0 - 0.02
        assert sharpness_probe(problem, r, (0.9, 0.99, 0.999)) is None

    def test_witness_above_bohr_radius(self):
        problem = RadiusProblem(MONOMIAL, 1.0)
        r = 1.0 / 3.0 + 0.02
        witness = sharpness_probe(problem, r, (0.9, 0.99, 0.999))
        assert witness is not None and witness >= 0.99

    def test_radius_itself_is_inclusive(self):
        problem = RadiusProblem(MONOMIAL, 1.0)
        assert sharpness_probe(problem, 1.0 / 3.0, DEFAULT_A_GRID) is None

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.5, math.nan])
    def test_radius_outside_the_open_interval_is_refused(self, r):
        with pytest.raises(DomainError, match=rf"^r must lie in \(0, 1\), got {r}$"):
            sharpness_probe(RadiusProblem(MONOMIAL, 1.0), r)


class TestFamilyGamma:
    def test_omega_gamma_keeps_its_own_gamma(self):
        assert family_gamma(DomainSpec.omega_gamma(0.4)) == 0.4

    def test_the_disk_is_gamma_zero(self):
        assert family_gamma(DomainSpec.disk()) == 0.0

    # a domain given by lambda_h has no family, lambda_h = 1 included: the disk is gamma = 0
    @pytest.mark.parametrize("lambda_h", [1.0, 2.0])
    def test_general_lambda_has_no_family(self, lambda_h):
        with pytest.raises(ConfigurationError, match="^no extremal family is constructible "
                                                     "for a general lambda_h$"):
            family_gamma(DomainSpec.general(lambda_h))


class TestPerFunctionRadius:
    def test_q_one_matches_functional_crossing(self):
        coeffs = mobius_gamma_coeffs(0.9, 0.0)
        r_hat = per_function_radius(coeffs, MONOMIAL, 1.0, 1.0)
        below = refined_functional(coeffs, MONOMIAL, 1.0, 0, 0.0, r_hat - 1e-6)
        above = refined_functional(coeffs, MONOMIAL, 1.0, 0, 0.0, min(r_hat + 1e-6, 0.999999))
        assert below.satisfied and not above.satisfied

    def test_larger_q_does_not_shrink_the_radius(self):
        # the inner sum is < 1 near the crossing, so raising q relaxes it
        coeffs = mobius_gamma_coeffs(0.9, 0.0)
        r1 = per_function_radius(coeffs, MONOMIAL, 1.0, 1.0)
        r2 = per_function_radius(coeffs, MONOMIAL, 1.0, 2.0)
        assert r2 >= r1 - 1e-9


class TestMuFunction:
    def test_constant_and_callable(self):
        assert MuFunction.constant(2.0)(0.3) == 2.0
        ramp = MuFunction.of(lambda r: 3.0 * r)
        assert ramp(0.5) == 1.5

    def test_rejects_negative(self):
        with pytest.raises(DomainError, match=r"^mu must lie in \[0, inf\), got -1.0$"):
            MuFunction.constant(-1.0)
        # the 65-point screen runs the check of a call, and raises as it does
        with pytest.raises(DomainError, match=r"^mu\(0.0\) = -0.1 is not finite and non-negative$"):
            MuFunction.of(lambda r: -r - 0.1)

    @pytest.mark.parametrize("evaluate", [
        lambda coeffs, mu: refined_functional(coeffs, MONOMIAL, 1.0, 0, mu, 0.3),
        lambda coeffs, mu: rogosinski_functional(coeffs, MONOMIAL, 1.0, 1, 1, mu, 0.3),
    ])
    def test_bare_callable_is_screened_on_every_call(self, evaluate):
        # a bare callable is input from outside, so each call screens it at
        # 65 points before its one evaluation; a MuFunction was screened once
        calls = []

        def mu(r):
            calls.append(r)
            return 1.0
        coeffs = mobius_gamma_coeffs(0.5, 0.0)
        evaluate(coeffs, mu)
        assert len(calls) == 66
        wrapped = MuFunction.of(mu)
        calls.clear()
        evaluate(coeffs, wrapped)
        assert calls == [0.3]


class TestFunctionalReport:
    def test_satisfied_iff_margin_above_tolerance(self):
        from bohrad import FunctionalReport

        assert FunctionalReport.compare(1.0, 1.0).satisfied
        assert FunctionalReport.compare(1.0 + 5e-13, 1.0).satisfied
        assert not FunctionalReport.compare(1.0 + 5e-12, 1.0).satisfied
        report = FunctionalReport.compare(0.4, 1.0)
        assert report.margin == pytest.approx(0.6, abs=1e-15)


def family_sums(a, gamma, kind, m, r, count=1):
    """The seven sums on the extremal family (a, gamma), stored with ``count`` norms past A_0.

    majorant, s_r and the refined functional take the family shifted by
    m; Rogosinski takes the disk family with N = omega_order = m + 1.
    """
    phi, lam = BUILTIN_PHI[kind], 1.0 / (1.0 + gamma)
    coeffs = mobius_gamma_coeffs(a, gamma, count)
    shifted = coeffs.shifted(m)
    return {
        "majorant": majorant(shifted, phi, r),
        "s_r": s_r(shifted, r),
        "energy": bohr_energy_functional(coeffs, r, lam).value,
        "beta": bohr_beta_functional(coeffs, r, 0.25 * lam).value,
        "area": bohr_area_functional(coeffs, r, lam, m + 1).value,
        "refined": refined_functional(shifted, phi, 1.5, m, 2.0, r).value,
        "rogosinski": rogosinski_functional(mobius_gamma_coeffs(a, 0.0, count), phi,
                                            1.5, m + 1, m + 1, 2.0, r).value,
    }


def mp_family_sums(a, gamma, kind, m, r):
    """family_sums of the two-norm family, from the 40-digit references."""
    coeffs = mobius_gamma_coeffs(a, gamma)
    return mp_series_sums(coeffs, coeffs.shifted(m), mobius_gamma_coeffs(a, 0.0),
                          1.0 / (1.0 + gamma), kind, m, r)


def mp_series_sums(coeffs, shifted, disk, lam, kind, m, r):
    """family_sums' functionals of coeffs (shifted: coeffs shifted by m), from the
    40-digit references; Rogosinski's reads disk."""
    mp = mp_sums.mp
    with mp.workdps(mp_sums.DPS):
        L, r_, a0 = mp.mpf(lam), mp.mpf(r), mp.mpf(coeffs.norm(0))
        bohr = mp_sums.majorant(coeffs, "monomial", r)
        weight = (1 + L) / (2 * L * (1 + a0)) + 2 * (1 + L) * r_ / (3 * (1 - r_))
        base = ((1 + L) / (1 + 2 * L)) ** 2
        dirichlet = mp_sums.s_r(coeffs, r)
        am, phi_m = mp.mpf(shifted.norm(m)), mp_sums.phi(kind, m, r_)
        head = (disk.norm(0) + r_ ** (m + 1)) / (1 + disk.norm(0) * r_ ** (m + 1))
        return {
            "majorant": mp_sums.majorant(shifted, kind, r),
            "s_r": mp_sums.s_r(shifted, r),
            "energy": bohr + weight * mp_sums.energy(coeffs, r),
            "beta": bohr + 0.25 * L * mp_sums.energy(coeffs, mp.sqrt(r_)),
            "area": bohr + sum((base * dirichlet) ** j for j in range(1, m + 2)),
            "refined": (phi_m * am ** mp.mpf(1.5) + mp_sums.majorant(shifted, kind, r)
                        - am * phi_m + 2 * mp_sums.refined_sum(shifted, kind, m, r)),
            "rogosinski": (head ** mp.mpf(1.5) * mp_sums.phi(kind, 0, r_)
                           + 2 * mp_sums.majorant(disk, kind, r, m + 1)),
        }


class TestTwoNormFamily:
    """The extremal family stores ||A_0||, ||A_1|| and q; sums add the rest in closed form."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-300, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True),
           st.floats(0.0, 0.999, exclude_max=True), st.integers(0, 3),
           st.sampled_from(sorted(BUILTIN_PHI)))
    # a subnormal majorant (6.27e-312): the two sums differ by one subnormal
    # ulp, and the two-norm one is the correctly rounded value
    @example(0.9999999999999999, 0.9999999999999999, 5.007993330354985e-156, 0, "even_only")
    def test_sums_equal_the_64_norm_family(self, a, gamma, r, m, kind):
        # a prefix whose powers underflow stops early (see
        # test_prefix_stops_before_underflow_and_keeps_every_term); below
        # about 5e-310 a relative 1e-14 would ask for bit equality, so a few
        # subnormal ulps are allowed
        short = family_sums(a, gamma, kind, m, r)
        long = family_sums(a, gamma, kind, m, r, 64)
        for name, want in long.items():
            assert abs(short[name] - want) <= 1e-14 * abs(want) + 4 * math.ulp(0.0), name

    @pytest.mark.parametrize("kind", sorted(BUILTIN_PHI))
    @pytest.mark.parametrize("a, gamma", [(0.3, 0.0), (0.9, 0.5), (0.999, 0.0),
                                          (0.999, 0.9), (1.0 - 1e-6, 0.3)])
    def test_sums_match_mp_reference(self, kind, a, gamma):
        for r in (0.3, 0.9, 0.99):
            for m in (0, 2):
                got = family_sums(a, gamma, kind, m, r)
                want = mp_family_sums(a, gamma, kind, m, r)
                for name in got:
                    assert mp_sums.close(got[name], want[name]), (name, r, m)

    def test_prefix_stops_before_underflow_and_keeps_every_term(self):
        # q = a: a^2 underflows, so a 64-norm prefix would store ||A_2|| = 0,
        # end in a zero norm and drop every even term; it stops at ||A_1||
        a, r = 3.0536614991083513e-189, 0.5
        want = mp_sums.majorant(mobius_gamma_coeffs(a, 0.0), "even_only", r)
        assert mp_sums.close(majorant(mobius_gamma_coeffs(a, 0.0), EVEN_ONLY, r), want, 0.0)
        assert mobius_gamma_coeffs(a, 0.0, 64) == mobius_gamma_coeffs(a, 0.0)
        assert mp_sums.close(majorant(mobius_gamma_coeffs(a, 0.0, 64), EVEN_ONLY, r), want, 0.0)


def seeded_blend(seed):
    """1-8 phased entries: even seeds share one parameter, odd ones draw distinct ones."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    if seed % 2:  # a largest parameter near 1 with near neighbours crosses over late
        b = float(rng.uniform(0.9, 0.999))
        params = (b,) + tuple(float(b * rng.uniform(0.97, 1.0) if rng.random() < 0.5
                                    else rng.uniform(0.01, b)) for _ in range(d - 1))
    else:
        params = (float(rng.uniform(0.05, 0.995)),) * d
    phases = tuple(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(d))
    return MatrixCoeffFn(params, phases)


def crossover(params):
    """The first index k >= 1 from which the largest parameter's entry dominates each
    smaller one's, (1 - b^2) b^(n-1) >= (1 - a^2) a^(n-1), found by a scan from 1."""
    b, k = max(params), 1
    for a in set(params) - {b}:
        n = 1
        while (1.0 - b * b) * b ** (n - 1) < (1.0 - a * a) * a ** (n - 1):
            n += 1
        k = max(k, n)
    return k


def closed_form_norms(params, last):
    """(||A_0||, .., ||A_last||) of a diagonal blend, one closed-form expression per
    entry: max a_i at n = 0 and max (1 - a_i^2) a_i^(n-1) after."""
    return (max(params),) + tuple(max((1.0 - a * a) * a ** (n - 1) for a in params)
                                  for n in range(1, last + 1))


def long_prefix(fn):
    """The blend's norms to index max(64, crossover), stored explicitly, then geometric."""
    last = max(64, crossover(fn.params))
    return CoeffSeries(closed_form_norms(fn.params, last), 0, max(fn.params))


def blend_sums(coeffs, m, r):
    """Every functional a blend feeds: majorant, s_r and the refined sums of the blend
    shifted by m, the kind-free functionals, and Rogosinski with N = m + 1."""
    shifted = coeffs.shifted(m)
    values = {"s_r": s_r(shifted, r), "energy": bohr_energy_functional(coeffs, r).value,
              "beta": bohr_beta_functional(coeffs, r, 0.25).value,
              "area": bohr_area_functional(coeffs, r, 1.0, m + 1).value}
    for kind, phi in BUILTIN_PHI.items():
        values[f"{kind} majorant"] = majorant(shifted, phi, r)
        values[f"{kind} refined"] = refined_functional(shifted, phi, 1.5, m, 2.0, r).value
        values[f"{kind} refined_sum"] = refined_sum(shifted, phi, m, r)
        values[f"{kind} rogosinski"] = rogosinski_functional(coeffs, phi, 1.5, m + 1, 1, 2.0,
                                                             r).value
    return values


class TestShortBlendPrefix:
    """A blend stores ||A_0|| .. ||A_k|| to its crossover k; sums add the rest in closed form."""

    @pytest.fixture(scope="class")
    def blends(self):
        from test_series_golden import BLENDS
        return [seeded_blend(seed) for seed in range(40)] + [BLENDS["wide"]]

    def test_prefix_ends_at_the_crossover(self, blends):
        late = 0
        for fn in blends:
            k = crossover(fn.params)
            assert diag_blend_coeffs(fn).last_index == k, fn
            late += k > 64
        assert late > 0

    def test_sums_equal_the_64_norm_blend(self, blends):
        rng = np.random.default_rng(5)
        for fn in blends:
            r, m = float(rng.uniform(0.05, 0.95)), int(rng.integers(0, 3))
            short = blend_sums(diag_blend_coeffs(fn), m, r)
            long = blend_sums(long_prefix(fn), m, r)
            for name, want in long.items():
                assert short[name] == pytest.approx(want, rel=1e-15, abs=0.0), (name, fn, r, m)

    def test_coefficient_bound_check_is_the_64_norm_check(self, blends):
        outcomes = set()
        for domain in (DomainSpec.disk(), DomainSpec.omega_gamma(0.3), DomainSpec.general(3.0)):
            for fn in blends:
                for m in (0, 2):
                    short = check_coeff_bound(diag_blend_coeffs(fn).shifted(m), domain)
                    long = check_coeff_bound(long_prefix(fn).shifted(m), domain)
                    assert ((short.passed, short.first_violation)
                            == (long.passed, long.first_violation)), (fn, domain, m)
                    if len(set(fn.params)) == 1:  # ||A_0|| and ||A_1|| stored
                        assert short.checked == 1
                    outcomes.add(short.passed)
        assert outcomes == {True, False}


# (n + 1) r^n as a custom kind, with and without its closed-form tail
CUSTOM_LINEAR = [
    PhiSequence("custom", custom_term=lambda n, r: (n + 1) * r**n,
                custom_tail=lambda N, r: r**N * ((N + 1) / (1.0 - r) + r / (1.0 - r) ** 2)),
    PhiSequence("custom", custom_term=lambda n, r: (n + 1) * r**n),
]


class TestTwoNormFamilyCustomWeights:
    """Sums without a closed form add continuation terms: two stored norms must act as 64."""

    @staticmethod
    def outcomes(coeffs, phi, m, r):
        """majorant and refined_sum with phi; None if they raise."""
        sums = (lambda: majorant(coeffs, phi, r), lambda: refined_sum(coeffs, phi, m, r))
        found = []
        for total in sums:
            try:
                found.append(total())
            except NonConvergenceError:
                found.append(None)
        return found

    def assert_same_outcomes(self, a, gamma, m, phi, r):
        short = self.outcomes(mobius_gamma_coeffs(a, gamma).shifted(m), phi, m, r)
        long = self.outcomes(mobius_gamma_coeffs(a, gamma, 64).shifted(m), phi, m, r)
        for x, want in zip(short, long):
            assert (x is None) == (want is None), (a, gamma, m, r)
            if want is not None:  # sums near 1e4 round at a few ulp above ABS_TOL
                assert abs(x - want) <= max(ABS_TOL, 4 * math.ulp(want)), (a, gamma, m, r)
        return short

    def test_closed_tail_outcomes_match_the_64_norm_family(self):
        outcomes = [x for a in np.linspace(0.9, 0.999, 12).tolist()
                    for gamma in (0.0, 0.5)
                    for m in (0, 2)
                    for r in (0.9, 0.99, 0.995)
                    for x in self.assert_same_outcomes(a, gamma, m, CUSTOM_LINEAR[0], r)]
        # the grid holds both outcomes
        assert None in outcomes and any(x is not None for x in outcomes)

    @pytest.mark.parametrize("a, r", [(0.5, 0.5), (0.94, 0.9), (0.99, 0.5), (0.99, 0.95)])
    def test_truncated_tail_outcomes_match_the_64_norm_family(self, a, r):
        self.assert_same_outcomes(a, 0.0, 0, CUSTOM_LINEAR[1], r)

    @pytest.mark.parametrize("a, r", [(0.5, 0.5), (0.9, 0.9)])
    def test_truncated_tail_costs_what_64_norms_cost(self, a, r):
        # the bound, TRUNCATION_N custom_term calls per index, is first checked
        # where 64 stored norms end, not at index 2
        calls = []
        phi = PhiSequence("custom", custom_term=lambda n, r: calls.append(n) or (n + 1) * r**n)
        counts = []
        for count in (1, 64):
            calls.clear()
            majorant(mobius_gamma_coeffs(a, 0.0, count), phi, r)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_truncated_tail_is_summed_only_where_the_term_meets_the_bound(self):
        # 171 terms; a 512-term tail at each of the 107 indices checked from 65
        # cost 54,955 calls, where only the stop index needs one
        calls = []
        phi = PhiSequence("custom", custom_term=lambda n, r: calls.append(n) or (n + 1) * r**n)
        assert majorant(mobius_gamma_coeffs(0.9, 0.0), phi, 0.9) == 6.536842105263115
        assert len(calls) <= 7000

    def test_two_norms_reach_as_far_as_64(self):
        # 547 continuation terms (indices 2 to 548): more than TRUNCATION_N
        value = majorant(mobius_gamma_coeffs(0.94, 0.0), CUSTOM_LINEAR[0], 0.99)
        want = mp_sums.majorant(mobius_gamma_coeffs(0.94, 0.0), "weighted_linear", 0.99)
        assert mp_sums.close(value, want)


def outcome(call):
    """repr of call()'s result, or the type and message of the exception it raised."""
    try:
        return repr(call())
    except Exception as exc:  # every outcome is compared, raised ones by type and message
        return type(exc), str(exc)


def refined_composition(coeffs, phi, p, m, mu, r):
    """The refined functional composed from the public sums, its tail summed from m + 1;
    the refinement term is summed first, as refined_at sums it, so a failing sum raises
    the same message."""
    am, phi_m = coeffs.norm(m), phi_term(phi, m, r)
    refined = refined_sum(coeffs, phi, m, r)
    value = (phi_m * am**p + norm_sum(coeffs, phi_weight(phi, r), m + 1)
             + MuFunction.of(mu)(r) * refined)
    return FunctionalReport.compare(value, phi_m)


def rogosinski_composition(coeffs, phi, p, N, k, mu, r):
    """The Bohr-Rogosinski functional composed from the public sums, its tail from N."""
    head = schwarz_composed_bound(coeffs, k, r) ** p * phi_term(phi, 0, r)
    tail = norm_sum(coeffs, phi_weight(phi, r), max(N, coeffs.start_index))
    value = head + MuFunction.of(mu)(r) * tail
    return FunctionalReport.compare(value, phi_term(phi, 0, r))


def refined_by_subtraction(coeffs, phi, p, m, mu, r):
    """(value, scale): the refined value as the whole majorant minus its head term, and
    that majorant, whose round-off the subtraction keeps."""
    am, phi_m = coeffs.norm(m), phi_term(phi, m, r)
    total = majorant(coeffs, phi, r)
    value = (phi_m * am**p + (total - am * phi_m)
             + MuFunction.of(mu)(r) * refined_sum(coeffs, phi, m, r))
    return value, max(value, total)


def rogosinski_by_truncation(coeffs, phi, p, N, k, mu, r):
    """(value, scale): the Bohr-Rogosinski value with its tail taken as the majorant of a
    copy truncated from N, and that value."""
    head = schwarz_composed_bound(coeffs, k, r) ** p * phi_term(phi, 0, r)
    value = head + MuFunction.of(mu)(r) * majorant(coeffs.truncated_from(N), phi, r)
    return value, value


# The tail summed from its own first index and the composition that sums the whole
# majorant and subtracts its head (or sums a truncated copy) round differently: they
# agree within REFINED_ULPS ulp of the larger of the value and the majorant, and within
# ROGOSINSKI_ULPS ulp of the value (mu <= 4 scales the tail's own few ulp).
REFINED_ULPS, ROGOSINSKI_ULPS = 4, 8


def assert_agrees_within_ulps(report_call, old_call, ulps, whole_sum):
    """report_call() and old_call() raise the same type, or the report's value lies within
    ulps ulp of old_call()'s scale from its value.

    One difference is allowed: a copy truncated past the stored norms stores its first
    norm, and when that norm underflows to 0.0 the copy ends there, while the series
    itself goes on.  report_call() may then raise NonConvergenceError where the old
    composition returned, if whole_sum(), the majorant of that series, raises it too.
    """
    try:
        old, scale = old_call()
    except Exception as exc:  # the same inputs raise the same type
        assert outcome(report_call)[0] is type(exc)
        return
    try:
        value = report_call().value
    except NonConvergenceError:
        with pytest.raises(NonConvergenceError):
            whole_sum()
        return
    assert abs(value - old) <= ulps * math.ulp(scale)


BOUND_PHI = {**BUILTIN_PHI, "custom": CUSTOM_MONOMIAL[0], "custom_tail": CUSTOM_MONOMIAL[1]}
UNIT_INTERVAL = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
FAMILY_A = st.one_of(st.floats(1e-300, 1.0, exclude_max=True), st.just(1.0 - 1e-6))
MU = st.one_of(st.floats(0.0, 4.0), st.sampled_from(["wrapped", "bare"]))


def callable_mu(mu, fn):
    """mu itself if a constant; else fn wrapped in a MuFunction, or bare."""
    return {"wrapped": MuFunction(fn=fn), "bare": fn}.get(mu, mu)


class TestBoundFunctionals:
    """The binders refined_at/rogosinski_at, and problem_functional, which binds their
    checks and r-only values at r and then evaluates the extremal family at each a."""

    @settings(max_examples=250, deadline=None)
    @given(st.sampled_from(sorted(BOUND_PHI)), FAMILY_A,
           st.one_of(st.just(0.0), UNIT_INTERVAL), UNIT_INTERVAL, st.integers(0, 5),
           st.floats(0.0, 2.0, exclude_min=True), MU)
    @example("monomial", 1.0 - 1e-6, 0.0, 0.999, 0, 1.0, 1.0)
    @example("custom", 1.0 - 1e-6, 0.5, 0.3, 5, 0.5, "wrapped")
    # each branch of problem_functional's per-a evaluator for a built-in weight: a scale
    # that overflows, m = 0 and 5, gamma = 0.99, a = 1 - 1e-6, and ||A_{m+1}|| = 0.0
    # (q underflows), where the series ends and no tail is added
    @example("monomial", 1e-310, 0.0, 0.5, 0, 1.0, 1.0)
    @example("odd_only", 1e-310, 0.99, 0.5, 1, 1.0, "bare")
    @example("weighted_linear", 0.9, 0.3, 0.4, 0, 1.5, 2.0)
    @example("weighted_quadratic", 0.95, 0.5, 0.3, 5, 0.7, "bare")
    @example("even_only", 0.999, 0.99, 0.6, 2, 1.0, 1.0)
    @example("odd_only", 1.0 - 1e-6, 0.99, 0.95, 5, 2.0, "wrapped")
    @example("weighted_linear", 1e-308, 1.0 - 2.0**-53, 0.5, 1, 1.3, 2.0)
    def test_refined_is_the_composition_bit_for_bit(self, kind, a, gamma, r, m, p, mu):
        phi = BOUND_PHI[kind]
        mu = callable_mu(mu, lambda t: 1.0 + t * t)
        family = lambda: mobius_gamma_coeffs(a, gamma).shifted(m)  # raised inside outcome
        want = outcome(lambda: refined_composition(family(), phi, p, m, mu, r))
        assert outcome(lambda: refined_functional(family(), phi, p, m, mu, r)) == want
        assert outcome(lambda: refined_at(phi, p, m, mu, r)(family())) == want
        problem = RadiusProblem(phi, p, m=m, mu=mu, domain=DomainSpec.omega_gamma(gamma))
        assert outcome(lambda: problem_functional(problem, r)(a)) == want
        assert_agrees_within_ulps(lambda: refined_functional(family(), phi, p, m, mu, r),
                                  lambda: refined_by_subtraction(family(), phi, p, m, mu, r),
                                  REFINED_ULPS, lambda: majorant(family(), phi, r))

    @settings(max_examples=250, deadline=None)
    @given(st.sampled_from(sorted(BOUND_PHI)), FAMILY_A,
           UNIT_INTERVAL, st.integers(1, 6), st.integers(1, 5),
           st.floats(0.0, 2.0, exclude_min=True), MU)
    @example("odd_only", 1.0 - 1e-6, 0.999, 1, 1, 2.0, 3.0)
    @example("custom", 4.341608328005024e-91, 0.96875, 5, 1, 1.0, 0.0)  # ||A_5|| underflows
    # each branch of the per-a evaluator for a built-in weight: a scale that overflows,
    # N = 1 (the stored ||A_1|| is summed) and N >= 2 (no stored norm), a = 1 - 1e-6
    @example("monomial", 1e-310, 0.5, 1, 1, 1.0, 1.0)
    @example("weighted_linear", 0.9, 0.4, 1, 2, 1.5, 0.5)
    @example("even_only", 0.95, 0.3, 3, 1, 0.8, "wrapped")
    @example("weighted_quadratic", 1.0 - 1e-6, 0.5, 4, 5, 1.0, "bare")
    def test_rogosinski_is_the_composition_bit_for_bit(self, kind, a, r, N, k, p, mu):
        phi = BOUND_PHI[kind]
        mu = callable_mu(mu, lambda t: 0.5 + t)
        family = lambda: mobius_gamma_coeffs(a, 0.0)  # raised inside outcome
        want = outcome(lambda: rogosinski_composition(family(), phi, p, N, k, mu, r))
        assert outcome(lambda: rogosinski_functional(family(), phi, p, N, k, mu, r)) == want
        assert outcome(lambda: rogosinski_at(phi, p, N, k, mu, r)(family())) == want
        problem = RadiusProblem(phi, p, m=k, N=N, mu=mu, equation_kind="rogosinski")
        assert outcome(lambda: problem_functional(problem, r)(a)) == want
        assert_agrees_within_ulps(lambda: rogosinski_functional(family(), phi, p, N, k, mu, r),
                                  lambda: rogosinski_by_truncation(family(), phi, p, N, k, mu,
                                                                   r),
                                  ROGOSINSKI_ULPS, lambda: majorant(family(), phi, r))

    # each input is invalid in one way; the types are those the functionals
    # raised before they were bound: a check moved into a binder raises as before
    BAD_TERM = PhiSequence("custom", custom_term=lambda n, r: -1.0 if n == 2 else r**n)
    SLOW = PhiSequence("custom", custom_term=lambda n, r: 1.0 / (n + 1) ** 2)
    DIP = MuFunction(fn=lambda r: -1.0 if 0.3 < r < 0.31 else 1.0)  # between screen points
    FAMILY = mobius_gamma_coeffs(0.6, 0.2)
    REFINED = [  # (phi, p, m, mu, r, coeffs or None for FAMILY)
        ((MONOMIAL, 0.0, 0, 1.0, 0.3, None), DomainError),
        ((MONOMIAL, 2.5, 0, 1.0, 0.3, None), DomainError),
        ((MONOMIAL, math.nan, 0, 1.0, 0.3, None), DomainError),
        ((MONOMIAL, 1.0, -1, 1.0, 0.3, None), DomainError),
        ((MONOMIAL, 1.0, 1.5, 1.0, 0.3, None), DomainError),
        ((MONOMIAL, 1.0, True, 1.0, 0.3, None), DomainError),
        ((MONOMIAL, 1.0, 0, -1.0, 0.3, None), DomainError),
        ((MONOMIAL, 1.0, 0, math.nan, 0.3, None), DomainError),
        ((MONOMIAL, 1.0, 0, lambda r: -r, 0.3, None), DomainError),
        ((MONOMIAL, 1.0, 0, DIP, 0.305, None), DomainError),
        ((MONOMIAL, 1.0, 0, 1.0, 1.0, None), DomainError),
        ((MONOMIAL, 1.0, 0, 1.0, -0.1, None), DomainError),
        ((MONOMIAL, 1.0, 0, 1.0, math.nan, None), DomainError),
        ((MONOMIAL, 1.0, 0, 1.0, True, None), DomainError),
        ((MONOMIAL, 1.0, 0, 1.0, "0.3", None), DomainError),
        ((MONOMIAL, 1.0, 0, 1.0, [0.3], None), DomainError),
        ((MONOMIAL, 1.0, 0, 1.0, None, None), DomainError),
        ((MONOMIAL, 1.0, 1, 1.0, 0.3, CoeffSeries((0.5, 0.2))), DomainError),
        ((BAD_TERM, 1.0, 2, 1.0, 0.3, FAMILY.shifted(2)), DomainError),
        ((BAD_TERM, 1.0, 0, 1.0, 0.3, None), DomainError),
        ((SLOW, 1.0, 0, 1.0, 0.3, None), NonConvergenceError),
    ]
    ROGOSINSKI = [  # (phi, p, N, omega_order, mu, r)
        ((MONOMIAL, 0.0, 1, 1, 1.0, 0.3), DomainError),
        ((MONOMIAL, 1.0, 0, 1, 1.0, 0.3), DomainError),
        ((MONOMIAL, 1.0, 1.0, 1, 1.0, 0.3), DomainError),
        ((MONOMIAL, 1.0, 1, 0, 1.0, 0.3), DomainError),
        ((MONOMIAL, 1.0, 1, True, 1.0, 0.3), DomainError),
        ((MONOMIAL, 1.0, 1, 1, -2.0, 0.3), DomainError),
        ((MONOMIAL, 1.0, 1, 1, DIP, 0.305), DomainError),
        ((MONOMIAL, 1.0, 1, 1, 1.0, 1.0), DomainError),
        ((MONOMIAL, 1.0, 1, 1, 1.0, [0.3]), DomainError),
        ((BAD_TERM, 1.0, 1, 1, 1.0, 0.3), DomainError),
        ((SLOW, 1.0, 1, 1, 1.0, 0.3), NonConvergenceError),
    ]

    @pytest.mark.parametrize("args, error", REFINED)
    def test_invalid_refined_input_raises_as_unbound(self, args, error):
        *args, coeffs = args
        coeffs = coeffs or self.FAMILY
        with pytest.raises(error):
            refined_functional(coeffs, *args)
        with pytest.raises(error):
            refined_at(*args)(coeffs)

    @pytest.mark.parametrize("args, error", ROGOSINSKI)
    def test_invalid_rogosinski_input_raises_as_unbound(self, args, error):
        with pytest.raises(error):
            rogosinski_functional(self.FAMILY, *args)
        with pytest.raises(error):
            rogosinski_at(*args)(self.FAMILY)

    @pytest.mark.parametrize("a, r", [(1.0, 0.3), (0.0, 0.3), (0.5, 1.0), (0.5, [0.3]),
                                      (0.5, None), (0.5, math.nan)])
    @pytest.mark.parametrize("kind", ["refined", "rogosinski"])
    def test_invalid_problem_functional_input_raises_domain_error(self, kind, a, r):
        # a bad r raises when the functional is bound, a bad a when it is evaluated
        problem = RadiusProblem(MONOMIAL, 1.0, m=1, mu=1.0, equation_kind=kind)
        with pytest.raises(DomainError):
            problem_functional(problem, r)(a)
        if r == 0.3:
            evaluate = problem_functional(problem, r)
            with pytest.raises(DomainError):
                evaluate(a)
            assert evaluate(0.5) == problem_functional(problem, 0.3)(0.5)

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(functionals, name)

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(functionals, name, counted)
        return calls

    # probes that find no violation, so every a of DEFAULT_A_GRID is evaluated
    GRID_PROBES = [
        (RadiusProblem(MONOMIAL, 1.0), 1.0 / 3.0 - 0.02),
        (RadiusProblem(EVEN_ONLY, 1.0, m=2, N=2, mu=1.0, equation_kind="rogosinski"), 0.05)]
    # the same weights as custom kinds, without a closed-form tail
    AS_CUSTOM = {"monomial": CUSTOM_MONOMIAL[0],
                 "even_only": PhiSequence("custom", custom_term=lambda n, r: (n + 1) % 2 * r**n)}

    @pytest.mark.parametrize("custom", [False, True], ids=["built-in", "custom"])
    @pytest.mark.parametrize("problem, r", GRID_PROBES, ids=["refined", "rogosinski"])
    def test_a_full_grid_probe_binds_once(self, monkeypatch, problem, r, custom):
        # per a, a built-in weight takes the family's three numbers and builds no series; a
        # custom one builds the series and sums it with norm_sum: its tail, and for a
        # refined problem its refinement term too
        if custom:
            problem = dataclasses.replace(problem, phi=self.AS_CUSTOM[problem.phi.kind])
        rogosinski = problem.equation_kind == "rogosinski"
        calls = [self.count_calls(monkeypatch, name) for name in (
            "_bind_rogosinski" if rogosinski else "_bind_refined", "phi_weight",
            "mobius_gamma_coeffs", "norm_sum")]
        builds, sums = (6, 6 if rogosinski else 12) if custom else (0, 0)
        assert sharpness_probe(problem, r) is None
        assert list(map(len, calls)) == [1, 1, builds, sums]
        evaluate = problem_functional(problem, r)
        assert all(evaluate(a).satisfied for a in DEFAULT_A_GRID)
        assert list(map(len, calls)) == [2, 2, 2 * builds, 2 * sums]

    def test_verify_refined_binds_once_per_radius(self, monkeypatch):
        binds = self.count_calls(monkeypatch, "_bind_refined")
        weights = self.count_calls(monkeypatch, "phi_weight")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", "--family", "refined"])
        summary = json.loads(out.getvalue())["summary"]
        assert (code, summary["checked"], summary["passed"]) == (0, 23, True)
        # r_below for the 23 values of a, r_above for the probe's grid
        bound_at = [args[-1] for args in binds]
        assert bound_at == pytest.approx([summary["r_below"], summary["r_above"]], rel=1e-8)
        assert len(weights) == 2

    def test_threads_sharing_a_bound_evaluator_get_the_serial_reports(self):
        problem = RadiusProblem(WEIGHTED_LINEAR, 1.5, m=1, mu=0.7,
                                domain=DomainSpec.omega_gamma(0.3))
        a_grid = [0.05 + 0.9 * k / 40 for k in range(40)] + list(DEFAULT_A_GRID)
        radii = (0.2, 0.35)
        serial = {r: [problem_functional(problem, r)(a) for a in a_grid] for r in radii}
        shared = {r: problem_functional(problem, r) for r in radii}
        results = {}

        def work(key, r):
            results[key] = [shared[r](a) for _ in range(20) for a in a_grid]
        # two threads per radius, more threads than cores, switching often
        threads = [threading.Thread(target=work, args=((r, i), r)) for r in radii for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (r, _), reports in results.items():
            assert reports == serial[r] * 20
        assert len(results) == 4


class TestTailsFromTheirFirstIndex:
    """The functionals sum a tail from its first index on the series itself, where they
    once summed a copy truncated from that index."""

    # past the stored norms the copy stores its first norm, norms[-1] q^(N - L), and its
    # closed form or continuation starts there: the two sums round apart by a few ulp
    # (4 on blends with weighted_quadratic weights near r = 1).  A custom weight's sum
    # stops once the rest is at most ABS_TOL, checked from CONTINUATION_FLOOR or from its
    # first unstored index; from N >= CONTINUATION_FLOOR that is N for the series and
    # N + 1 for the copy, so the two stop one term apart, both within ABS_TOL below the tail
    TAIL_ULPS = 4

    @staticmethod
    def series(rng):
        """A two-norm or longer-prefix extremal family (shifted or not), or a blend."""
        a = float(rng.uniform(0.05, 0.995))
        form = int(rng.integers(3))
        if form == 0:
            return mobius_gamma_coeffs(a, float(rng.uniform(0.0, 0.9)), int(rng.integers(1, 70)))
        if form == 1:
            return mobius_gamma_coeffs(a, 0.0).shifted(int(rng.integers(0, 5)))
        d = int(rng.integers(1, 5))
        return diag_blend_coeffs(MatrixCoeffFn(tuple(rng.uniform(0.05, 0.99, d))))

    @pytest.mark.parametrize("seed", range(3))
    def test_the_tail_from_n_is_the_truncated_copys_sum(self, seed):
        rng = np.random.default_rng(seed)
        stored = past = 0
        for _ in range(120):
            coeffs, kind = self.series(rng), str(rng.choice(sorted(BOUND_PHI)))
            r = float(rng.uniform(0.05, 0.9 if kind == "custom" else 0.999))
            weight = phi_weight(BOUND_PHI[kind], r)
            for N in range(1, coeffs.last_index + 4):
                tail = norm_sum(coeffs, weight, max(N, coeffs.start_index))
                copy = coeffs.truncated_from(N)
                want = norm_sum(copy, weight, copy.start_index)
                if N <= coeffs.last_index:  # the same stored norms and continuation
                    assert tail == want, (seed, kind, r, N, coeffs)
                    stored += 1
                else:
                    stop = ABS_TOL if kind.startswith("custom") and N >= CONTINUATION_FLOOR else 0
                    assert abs(tail - want) <= self.TAIL_ULPS * math.ulp(want) + stop, (kind, r, N)
                    past += 1
        assert stored > 1000 and past == 360  # N on both sides of the stored norms

    def test_no_functional_builds_a_truncated_copy(self, monkeypatch):
        def refuse(self, N):
            raise AssertionError(f"truncated_from({N}) called")
        series = (mobius_gamma_coeffs(0.9, 0.3), mobius_gamma_coeffs(0.9, 0.0, 8),
                  mobius_gamma_coeffs(0.6, 0.0).shifted(3),
                  diag_blend_coeffs(MatrixCoeffFn((0.3, 0.8, 0.5))))
        want = {(i, N): (rogosinski_at(WEIGHTED_LINEAR, 1.5, N, 2, 0.5, 0.4)(coeffs),
                         classical_functional(coeffs, 0.4, "bohr_rogosinski", N=N))
                for i, coeffs in enumerate(series) for N in (1, 2, 5, 12)}
        monkeypatch.setattr(CoeffSeries, "truncated_from", refuse)
        for (i, N), (bound, classical) in want.items():
            assert rogosinski_at(WEIGHTED_LINEAR, 1.5, N, 2, 0.5, 0.4)(series[i]) == bound
            assert classical_functional(series[i], 0.4, "bohr_rogosinski", N=N) == classical


class TestSlopeAtOneTiesFunctionalToEquation:
    """rhs - value(a) = (1 - a) kappa F(r) + O((1 - a)^2) on the extremal family.

    The functional (``problem_functional``) and the radius equation F
    (``radii``) code each theorem separately; this identity ties them at
    every r.  Refined: the Omega_gamma family shifted by m, with
    kappa = (1 + gamma)/(1 - gamma) and F = p phi_m - 2 lambda_H Phi_{m+1}
    (the refinement term is O((1 - a)^2)).  Rogosinski: the disk family,
    kappa = 1 and F = p (1 - r^m)/(1 + r^m) phi_0 - 2 mu Phi_N.
    """

    # a Richardson slope from 1 - a = 2e-5 and 4e-5 met kappa F within 5.1e-7 of
    # the scale below (the sum of F's two parts' sizes) on 4,000 seeded problems
    SLOPE_TOL = 2e-6

    @staticmethod
    def equation_value(problem, r):
        """F(r) of the library's equation; the refined one is bound as F/phi_m when
        ratio_form exists, so it is multiplied back."""
        if problem.equation_kind == "rogosinski":
            return radii.rogosinski_equation(problem)(r)
        value = radii.refined_equation(problem)(r)
        if phi_module.ratio_form(problem.phi, problem.m):
            value *= phi_term(problem.phi, problem.m, r)
        return value

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(BUILTIN_PHI)), st.booleans(), st.floats(0.05, 2.0),
           st.integers(0, 9), st.integers(1, 9), st.floats(0.0, 5.0),
           st.sampled_from([0.0, 0.3, 0.7]), st.floats(0.02, 0.6))
    def test_richardson_slope_is_kappa_times_F(self, kind, refined, p, m, N, mu, gamma, r):
        phi = BUILTIN_PHI[kind]
        if refined:
            problem = RadiusProblem(phi, p, m=m, mu=mu, domain=DomainSpec.omega_gamma(gamma))
            kappa = (1.0 + gamma) / (1.0 - gamma)
            two_lambda_h = 2.0 / (1.0 + gamma)
            scale = kappa * (p * phi_term(phi, m, r) + two_lambda_h * phi_tail(phi, m + 1, r))
        else:
            problem = RadiusProblem(phi, p, m=max(m, 1), N=N, mu=mu, equation_kind="rogosinski")
            kappa, rm = 1.0, r ** max(m, 1)
            scale = p * (1.0 - rm) / (1.0 + rm) + 2.0 * mu * phi_tail(phi, N, r)
        evaluate = problem_functional(problem, r)

        def gap_over_step(step):
            report = evaluate(1.0 - step)
            return (report.rhs - report.value) / step

        slope = 2.0 * gap_over_step(2e-5) - gap_over_step(4e-5)
        assert abs(slope - kappa * self.equation_value(problem, r)) <= self.SLOPE_TOL * scale
