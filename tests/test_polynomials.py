"""Polynomial calibration, peak weights, and monotone slack profiles."""

import math

import numpy as np
import pytest

from bohrad import (PolySpec, area_poly_coeffs, area_scale,
                    calibrate_area_poly, calibration_residual,
                    mobius_gamma_coeffs, monotonicity_check, peak_weight, s_r)
from bohrad import polynomials
from bohrad.errors import ConfigurationError, DomainError, InfeasibleError
from bohrad.polynomials import area_slack, beta_slack, recentered_slack


def grid_peak_oracle(s, points=1_000_000):
    """Brute-force maximum of a (1+a)^2 (1-a^2)^{2s-2} on [0, 1]."""
    best = 0.0
    for k in range(points + 1):
        a = k / points
        best = max(best, a * (1 + a) ** 2 * (1 - a * a) ** (2 * s - 2))
    return best


class TestAreaPolyCoeffs:
    def test_unit_lambda_degree_two(self):
        spec = area_poly_coeffs(1.0, 2)
        assert spec.coefficients[0] == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert spec.coefficients[1] == pytest.approx(16.0 / 81.0, abs=1e-15)

    def test_large_lambda_limit(self):
        spec = area_poly_coeffs(1e6, 1)
        assert spec.coefficients[0] == pytest.approx(0.25, abs=1e-6)

    def test_half_lambda(self):
        spec = area_poly_coeffs(0.5, 1)
        assert spec.coefficients[0] == pytest.approx(0.5625, abs=1e-15)

    def test_strict_geometric_decay(self):
        for lam in (0.25, 1.0, 3.0, 10.0):
            spec = area_poly_coeffs(lam, 5)
            ks = spec.coefficients
            assert all(0.0 < k < 1.0 for k in ks)
            assert all(b < a for a, b in zip(ks, ks[1:]))

    def test_evaluation_is_horner(self):
        spec = PolySpec((0.5, 0.25))
        assert spec(2.0) == pytest.approx(0.5 * 2 + 0.25 * 4, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            area_poly_coeffs(0.0, 1)
        with pytest.raises(ConfigurationError):
            PolySpec(())
        with pytest.raises(DomainError, match=r"^c must lie in \(0, inf\), got 0.0$"):
            PolySpec((0.0,))


class TestPeakWeight:
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_against_grid_oracle(self, s):
        assert abs(peak_weight(s) - grid_peak_oracle(s)) <= 1e-8

    def test_interior_maximum(self):
        # the factors a and (1 - a^2)^{2s-2} kill both endpoints
        for s in (2, 4):
            g = lambda a: a * (1 + a) ** 2 * (1 - a * a) ** (2 * s - 2)
            assert g(0.0) == g(1.0) == 0.0
            assert peak_weight(s) > 0.0

    def test_decreasing_in_s(self):
        values = [peak_weight(s) for s in range(2, 7)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_critical_point_derivative(self):
        from bohrad.polynomials import peak_point

        for s in (2, 3, 5):
            g = lambda a: a * (1 + a) ** 2 * (1 - a * a) ** (2 * s - 2)
            a_star, value = peak_point(s)
            h = 1e-7
            assert abs((g(a_star + h) - g(a_star - h)) / (2 * h)) <= 1e-6
            assert 0.0 < a_star < 1.0
            assert value == pytest.approx(g(a_star), abs=1e-14)

    @pytest.mark.parametrize("s", range(2, 12))
    def test_peak_point_is_the_closed_form(self, s):
        # (1 + a)^2 = 4 s a^2 at the critical point
        from bohrad.polynomials import peak_point

        g = lambda a: a * (1 + a) ** 2 * (1 - a * a) ** (2 * s - 2)
        a_star, value = peak_point(s)
        assert a_star == pytest.approx(1.0 / (2.0 * math.sqrt(s) - 1.0), rel=1e-15)
        assert value == pytest.approx(g(a_star), rel=1e-15)
        assert value >= max(g(a_star - 1e-6), g(a_star + 1e-6))

    def test_domain(self):
        with pytest.raises(DomainError):
            peak_weight(1)


class TestCalibration:
    def test_degree_one_closed_form(self):
        spec = calibrate_area_poly()
        assert spec.degree == 1
        assert spec.coefficients[0] == 8.0 / 9.0  # exact in doubles

    def test_tail_sum_half_gives_four_ninths(self):
        # choose c_2 so its constraint share is exactly 1/2
        c2 = 0.5 / (6.0 * peak_weight(2) * (3.0 / 8.0) ** 4)
        spec = calibrate_area_poly((c2,))
        assert spec.coefficients[0] == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_infeasible_tail(self):
        c2 = 1.5 / (6.0 * peak_weight(2) * (3.0 / 8.0) ** 4)
        with pytest.raises(InfeasibleError):
            calibrate_area_poly((c2,))

    def test_residual_vanishes_for_random_feasible_tails(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            degree = int(rng.integers(1, 5))
            tail = tuple(float(rng.uniform(0.01, 0.8)) for _ in range(degree - 1))
            try:
                spec = calibrate_area_poly(tail)
            except InfeasibleError:
                continue
            assert abs(calibration_residual(spec)) <= 1e-12

    def test_rejects_nonpositive_tail(self):
        with pytest.raises(DomainError, match=r"^c must lie in \(0, inf\), got 0.0$"):
            calibrate_area_poly((0.0,))


class TestAreaScale:
    def test_value_at_zero(self):
        assert area_scale(0.0) == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_vanishing_limit(self):
        assert area_scale(0.9999) <= 1e-3

    def test_decreasing(self):
        values = [area_scale(0.01 * k) for k in range(100)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_equals_radius_area_factor(self):
        # area_scale(g) = rho0/(1 - rho0^2) at rho0 = (1-g^2)/(3+g)
        for g in (0.0, 0.3, 0.7):
            rho0 = (1 - g * g) / (3 + g)
            assert area_scale(g) == pytest.approx(rho0 / (1 - rho0**2), rel=1e-13)


class TestMonotoneProfiles:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_area_slack_decreasing_with_zero_boundary(self, m, lam):
        report = monotonicity_check("area_poly", grid_size=1000, m=m, lambda_h=lam)
        assert report.passed
        assert report.direction == "decreasing"
        assert abs(area_slack(1.0, m)) <= 1e-12

    def test_area_slack_head_value(self):
        # J(0) = 16^m / 2 - (16^m - 1)/15
        for m in (1, 2, 3):
            want = 16.0**m / 2.0 - (16.0**m - 1.0) / 15.0
            assert area_slack(0.0, m) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_beta_slack_at_quarter_budget(self, lam):
        beta = 1.0 / (4.0 * lam)
        report = monotonicity_check("beta_square", grid_size=1000,
                                    lambda_h=lam, beta=beta)
        assert report.passed
        assert report.value_at_0 == pytest.approx(1.0 - lam * beta, abs=1e-15)
        assert abs(report.value_at_1) <= 1e-12

    def test_beta_slack_head_value_unit_case(self):
        assert beta_slack(0.0, 1.0, 0.25) == pytest.approx(0.75, abs=1e-15)

    def test_beta_slack_fails_outside_hypothesis(self):
        report = monotonicity_check("beta_square", grid_size=1000,
                                    lambda_h=1.0, beta=1.0)
        assert not report.passed  # beta > 1/(4 lambda): no guarantee

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_recentered_slack_increasing_with_zero_limit(self, gamma, degree):
        tail = tuple(0.1 for _ in range(degree - 1))
        spec = calibrate_area_poly(tail)
        report = monotonicity_check("recentered", grid_size=1000,
                                    gamma=gamma, spec=spec)
        assert report.passed
        assert report.direction == "increasing"
        assert abs(recentered_slack(1.0, gamma, spec)) <= 1e-12

    def test_recentered_check_computes_its_scale_once(self, monkeypatch):
        # work-counter guard: one area_scale for the check, not one per grid point
        spec = calibrate_area_poly((0.1,))
        calls = []
        scale = polynomials.area_scale
        monkeypatch.setattr(polynomials, "area_scale", lambda g: calls.append(g) or scale(g))
        report = monotonicity_check("recentered", grid_size=1000, gamma=0.3, spec=spec)
        assert calls == [0.3]
        # bit for bit the profile of recentered_slack, which takes gamma per point
        vals = [recentered_slack(k / 1000, 0.3, spec) for k in range(1001)]
        assert (report.value_at_0, report.value_at_1) == (vals[0], vals[-1])
        assert report.worst_gap == max(0.0, *(a - b for a, b in zip(vals, vals[1:])))

    @pytest.mark.parametrize("profile", ["area_poly", "beta_square"])
    @pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf])
    def test_lambda_h_outside_its_interval_raises(self, profile, lam):
        # beta_square at lambda_h = -1 reported passed=True; area_poly never read it
        with pytest.raises(DomainError, match=rf"^lambda_h must lie in \(0, inf\), got {lam}$"):
            monotonicity_check(profile, grid_size=10, lambda_h=lam)

    def test_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            monotonicity_check("quartic")

    def test_recentered_needs_spec(self):
        with pytest.raises(ConfigurationError):
            monotonicity_check("recentered")


class TestRecenteredEndToEnd:
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("a", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_majorant_plus_calibrated_poly_at_shifted_radius(self, gamma, a, degree):
        # the expansion about gamma has coefficients B_n / (1-gamma)^n,
        # so its majorant at rho0 = (1-g^2)/(3+g) sums the extremal
        # norms against (rho0/(1-g))^n = ((1+g)/(3+g))^n; adding the
        # calibrated polynomial of the Dirichlet sum must stay below 1
        tail = tuple(0.05 for _ in range(degree - 1))
        spec = calibrate_area_poly(tail)
        rho0 = (1 - gamma * gamma) / (3 + gamma)
        u = (1 + gamma) / (3 + gamma)
        coeffs = mobius_gamma_coeffs(a, gamma)
        weighted_majorant = math.fsum(coeffs.norm(n) * u**n for n in range(600))
        value = weighted_majorant + spec(s_r(coeffs, rho0))
        assert value <= 1.0 + 1e-10
