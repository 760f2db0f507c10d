"""Hyperbolic densities, circle integrals, and Bloch radii."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bohrad import (CoeffSeries, HyperbolicDensity, bloch, bloch_majorant_check,
                    bloch_radius, bloch_radius_gamma, bloch_refined_radius,
                    count_sign_changes, functionals, increasing_root, m_integral,
                    min_positive_root, phi, series)
from bohrad.bloch import (MAJORANT_THRESHOLD, REFINED_THRESHOLD, derivative_majorant,
                          gamma_equation_value)
from bohrad.errors import (DomainError, InvalidTestFunctionError, NonConvergenceError,
                           NoRootError, SingularIntegrandError)

import mp_sums

DISK = HyperbolicDensity.unit_disk()
OMEGAS = [HyperbolicDensity.omega_gamma(g) for g in (0.0, 0.3, 0.7, 0.9)]  # Omega_0 is DISK


def disk_mean(nu, r):
    """M(r) = r^2/(1 - r^2)^{2 nu} on the disk, with 1 - r^2 = (1 - r)(1 + r)."""
    return r * r / ((1.0 - r) * (1.0 + r)) ** (2.0 * nu)


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestCircleIntegral:
    def test_disk_closed_form(self):
        # nu = 1/2: M(r) = r^2/(1 - r^2) = 1/3 at r = 1/2
        assert m_integral(DISK, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_quadrature_matches_closed_form(self):
        # the disk's mean goes through the Omega_gamma series at gamma = 0
        for r in (0.2, 0.5, 0.8):
            for nu in (0.25, 0.5, 1.0):
                assert m_integral(DISK, nu, r) == pytest.approx(disk_mean(nu, r), rel=1e-15)

    def test_gamma_zero_reduces_to_disk(self):
        dens = HyperbolicDensity.omega_gamma(0.0)
        for r in (0.3, 0.6, 0.9):
            assert abs(m_integral(dens, 0.5, r) - disk_mean(0.5, r)) <= 1e-10

    def test_vanishes_at_origin(self):
        for dens in (DISK, HyperbolicDensity.omega_gamma(0.4)):
            assert m_integral(dens, 0.5, 0.0) == 0.0
            assert m_integral(dens, 0.5, 1e-6) <= 2e-12

    def test_custom_density_quadrature(self):
        dens = HyperbolicDensity.custom(lambda z: 1.0 / (1.0 - abs(z) ** 2))
        for r in (0.3, 0.7):
            assert abs(m_integral(dens, 0.5, r) - disk_mean(0.5, r)) <= 1e-9

    def test_against_adaptive_quadrature_oracle(self):
        from scipy.integrate import quad

        gamma, r = 0.5, 0.7
        dens = HyperbolicDensity.omega_gamma(gamma)
        for nu in (0.25, 0.5, 1.0):
            def integrand(t):
                w_sq = ((1 - gamma) ** 2 * r * r + gamma * gamma
                        + 2 * gamma * (1 - gamma) * r * math.cos(t))
                return ((1 - gamma) / (1 - w_sq)) ** (2 * nu)

            oracle, err = quad(integrand, 0.0, 2.0 * math.pi, limit=400,
                               epsabs=1e-12, epsrel=1e-12)
            oracle *= r * r / (2.0 * math.pi)
            assert err < 1e-8
            assert m_integral(dens, nu, r) == pytest.approx(oracle, abs=1e-9)

    def test_singular_custom_density(self):
        dens = HyperbolicDensity.custom(lambda z: 1.0 / (0.5 - abs(z)))
        with pytest.raises(SingularIntegrandError):
            m_integral(dens, 0.5, 0.7)

    def test_domain_checks(self):
        for r in (1.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                m_integral(HyperbolicDensity.omega_gamma(0.3), 0.5, r)
        with pytest.raises(DomainError):
            m_integral(DISK, 0.5, 1.0)
        with pytest.raises(DomainError):
            m_integral(DISK, 1.5, 0.5)


class TestCircleMinimum:
    NODES = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 0.999))
    def test_closed_forms_equal_the_sampled_minimum(self, gamma, r):
        # theta = pi is node 128, and the rounding of lambda is monotone in cos
        for density in (DISK, HyperbolicDensity.omega_gamma(gamma)):
            sampled = float(np.min(density.on_circle(r, self.NODES)))
            assert density.min_on_circle(r) == sampled
            assert density.min_on_circle(r, nodes=3) == sampled
            both = density.min_on_circle(np.array([r, 0.5 * r]))
            assert both.tolist() == [sampled, density.min_on_circle(0.5 * r)]

    def test_custom_density_one_bad_node_is_singular(self):
        # one NaN node makes the sampled minimum NaN, and NaN compares False with any bound
        density = HyperbolicDensity.custom(lambda z: math.nan if z.real < 0 else 2.0)
        with pytest.raises(SingularIntegrandError, match=r"on \|z\| = 0.5$"):
            density.min_on_circle(0.5, nodes=4)

    def test_custom_density_is_sampled_at_nodes(self):
        density = HyperbolicDensity.custom(lambda z: 2.0 + z.real)
        assert density.min_on_circle(0.5, nodes=2) == 1.5
        assert density.min_on_circle(0.5, nodes=3) == pytest.approx(1.75, abs=1e-15)
        rows = density.min_on_circle(np.array([[0.5], [0.25]]), nodes=2)
        assert rows.shape == (2, 1) and rows.tolist() == [[1.5], [1.75]]


class TestDiskIsOmegaZero:
    """The unit disk is Omega_0: one density, through the cancellation-free Omega_gamma forms."""

    def test_unit_disk_is_omega_zero(self):
        assert HyperbolicDensity.unit_disk() == HyperbolicDensity.omega_gamma(0.0)

    def test_mean_and_minimum_against_mp_near_one(self):
        # 1 - r^2 as a float cancels as r -> 1 (about 2e-9 relative at 1 - 1e-8);
        # (1 - r)(1 + r) does not, so both stay within 1e-15 of 40-digit values
        mp = mp_sums.mp
        rng = np.random.default_rng(33)
        radii = [1.0 - 1e-8, 0.5] + (1.0 - 10.0 ** -rng.uniform(0.0, 8.0, 60)).tolist()
        for r, nu in zip(radii, [1.0, 0.25] + rng.uniform(1e-3, 1.0, 60).tolist()):
            with mp.workdps(mp_sums.DPS):
                lam = 1 / (1 - mp.mpf(r) ** 2)
                mean = mp.mpf(r) ** 2 * lam ** (2 * mp.mpf(nu))
            assert mp_sums.close(m_integral(DISK, nu, r), mean, 0.0, 1e-15), (r, nu)
            assert mp_sums.close(DISK.min_on_circle(r), lam, 0.0, 1e-15), r


class TestBaselConstant:
    def test_threshold_literal_from_partial_sum(self):
        # bracket sum(1/s^2) by a 1e5-term partial sum plus integral
        # tail bounds; the literal 6/pi^2 must be its reciprocal
        S = 100_000
        partial = math.fsum(1.0 / (s * s) for s in range(1, S + 1))
        lower = partial + 1.0 / (S + 1)
        upper = partial + 1.0 / S
        assert upper - lower <= 1e-10
        target = 1.0 / MAJORANT_THRESHOLD
        assert lower - 1e-12 <= target <= upper + 1e-12


class TestMajorantRadius:
    def test_disk_half_nu_closed_form(self):
        want = math.sqrt(6.0 / (6.0 + math.pi**2))
        got = bloch_radius(DISK, 0.5).value
        assert abs(got - want) <= 1e-8

    def test_disk_quarter_nu_against_bisection_oracle(self):
        # closed form M(r) = r^2 (1 - r^2)^{-1/2}; solve by bisection
        oracle = bisect(lambda r: r * r / (1 - r * r) ** 0.5 - MAJORANT_THRESHOLD,
                        1e-9, 1 - 1e-9)
        got = bloch_radius(DISK, 0.25).value
        assert abs(got - oracle) <= 1e-8

    def test_gamma_zero_density_matches_disk(self):
        got = bloch_radius(HyperbolicDensity.omega_gamma(0.0), 0.5).value
        assert abs(got - math.sqrt(6.0 / (6.0 + math.pi**2))) <= 1e-8

    def test_no_root_for_bounded_density(self):
        # M(r) = 0.01 r^2 stays below 6/pi^2 on every scan point
        flat = HyperbolicDensity.custom(lambda z: 0.1)
        with pytest.raises(NoRootError) as err:
            bloch_radius(flat, 1.0)
        assert err.value.all_negative and not err.value.all_positive


class TestGammaRadius:
    def test_gamma_zero_equals_disk_closed_form(self):
        want = math.sqrt(6.0 / (6.0 + math.pi**2))
        got = bloch_radius_gamma(0.0, 0.5).value
        assert abs(got - want) <= 1e-8

    def test_root_is_bracketed_by_sign_change(self):
        result = bloch_radius_gamma(0.5, 0.5)
        lo, hi = result.bracket
        assert gamma_equation_value(0.5, 0.5, lo) * gamma_equation_value(0.5, 0.5, hi) <= 0

    def test_endpoint_signs(self):
        # r = 1.0 lies outside [0, 1); the largest radius below it shows N(1) > 0
        for gamma in (0.0, 0.3, 0.7):
            assert gamma_equation_value(gamma, 0.5, 0.0) < 0
            assert gamma_equation_value(gamma, 0.5, math.nextafter(1.0, 0.0)) > 0

    def test_increasing_in_gamma(self):
        # enlarging the domain shrinks the hyperbolic density, which
        # relaxes the derivative bound and grows the radius; verified
        # against the quadratic closed form at nu = 1/2:
        # (1-g) r^2 pi^2 = 6 (1 - ((1-g) r + g)^2)
        def quadratic_oracle(g):
            A = (1 - g) * math.pi**2 + 6 * (1 - g) ** 2
            B = 12 * g * (1 - g)
            C = 6 * (g * g - 1)
            return (-B + math.sqrt(B * B - 4 * A * C)) / (2 * A)

        values = [bloch_radius_gamma(0.1 * k, 0.5).value for k in range(10)]
        for k, got in enumerate(values):
            assert got == pytest.approx(quadratic_oracle(0.1 * k), abs=1e-10)
        assert all(b > a - 1e-12 for a, b in zip(values, values[1:]))

    def test_single_sign_change_at_scan_resolution(self):
        for gamma in (0.0, 0.25, 0.5):
            changes = count_sign_changes(
                lambda r: gamma_equation_value(gamma, 0.5, r))
            assert changes == 1

    def test_majorized_density_gives_smaller_radius(self):
        # the closed form replaces the density by its max on the circle,
        # so its root cannot exceed the exact circle-integral radius
        for gamma in (0.25, 0.5):
            closed = bloch_radius_gamma(gamma, 0.5).value
            exact = bloch_radius(HyperbolicDensity.omega_gamma(gamma), 0.5).value
            assert closed <= exact + 1e-9


class TestRefinedRadius:
    def test_disk_half_nu_closed_form(self):
        # 2 pi r^2/(1-r^2) = 3/pi  =>  r = sqrt(3/(3 + 2 pi^2))
        want = math.sqrt(3.0 / (3.0 + 2.0 * math.pi**2))
        got = bloch_refined_radius(DISK, 0.5).value
        assert abs(got - want) <= 1e-8

    def test_head_value(self):
        assert 2.0 * math.pi * m_integral(DISK, 0.5, 0.0) - REFINED_THRESHOLD \
            == -3.0 / math.pi

    def test_sits_below_majorant_radius(self):
        refined = bloch_refined_radius(DISK, 0.5).value
        plain = bloch_radius(DISK, 0.5).value
        assert refined < plain

    def test_no_root_for_bounded_density(self):
        flat = HyperbolicDensity.custom(lambda z: 0.05)
        with pytest.raises(NoRootError) as err:
            bloch_refined_radius(flat, 1.0)
        assert err.value.all_negative and not err.value.all_positive


class TestBlochMajorantCheck:
    def test_affine_function_at_majorant_radius(self):
        # f(z) = 1/2 + z/2 has ||Df|| = 1/2 <= (1 - 1/2) lambda(z)^nu
        coeffs = CoeffSeries((0.5, 0.5))
        radius = bloch_radius(DISK, 1.0).value
        report = bloch_majorant_check(coeffs, 1.0, DISK, 1.0, radius)
        assert report.satisfied

    def test_unimodular_constant(self):
        report = bloch_majorant_check(CoeffSeries((1.0,)), 1.0, DISK, 0.5, 0.4)
        assert report.satisfied and report.value == 1.0

    def test_zero_function(self):
        report = bloch_majorant_check(CoeffSeries((0.0,)), 1.0, DISK, 0.5, 0.4)
        assert report.satisfied and report.value == 0.0

    def test_refined_variant_at_refined_radius(self):
        coeffs = CoeffSeries((0.5, 0.5))
        radius = bloch_refined_radius(DISK, 0.5).value
        report = bloch_majorant_check(coeffs, 1.0, DISK, 0.5, radius,
                                      mu=1.0, refined=True)
        assert report.satisfied

    def test_derivative_bound_failure(self):
        too_steep = CoeffSeries((0.5, 5.0))
        with pytest.raises(InvalidTestFunctionError):
            bloch_majorant_check(too_steep, 1.0, DISK, 1.0, 0.3)

    @pytest.mark.parametrize("q", mp_sums.Q_GRID)
    @pytest.mark.parametrize("t", mp_sums.R_GRID)
    def test_derivative_majorant_matches_mp_reference(self, t, q):
        for coeffs in (CoeffSeries(mp_sums.NORMS, 0, q), CoeffSeries((0.4,), 0, q)):
            assert mp_sums.close(derivative_majorant(coeffs, t),
                                 mp_sums.derivative_majorant(coeffs, t))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=80),
           st.one_of(st.none(), st.floats(0.0, 0.99)),
           st.lists(st.floats(0.0, 0.999), min_size=1, max_size=64))
    def test_derivative_majorant_rows_match_fsum(self, norms, q, radii):
        # the reference sums each row's terms, built one radius at a time, with fsum
        coeffs = CoeffSeries(norms, 0, q)
        values = derivative_majorant(coeffs, np.array(radii))
        for value, t in zip(values, radii):
            row = [s * norms[s] * t ** (s - 1) for s in range(1, len(norms))]
            if q is not None:
                N = len(norms)
                row.append(coeffs.norm(N) * series.GeometricWeight((1, 1, 0), t, 1.0 - t)
                           .tail(N - 1, q))
            exact = math.fsum(row)
            assert abs(value - exact) <= 1e-14 * exact

    def test_derivative_majorant_makes_no_fsum_call(self, monkeypatch):
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda terms: calls.append(1) or fsum(terms))
        coeffs = CoeffSeries(mp_sums.NORMS, 0, 0.7)
        assert derivative_majorant(coeffs, 0.999 * np.arange(1, 65) / 64).shape == (64,)
        assert derivative_majorant(coeffs, 0.5) > 0.0
        assert calls == []

    def test_derivative_majorant_at_the_origin_is_the_first_norm(self):
        assert derivative_majorant(CoeffSeries(mp_sums.NORMS, 0, 0.5), 0.0) == 0.5
        assert derivative_majorant(CoeffSeries((0.4,), 0, 0.5), 0.0) == 0.2

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            bloch_majorant_check(CoeffSeries((0.5,)), 1.5, DISK, 0.5, 0.3)

    @pytest.mark.parametrize("nu", [math.nan, 0.0, -1.0, 5.0])
    def test_nu_outside_the_unit_interval_is_refused_before_any_work(self, monkeypatch, nu):
        # at nu = 0.5 this series fails the derivative hypothesis; no nu may skip that check
        calls = []
        monkeypatch.setattr(bloch, "derivative_majorant", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match=rf"^nu must lie in \(0, 1\], got {nu}$"):
            bloch_majorant_check(CoeffSeries((0, 5, 5)), 1.0, DISK, nu, 0.3)
        assert calls == []

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_non_positive_custom_density_is_singular(self, value):
        density = HyperbolicDensity.custom(lambda z: value)
        with pytest.raises(SingularIntegrandError,
                           match=r"^density is singular or non-positive on \|z\| = "):
            bloch_majorant_check(CoeffSeries((0, 5, 5)), 1.0, density, 0.5, 0.3)
        with pytest.raises(SingularIntegrandError):
            density.min_on_circle(np.array([0.2, 0.4]))

    @pytest.mark.parametrize("q", mp_sums.Q_GRID)
    def test_array_derivative_majorant_matches_mp_reference(self, q):
        t = np.array(mp_sums.R_GRID)
        for coeffs in (CoeffSeries(mp_sums.NORMS, 0, q), CoeffSeries((0.4,), 0, q)):
            values = derivative_majorant(coeffs, t)
            assert isinstance(values, np.ndarray) and values.shape == t.shape
            for value, radius in zip(values, t):
                assert mp_sums.close(value, mp_sums.derivative_majorant(coeffs, radius))

    @pytest.mark.parametrize("k", [1, 64])
    def test_planted_violation_raises_at_its_radius(self, k):
        # lambda is tiny on one grid circle only, so the check fails there alone
        target = 0.999 * k / 64

        def density(z):
            return 1e-6 if abs(abs(z) - target) < 1e-9 else 1e6

        with pytest.raises(InvalidTestFunctionError,
                           match=rf"^derivative bound fails at \|z\| = {target:.4f}$"):
            bloch_majorant_check(CoeffSeries((0.5, 0.5)), 1.0,
                                 HyperbolicDensity.custom(density), 0.5, 0.3)

    @pytest.mark.parametrize("density", OMEGAS, ids=lambda d: f"omega_gamma-{d.gamma}")
    def test_first_failure_is_the_first_failing_grid_radius(self, density):
        # the radius-by-radius check, written out: the array pass raises at
        # the same first radius, or not at all
        for scale in (0.2, 0.5, 1.0, 3.0):
            coeffs = CoeffSeries((0.3, scale, scale * 0.6), 0, 0.6)
            first = next((t for t in (0.999 * k / 64 for k in range(1, 65))
                          if derivative_majorant(coeffs, t)
                          > 0.7 * density.min_on_circle(t) ** 0.5 + 1e-12), None)
            if first is None:
                bloch_majorant_check(coeffs, 1.0, density, 0.5, 0.3)
            else:
                with pytest.raises(InvalidTestFunctionError, match=rf"= {first:.4f}$"):
                    bloch_majorant_check(coeffs, 1.0, density, 0.5, 0.3)

    def test_grid_size_does_not_add_sums(self, monkeypatch):
        # one derivative_majorant call and a fixed number of norm_sum
        # calls, however many radii the grid has
        calls = {"norm_sum": 0, "derivative_majorant": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (series, functionals, phi, bloch):
            if hasattr(module, "norm_sum"):
                monkeypatch.setattr(module, "norm_sum", counting("norm_sum", series.norm_sum))
        monkeypatch.setattr(bloch, "derivative_majorant",
                            counting("derivative_majorant", bloch.derivative_majorant))
        coeffs = CoeffSeries((0.05, 0.06, 0.03), 0, 0.5)
        seen = []
        for grid_radii in (8, 64):
            calls.update(norm_sum=0, derivative_majorant=0)
            report = bloch_majorant_check(coeffs, 1.0, DISK, 0.5, 0.3, mu=0.5, refined=True,
                                          grid_radii=grid_radii)
            assert report.satisfied
            seen.append(dict(calls))
        assert seen[0] == seen[1]
        assert seen[0]["derivative_majorant"] == 1 and seen[0]["norm_sum"] > 0



class TestCircleMeanTheorem:
    """M(r) increases, which lets the built-in densities skip the scan."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 0.95), st.floats(0.0, 1.0, exclude_min=True),
           st.floats(0.0, 0.99, exclude_min=True), st.floats(0.0, 0.99, exclude_min=True),
           st.booleans())
    def test_m_integral_increases(self, gamma, nu, r1, r2, disk):
        # log lambda is subharmonic, so circle means of lambda^{2 nu} grow;
        # radii closer than 1e-9 may round to one value
        assume(r1 + 1e-9 < r2)
        density = DISK if disk else HyperbolicDensity.omega_gamma(gamma)
        assert m_integral(density, nu, r1) < m_integral(density, nu, r2)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5, 0.9, 0.95])
    @pytest.mark.parametrize("nu", [0.1, 0.25, 0.5, 1.0])
    def test_omega_gamma_against_hypergeometric_closed_form(self, gamma, nu):
        # on |z| = r, lambda^{2 nu} = (1-g)^{2 nu} (c - B cos t)^{-2 nu}, whose
        # circle mean is c^{-2 nu} 2F1(nu, nu + 1/2; 1; (B/c)^2)
        from scipy.special import hyp2f1

        density = HyperbolicDensity.omega_gamma(gamma)
        for r in np.linspace(0.0, 0.99, 51)[1:].tolist():
            c = 1.0 - (1.0 - gamma) ** 2 * r * r - gamma * gamma
            B = 2.0 * gamma * (1.0 - gamma) * r
            closed = (r * r * (1.0 - gamma) ** (2.0 * nu) * c ** (-2.0 * nu)
                      * hyp2f1(nu, nu + 0.5, 1.0, (B / c) ** 2))
            assert m_integral(density, nu, r) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("nu", [0.25, 0.5, 1.0])
    def test_omega_gamma_against_mp_closed_form_near_one(self, gamma, nu):
        # the same 2F1 closed form at 40 digits, up to r = 1 - 1e-6, where
        # scipy's hyp2f1 loses about 1e-9 and so would not see a cancelling density
        mp = mp_sums.mp
        density = HyperbolicDensity.omega_gamma(gamma)
        for r in (0.9, 0.99, 1.0 - 1e-6):
            with mp.workdps(mp_sums.DPS):
                g, r_ = mp.mpf(gamma), mp.mpf(r)
                c = 1 - (1 - g) ** 2 * r_ * r_ - g * g
                B = 2 * g * (1 - g) * r_
                closed = (r_ * r_ * (1 - g) ** (2 * nu) * c ** (-2 * nu)
                          * mp.hyp2f1(nu, nu + 0.5, 1, (B / c) ** 2))
            assert mp_sums.close(m_integral(density, nu, r), closed, 0.0, 1e-12), r


def omega_gamma_c_and_s(gamma, r):
    """c = A + B and S = sqrt(A (A + 2B)) of the Omega_gamma mean, as bloch writes them."""
    A = (1.0 - r) * (1.0 + gamma + (1.0 - gamma) * r)
    B = 2.0 * gamma * r
    return A + B, math.sqrt(A * (A + 2.0 * B))


def recording_ratio_sum(monkeypatch):
    """Patch bloch's ratio_sum to keep (terms taken, rho, value) of each call."""
    calls = []

    def record(terms, rho, tol, cap):
        taken = []
        value = series.ratio_sum((taken.append(t) or t for t in terms), rho, tol, cap)
        calls.append((taken, rho, value))
        return value
    monkeypatch.setattr(bloch, "ratio_sum", record)
    return calls


class TestOmegaGammaSeries:
    """The Omega_gamma mean is a positive series with a proven remainder."""

    def test_builtin_densities_are_never_sampled(self, monkeypatch):
        calls = []
        on_circle = HyperbolicDensity.on_circle
        monkeypatch.setattr(HyperbolicDensity, "on_circle",
                            lambda self, r, thetas: calls.append(r) or on_circle(self, r, thetas))
        for density in OMEGAS:
            for nu in (0.1, 0.5, 1.0):
                m_integral(density, nu, 0.7)
        bloch_radius(OMEGAS[2], 0.5)
        bloch_refined_radius(OMEGAS[3], 1.0)
        assert calls == []
        m_integral(HyperbolicDensity.custom(lambda z: 1.0 / (1.0 - abs(z) ** 2)), 0.5, 0.7)
        assert calls and set(calls) == {0.7}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.floats(0.0, 0.999), st.floats(0.0, 0.999, exclude_min=True))
    def test_half_and_one_are_closed_forms(self, gamma, r):
        # nu = 1/2: the mean of lambda is 1/S; nu = 1: the mean of lambda^2 is c/S^3
        c, S = omega_gamma_c_and_s(gamma, r)
        density = HyperbolicDensity.omega_gamma(gamma)
        assert m_integral(density, 0.5, r) == pytest.approx(r * r / S, rel=1e-15, abs=0.0)
        assert m_integral(density, 1.0, r) == pytest.approx(r * r * c / S**3, rel=1e-15,
                                                             abs=0.0)

    def test_stated_remainder_covers_the_true_one(self, monkeypatch):
        # the series summed is F(a) = sum_k ((a)_k/k!)^2 w^k, a = 2 nu (nu <= 1/4) or
        # 1 - 2 nu; its true remainder past the last term taken is computed at 40 digits
        mp = mp_sums.mp
        calls = recording_ratio_sum(monkeypatch)
        rng = np.random.default_rng(20)
        grid = [(0.999, 0.99, 0.25), (0.999, 0.99, 1e-3), (0.999, 0.5, 0.26), (0.5, 0.3, 0.75)]
        grid += [(r, g, nu) for r, g, nu in zip(rng.uniform(0.0, 0.999, 40),
                                                rng.uniform(0.0, 0.99, 40),
                                                rng.uniform(1e-3, 1.0, 40))]
        for r, gamma, nu in grid:
            r, gamma, nu = float(r), float(gamma), float(nu)
            m_integral(HyperbolicDensity.omega_gamma(gamma), nu, r)
            taken, w, value = calls.pop()
            a = 2.0 * nu if nu <= 0.25 else 1.0 - 2.0 * nu
            with mp.workdps(mp_sums.DPS):
                a_, w_ = mp.mpf(a), mp.mpf(w)
                terms = [mp.rf(a_, k) ** 2 / mp.factorial(k) ** 2 * w_**k
                         for k in range(len(taken))]
                true = mp.hyp2f1(a_, a_, 1, w_) - mp.fsum(terms)
                stated = mp.mpf(taken[-1]) * w_ / (1 - w_)
                assert 0 <= true <= stated, (r, gamma, nu)
                assert true <= bloch.MEAN_TOL * mp.fsum(terms)
                assert mp_sums.close(value, mp.hyp2f1(a_, a_, 1, w_), 0.0, 1e-15)

    def test_near_one_sums_within_the_cap(self, monkeypatch):
        # gamma near 1 and nu = 1/4 is the longest series: about 1.1e4 terms at 1 - 1e-6
        calls = recording_ratio_sum(monkeypatch)
        density = HyperbolicDensity.omega_gamma(0.999)
        value = m_integral(density, 0.25, 1.0 - 1e-6)
        taken = calls[-1][0]
        assert 1000 < len(taken) < bloch.MEAN_TERMS
        monkeypatch.setattr(bloch, "MEAN_TERMS", len(taken) - 1)
        with pytest.raises(NonConvergenceError, match=r"after \d+ terms$"):
            m_integral(density, 0.25, 1.0 - 1e-6)
        monkeypatch.setattr(bloch, "MEAN_TERMS", len(taken))
        assert m_integral(density, 0.25, 1.0 - 1e-6) == value


class TestGridScan:
    """The Bloch solvers bracket by index bisection, with the scalar scan's result."""

    @pytest.mark.parametrize("density", OMEGAS, ids=lambda d: f"omega_gamma-{d.gamma}")
    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.0])
    def test_radii_match_scalar_scan(self, density, nu):
        majorant = lambda r: m_integral(density, nu, r) - MAJORANT_THRESHOLD
        refined = lambda r: 2.0 * math.pi * m_integral(density, nu, r) - REFINED_THRESHOLD
        assert bloch_radius(density, nu) == min_positive_root(majorant)
        assert bloch_refined_radius(density, nu) == min_positive_root(refined)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("nu", [0.1, 0.5, 1.0])
    def test_gamma_radius_and_sign_changes_match_scalar_scan(self, gamma, nu):
        F = lambda r: gamma_equation_value(gamma, nu, r)
        assert bloch_radius_gamma(gamma, nu) == min_positive_root(F)
        for step in (1e-3, 1e-5):
            # reference: F on each scan point as a float, skipping zeros
            pointwise, prev, k = 0, math.nan, 1
            while k * step < 1.0:
                v = F(k * step)
                if v != 0.0:
                    pointwise += prev < 0.0 < v or v < 0.0 < prev
                    prev = v
                k += 1
            assert count_sign_changes(F, step) == pointwise == 1

    def test_custom_density_scans_point_by_point(self, monkeypatch):
        solvers = []

        def recording(solve):
            def record(f, tol, scan_step):
                solvers.append(solve.__name__)
                return solve(f, tol, scan_step)
            return record

        monkeypatch.setattr(bloch, "min_positive_root", recording(min_positive_root))
        monkeypatch.setattr(bloch, "increasing_root", recording(increasing_root))
        dens = HyperbolicDensity.custom(lambda z: 1.0 / (1.0 - abs(z) ** 2))
        bloch_radius(dens, 0.5, scan_step=1e-2)
        bloch_refined_radius(dens, 0.5, scan_step=1e-2)
        assert solvers == ["min_positive_root"] * 2
        for density in (DISK, OMEGAS[1]):
            bloch_radius(density, 0.5)
            bloch_refined_radius(density, 0.5)
        bloch_radius_gamma(0.5, 0.5)
        assert solvers[2:] == ["increasing_root"] * 5

    @pytest.mark.parametrize("solve", [bloch_radius, bloch_refined_radius])
    @pytest.mark.parametrize("step", [1e-3, 1e-4])
    def test_equation_calls_are_index_search_and_narrowing(self, solve, step, monkeypatch):
        # work-counter guard: the M(r) calls are the index search's, at most
        # log2(1/step + 2), then one per narrowing step, and none past the grid
        calls = []

        def counting(density, nu, r):
            calls.append(r)
            return m_integral(density, nu, r)

        monkeypatch.setattr(bloch, "m_integral", counting)
        result = solve(OMEGAS[2], 0.5, scan_step=step)
        bracket_index = math.floor(result.value / result.scan_step) + 1
        search, lo, hi = 0, 0, math.ceil(1.0 / step) + 1
        while hi - lo > 1:  # the index search, replayed on the known bracket
            k = (lo + hi) // 2
            search += k * step < 1.0
            lo, hi = (lo, k) if k >= bracket_index else (k, hi)
        assert hi == bracket_index
        assert 1 <= search <= math.ceil(math.log2(1.0 / step + 2.0))
        assert len(calls) == search + result.iterations - bracket_index
        assert max(calls) <= (math.ceil(1.0 / step) - 1) * step  # the last scan point
