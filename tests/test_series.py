"""Coefficient series, operator norms, and the point bounds."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad import (EVEN_ONLY, MONOMIAL, CoeffSeries, DomainSpec, MatrixCoeffFn,
                    bohr_energy_functional, check_coeff_bound, diag_blend_coeffs, majorant,
                    mobius_gamma_coeffs, operator_norm, phi_term, point_eval_bound,
                    refined_functional, s_r, schwarz_composed_bound)
from bohrad.errors import DomainError, NonConvergenceError
from bohrad.series import GeometricWeight, SampledWeight, _check_radius, norm_sum, ratio_sum

import mp_sums
from test_functionals import CUSTOM_MONOMIAL, closed_form_norms


# blend parameters whose crossovers stay within a few hundred norms
BLEND_GRID = tuple(k / 50 for k in range(1, 50)) + (0.995,)


def phased_equal_blend(rng):
    """1-8 entries sharing one parameter a, each with a random phase."""
    d = int(rng.integers(1, 9))
    a = float(rng.uniform(0.05, 0.995))
    phases = tuple(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(d))
    return MatrixCoeffFn((a,) * d, phases)


def entry_scan(fn, last):
    """[max_i abs(entry_coefficient(i, n)) for n = 0 .. last]: the phased entry scan."""
    return [max(abs(fn.entry_coefficient(i, n)) for i in range(fn.dimension))
            for n in range(last + 1)]


def within_ulps(xs, ys, ulps):
    """Each x lies within ulps units in the last place of its y."""
    return len(xs) == len(ys) and all(abs(x - y) <= ulps * math.ulp(y) for x, y in zip(xs, ys))


def power_iteration_norm(matrix, iters=5000, tol=1e-15, seed=7):
    """Independent largest-singular-value oracle via A* A power iteration."""
    m = np.asarray(matrix, dtype=complex)
    h = m.conj().T @ m
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = h @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        if abs(nw - lam) <= tol * max(1.0, nw):
            lam = nw
            break
        v, lam = v_new, nw
    return math.sqrt(lam)


class TestMobiusFamily:
    def test_gamma_zero_reduces_to_disk_automorphism(self):
        # A_0 = a and ||A_n|| = (1 - a^2) a^{n-1}
        coeffs = mobius_gamma_coeffs(0.5, 0.0, 3)
        assert coeffs.norms[:4] == (0.5, 0.75, 0.375, 0.1875)

    def test_vanishing_head_at_a_equals_gamma(self):
        coeffs = mobius_gamma_coeffs(0.5, 0.5, 2)
        assert coeffs.norm(0) == 0.0
        assert coeffs.norm(1) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert coeffs.norm(2) == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_tail_coefficients_vanish_as_a_tends_to_one(self):
        coeffs = mobius_gamma_coeffs(0.999, 0.0, 2)
        assert coeffs.norm(1) == pytest.approx(1.0 - 0.999**2, abs=1e-15)
        assert coeffs.norm(1) < 0.0021

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.3, 1.2])
    def test_parameter_domain(self, a):
        with pytest.raises(DomainError):
            mobius_gamma_coeffs(a, 0.0, 4)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_parameter_whose_scale_overflows_is_named(self, gamma):
        # the scale 1/a is finite at a = 1e-300 and overflows at 5e-309, where
        # the error names a, not the infinite norm it would store
        assert mobius_gamma_coeffs(1e-300, gamma).norms[1] == pytest.approx(1.0 - gamma)
        with pytest.raises(DomainError, match=r"^a = 5e-309 is too small"):
            mobius_gamma_coeffs(5e-309, gamma)

    @pytest.mark.parametrize("a, gamma, stored", [
        (0.5, 0.0, 64), (1.6e-5, 0.0, 64), (1e-5, 0.0, 61), (1e-100, 0.0, 3),
        (3.0536614991083513e-189, 0.0, 1), (1e-300, 0.0, 1), (0.9, 1.0 - 1e-15, 21)])
    def test_prefix_stops_at_the_last_normal_power(self, a, gamma, stored):
        coeffs = mobius_gamma_coeffs(a, gamma, 64)
        q = coeffs.tail_geometric_ratio
        assert coeffs.last_index == stored
        assert stored == 1 or q**stored >= sys.float_info.min
        assert stored == 64 or q ** (stored + 1) < sys.float_info.min
        scale = (1.0 - a * a) / (a * (1.0 - a * gamma))
        assert coeffs.norms[1:] == tuple(scale * q**n for n in range(1, stored + 1))

    def test_geometric_continuation_is_exact(self):
        coeffs = mobius_gamma_coeffs(0.4, 0.2, 8)
        q = 0.4 * 0.8 / (1 - 0.08)
        scale = (1 - 0.16) / (0.4 * (1 - 0.08))
        assert coeffs.norm(20) == pytest.approx(scale * q**20, rel=1e-12)

    @pytest.mark.parametrize("a, gamma", [(0.4, 0.2), (0.9, 0.0), (0.999, 0.85), (0.3, 0.3)])
    def test_stores_two_norms_and_the_ratio(self, a, gamma):
        coeffs = mobius_gamma_coeffs(a, gamma)
        assert len(coeffs.norms) == 2
        assert coeffs.tail_geometric_ratio == a * (1.0 - gamma) / (1.0 - a * gamma)
        prefix = mobius_gamma_coeffs(a, gamma, 64)
        assert coeffs.norms == prefix.norms[:2]
        for n in range(2, 80):
            assert coeffs.norm(n) == pytest.approx(prefix.norm(n), rel=1e-13, abs=0.0), n


def per_index(weight, n):
    """w(n) of a GeometricWeight at one index: (c0 + n (c1 + c2 n)) t^n on its indices,
    0.0 off them, plus the head at n = 0."""
    (c0, c1, c2), t = weight.c, weight.t
    value = (c0 + n * (c1 + c2 * n)) * t**n if n % weight.step == weight.parity else 0.0
    return value + weight.head if n == 0 else value


@st.composite
def geometric_sums(draw):
    """(coeffs, weight, start, power): 1-70 stored norms, zeros below start_index, a
    stored last norm of 0.0 in about half the draws, any ratio or none; every step,
    parity and head, int and float c, float and np.float64 t; start up to len + 3."""
    length = draw(st.integers(1, 70))
    below = draw(st.integers(0, length - 1))
    norms = [0.0] * below + draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                                          min_size=length - below, max_size=length - below))
    if draw(st.booleans()):
        norms[-1] = 0.0
    ratio = draw(st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)))
    c = draw(st.tuples(*[st.one_of(st.integers(0, 6), st.floats(0.0, 10.0))] * 3))
    t = draw(st.floats(0.0, 1.0, exclude_max=True))
    step = draw(st.sampled_from([1, 2]))
    parity, head = draw(st.integers(0, step - 1)), draw(st.sampled_from([0.0, 1.0, 0.25]))
    weight = GeometricWeight(c, np.float64(t) if draw(st.booleans()) else t, 1.0 - t, step,
                             parity, head)
    return (CoeffSeries(tuple(norms), below, ratio), weight, draw(st.integers(0, length + 3)),
            draw(st.sampled_from([1, 2])))


class TestNormSumGeometric:
    """norm_sum over a GeometricWeight: one pass over the series' fields, bit for bit the
    per-index composition through CoeffSeries' methods."""

    @staticmethod
    def composed(coeffs, weight, start, power):
        """fsum of ||A_n||^power w(n) over the stored n >= start, plus
        norm(N)**power * tail(N, q, power) from the first unstored index N."""
        stop = coeffs.last_index + 1
        terms = [coeffs.norm(n) ** power * per_index(weight, n) for n in range(start, stop)]
        if not coeffs.is_finite():
            N = max(start, stop)
            q = coeffs.tail_geometric_ratio
            terms.append(coeffs.norm(N) ** power * weight.tail(N, q, power))
        return math.fsum(terms)

    @settings(max_examples=400, deadline=None)
    @given(geometric_sums())
    def test_is_the_per_index_composition(self, case):
        assert norm_sum(*case).hex() == self.composed(*case).hex()

    def test_calls_no_method_of_the_series(self, monkeypatch):
        cases = [(coeffs, weight, start, power)
                 for coeffs in (mobius_gamma_coeffs(0.7, 0.2), CoeffSeries((0.0, 0.5, 0.25), 1),
                                CoeffSeries((0.0, 0.5, 0.25), 1, 0.5))
                 for weight in (GeometricWeight((1, 1, 0), 0.5, 0.5),
                                GeometricWeight((0, 0, 1), 0.5, 0.5, 1, 0, 1.0),
                                GeometricWeight((1, 0, 0), 0.5, 0.5, 2, 1, 1.0))
                 for start in (0, 1, 4) for power in (1, 2)]
        want = [norm_sum(*case) for case in cases]

        def refuse(*args):
            raise AssertionError("norm_sum called a CoeffSeries method")
        for name in ("norm", "is_finite"):
            monkeypatch.setattr(CoeffSeries, name, refuse)
        monkeypatch.setattr(CoeffSeries, "last_index", property(refuse))
        assert [norm_sum(*case) for case in cases] == want


class TestNormSumPowers:
    """norm_sum sums ||A_n||^power w(n) for power 1 or 2; any other power raises first."""

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("form", [((1, 0, 0), 1, 0, 0.0), ((1, 1, 0), 1, 0, 0.0),
                                      ((0, 0, 1), 1, 0, 1.0), ((1, 0, 0), 2, 0, 0.0),
                                      ((1, 0, 0), 2, 1, 1.0)])
    @pytest.mark.parametrize("q, t", [(0.3, 0.5), (0.9, 0.7), (0.95, 0.9)])
    @pytest.mark.parametrize("start", [0, 1, 4])
    def test_both_powers_match_the_term_by_term_sum(self, power, form, q, t, start):
        c, step, parity, head = form
        coeffs = CoeffSeries((0.7, 0.4, 0.2), 0, q)
        weight = GeometricWeight(c, t, 1.0 - t, step, parity, head)
        # q t <= 0.855, so the terms past 3000 are far below one ulp of the sum
        terms = [coeffs.norm(n) ** power * per_index(weight, n) for n in range(start, 3000)]
        assert norm_sum(coeffs, weight, start, power) == pytest.approx(math.fsum(terms),
                                                                       rel=1e-13)

    @pytest.mark.parametrize("power", [0, 3, 4, -1, 1.5])
    def test_any_other_power_raises_before_any_work(self, power):
        calls = []
        coeffs = CoeffSeries((0.7, 0.4), 0, 0.5)
        weights = (GeometricWeight((1, 0, 0), 0.5, 0.5),
                   SampledWeight(lambda n: calls.append(n) or 0.5**n,
                                 lambda n: calls.append(n) or 1.0))
        for weight in weights:
            with pytest.raises(DomainError, match=f"^power must be 1 or 2, got {power}$"):
                norm_sum(coeffs, weight, 0, power)
        assert calls == []

    @pytest.mark.parametrize("power, first_zero", [(1, 4), (2, 2)])
    def test_a_continuation_term_of_zero_ends_a_sampled_sum(self, power, first_zero):
        # ||A_n||^power underflows to 0.0 at first_zero, and so does every later one: the
        # series ends there, as a stored last norm of 0.0 ends it, with no term(n) or
        # sup(n) call, whatever sup would say
        coeffs = CoeffSeries((0.5, 1e-100), 0, 1e-100)
        assert coeffs.norm(first_zero - 1) ** power > 0.0 == coeffs.norm(first_zero) ** power

        def sup(n):
            raise AssertionError(f"sup({n}) called")
        calls = []
        weight = SampledWeight(lambda n: calls.append(n) or 0.5**n, sup)
        want = math.fsum(coeffs.norm(n) ** power * 0.5**n for n in range(first_zero))
        assert norm_sum(coeffs, weight, 0, power) == want
        assert calls == list(range(first_zero))


class TestNormSumOverflow:
    """A sum past the largest float raises DomainError: the square of a norm above about
    1.3e154 raised OverflowError, a tail past it returned inf, and so would fsum's
    partial sum of finite terms past it."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: s_r(CoeffSeries((0.0, 1e200)), 0.5), id="s_r-square"),
        pytest.param(lambda: refined_functional(CoeffSeries((0.5, 1e200)), MONOMIAL, 1.0, 0,
                                                1.0, 0.5), id="refined-square"),
        pytest.param(lambda: bohr_energy_functional(CoeffSeries((0.5, 1e200)), 0.5),
                     id="energy-square"),
        pytest.param(lambda: majorant(CoeffSeries((0.0, 1e308), 0, 0.9), MONOMIAL, 0.99),
                     id="majorant-tail"),
        pytest.param(lambda: majorant(CoeffSeries((1e308, 1e308)), MONOMIAL, 0.9),
                     id="majorant-fsum"),
        pytest.param(lambda: majorant(CoeffSeries((1e308, 1e308), 0, 1e-3), CUSTOM_MONOMIAL[0],
                                      0.9), id="sampled-fsum"),
        pytest.param(lambda: refined_functional(CoeffSeries((0.5, 1e200)), CUSTOM_MONOMIAL[0],
                                                1.0, 0, 1.0, 0.5), id="sampled-square"),
    ])
    def test_raises_domain_error(self, call):
        with pytest.raises(DomainError,
                           match=r"^the sum of \|\|A_n\|\|\^[12] w\(n\) overflows a float$"):
            call()

    def test_the_largest_finite_sums_are_returned(self):
        big = sys.float_info.max
        assert majorant(CoeffSeries((big,)), MONOMIAL, 0.5) == big
        assert majorant(CoeffSeries((0.0, big)), CUSTOM_MONOMIAL[0], 0.5) == 0.5 * big
        assert s_r(CoeffSeries((0.0, 1e154)), 0.5) == 1e154**2 * 0.25


class TestRatioSum:
    """ratio_sum: terms with t_{k+1} <= rho t_k, summed to a proven relative remainder."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.floats(0.0, 0.99), st.booleans())
    def test_geometric_sums_meet_their_closed_forms(self, r, linear):
        # r^k with rho = r; (k + 1) r^k with rho = 2r, as (k + 2)/(k + 1) <= 2
        if linear:
            r *= 0.5
            terms = ((k + 1) * r**k for k in itertools.count())
            rho, closed = 2 * r, 1 / (1 - r) ** 2
        else:
            terms, rho, closed = (r**k for k in itertools.count()), r, 1 / (1 - r)
        assert ratio_sum(terms, rho, 1e-16, 1 << 16) == pytest.approx(closed, rel=1e-15)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 0.999])
    def test_stops_at_the_first_term_whose_remainder_bound_meets_tol(self, rho):
        taken = []
        terms = (taken.append(rho**k) or rho**k for k in itertools.count())
        value = ratio_sum(terms, rho, 1e-16, 1 << 16)
        partial = itertools.accumulate(taken)
        stops = [k for k, s in enumerate(partial) if taken[k] * rho / (1 - rho) <= 1e-16 * s]
        assert stops == [len(taken) - 1]
        assert value == math.fsum(taken)

    def test_zero_first_term_is_an_empty_sum(self):
        assert repr(ratio_sum(itertools.repeat(0.0), 0.5, 1e-16, 4)) == "0.0"

    def test_cap_raises_and_takes_no_more_terms(self):
        taken = []
        terms = (taken.append(k) or 0.999**k for k in itertools.count())
        message = r"^series remainder stays above relative tol 1e-16 after 100 terms$"
        with pytest.raises(NonConvergenceError, match=message):
            ratio_sum(terms, 0.999, 1e-16, 100)
        assert len(taken) == 100


class TestDirichletSum:
    def test_identity_coefficient(self):
        assert s_r(CoeffSeries((0.0, 1.0)), 0.5) == 0.25

    def test_zero_series(self):
        assert s_r(CoeffSeries((0.0,)), 0.7) == 0.0

    def test_finite_sum_oracle(self):
        # direct evaluation: 1 * 0.25 * 0.5^2 + 2 * 0.25 * 0.5^4
        coeffs = CoeffSeries((0.0, 0.5, 0.5))
        want = 1 * 0.25 * 0.5**2 + 2 * 0.25 * 0.5**4
        assert want == 0.09375
        assert s_r(coeffs, 0.5) == pytest.approx(want, abs=1e-16)

    def test_pi_flag_scales(self):
        coeffs = CoeffSeries((0.0, 0.5, 0.5))
        assert s_r(coeffs, 0.5, include_pi=True) == pytest.approx(
            math.pi * s_r(coeffs, 0.5), rel=1e-15)

    def test_strictly_increasing_in_r(self):
        coeffs = mobius_gamma_coeffs(0.6, 0.1)
        values = [s_r(coeffs, 0.05 * k) for k in range(1, 19)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("coeffs, r, abs_tol", [
        # short stored range, held to 1e-12 relative
        (mobius_gamma_coeffs(0.9, 0.0, 4), 0.5, 0.0),
        *[(mobius_gamma_coeffs(0.9, 0.0, 4), r, 1e-12) for r in mp_sums.R_GRID],
        *[(CoeffSeries(mp_sums.NORMS, 0, q), r, 1e-12)
          for q in mp_sums.Q_GRID for r in (0.5,) + mp_sums.R_GRID],
    ])
    def test_geometric_tail_is_summed(self, coeffs, r, abs_tol):
        assert mp_sums.close(s_r(coeffs, r), mp_sums.s_r(coeffs, r), abs_tol)


class TestOperatorNorm:
    def test_identity(self):
        for d in (1, 3, 6):
            assert operator_norm(np.eye(d)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_norm_is_max_modulus(self):
        m = np.diag([0.3, -0.8j])
        assert operator_norm(m) == pytest.approx(0.8, abs=1e-12)

    def test_against_power_iteration_oracle(self):
        rng = np.random.default_rng(202406)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            want = power_iteration_norm(m)
            assert operator_norm(m) == pytest.approx(want, abs=1e-10, rel=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(rng.standard_normal((d, d))
                                + 1j * rng.standard_normal((d, d)))
            assert operator_norm(q @ m) == pytest.approx(operator_norm(m), abs=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestDiagonalBlend:
    def test_scalar_case_matches_mobius(self):
        fn = MatrixCoeffFn((0.5,))
        blend = diag_blend_coeffs(fn)
        disk = mobius_gamma_coeffs(0.5, 0.0, 16)
        for n in range(17):
            assert blend.norm(n) == pytest.approx(disk.norm(n), abs=1e-15)

    def test_head_is_max_of_entries(self):
        fn = MatrixCoeffFn((0.3, 0.6))
        blend = diag_blend_coeffs(fn)
        assert blend.norm(0) == 0.6
        assert blend.norm(1) == pytest.approx(max(1 - 0.09, 1 - 0.36), abs=1e-15)
        assert blend.norm(1) == pytest.approx(0.91, abs=1e-15)

    def test_diagonal_coefficient_matrices_have_the_blend_norm(self):
        fn = MatrixCoeffFn((0.3, 0.6), (1.0, 1j))
        blend = diag_blend_coeffs(fn)
        for n in range(5):
            m = np.diag([fn.entry_coefficient(i, n) for i in range(fn.dimension)])
            assert operator_norm(m) == pytest.approx(blend.norm(n), abs=1e-12)

    @pytest.mark.parametrize("params, checked", [
        ((0.3, 0.6, 0.59), range(501)),
        # crossover near n = 105000: the stored range must reach past it
        ((0.99999, 0.999991), (0, 64, 20000, 104000, 106000, 200000)),
    ])
    def test_distinct_parameters_continue_exactly(self, params, checked):
        fn = MatrixCoeffFn(params)
        blend = diag_blend_coeffs(fn)
        for n in checked:
            want = max(abs(fn.entry_coefficient(i, n)) for i in range(fn.dimension))
            assert blend.norm(n) == pytest.approx(want, rel=1e-12, abs=0.0), n

    def test_near_equal_distinct_parameters_raise(self):
        # the crossover index is near 1e9: refused before anything is stored
        with pytest.raises(NonConvergenceError):
            diag_blend_coeffs(MatrixCoeffFn((0.999999999, 0.9999999991)))

    def test_equal_parameters_store_two_norms(self):
        blend = diag_blend_coeffs(MatrixCoeffFn((0.7, 0.7, 0.7)))
        assert blend.last_index == 1
        assert tuple(map(blend.norm, range(17))) == pytest.approx(
            mobius_gamma_coeffs(0.7, 0.0, 16).norms, rel=1e-15)

    def test_phased_equal_parameters_continue_the_entry_scan(self):
        # the stored norms are the phased scan max_i abs(phase_i c_n^(i)) to 2 ulp,
        # and the continuation matches the rest to round-off up to index 64
        for seed in range(40):
            fn = phased_equal_blend(np.random.default_rng(seed))
            blend = diag_blend_coeffs(fn)
            scanned = entry_scan(fn, 64)
            assert blend.last_index == 1
            assert within_ulps(blend.norms, scanned[:2], 2)
            for k in range(2, 65):
                assert blend.norm(k) == pytest.approx(scanned[k], rel=1e-14, abs=0.0)

    def test_phased_unequal_parameters_match_the_entry_scan(self):
        longer = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 9))
            # a largest parameter near 1 with near neighbours crosses over late
            b = float(rng.uniform(0.95, 0.999))
            params = (b,) + tuple(float(b * rng.uniform(0.97, 1.0) if rng.random() < 0.5
                                        else rng.uniform(0.05, b)) for _ in range(d - 1))
            phases = tuple(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(d))
            fn = MatrixCoeffFn(params, phases)
            blend = diag_blend_coeffs(fn)
            assert blend.norms == closed_form_norms(params, blend.last_index)
            assert within_ulps(blend.norms, entry_scan(fn, blend.last_index), 2)
            longer += blend.last_index > 64
        assert longer > 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(BLEND_GRID), min_size=1, max_size=8),
           st.lists(st.floats(0.0, 2.0 * math.pi), min_size=8, max_size=8))
    def test_norms_are_the_closed_form_bit_for_bit(self, params, angles):
        # equal and distinct parameters; the phased entry scan agrees to 2 ulp, and
        # with every phase 1 bit for bit
        phases = [complex(math.cos(t), math.sin(t)) for t in angles[:len(params)]]
        fn = MatrixCoeffFn(params, phases)
        blend = diag_blend_coeffs(fn)
        last = blend.last_index
        assert list(map(float.hex, blend.norms)) == list(
            map(float.hex, closed_form_norms(params, last)))
        assert within_ulps(blend.norms, entry_scan(fn, last), 2)
        assert blend.norms == tuple(entry_scan(MatrixCoeffFn(params), last))
        assert last >= 1 and blend.tail_geometric_ratio == max(params)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(BLEND_GRID), min_size=1, max_size=8),
           st.lists(st.floats(0.0, 2.0 * math.pi), min_size=8, max_size=8))
    def test_phases_leave_the_series_unchanged(self, params, angles):
        phases = [complex(math.cos(t), math.sin(t)) for t in angles[:len(params)]]
        assert (diag_blend_coeffs(MatrixCoeffFn(params, phases))
                == diag_blend_coeffs(MatrixCoeffFn(params)))

    def test_underflowed_norms_are_the_true_norms_rounded(self):
        # (1 - a^2) <= 1 cannot lift an underflowed power: every 0.0 of the 64-norm
        # prefix is a norm below half the least subnormal, so the sums keep their terms
        a, r = 3.0536614991083513e-189, 0.5
        blend = diag_blend_coeffs(MatrixCoeffFn((a, a), (1.0, 1j)))
        prefix = CoeffSeries(closed_form_norms((a, a), 64), 0, a)
        mp = mp_sums.mp
        with mp.workdps(mp_sums.DPS):
            half_least = mp.mpf(2) ** -1075
            zeros = [n for n, x in enumerate(prefix.norms) if x == 0.0]
            assert zeros and all((1 - mp.mpf(a) ** 2) * mp.mpf(a) ** (n - 1) < half_least
                                 for n in zeros)
        want = mp_sums.majorant(mobius_gamma_coeffs(a, 0.0), "even_only", r)
        for coeffs in (blend, prefix):
            assert mp_sums.close(majorant(coeffs, EVEN_ONLY, r), want, 0.0)

    def test_entry_coefficients_are_the_mobius_taylor_coefficients(self):
        # c_0 = a and c_n = (1 - a^2)(-a)^(n-1), times the phase, bit for bit
        fn = MatrixCoeffFn((0.3, 0.97), (1j, np.exp(2j)))
        for i, (a, phase) in enumerate(zip(fn.params, fn.phases)):
            assert fn.entry_coefficient(i, 0) == phase * complex(a)
            for n in (1, 2, 7, 64, 300):
                assert fn.entry_coefficient(i, n) == phase * ((1.0 - a * a) * (-a) ** (n - 1))

    def test_phase_validation(self):
        with pytest.raises(DomainError):
            MatrixCoeffFn((0.5,), (2.0,))


class TestCoeffBound:
    def test_disk_family_passes(self):
        report = check_coeff_bound(mobius_gamma_coeffs(0.5, 0.0, 10),
                                   DomainSpec.disk())
        assert report.passed and report.first_violation is None

    def test_explicit_violation(self):
        report = check_coeff_bound(CoeffSeries((0.0, 2.0)), DomainSpec.disk())
        assert not report.passed
        assert report.first_violation == 1

    def test_gamma_family_passes_lemma_bound(self):
        report = check_coeff_bound(mobius_gamma_coeffs(0.7, 0.25, 10),
                                   DomainSpec.omega_gamma(0.25))
        assert report.passed

    def test_bound_is_attained_at_first_index(self):
        # the extremal family meets the bound with equality at n = 1
        for gamma in (0.0, 0.25, 0.5, 0.75):
            for a in (0.1, 0.5, 0.9, 0.999):
                report = check_coeff_bound(mobius_gamma_coeffs(a, gamma, 10),
                                           DomainSpec.omega_gamma(gamma))
                assert report.passed
                assert report.max_ratio == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_two_norm_family_reports_as_its_64_norm_prefix(self, gamma, m):
        # continuation norms never exceed the last stored one (ratio < 1)
        domains = (DomainSpec.omega_gamma(gamma), DomainSpec.disk(), DomainSpec.general(0.3))
        for a in (0.01, 0.1, 0.5, gamma, 0.9, 0.999, 0.9999):
            if not 0.0 < a < 1.0:
                continue
            for domain in domains:
                short = check_coeff_bound(mobius_gamma_coeffs(a, gamma).shifted(m), domain)
                long = check_coeff_bound(mobius_gamma_coeffs(a, gamma, 64).shifted(m), domain)
                assert (short.passed, short.first_violation, short.max_ratio) \
                    == (long.passed, long.first_violation, long.max_ratio)
                # checked counts stored norms only, not the continuation they settle
                assert (short.checked, long.checked) == (1, 64)


class TestPointBounds:
    def test_schwarz_case(self):
        assert point_eval_bound(CoeffSeries((0.0, 1.0)), 0.5) == 0.5

    def test_boundary_fixed_point(self):
        one = CoeffSeries((1.0,))
        for r in (0.0, 0.3, 0.9):
            assert point_eval_bound(one, r) == pytest.approx(1.0, abs=1e-15)

    def test_interior_value(self):
        assert point_eval_bound(CoeffSeries((0.5,)), 0.5) == pytest.approx(0.8, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    def test_monotone_in_radius(self, a0, r1, r2):
        lo, hi = sorted((r1, r2))
        c = CoeffSeries((a0,))
        assert point_eval_bound(c, hi) >= point_eval_bound(c, lo) - 1e-15

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.99))
    def test_monotone_in_head_norm(self, a1, a2, r):
        lo, hi = sorted((a1, a2))
        assert point_eval_bound(CoeffSeries((hi,)), r) >= \
            point_eval_bound(CoeffSeries((lo,)), r) - 1e-15

    def test_composed_order_one_matches_point_bound(self):
        c = CoeffSeries((0.5, 0.1))
        for r in (0.1, 0.5, 0.9):
            assert schwarz_composed_bound(c, 1, r) == point_eval_bound(c, r)

    def test_composed_order_two(self):
        c = CoeffSeries((0.5,))
        assert schwarz_composed_bound(c, 2, 0.5) == pytest.approx(
            0.75 / 1.125, abs=1e-15)

    def test_high_order_tends_to_head_norm(self):
        c = CoeffSeries((0.5,))
        assert abs(schwarz_composed_bound(c, 50, 0.5) - 0.5) < 1e-14


class TestCoeffSeries:
    def test_rejects_negative_norms(self):
        with pytest.raises(DomainError):
            CoeffSeries((-0.1,))

    @pytest.mark.parametrize("norms, start, message", [
        ((0.5, math.nan), 0, "norm at index 1 must be finite and >= 0, got nan"),
        ((math.inf,), 0, "norm at index 0 must be finite and >= 0, got inf"),
        ((0.1, 0.2, -math.inf), 0, "norm at index 2 must be finite and >= 0, got -inf"),
        ((0.0, -1e-300), 0, "norm at index 1 must be finite and >= 0, got -1e-300"),
        ((0.0, 0.3, 0.2), 2, "norms below start_index must vanish (index 1)"),
        ((0.0, 0.3, -0.2, math.nan), 2, "norms below start_index must vanish (index 1)"),
        ((0.0, 0.0, -0.2, math.nan, 0.4), 1, "norm at index 2 must be finite and >= 0, got -0.2"),
        ((0.1, math.nan, -1.0), 0, "norm at index 1 must be finite and >= 0, got nan"),
        ((0.0, -1.0, 0.5), 3, "norm at index 1 must be finite and >= 0, got -1.0"),
    ])
    def test_names_the_first_bad_norm(self, norms, start, message):
        with pytest.raises(DomainError) as err:
            CoeffSeries(norms, start)
        assert str(err.value) == message

    def test_accepts_signed_zeros_below_the_start(self):
        coeffs = CoeffSeries((-0.0, 0.0, -0.0, 0.5), 3)
        assert repr(coeffs.norms) == "(-0.0, 0.0, -0.0, 0.5)"
        assert CoeffSeries(np.array([0.25, 0.5], dtype=np.float32)).norms == (0.25, 0.5)

    def test_shift(self):
        shifted = CoeffSeries((0.5, 0.2)).shifted(2)
        assert shifted.start_index == 2
        assert shifted.norm(0) == 0.0
        assert shifted.norm(2) == 0.5
        assert shifted.norm(3) == 0.2

    def test_truncated_from_keeps_geometric_tail(self):
        coeffs = mobius_gamma_coeffs(0.8, 0.0, 4)
        cut = coeffs.truncated_from(10)
        assert cut.norm(3) == 0.0
        assert cut.norm(10) == pytest.approx(coeffs.norm(10), rel=1e-12)
        assert cut.norm(12) == pytest.approx(coeffs.norm(12), rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_truncated_from_matches_the_norm_comprehension(self, seed):
        # property: the sliced norms equal the per-index norm() construction
        # bit for bit (signed zeros included) below, at and past last_index
        def reference(coeffs, N):
            norms = tuple(0.0 if n < N else coeffs.norm(n)
                          for n in range(max(coeffs.last_index, N) + 1))
            return CoeffSeries(norms, max(coeffs.start_index, N), coeffs.tail_geometric_ratio)

        rng = np.random.default_rng(seed)
        for _ in range(10):
            size = int(rng.integers(1, 10))
            start = int(rng.integers(0, size + 3))
            zeros = rng.choice([0.0, -0.0], size)
            values = np.where(rng.random(size) < 0.2, zeros, rng.uniform(0.0, 2.0, size))
            norms = tuple(float(z if n < start else v) for n, (z, v) in enumerate(zip(zeros, values)))
            ratio = (None, 0.0, float(rng.uniform(0.0, 1.0)))[int(rng.integers(0, 3))]
            coeffs = CoeffSeries(norms, start, ratio)
            for N in range(coeffs.last_index + 4):
                cut, expected = coeffs.truncated_from(N), reference(coeffs, N)
                assert repr(cut) == repr(expected)
                assert repr(cut.norms) == repr(expected.norms)

    def test_domain_spec_effective_lambda(self):
        assert DomainSpec.omega_gamma(0.5).effective_lambda == pytest.approx(2 / 3)
        assert DomainSpec.disk().effective_lambda == 1.0
        assert DomainSpec.general(2.0).effective_lambda == 2.0
        with pytest.raises(DomainError):
            DomainSpec(lambda_h=1.0, gamma=0.0)


class TestCheckRadius:
    @pytest.mark.parametrize("r", [0, 0.0, 0.5, np.float32(0.5), np.float64(0.25), np.int64(0),
                                   np.float16(0.999), np.float32(0.0)])
    def test_accepts_real_radii_in_the_unit_interval(self, r):
        _check_radius(r)

    @pytest.mark.parametrize("r", [1, 1.0, -0.5, math.nan, math.inf, np.float32(1.0),
                                   np.int64(1), np.float64(-1e-300)])
    def test_out_of_range_names_the_value(self, r):
        with pytest.raises(DomainError, match=r"^radius must lie in \[0, 1\), got "):
            _check_radius(r)

    @pytest.mark.parametrize("r, name", [("0.5", "str"), (None, "NoneType"), (0.5j, "complex"),
                                         ([0.5], "list"), (np.bool_(False), "bool"),
                                         (np.array([0.5]), "ndarray"), (True, "bool"),
                                         (False, "bool")])
    def test_wrong_type_names_the_type(self, r, name):
        with pytest.raises(DomainError) as err:
            _check_radius(r)
        assert str(err.value).endswith(f"got {name}")

    def test_bools_never_reach_the_formulas(self):
        # a bool is an int, but not a radius: phi_0 read the int 1 at r = False
        coeffs = CoeffSeries((1.0, 0.5))
        for r in (False, np.bool_(False)):
            for call in (lambda: phi_term(MONOMIAL, 0, r), lambda: majorant(coeffs, MONOMIAL, r)):
                with pytest.raises(DomainError, match="got bool$"):
                    call()

    def test_numpy_scalars_reach_the_formulas(self):
        assert phi_term(MONOMIAL, 2, np.float32(0.5)) == 0.25
        assert phi_term(MONOMIAL, 2, np.int64(0)) == 0
