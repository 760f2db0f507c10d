"""Leftmost-root scanning, bracket narrowing and its certificates."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bohrad import (BUILTIN_PHI, DomainSpec, HyperbolicDensity, RadiusProblem,
                    closed_form_radius, count_sign_changes, decreasing_root, increasing_root,
                    min_positive_root)
from bohrad.bloch import MAJORANT_THRESHOLD, gamma_equation_value, m_integral
from bohrad.errors import DomainError, NonConvergenceError, NoRootError
from bohrad.radii import refined_equation, rogosinski_equation
from bohrad.roots import SCAN_BLOCK, _narrow


class TestMinPositiveRoot:
    def test_linear(self):
        result = min_positive_root(lambda r: r - 1.0 / 3.0)
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_minimality_tie_break(self):
        result = min_positive_root(lambda r: (r - 0.2) * (r - 0.8), scan_step=1e-3)
        assert result.value == pytest.approx(0.2, abs=1e-12)

    def test_quadratic_formula_oracle(self):
        # p (1-r)^2 - 2 (1+r) r at p = 1 expands to 1 - 4r - r^2, whose
        # positive root is sqrt(5) - 2 by the quadratic formula
        root = math.sqrt(5.0) - 2.0
        result = min_positive_root(lambda r: (1 - r) ** 2 - 2 * (1 + r) * r)
        assert result.value == pytest.approx(root, abs=1e-12)

    def test_no_root_reports_sign(self):
        with pytest.raises(NoRootError) as err:
            min_positive_root(lambda r: 1.0 + r)
        assert err.value.all_positive and not err.value.all_negative
        with pytest.raises(NoRootError) as err:
            min_positive_root(lambda r: -1.0 - r)
        assert err.value.all_negative and not err.value.all_positive

    def test_certificate_residual_and_bracket(self):
        tol = 1e-12
        fns = [lambda r: r - 1.0 / 3.0,
               lambda r: (1 - r) ** 2 - 2 * (1 + r) * r,
               lambda r: 2.0 - 200.0 * r * (2 - r) / (1 - r) ** 2]  # steep
        for f in fns:
            result = min_positive_root(f, tol=tol)
            lo, hi = result.bracket
            assert lo < result.value < hi or result.residual == 0.0
            assert hi - lo <= 2 * tol + 1e-15
            assert abs(result.residual) <= 10 * tol
            assert f(lo) * f(hi) <= 0.0

    def test_minimality_rescan(self):
        # a finer scan below the root finds no earlier sign change
        f = lambda r: (r - 0.2) * (r - 0.8)
        result = min_positive_root(f, scan_step=1e-3)
        step = result.scan_step / 10.0
        prev = f(step)
        x = 2 * step
        while x < result.value - step:
            v = f(x)
            assert prev * v > 0.0
            prev = v
            x += step

    def test_exact_zero_on_grid(self):
        result = min_positive_root(lambda r: r - 0.5, scan_step=0.25)
        assert result.value == 0.5
        assert result.residual == 0.0

    @pytest.mark.parametrize("solver", [min_positive_root, increasing_root, decreasing_root])
    def test_parameter_validation(self, solver):
        # nan fails every comparison, so "<= 0" alone would let it through
        # a step of 1 or more has no grid point below upper <= 1
        for kwargs in ({"tol": 0.0}, {"scan_step": -1e-3}, {"tol": math.nan},
                       {"scan_step": math.nan}, {"scan_step": 1.0}, {"scan_step": 1.5},
                       {"upper": math.nan}, {"upper": 1.5}):
            with pytest.raises(DomainError):
                solver(lambda r: r - 0.5, **kwargs)


class TestSignChanges:
    def test_counts(self):
        assert count_sign_changes(lambda r: (r - 0.2) * (r - 0.8)) == 2
        assert count_sign_changes(lambda r: r - 0.5) == 1
        assert count_sign_changes(lambda r: 1.0 + 0.0 * r) == 0

    @pytest.mark.parametrize("scale", [1e-170, 1e-290])
    def test_tiny_values_keep_their_sign_changes(self, scale):
        # products of these values underflow to -0.0; their signs do not
        f = lambda r: scale * (r - 0.2) * (r - 0.8)
        assert count_sign_changes(f) == 2

    def test_parameter_validation(self):
        # a step <= 0 or an unbounded upper end would never end the scan
        for kwargs in ({"scan_step": 0.0}, {"scan_step": -1e-3}, {"scan_step": math.nan},
                       {"scan_step": 1.0}, {"upper": math.nan}, {"upper": math.inf}):
            with pytest.raises(DomainError):
                count_sign_changes(lambda r: r - 0.5, **kwargs)


class TestGridScan:
    """count_sign_changes calls f on np.arange blocks of the scan grid."""

    @pytest.mark.parametrize("step, upper", [
        (1e-3, 1.0), (0.25, 1.0), (1e-3, 0.75), (1e-5, 1.0), (3e-6, 0.5), (1e-5, 0.010245),
        (1.0 / 1025, 1.0),  # x_1 .. x_1024 fill one block and x_1025 = 1.0 is not below upper
        (1e-6, 1.0)])
    def test_f_reads_the_arange_blocks_cut_at_upper(self, step, upper):
        calls = []

        def f(r):
            calls.append(r)
            return r - 0.005

        count_sign_changes(f, step, upper)
        # reference: x_k = k step from np.arange, SCAN_BLOCK points at a time
        expected, k = [], 1
        while k * step < upper:
            xs = np.arange(k, k + SCAN_BLOCK) * step
            expected.append(xs[xs < upper])
            k += SCAN_BLOCK
        assert len(calls) == len(expected)
        for xs, want in zip(calls, expected):
            assert xs.dtype == want.dtype and xs.tobytes() == want.tobytes()
        assert all(0 < xs.size <= SCAN_BLOCK for xs in calls)  # no empty call after a full block

    def test_blocks_are_bounded(self):
        sizes = []

        def f(r):
            sizes.append(r.size)
            return r - 0.005

        assert count_sign_changes(f, 1e-6) == 1
        assert max(sizes) == SCAN_BLOCK and len(sizes) == math.ceil(999_999 / SCAN_BLOCK)

    @pytest.mark.parametrize("f, step", [
        (lambda r: (r - 0.2) * (r - 0.8), 1e-3),
        (lambda r: (r - 0.25) * (r - 0.5) * (r - 0.75), 0.25),  # zeros on scan points
        (lambda r: np.sin(40.0 * r), 1e-3),
        (lambda r: np.sin(400.0 * r), 1e-5),
        (lambda r: 1.0 + 0.0 * r, 1e-3),
    ])
    def test_sign_changes_match_pointwise_count(self, f, step):
        # reference: walk the scan points one by one, skipping zeros
        expected, prev, k = 0, math.nan, 1
        while k * step < 1.0:
            v = float(f(k * step))
            expected += prev * v < 0
            prev = v if v != 0.0 else prev
            k += 1
        assert count_sign_changes(f, step) == expected

    def test_zeros_keep_the_sign_and_nans_change_none(self):
        seen = []

        def f(r):
            seen.append(r)
            return np.where(r == 0.5, math.nan, r - 0.3)

        # a zero keeps the previous sign; a nan changes no sign and replaces it
        assert count_sign_changes(f, 0.125) == 1
        assert count_sign_changes(lambda r: r - 0.375, 0.125) == 1
        assert count_sign_changes(lambda r: np.where(r == 0.375, math.nan, r - 0.3), 0.125) == 0
        assert len(seen) == 1 and seen[0].dtype == np.float64
        assert seen[0].tolist() == [k * 0.125 for k in range(1, 8)]


def solve(solver, f, **kwargs):
    """RootResult of the solver, or the NoRootError flags."""
    try:
        return solver(f, **kwargs)
    except NoRootError as err:
        return err.all_positive, err.all_negative


# increasing functions, whose negatives change sign at most once, from + to -
MONOTONE_CASES = [
    (lambda r: r - 1.0 / 3.0, {}),
    (lambda r: (1 + r) ** 3 - 1.9, {"tol": 1e-9}),
    (lambda r: 200.0 * r * (2 - r) / (1 - r) ** 2 - 2.0, {}),  # steep
    (lambda r: r - 1e-3, {}),                          # zero on x_1
    (lambda r: r - 0.5, {"scan_step": 0.25}),          # zero on x_2
    (lambda r: r - 0.75, {"scan_step": 0.125}),        # zero on x_6
    (lambda r: 1.0 + r, {}),                           # f(x_1) > 0
    (lambda r: r - 1e-4, {}),                          # root below x_1
    (lambda r: -1.0 - r, {}),                          # no root below 1
    (lambda r: r - 0.7, {"upper": 0.75}),
    (lambda r: r - 0.9, {"upper": 0.5}),
    (lambda r: r - 0.3, {"upper": 0.5, "scan_step": 0.125}),
    (lambda r: r - 0.45, {"upper": 0.5, "scan_step": 0.125}),  # x_4 = upper is off the grid
    (lambda r: r - 0.29, {"upper": 0.3, "scan_step": 0.1}),    # 3 * 0.1 > 0.3 in floats
    (lambda r: r - 0.3, {"scan_step": 0.5, "upper": 0.25}),  # no grid point at all
    (lambda r: r - 0.31, {"scan_step": 1e-6}),
    (lambda r: r - 0.5, {"scan_step": 1e-6}),
]


def search_calls(calls, result):
    """The calls of f that found the bracket: not narrowing, nor the check of a grid zero."""
    k = result.iterations
    if result.value == k * result.scan_step:  # zero on x_k, confirmed (uncounted) at x_{k+1}
        assert calls[-1] == (k + 1) * result.scan_step
        return calls[:-1]
    return calls[:len(calls) - (k - math.floor(result.value / result.scan_step) - 1)]


class TestIncreasingRoot:
    """Index bisection must reproduce the scalar scan on increasing functions."""

    @pytest.mark.parametrize("f, kwargs", MONOTONE_CASES)
    def test_matches_scalar_scan(self, f, kwargs):
        assert solve(increasing_root, f, **kwargs) == solve(min_positive_root, f, **kwargs)

    def test_no_root_flags(self):
        assert solve(increasing_root, lambda r: 1.0 + r) == (True, False)
        assert solve(increasing_root, lambda r: -1.0 - r) == (False, True)
        assert solve(increasing_root, lambda r: r - 0.6, upper=0.5) == (False, True)

    @pytest.mark.parametrize("upper, step", [(1.0, 1e-3), (0.5, 0.125), (0.3, 0.1)])
    def test_never_evaluates_at_or_above_upper(self, upper, step):
        def f(r):
            assert r < upper
            return -1.0

        assert solve(increasing_root, f, scan_step=step, upper=upper) == (False, True)

    def test_zero_on_the_grid(self):
        result = increasing_root(lambda r: r - 0.75, scan_step=0.125)
        assert (result.value, result.residual, result.iterations) == (0.75, 0.0, 6)
        # f(x_1/2) = -0.0625 is nonzero, so x_1 is a root; neither check is counted
        first = increasing_root(lambda r: r - 0.125, scan_step=0.125)
        assert (first.value, first.bracket[0], first.iterations) == (0.125, 0.125 - 1e-12, 1)

    @pytest.mark.parametrize("step", [1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("root", [0.0012345, 0.123456, 0.987654])
    def test_bracket_search_calls(self, step, root):
        # work-counter guard: about log2(1/step) grid points before narrowing
        calls = []

        def f(r):
            calls.append(r)
            return r - root

        result = increasing_root(f, scan_step=step)
        search = search_calls(calls, result)
        assert 1 <= len(search) <= math.ceil(math.log2(1.0 / step + 2.0))
        assert all(r == round(r / step) * step and r < 1.0 for r in search)


def negated(f):
    return lambda r: -f(r)


class TestDecreasingRoot:
    """Index bisection must reproduce the scalar scan where f falls through zero once."""

    @pytest.mark.parametrize("f, kwargs", MONOTONE_CASES)
    def test_matches_scalar_scan(self, f, kwargs):
        g = negated(f)
        assert solve(decreasing_root, g, **kwargs) == solve(min_positive_root, g, **kwargs)

    def test_no_root_flags(self):
        assert solve(decreasing_root, lambda r: 1.0 + r) == (True, False)
        assert solve(decreasing_root, lambda r: -1.0 - r) == (False, True)
        assert solve(decreasing_root, lambda r: 0.6 - r, upper=0.5) == (True, False)

    @pytest.mark.parametrize("upper, step", [(1.0, 1e-3), (0.5, 0.125), (0.3, 0.1)])
    def test_never_evaluates_at_or_above_upper(self, upper, step):
        def f(r):
            assert r < upper
            return 1.0

        assert solve(decreasing_root, f, scan_step=step, upper=upper) == (True, False)

    @pytest.mark.parametrize("step", [1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("root", [0.0012345, 0.123456, 0.987654])
    def test_bracket_search_calls(self, step, root):
        # work-counter guard: about log2(1/step) grid points before narrowing
        calls = []

        def f(r):
            calls.append(r)
            return root - r

        result = decreasing_root(f, scan_step=step)
        search = search_calls(calls, result)
        assert 1 <= len(search) <= math.ceil(math.log2(1.0 / step)) + 1
        assert all(r == round(r / step) * step and r < 1.0 for r in search)


ALL_SOLVERS = [(min_positive_root, 1.0), (increasing_root, 1.0), (decreasing_root, -1.0)]


class TestUnderflow:
    """Values below about 1e-162 keep their signs, and a run of zeros is not a root."""

    @pytest.mark.parametrize("solver, sign", ALL_SOLVERS)
    @pytest.mark.parametrize("scale", [1e-170, 1e-250, 1e-290])
    def test_tiny_values_keep_their_sign_change(self, solver, sign, scale):
        # f(x) f(y) underflows to -0.0 at these scales, which hid the sign change
        f = lambda r: sign * scale * (r - 1.0 / 3.0)
        result = solver(f)
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert result == min_positive_root(f)

    @pytest.mark.parametrize("solver, sign", ALL_SOLVERS)
    def test_two_zeros_on_the_grid_raise_naming_r(self, solver, sign):
        def f(r):  # underflows to 0.0 below r = 0.3 and changes sign at 0.5
            return 0.0 if r < 0.3 else sign * (r - 0.5)

        with pytest.raises(NonConvergenceError, match=r"r = 0\.001 .* r = 0\.002"):
            solver(f)

    @pytest.mark.parametrize("solver, sign", ALL_SOLVERS)
    def test_zero_on_the_first_grid_point_and_halfway_to_it_raises_naming_r(self, solver,
                                                                            sign):
        def f(r):  # underflows to 0.0 below r = 0.0015, so x_2 reads nonzero
            return 0.0 if r < 0.0015 else sign * (r - 0.0015)

        with pytest.raises(NonConvergenceError, match=r"r = 0\.0005 .* r = 0\.001;"):
            solver(f)

    @pytest.mark.parametrize("solver, sign", ALL_SOLVERS)
    def test_isolated_zero_is_a_root_and_its_check_is_not_counted(self, solver, sign):
        calls = []

        def f(r):
            calls.append(r)
            return sign * (r - 0.5)

        result = solver(f, scan_step=0.25)
        assert (result.value, result.residual, result.iterations) == (0.5, 0.0, 2)
        assert len(calls) == 3 and calls[-1] == 0.75

    def test_zero_on_the_last_grid_point_reads_nothing_at_upper(self):
        def f(r):
            assert r < 1.0
            return r - 0.75

        assert min_positive_root(f, scan_step=0.25).value == 0.75


def traced(f):
    """f, and the list of (r, f(r)) of its calls."""
    calls = []

    def wrapper(r):
        value = f(r)
        calls.append((r, value))
        return value
    return wrapper, calls


def assert_certified(result, tol=1e-12):
    """The bracket is at most 2 tol wide and the residual at most 10 tol,
    unless the search stopped at float resolution; value lies in the bracket."""
    lo, hi = result.bracket
    assert lo <= result.value <= hi
    at_resolution = result.value in (lo, hi)  # the midpoint rounded onto an end
    assert hi - lo <= 2 * tol + 4 * math.ulp(hi) or at_resolution
    assert abs(result.residual) <= 10 * tol or at_resolution


def narrowing_evaluations(calls, result, tol=1e-12):
    """Calls of f inside the root's scan cell until their signs bracket it within 2 tol."""
    step = result.scan_step
    k = math.floor(result.value / step) + 1
    lo, hi = (k - 1) * step, k * step
    f_hi = dict(calls)[hi]
    inside = calls[len(calls) - (result.iterations - k):]
    assert all(lo < r < hi for r, _ in inside)
    for n, (r, v) in enumerate(inside, 1):
        if v == 0.0:
            return n
        if v < 0.0 < f_hi or f_hi < 0.0 < v:
            lo = r
        else:
            hi = r
        if hi - lo <= 2 * tol:
            return n
    return len(inside)


def bisection_evaluations(step, tol=1e-12):
    """Halvings of a scan cell down to a 2 tol bracket."""
    return math.ceil(math.log2(step / (2 * tol)))


def closed_form(kind, p, gamma):
    """The closed-form refined radius at m = 0 on Omega_gamma, where one exists."""
    if kind == "monomial" and p in (1.0, 2.0):
        return closed_form_radius("gamma_p1" if p == 1.0 else "gamma_p2", gamma=gamma)
    if kind == "even_only":
        return closed_form_radius("even_p", gamma=gamma, p=p)
    if kind == "odd_only":
        return closed_form_radius("odd_p", gamma=gamma, p=p).derived
    return None


# off the scan grid and off every dyadic midpoint of its cell
C = 1.0 / 3.0 + math.pi * 1e-7


def quadratic(r):
    """1 - 4 r - r^2, whose root in (0, 1) is sqrt(5) - 2."""
    return (1 - r) ** 2 - 2 * (1 + r) * r


def tanh_step(r):
    return math.tanh(1e6 * (r - C))


# increasing f whose sign changes once, at C, where interpolation does
# badly: a ninth-order zero, a step of slope 1e6, signs only, and an
# infinite slope
WORST_CASES = {
    "ninth_power": lambda r: (r - C) ** 9,
    "tanh_step": tanh_step,
    "sign_only": lambda r: 1.0 if r > C else -1.0,
    "ninth_root": lambda r: math.copysign(abs(r - C) ** (1 / 9), r - C),
}


class TestNarrowing:
    """Safeguarded Brent-Dekker narrowing of the scan's bracket."""

    @pytest.mark.parametrize("name", sorted(WORST_CASES))
    def test_worst_cases_keep_the_certificate_within_twice_bisection(self, name):
        f, calls = traced(WORST_CASES[name])
        result = min_positive_root(f)
        assert result == increasing_root(WORST_CASES[name])
        assert_certified(result)
        assert result.bracket[0] <= C <= result.bracket[1]
        assert narrowing_evaluations(calls, result) <= 2 * bisection_evaluations(1e-3) + 3

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    @pytest.mark.parametrize("f, solver, root", [
        (quadratic, decreasing_root, math.sqrt(5.0) - 2.0),
        (tanh_step, increasing_root, C),
    ])
    def test_scaled_f_keeps_the_certificate_and_the_root(self, scale, f, solver, root):
        scaled, calls = traced(lambda r: scale * f(r))
        result = min_positive_root(scaled)
        assert result == solver(lambda r: scale * f(r))
        assert_certified(result)
        assert narrowing_evaluations(calls, result) <= 2 * bisection_evaluations(1e-3) + 3
        assert result.value == pytest.approx(min_positive_root(f).value, abs=1e-12)
        assert result.value == pytest.approx(root, abs=1e-12)

    def test_a_nan_left_end_is_halved_first(self):
        # x_0 reads nan; no solver hands one to the narrowing, which keeps
        # its bracket all the same
        f, calls = traced(lambda r: r - 1e-4)
        result = _narrow(f, 0.0, 1e-3, math.nan, f(1e-3), 1e-12, 1e-3, 1)
        assert calls[1][0] == 0.5e-3
        assert_certified(result)
        assert result.value == pytest.approx(1e-4, abs=1e-12)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(BUILTIN_PHI)),
           m=st.one_of(st.just(0), st.integers(0, 20)),
           p=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.05, 2.0)),
           gamma=st.floats(0.0, 0.95), N=st.integers(1, 8), mu=st.floats(0.0, 50.0),
           rogosinski=st.booleans(), step=st.sampled_from([1e-3, 1e-6]))
    def test_built_in_radii_are_certified_within_bisection_work(self, kind, m, p, gamma, N,
                                                               mu, rogosinski, step):
        if rogosinski:
            problem = RadiusProblem(BUILTIN_PHI[kind], p, m=max(m, 1), N=N, mu=mu,
                                    equation_kind="rogosinski")
            F, calls = traced(rogosinski_equation(problem))
        else:
            problem = RadiusProblem(BUILTIN_PHI[kind], p, m=m,
                                    domain=DomainSpec.omega_gamma(gamma))
            F, calls = traced(refined_equation(problem))
        try:
            result = decreasing_root(F, scan_step=step)
        except NoRootError:
            assume(False)
        assert_certified(result)
        assert narrowing_evaluations(calls, result) <= bisection_evaluations(step)
        expected = None if rogosinski or m else closed_form(kind, p, gamma)
        if expected is not None:
            assert result.value == pytest.approx(expected, abs=1e-10)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(gamma=st.one_of(st.none(), st.floats(0.0, 0.9)), nu=st.floats(0.1, 1.0),
           closed=st.booleans(), step=st.sampled_from([1e-3, 1e-6]))
    def test_bloch_radii_are_certified_within_bisection_work(self, gamma, nu, closed, step):
        if closed:
            g = 0.0 if gamma is None else gamma
            F, calls = traced(lambda r: gamma_equation_value(g, nu, r))
        else:
            density = (HyperbolicDensity.unit_disk() if gamma is None
                       else HyperbolicDensity.omega_gamma(gamma))
            F, calls = traced(lambda r: m_integral(density, nu, r) - MAJORANT_THRESHOLD)
        try:
            result = increasing_root(F, scan_step=step)
        except NoRootError:
            assume(False)
        assert_certified(result)
        assert narrowing_evaluations(calls, result) <= bisection_evaluations(step)

