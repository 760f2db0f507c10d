"""Leftmost-root scanning and bisection certificates."""

import math

import numpy as np
import pytest

from bohrad import count_sign_changes, decreasing_root, increasing_root, min_positive_root
from bohrad.errors import DomainError, NonConvergenceError, NoRootError
from bohrad.roots import SCAN_BLOCK


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
        for kwargs in ({"tol": 0.0}, {"scan_step": -1e-3}, {"tol": math.nan},
                       {"scan_step": math.nan}, {"upper": math.nan}, {"upper": 1.5}):
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
                       {"upper": math.nan}, {"upper": math.inf}):
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
    (lambda r: r - 0.3, {"scan_step": 1.5}),           # no grid point at all
    (lambda r: r - 0.31, {"scan_step": 1e-6}),
    (lambda r: r - 0.5, {"scan_step": 1e-6}),
]


def search_calls(calls, result):
    """The calls of f that found the bracket: not bisection, nor the check of a grid zero."""
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
        first = increasing_root(lambda r: r - 0.125, scan_step=0.125)
        assert (first.value, first.bracket[0], first.iterations) == (0.125, 0.125 - 1e-12, 1)

    @pytest.mark.parametrize("step", [1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("root", [0.0012345, 0.123456, 0.987654])
    def test_bracket_search_calls(self, step, root):
        # work-counter guard: about log2(1/step) grid points before bisection
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
        # work-counter guard: about log2(1/step) grid points before bisection
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
