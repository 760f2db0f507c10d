"""Weight-sequence kernel: terms, closed-form tails, refinement sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad import (BUILTIN_PHI, EVEN_ONLY, MONOMIAL, ODD_ONLY,
                    WEIGHTED_LINEAR, WEIGHTED_QUADRATIC, CoeffSeries,
                    PhiSequence, RadiusProblem, phi_tail, phi_term, radius_refined,
                    refined_sum)
from bohrad import phi as phi_module
from bohrad.errors import ConfigurationError, DomainError, NonConvergenceError
from bohrad.phi import (GEOMETRIC_FORMS, _power_tail, _refined_weight, _truncated_tail, ratio_form,
                        tail_from, term_at)
from bohrad.series import (ABS_TOL, CONTINUATION_FLOOR, TAIL_RATIO_CAP, TRUNCATION_N,
                           GeometricWeight)

import mp_sums

# independent term formulas for the partial-sum oracle, in the float
# operation order the built-in terms were first written in
ORACLE_TERMS = {
    "monomial": lambda n, r: r**n,
    "weighted_linear": lambda n, r: (n + 1) * r**n,
    "weighted_quadratic": lambda n, r: 1.0 if n == 0 else n * n * r**n,
    "even_only": lambda n, r: r**n if n % 2 == 0 else 0.0,
    "odd_only": lambda n, r: 1.0 if n == 0 else (r**n if n % 2 == 1 else 0.0),
}


def oracle_tail(kind, N, r, terms=800):
    f = ORACLE_TERMS[kind]
    return math.fsum(f(n, r) for n in range(N, N + terms))


class TestPhiTerm:
    def test_monomial(self):
        assert phi_term(MONOMIAL, 3, 0.5) == 0.125

    def test_weighted_linear(self):
        assert phi_term(WEIGHTED_LINEAR, 2, 0.5) == 0.75

    def test_even_only_odd_terms_vanish(self):
        assert phi_term(EVEN_ONLY, 3, 0.9) == 0.0

    def test_odd_only_head(self):
        assert phi_term(ODD_ONLY, 0, 0.7) == 1.0
        assert phi_term(ODD_ONLY, 2, 0.7) == 0.0
        assert phi_term(ODD_ONLY, 3, 0.5) == 0.125

    def test_weighted_quadratic_head(self):
        assert phi_term(WEIGHTED_QUADRATIC, 0, 0.3) == 1.0
        assert phi_term(WEIGHTED_QUADRATIC, 3, 0.5) == 9 * 0.125

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi_term(MONOMIAL, 2, 1.0)
        with pytest.raises(DomainError):
            phi_term(MONOMIAL, -1, 0.5)

    def test_custom_without_term_is_rejected(self):
        with pytest.raises(ConfigurationError):
            PhiSequence("custom")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            PhiSequence("fibonacci")

    def test_kinds_come_from_the_geometric_forms(self):
        assert phi_module.PHI_KINDS == (*GEOMETRIC_FORMS, "custom")
        assert list(BUILTIN_PHI) == list(GEOMETRIC_FORMS)
        constants = (MONOMIAL, WEIGHTED_LINEAR, WEIGHTED_QUADRATIC, EVEN_ONLY, ODD_ONLY)
        for kind, constant in zip(GEOMETRIC_FORMS, constants):
            assert BUILTIN_PHI[kind] is constant and constant.kind == kind


class TestPhiTail:
    def test_monomial_geometric(self):
        assert phi_tail(MONOMIAL, 1, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_weighted_linear_matches_partial_sum_oracle(self):
        # oracle to n = 200 pins the closed form r(2-r)/(1-r)^2
        expected = math.fsum((n + 1) * 0.5**n for n in range(1, 201))
        assert expected == pytest.approx(3.0, abs=1e-12)
        assert phi_tail(WEIGHTED_LINEAR, 1, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_weighted_quadratic_matches_partial_sum_oracle(self):
        expected = math.fsum(n * n * 0.5**n for n in range(1, 201))
        assert expected == pytest.approx(6.0, abs=1e-12)
        assert phi_tail(WEIGHTED_QUADRATIC, 1, 0.5) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", list(ORACLE_TERMS))
    @pytest.mark.parametrize("N", range(7))
    def test_closed_forms_match_oracle_on_grid(self, kind, N):
        phi = BUILTIN_PHI[kind]
        for k in range(19):  # r = 0, 0.05, ..., 0.90
            r = 0.05 * k
            got = phi_tail(phi, N, r)
            want = oracle_tail(kind, N, r)
            # tolerance scales with the tail: doubles cannot carry an
            # absolute 1e-12 on values of size 1e3
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("r", mp_sums.R_GRID)
    @pytest.mark.parametrize("kind", list(ORACLE_TERMS))
    def test_closed_forms_hold_near_one(self, kind, r):
        # no cancelling terms: relative accuracy stays near round-off
        for N in (0, 1, 7, 1000):
            with mp_sums.mp.workdps(mp_sums.DPS):
                want = mp_sums.phi_tail(kind, N, mp_sums.mp.mpf(r))
            assert abs(phi_tail(BUILTIN_PHI[kind], N, r) - want) <= 1e-14 * want, N

    @pytest.mark.parametrize("kind", list(ORACLE_TERMS))
    @pytest.mark.parametrize("N", range(7))
    def test_telescoping(self, kind, N):
        phi = BUILTIN_PHI[kind]
        for k in range(19):
            r = 0.05 * k
            lhs = phi_tail(phi, N, r) - phi_tail(phi, N + 1, r)
            want = phi_term(phi, N, r)
            assert abs(lhs - want) <= 1e-12 * max(1.0, phi_tail(phi, N, r))

    @pytest.mark.parametrize("kind", list(ORACLE_TERMS))
    def test_tail_nondecreasing_in_r(self, kind):
        phi = BUILTIN_PHI[kind]
        for N in range(5):
            values = [phi_tail(phi, N, 0.05 * k) for k in range(20)]  # up to 0.95
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_custom_matching_monomial(self):
        custom = PhiSequence("custom", custom_term=lambda n, r: r**n)
        for r in (0.0, 0.3, 0.6, 0.9):
            assert custom and abs(phi_tail(custom, 2, r) - phi_tail(MONOMIAL, 2, r)) <= 1e-12

    def test_custom_closed_tail_takes_precedence(self):
        custom = PhiSequence("custom", custom_term=lambda n, r: r**n,
                             custom_tail=lambda N, r: r**N / (1 - r))
        assert phi_tail(custom, 3, 0.5) == 0.5**3 / 0.5

    def test_non_convergent_custom_raises(self):
        slow = PhiSequence("custom", custom_term=lambda n, r: 1.0 / (n + 1.0))
        with pytest.raises(NonConvergenceError):
            phi_tail(slow, 0, 0.5)

    def test_ratio_above_cap_raises(self):
        nearly_flat = PhiSequence("custom", custom_term=lambda n, r: 0.995**n)
        with pytest.raises(NonConvergenceError):
            phi_tail(nearly_flat, 0, 0.5)


def written_quadratic_tail(N, r):
    head = 1.0 if N == 0 else 0.0
    M = max(N, 1)
    poly = M * M * (1.0 - r) ** 2 + 2 * M * r * (1.0 - r) + r * (1.0 + r)
    return head + r**M * poly / (1.0 - r) ** 3


# Phi_N(r) of each built-in kind as one closed form per kind, the way
# the tails were first written, before all were derived from GEOMETRIC_FORMS
WRITTEN_TAILS = {
    "monomial": lambda N, r: r**N / (1.0 - r),
    "weighted_linear": lambda N, r: r**N * (1 + N * (1.0 - r)) / (1.0 - r) ** 2,
    "weighted_quadratic": written_quadratic_tail,
    "even_only": lambda N, r: r ** (N + N % 2) / ((1.0 - r) * (1.0 + r)),
    "odd_only": lambda N, r: (1.0 if N == 0 else 0.0) + r ** (N | 1) / ((1.0 - r) * (1.0 + r)),
}


def tail_draws(count, seed):
    """(N, r) with N <= 300 and r in [0, 1 - 1e-6], half of them close to 1."""
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(0.0, 1.0 - 1e-6, count // 2)
    near_one = 1.0 - 10.0 ** -rng.uniform(0.0, 6.0, count - count // 2)
    rs = np.concatenate((uniform, near_one))
    return list(zip(rng.integers(0, 301, count).tolist(), rs.tolist()))


class TestTailRoutine:
    """Every built-in tail comes from series.power_tail through GEOMETRIC_FORMS."""

    @pytest.mark.parametrize("kind", sorted(WRITTEN_TAILS))
    def test_matches_the_written_closed_forms(self, kind):
        # b1 = b2 = 0 keeps the written operations; the linear and
        # quadratic factors group them differently, within a few ulp
        tail = {N: tail_from(BUILTIN_PHI[kind], N) for N in range(301)}
        exact = kind in ("monomial", "even_only", "odd_only")
        for N, r in tail_draws(10_000, 17):
            got, want = tail[N](r), WRITTEN_TAILS[kind](N, r)
            if exact:
                assert got.hex() == want.hex(), (N, r)
            else:
                assert abs(got - want) <= 8 * math.ulp(want), (N, r)

    @pytest.mark.parametrize("kind", sorted(WRITTEN_TAILS) + ["custom"])
    def test_ratio_form_binds_phi_tail_over_phi_term(self, kind):
        phi = BUILTIN_PHI.get(kind) or CUSTOM_PHI[kind]
        for m in range(13):
            form = ratio_form(phi, m)
            if kind == "custom" or phi_term(phi, m, 0.5) == 0.0:
                assert form is None
                continue
            ratio = _power_tail(*form)
            for r in (1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-6):
                want = phi_tail(phi, m + 1, r) / phi_term(phi, m, r)
                assert abs(ratio(r) - want) <= 1e-14 * want, (m, r)

    @pytest.mark.parametrize("kind", sorted(WRITTEN_TAILS))
    def test_bound_tail_is_the_geometric_weight_tail(self, kind):
        c, step, parity, head = GEOMETRIC_FORMS[kind]
        tail = {N: tail_from(BUILTIN_PHI[kind], N) for N in range(301)}
        for N, r in tail_draws(2_000, 29):
            weight = GeometricWeight(c, r, 1.0 - r, step, parity, head)
            assert tail[N](r).hex() == weight.tail(N).hex(), (N, r)

    def test_every_step_2_polynomial_is_constant(self):
        # phi._power_tail sums P(n) r^n on a step-2 class in closed form only for a
        # constant P: a kind that breaks this needs that form, not step 1's
        for kind, (c, step, _, _) in GEOMETRIC_FORMS.items():
            polys = (c, *phi_module._REFINED_POLYS[kind])
            assert len(phi_module._REFINED_TAILS[kind]) == len(polys) - 1
            assert step == 1 or all(p[1:] == (0, 0) for p in polys), kind


def bits(x):
    """Type, shape and bytes of a value: equal means equal bit for bit."""
    a = np.asarray(x, dtype=float)
    return type(x), a.shape, a.tobytes()


CUSTOM_PHI = {  # weighted_linear as custom kinds: a truncated tail, and a closed one
    "custom": PhiSequence("custom", custom_term=ORACLE_TERMS["weighted_linear"]),
    "custom_tail": PhiSequence("custom", custom_term=ORACLE_TERMS["weighted_linear"],
                               custom_tail=lambda N, r: r**N * (1 + N * (1.0 - r)) / (1.0 - r) ** 2),
}


def evaluated(f, *args):
    """bits of f(*args), or the type and message of its DomainError or NonConvergenceError."""
    try:
        return bits(f(*args))
    except (DomainError, NonConvergenceError) as exc:
        return type(exc), str(exc)


class TestBinders:
    """term_at/tail_from resolve kind and index once and match phi_term/phi_tail exactly."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(BUILTIN_PHI) + sorted(CUSTOM_PHI)), n=st.integers(0, 12),
           r=st.floats(0.0, 1.0, exclude_max=True))
    def test_bound_weights_equal_phi_term_and_phi_tail(self, kind, n, r):
        phi = BUILTIN_PHI.get(kind) or CUSTOM_PHI[kind]
        term, tail = term_at(phi, n), tail_from(phi, n)
        assert bits(term(r)) == bits(phi_term(phi, n, r))
        assert evaluated(tail, r) == evaluated(phi_tail, phi, n, r)
        if kind in BUILTIN_PHI:  # the term formulas as they were written per kind
            assert bits(term(r)) == bits(ORACLE_TERMS[kind](n, r))

    @pytest.mark.parametrize("kind", sorted(BUILTIN_PHI) + sorted(CUSTOM_PHI))
    def test_negative_index_raises_the_old_message(self, kind):
        phi = BUILTIN_PHI.get(kind) or CUSTOM_PHI[kind]
        for bind, call in ((term_at, phi_term), (tail_from, phi_tail)):
            with pytest.raises(DomainError) as bound:
                bind(phi, -1)
            with pytest.raises(DomainError) as direct:
                call(phi, -1, 0.5)
            assert str(bound.value) == str(direct.value)

    @pytest.mark.parametrize("value", [-1e-3, -math.inf, math.nan, math.inf])
    def test_bound_custom_term_checks_its_value(self, value):
        phi = PhiSequence("custom", custom_term=lambda n, r: value)
        with pytest.raises(DomainError) as bound:
            term_at(phi, 4)(0.5)
        with pytest.raises(DomainError) as direct:
            phi_term(phi, 4, 0.5)
        assert str(bound.value) == str(direct.value) == "custom term at n=4 must be finite and >= 0"

    @pytest.mark.parametrize("value", [-1.0, -1e-300, -math.inf, math.nan, math.inf])
    def test_bound_custom_tail_checks_its_value(self, value):
        phi = PhiSequence("custom", custom_term=lambda n, r: r**n,
                          custom_tail=lambda N, r: value)
        with pytest.raises(DomainError) as bound:
            tail_from(phi, 1)(0.5)
        with pytest.raises(DomainError) as direct:
            phi_tail(phi, 1, 0.5)
        assert str(bound.value) == str(direct.value) \
            == "custom tail at N=1, r=0.5 must be finite and >= 0"

    def test_custom_tail_zero_is_accepted(self):
        phi = PhiSequence("custom", custom_term=lambda n, r: r**n, custom_tail=lambda N, r: 0)
        assert phi_tail(phi, 3, 0.0) == 0.0 and type(phi_tail(phi, 3, 0.0)) is float

    def test_custom_truncated_tail_is_found_at_call_time(self, monkeypatch):
        # a wrapper put on phi._truncated_tail after binding still sees the calls
        tail = tail_from(CUSTOM_PHI["custom"], 2)
        calls = []

        def wrapped(phi, N, r):
            calls.append((N, r))
            return _truncated_tail(phi, N, r)
        monkeypatch.setattr(phi_module, "_truncated_tail", wrapped)
        assert tail(0.5) == phi_tail(CUSTOM_PHI["custom"], 2, 0.5)
        assert calls == [(2, 0.5), (2, 0.5)]


def reference_truncated_tail(phi, N, r):
    """The truncated tail term by term through phi_term, the way it was first written."""
    terms = [phi_term(phi, n, r) for n in range(N, N + TRUNCATION_N)]
    nonzero = [t for t in terms if t > 0.0]
    if len(nonzero) < 2:
        return math.fsum(terms)
    ratio = nonzero[-1] / nonzero[-2]
    if ratio >= TAIL_RATIO_CAP:
        raise NonConvergenceError(
            f"term ratio {ratio:.6g} at truncation exceeds the cap "
            f"{TAIL_RATIO_CAP:.6g}; cannot certify convergence")
    bound = nonzero[-1] * ratio / (1.0 - ratio)
    if bound > ABS_TOL:
        raise NonConvergenceError(
            f"tail estimate {bound:.3g} exceeds abs_tol {ABS_TOL:.3g} "
            f"after {TRUNCATION_N} terms")
    try:
        total = math.fsum(terms)
    except OverflowError:  # valid terms whose sum overflows
        raise DomainError(f"custom tail at N={N}, r={r} must be finite and >= 0") from None
    return total + bound


def outcome(f, *args):
    """A call's float repr, or its exception's type and message."""
    try:
        return repr(f(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


CUSTOM_TERMS = {
    "geometric": lambda n, r: r**n,
    "linear": lambda n, r: (n + 1) * r**n,
    "harmonic": lambda n, r: r**n / (n + 1),
    "every_third": lambda n, r: r**n if n % 3 == 0 else 0.0,
    "single": lambda n, r: r if n == 5 else 0.0,
}


def with_values(values):
    """A custom weight with 0.5^n everywhere except at the given indices."""
    return PhiSequence("custom", custom_term=lambda n, r: values.get(n, 0.5**n))


class TestTruncatedTail:
    @pytest.mark.parametrize("name", sorted(CUSTOM_TERMS))
    @pytest.mark.parametrize("N", [0, 1, 4, 7])
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
    def test_matches_term_by_term_reference_bit_for_bit(self, name, N, r):
        phi = PhiSequence("custom", custom_term=CUSTOM_TERMS[name])
        expected = outcome(reference_truncated_tail, phi, N, r)
        assert outcome(phi_tail, phi, N, r) == expected
        assert outcome(_truncated_tail, phi, N, r) == expected

    @pytest.mark.parametrize("name", sorted(CUSTOM_TERMS))
    @pytest.mark.parametrize("N", [0, 1, 4, 7])
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
    def test_zeroed_head_matches_term_by_term_reference_bit_for_bit(self, name, N, r):
        # a weight that starts at index 3 is a custom weight whose first terms are 0
        term = CUSTOM_TERMS[name]
        phi = PhiSequence("custom", custom_term=lambda n, r: term(n, r) if n >= 3 else 0.0)
        expected = outcome(reference_truncated_tail, phi, N, r)
        assert outcome(phi_tail, phi, N, r) == expected
        assert outcome(_truncated_tail, phi, N, r) == expected
        if N >= 3:  # past the head both weights sum the same terms
            whole = PhiSequence("custom", custom_term=term)
            assert outcome(phi_tail, whole, N, r) == expected

    @pytest.mark.parametrize("values, first", [
        ({7: -1e-3}, 7),
        ({2: -0.0, 7: -1e-300}, 7),
        ({2: math.nan}, 2),
        ({9: math.nan}, 9),
        ({2: math.nan, 9: -1.0}, 2),
        ({9: math.inf}, 9),
        ({9: -math.inf}, 9),
        ({4: math.inf, 9: -math.inf}, 4),
        ({4: -math.inf, 9: math.inf}, 4),
        ({4: math.inf, 9: math.nan}, 4),
        ({2 + TRUNCATION_N - 1: math.inf}, 2 + TRUNCATION_N - 1),
    ])
    def test_bad_terms_name_the_first_bad_index(self, values, first):
        phi = with_values(values)
        with pytest.raises(DomainError) as info:
            phi_tail(phi, 2, 0.5)
        assert str(info.value) == f"custom term at n={first} must be finite and >= 0"
        assert outcome(phi_tail, phi, 2, 0.5) == outcome(reference_truncated_tail, phi, 2, 0.5)

    def test_bad_term_past_the_window_is_never_seen(self):
        phi = with_values({2 + TRUNCATION_N: math.nan})
        assert repr(phi_tail(phi, 2, 0.5)) == repr(reference_truncated_tail(phi, 2, 0.5))

    @pytest.mark.parametrize("phi", [
        PhiSequence("custom", custom_term=lambda n, r: 1.0 / (n + 1.0)),
        PhiSequence("custom", custom_term=lambda n, r: 0.995**n),
        # valid terms whose sum overflows: the ratio check still comes first, then the
        # DomainError of an infinite custom tail
        PhiSequence("custom", custom_term=lambda n, r: 1e308),
        PhiSequence("custom", custom_term=lambda n, r: 1e308 if n < 2 else 0.5**n),
    ])
    def test_failures_match_the_reference(self, phi):
        expected = outcome(reference_truncated_tail, phi, 0, 0.5)
        assert not isinstance(expected, str)
        assert outcome(phi_tail, phi, 0, 0.5) == expected

    def test_an_overflowing_sum_fails_as_an_infinite_custom_tail(self):
        # the 512 terms pass the ratio checks (ratio 0.2) but sum past the largest float,
        # which must not escape a solve as an OverflowError
        term = lambda n, r: 1.5e308 * 0.2 ** max(n - 1, 0)
        errors = []
        for phi in (PhiSequence("custom", custom_term=term),
                    PhiSequence("custom", custom_term=term, custom_tail=lambda N, r: math.inf)):
            with pytest.raises(DomainError) as info:
                radius_refined(RadiusProblem(phi, 1.0))
            errors.append(str(info.value))
        assert errors == ["custom tail at N=1, r=0.001 must be finite and >= 0"] * 2


# weights with runs of exact zeros and subnormals: r^n underflows for r <= 0.05
# within the window, parity gaps, a cut-off, and r^n with a bump at n = 600
ZERO_RUN_WEIGHTS = {
    "small_geometric": lambda cut: lambda n, r: r**n,
    "even_only": lambda cut: lambda n, r: r**n if n % 2 == 0 else 0.0,
    "cut_off": lambda cut: lambda n, r: r**n if n < cut else 0.0,
    "bump": lambda cut: lambda n, r: r**n + (r**10 if n == 600 else 0.0),
}
PLANTED = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, -1e-300, -1.0, math.nan, math.inf,
                           -math.inf])


class TestTruncatedTailSkipsZeros:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(ZERO_RUN_WEIGHTS)), st.integers(0, 600),
           st.floats(0.0, 0.05), st.integers(0, 200),
           st.dictionaries(st.integers(0, 720), PLANTED, max_size=3))
    def test_equals_the_fsum_of_every_term_bit_for_bit(self, name, cut, r, N, planted):
        weight = ZERO_RUN_WEIGHTS[name](cut)
        phi = PhiSequence("custom", custom_term=lambda n, r: planted.get(n, weight(n, r)))
        # the reference sums every term with fsum, zeros included
        expected = outcome(reference_truncated_tail, phi, N, r)
        assert outcome(_truncated_tail, phi, N, r) == expected
        assert outcome(phi_tail, phi, N, r) == expected

    @pytest.mark.parametrize("value", [0.0, -0.0])
    def test_all_zero_terms_sum_to_positive_zero(self, value):
        phi = PhiSequence("custom", custom_term=lambda n, r: value)
        assert repr(_truncated_tail(phi, 3, 0.5)) == repr(reference_truncated_tail(phi, 3, 0.5))
        assert repr(_truncated_tail(phi, 3, 0.5)) == "0.0"

    def test_fsum_sees_only_the_nonzero_terms(self, monkeypatch):
        seen = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda terms: fsum(seen.extend(terms) or seen))
        phi = PhiSequence("custom", custom_term=lambda n, r: r**n if n % 4 == 0 else 0.0)
        _truncated_tail(phi, 0, 0.01)
        assert seen and 0.0 not in seen
        assert len(seen) == sum(1 for n in range(0, TRUNCATION_N, 4) if 0.01**n)


class TestRefinedSum:
    def test_zero_series(self):
        zero = CoeffSeries((0.0, 0.0, 0.0))
        assert refined_sum(zero, MONOMIAL, 0, 0.3) == 0.0

    def test_single_coefficient_example(self):
        # ||A_1|| = 1/2, monomial weights, m = 0, r = 1/2:
        # 0.25 * (r^2 / (1 + 0) + r^3 / (1 - r)) = 0.25 * (0.25 + 0.25)
        coeffs = CoeffSeries((0.0, 0.5))
        assert refined_sum(coeffs, MONOMIAL, 0, 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_direct_sum_oracle(self):
        coeffs = CoeffSeries((0.0, 0.5, 0.25, 0.75))
        r = 0.4
        want = math.fsum(
            coeffs.norm(n) ** 2 * (r ** (2 * n) / (1 + coeffs.norm(0))
                                   + r ** (2 * n + 1) / (1 - r))
            for n in range(1, 4))
        assert refined_sum(coeffs, MONOMIAL, 0, r) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("q", mp_sums.Q_GRID)
    @pytest.mark.parametrize("r", mp_sums.R_GRID)
    @pytest.mark.parametrize("kind", list(ORACLE_TERMS))
    def test_geometric_continuation_matches_mp_reference(self, kind, r, q):
        coeffs = CoeffSeries(mp_sums.NORMS, 0, q)
        assert mp_sums.close(refined_sum(coeffs, BUILTIN_PHI[kind], 1, r),
                             mp_sums.refined_sum(coeffs, kind, 1, r))

    def test_custom_weight_meets_tolerance_or_raises(self):
        custom = PhiSequence("custom", custom_term=lambda n, r: r**n,
                             custom_tail=lambda N, r: r**N / (1.0 - r))
        coeffs = CoeffSeries(mp_sums.NORMS, 0, 0.5)
        assert mp_sums.close(refined_sum(coeffs, custom, 0, 0.9),
                             mp_sums.refined_sum(coeffs, "monomial", 0, 0.9))
        # a bound falling like 0.999^(2n) cannot reach abs_tol in 512 terms
        with pytest.raises(NonConvergenceError):
            refined_sum(CoeffSeries(mp_sums.NORMS, 0, 1.0 - 1e-6), custom, 0, 0.999)

    @pytest.mark.parametrize("q", mp_sums.Q_GRID)
    @pytest.mark.parametrize("r", mp_sums.R_GRID)
    @pytest.mark.parametrize("kind", list(ORACLE_TERMS))
    def test_custom_weight_stops_where_its_bound_allows(self, kind, r, q):
        # the kind restated as a custom weight: continuation terms are added
        # until Phi_{2n}(r) ||A_n||^2 / (1 - q^2) <= ABS_TOL, checked at
        # indices CONTINUATION_FLOOR .. CONTINUATION_FLOOR + TRUNCATION_N
        custom = PhiSequence("custom", custom_term=ORACLE_TERMS[kind],
                             custom_tail=lambda N, r: phi_tail(BUILTIN_PHI[kind], N, r))
        coeffs = CoeffSeries(mp_sums.NORMS, 0, q)
        last = CONTINUATION_FLOOR + TRUNCATION_N
        stops = not q or mp_sums.remainder_bound(coeffs, kind, r, last, 2, 2) <= ABS_TOL
        try:
            value = refined_sum(coeffs, custom, 1, r)
        except NonConvergenceError:
            assert not stops
        else:
            assert stops
            assert mp_sums.close(value, mp_sums.refined_sum(coeffs, kind, 1, r))

    def test_out_of_range_radius(self):
        with pytest.raises(DomainError):
            refined_sum(CoeffSeries((0.0, 0.5)), MONOMIAL, 0, 1.0)

    @staticmethod
    def tail_composition(kind, r, am):
        """The refinement weight's coefficients as three GeometricWeight tails."""
        (c0, c1, c2), step, parity, _ = GEOMETRIC_FORMS[kind]
        on_2n = (c0, 2 * c1, 4 * c2) if parity == 0 else (0, 0, 0)
        first = 1 + (parity - 1) % step
        past_2n = [GeometricWeight(p, r, 1.0 - r, step, parity).tail(first)
                   for p in ((c0, c1, c2), (2 * c1, 4 * c2, 0), (4 * c2, 0, 0))]
        return tuple(x / (1.0 + am) + y for x, y in zip(on_2n, past_2n))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(BUILTIN_PHI)), st.floats(0.0, 1.0, exclude_max=True),
           st.booleans(), st.floats(0.0, 1.0))
    def test_refined_weight_is_the_tail_composition_bit_for_bit(self, kind, r, numpy_r, am):
        r = np.float64(r) if numpy_r else r
        weight = _refined_weight(BUILTIN_PHI[kind], r)(am)
        want = self.tail_composition(kind, r, am)
        assert list(map(float.hex, map(float, weight.c))) == \
            list(map(float.hex, map(float, want)))
        assert (weight.t, weight.one_minus_t) == (r * r, (1.0 - r) * (1.0 + r))
