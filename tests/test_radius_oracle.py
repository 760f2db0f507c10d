"""Built-in radii against an independent 40-digit root of the same equation.

The two equations are restated here from their definitions, not imported:

  refined     p phi_m(r) = 2 lambda_H Phi_{m+1}(r)
  rogosinski  p (1 - r^m)/(1 + r^m) phi_0(r) = 2 mu Phi_N(r)

and each weight's tail is summed term by term over the indices of its
parity class only, until a term falls below 10^-50 of the running sum.
mpmath's findroot solves them at 40 digits inside the bracket the library
reports, widened by 1e-9.  The refined equation is solved divided by r^m,
so that a small root at a large m, where phi_m(r) is far below any
absolute cut-off, keeps its relative accuracy.  Every radius must lie
within 2 tol of its root, and a built-in refined radius, taken in closed
form, within 4 ulp.
"""

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrad import (BUILTIN_PHI, DomainSpec, RadiusProblem, phi_tail, phi_term, radius_refined,
                    radius_rogosinski)

DPS = 40
TOL = 1e-12
WIDEN = 1e-9

# phi_n(r) = P(n) r^n on the indices n = parity (mod step), plus phi_0 = head
KINDS = {
    "monomial": (lambda n: 1, 1, 0, 0),  # r^n
    "weighted_linear": (lambda n: n + 1, 1, 0, 0),  # (n+1) r^n
    "weighted_quadratic": (lambda n: n * n, 1, 0, 1),  # phi_0 = 1, n^2 r^n
    "even_only": (lambda n: 1, 2, 0, 0),  # r^{2n}
    "odd_only": (lambda n: 1, 2, 1, 1),  # phi_0 = 1, r^{2n-1}
}


def phi(kind, n, r):
    P, step, parity, head = KINDS[kind]
    value = P(n) * r**n if n % step == parity else mp.mpf(0)
    return value + head if n == 0 else value


def tail(kind, N, r):
    """Phi_N(r): P(n) r^n summed over n = N, N+1, ... on the parity class only,
    until the terms, past the peak of n^2 r^n, fall below 10^-(DPS + 10) of the sum."""
    P, step, parity, head = KINDS[kind]
    n = N + (parity - N) % step
    past_peak = 2 / (1 - r)
    total, eps = mp.mpf(0), mp.mpf(10) ** -(DPS + 10)
    while True:
        term = P(n) * r**n
        total += term
        if term < eps * total and n > past_peak:
            break
        n += step
    return total + head if N == 0 else total


def scaled_refined_root(kind, p, m, lam, bracket):
    """Root of p phi_m(r)/r^m = 2 lambda_H Phi_{m+1}(r)/r^m, the terms P(n) r^(n-m)
    summed until one falls below 10^-(DPS + 10) of the sum: with phi_m ~ r^m
    scaled out, a small root at a large m keeps its relative accuracy."""
    P, step, parity, head = KINDS[kind]
    lhs = p * ((P(m) if m % step == parity else 0) + (head if m == 0 else 0))
    first = m + 1 + (parity - m - 1) % step

    def F(r):
        total, n, eps = mp.mpf(0), first, mp.mpf(10) ** -(DPS + 10)
        past_peak = m + 2 / (1 - r)
        while True:
            term = P(n) * r ** (n - m)
            total += term
            if term < eps * total and n > past_peak:
                break
            n += step
        return lhs - 2 * lam * total
    return mp.findroot(F, bracket, solver="anderson")


def rogosinski_root(kind, p, m, N, mu, bracket):
    def F(r):
        rm = r**m
        return p * (1 - rm) / (1 + rm) * phi(kind, 0, r) - 2 * mu * tail(kind, N, r)
    return mp.findroot(F, bracket, solver="anderson")


def _sample(seed=20240611, count=20):
    """(kind, p, m, domain, lambda_H) refined and (kind, p, m, N, mu) rogosinski problems.

    A refined m lies on the kind's indices (phi_m != 0), or is 0.
    """
    rng = random.Random(seed)
    refined, rogosinski = [], []
    for _ in range(count):
        kind = rng.choice(sorted(KINDS))
        _, step, parity, _ = KINDS[kind]
        m = rng.choice([0, parity + step * rng.randint(0, 3)])
        p = rng.uniform(0.1, 2.0)
        if rng.random() < 0.7:
            gamma = rng.choice([0.0, rng.uniform(0.0, 0.9)])
            domain, lam = DomainSpec.omega_gamma(gamma), 1 / (1 + mp.mpf(gamma))
        else:
            lambda_h = rng.uniform(0.3, 3.0)
            domain, lam = DomainSpec.general(lambda_h), mp.mpf(lambda_h)
        refined.append((kind, p, m, domain, lam))
        kind = rng.choice(sorted(KINDS))
        rogosinski.append((kind, rng.uniform(0.1, 2.0), rng.randint(1, 4), rng.randint(1, 6),
                           rng.uniform(0.5, 3.0)))
    return refined, rogosinski


REFINED, ROGOSINSKI = _sample()
# a small root at a large m: F is about r^m ~ 1e-56 near the root 0.02806, where the
# unscaled equation's root was off by 0.012
REFINED.append(("weighted_linear", 0.289, 36, DomainSpec.general(4.87), mp.mpf(4.87)))


def _bracket(result):
    lo, hi = result.bracket
    return (mp.mpf(lo) - WIDEN, mp.mpf(hi) + WIDEN)


def test_refined_radii_match_the_40_digit_root():
    for kind, p, m, domain, lam in REFINED:
        result = radius_refined(RadiusProblem(BUILTIN_PHI[kind], p, m=m, domain=domain), TOL)
        with mp.workdps(DPS):
            root = scaled_refined_root(kind, mp.mpf(p), m, lam, _bracket(result))
            assert abs(result.value - root) <= 2 * TOL, (kind, p, m, domain, result, root)


def test_rogosinski_radii_match_the_40_digit_root():
    for kind, p, m, N, mu in ROGOSINSKI:
        problem = RadiusProblem(BUILTIN_PHI[kind], p, m=m, N=N, mu=mu,
                                equation_kind="rogosinski")
        result = radius_rogosinski(problem, TOL)
        with mp.workdps(DPS):
            root = rogosinski_root(kind, mp.mpf(p), m, N, mp.mpf(mu), _bracket(result))
            assert abs(result.value - root) <= 2 * TOL, (kind, p, m, N, mu, result, root)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), p=st.floats(0.01, 2.0), j=st.integers(0, 40),
       gamma=st.one_of(st.floats(0.0, 0.99), st.none()), lambda_h=st.floats(0.05, 5.0))
def test_closed_refined_radii_lie_within_4_ulp_of_the_40_digit_root(kind, p, j, gamma,
                                                                      lambda_h):
    # m = 0, or the j-th index of the kind's parity class up to 40, where phi_m != 0
    _, step, parity, _ = KINDS[kind]
    m = parity + step * j if j and parity + step * j <= 40 else 0
    if gamma is None:
        domain, lam = DomainSpec.general(lambda_h), mp.mpf(lambda_h)
    else:
        domain, lam = DomainSpec.omega_gamma(gamma), 1 / (1 + mp.mpf(gamma))
    result = radius_refined(RadiusProblem(BUILTIN_PHI[kind], p, m=m, domain=domain))
    assert result.iterations == 3  # the closed path, certified
    with mp.workdps(DPS):
        root = scaled_refined_root(kind, mp.mpf(p), m, lam, _bracket(result))
        assert abs(result.value - root) <= 4 * math.ulp(float(root)), (result, root)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_restated_weights_are_the_library_weights(kind):
    # the oracle's phi_n and Phi_N, at 40 digits, agree with the library's values
    with mp.workdps(DPS):
        for r in (0.1, 0.35, 0.6):
            for n in range(6):
                assert abs(phi(kind, n, mp.mpf(r)) - phi_term(BUILTIN_PHI[kind], n, r)) <= 1e-15
                ref = tail(kind, n, mp.mpf(r))
                assert abs(ref - phi_tail(BUILTIN_PHI[kind], n, r)) <= 1e-14 * max(1, ref)
