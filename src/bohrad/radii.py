"""Radius equations, closed-form radii, reference tables, r_p bounds, verify.

A radius here is always the minimal positive root in (0, 1) of a
continuous equation built from a weight sequence.  The two equation
kinds are

  refined     p phi_m(r) = 2 lambda_H Phi_{m+1}(r)
  rogosinski  p (1 - r^m)/(1 + r^m) phi_0(r) = 2 mu(r) Phi_N(r)

with lambda_H = 1/(1+gamma) on the enlarged disk Omega_gamma.

``refined_equation`` and ``rogosinski_equation`` bind an equation once
per problem: the weights of every kind (through the binders of
``phi``), p, m, lambda_H and a constant mu are resolved when F is
built.  Each evaluation of F checks r once and then only evaluates the
bound weights, so a custom weight's r is checked once per evaluation.
For the built-in weights the bind drops the factors that read 1.0:
phi_m/phi_m in G below, and phi_0 in the Rogosinski F with a constant
mu; x * 1.0 is x, so F is unchanged bit for bit.

For the built-in weights (and a constant mu) F changes sign at most
once on (0, 1), from + to -:

  refined     for phi_m > 0, G = F/phi_m = p - 2 lambda_H R, R = Phi_{m+1}/phi_m
              (G is F bit for bit at m = 0, where phi_0 = 1); each phi_n/phi_m
              (n > m) is a constant >= 0 times r^{n-m}, so R increases from 0
              to infinity and G strictly decreases, with exactly one root; if
              phi_m = 0 (m off the parity class), F = -2 lambda_H Phi_{m+1} < 0.
  rogosinski  phi_0 = 1 for every built-in, so F = Phi_N (p h/Phi_N - 2 mu)
              with h = (1 - r^m)/(1 + r^m); h and 1/Phi_N are positive
              and decreasing.

A built-in refined root is closed: R is the root of a polynomial of
degree at most 3 in r or r^2 (``refined_root``), built from the
``phi.ratio_form`` that G's ratio is bound from.  It is certified, not
trusted: G(R - tol) > 0 > G(R + tol), which proves R the one root within
tol, as G strictly decreases.  The RootResult has that bracket, G(R) and 3
calls of G.  An R that fails the certificate or lies outside (tol, 1 - tol)
falls back to ``roots.decreasing_root``, as does phi_m = 0.  That search,
which the Rogosinski equation uses too, brackets the root by bisecting the
scan index, with the scan's RootResult, and narrows the bracket by
safeguarded Brent-Dekker steps, as for every equation.  Custom weights and a callable mu are
scanned point by point.

``verify`` checks a radius R sharp: the extremal family satisfies the functional at
every a of VERIFY_A_GRID at r_below = max(R - PROBE_OFFSET, R/2) and, when r_above =
R + PROBE_OFFSET < 1, violates it at some a of DEFAULT_A_GRID (witness_a, the first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .functionals import (DEFAULT_A_GRID, MuFunction, _first_violation, bohr_area_functional,
                          bohr_beta_functional, bohr_energy_functional, family_gamma,
                          problem_functional)
from .optimize import central_diff, grid_then_golden_min
from .phi import BUILTIN_PHI, PhiSequence, _power_tail, ratio_form, tail_from, term_at
from .phi import phi_term  # noqa: F401 - still reachable as radii.phi_term
from .roots import RootResult, check_steps, decreasing_root, min_positive_root
from .series import (ROUND_OFF, DomainSpec, _check_index, _check_param, _check_radius,
                     _trusted, mobius_gamma_coeffs)

# a printed reference value failing its own equation by more than this
# is reported as an erratum rather than silently corrected
ERRATUM_DELTA = 1e-3
# grid cells rp_upper searches before golden section polishes the best
# one: on (1, 2) the objective has one interior minimum, and at p = 1 it
# is 1/(1 + 2a), monotone, so the best of 64 cells brackets the minimum
RP_UPPER_GRID = 64
# Newton steps refined_root takes at most on a cubic; a few reach the root
NEWTON_CAP = 100
PROBE_OFFSET = 0.01  # how far below and above a radius verify evaluates the extremal family
# the a that verify checks below a radius, ascending: 0.05 to 0.85 in steps of 0.05, then
# DEFAULT_A_GRID (0.9 to 1 - 1e-6), the grid where it seeks a witness above
VERIFY_A_GRID = tuple(k / 20 for k in range(1, 18)) + DEFAULT_A_GRID


@dataclass(frozen=True)
class RadiusProblem:
    """One radius equation: weights, exponent, indices, weight mu, domain.

    Refined problems read no N, and Rogosinski ones are posed on the disk.
    """

    phi: PhiSequence
    p: float
    m: int = 0
    N: int = 1
    mu: MuFunction = MuFunction.zero()
    domain: DomainSpec = DomainSpec.disk()
    equation_kind: str = "refined"

    def __post_init__(self):
        object.__setattr__(self, "p", _check_param("p", self.p))
        _check_index("m", self.m)
        if self.equation_kind not in ("refined", "rogosinski"):
            raise ConfigurationError(f"unknown equation kind {self.equation_kind!r}")
        if self.equation_kind == "rogosinski":
            _check_index("N", self.N, 1)
            _check_index("m", self.m, 1)  # the Schwarz order
            if self.domain != DomainSpec.disk():
                raise ConfigurationError("the rogosinski equation is posed on the disk, "
                                         f"got {self.domain}")
        elif self.N != 1:
            raise ConfigurationError(f"the refined equation reads no N, got N = {self.N}")
        object.__setattr__(self, "mu", MuFunction.of(self.mu))


def refined_equation(problem: RadiusProblem):
    """F = p phi_m - 2 lambda_H Phi_{m+1}, or G = F/phi_m for a built-in phi_m != 0, bound once."""
    return _refined_from(problem, ratio_form(problem.phi, problem.m))


def _refined_from(problem, form):
    """refined_equation(problem), given form = ratio_form(problem.phi, problem.m); G's
    ratio Phi_{m+1}/phi_m is bound from the form and never forms r^m, which underflows."""
    phi, m = problem.phi, problem.m
    p, two_lam = problem.p, 2.0 * problem.domain.effective_lambda
    if form:
        ratio = _power_tail(*form)

        def G(r):  # p phi_m/phi_m is p * 1.0, that is p
            _check_radius(r)
            return p - two_lam * ratio(r)
        return G
    term, tail = term_at(phi, m), tail_from(phi, m + 1)

    def F(r):
        _check_radius(r)
        return p * term(r) - two_lam * tail(r)
    return F


def rogosinski_equation(problem: RadiusProblem):
    """F(r) = p (1 - r^m)/(1 + r^m) phi_0(r) - 2 mu(r) Phi_N(r), bound once for the problem."""
    tail = tail_from(problem.phi, problem.N)
    p, m, mu = problem.p, problem.m, problem.mu
    two_mu = None if mu.value is None else 2.0 * mu.value
    if problem.phi.kind != "custom" and two_mu is not None:
        def F_const(r):  # phi_0 = 1.0 for every built-in, and head * 1.0 is head
            _check_radius(r)
            rm = r**m
            return p * (1.0 - rm) / (1.0 + rm) - two_mu * tail(r)
        return F_const
    term = term_at(problem.phi, 0)

    def F(r):
        _check_radius(r)
        rm = r**m
        head = p * (1.0 - rm) / (1.0 + rm)
        return head * term(r) - (2.0 * mu(r) if two_mu is None else two_mu) * tail(r)
    return F


def radius_refined(problem: RadiusProblem, tol: float = 1e-12,
                   scan_step: float = 1e-3) -> RootResult:
    """Minimal positive root of p phi_m(r) - 2 lambda_H Phi_{m+1}(r) = 0.

    A built-in phi_m != 0 takes the closed root of ``refined_root``,
    certified by the signs of G at its ends R -/+ tol and returned with
    G(R) and 3 calls of G; an uncertified R, or one outside (tol, 1 - tol),
    falls back to ``decreasing_root``, as does phi_m = 0.  Custom weights
    are scanned.
    """
    if problem.equation_kind != "refined":
        raise ConfigurationError("problem is not of the refined kind")
    tol, scan_step = check_steps(tol, scan_step)
    form = ratio_form(problem.phi, problem.m)  # once: it binds G and gives refined_root's input
    G = _refined_from(problem, form)
    if problem.phi.kind == "custom":
        return min_positive_root(G, tol, scan_step)
    if form:
        R = refined_root(problem.p, problem.domain.effective_lambda, *form)
        lo, hi = R - tol, R + tol
        # G strictly decreases, so + at lo and - at hi prove R the one root
        if 0.0 < lo and hi < 1.0 and G(lo) > 0.0 > G(hi):
            return _trusted(RootResult, value=R, bracket=(lo, hi), residual=G(R),
                            iterations=3, scan_step=scan_step)
    return decreasing_root(G, tol, scan_step)


def refined_root(p: float, lambda_h: float, step: int, k: int, b0: float, b1: float,
                 b2: float) -> float:
    """Root in (0, 1) of p = 2 lambda_h Phi_{m+1}/phi_m, for the ratio_form
    (step, k, b0, b1, b2) of a built-in phi_m != 0; uncertified.

    With L_i = lambda_h b_i, clearing the ratio's denominators leaves a
    polynomial of degree at most 3 in r or r^2:

      step 2   p (1 - r^2) = 2 L0 r^k, k = 2 on the parity class and 1 at
               odd_only's head: sqrt(p/(p + 2 L0)), or p/(sqrt(L0^2 + p^2) + L0)
      b2 = 0   the smaller root of (p + 2 L0 - 2 L1) r^2 - 2 (p + L0) r + p:
               p/(p + L0 + sqrt(L0^2 + 2 p L1)), with no cancellation
      cubic    p d^3 = 2 r (L0 d^2 + L1 r d + L2 r (1 + r)), d = 1 - r.

    Divided by d^3, with t = r/d, the cubic reads q(t) = 2 t (L0 + (L1 + L2) t
    + 2 L2 t^2) - p = 0: its terms are positive, and q increases and is
    convex for t > 0.  Newton's steps from t = p/(2 L0), where r = p/(p + 2 L0)
    lies at or above the root, fall monotonically to it; they stop when a step
    no longer falls, and r = t/(1 + t).

    The paper's closed forms are special cases: monomial p = 1 and 2 on
    Omega_gamma give gamma_p1 and gamma_p2, p = 1 gives lambda_base, and
    the step-2 forms give even_p and odd_p's derived branch.
    """
    L0, L1, L2 = lambda_h * b0, lambda_h * b1, lambda_h * b2
    if step == 2:
        return math.sqrt(p / (p + 2.0 * L0)) if k == 2 else p / (math.hypot(L0, p) + L0)
    if not b2:
        return p / (p + L0 + math.sqrt(L0 * L0 + 2.0 * p * L1))
    c1, c2, c3 = 2.0 * L0, 2.0 * (L1 + L2), 4.0 * L2
    t = p / c1
    for _ in range(NEWTON_CAP):
        q = ((c3 * t + c2) * t + c1) * t - p
        below = t - q / ((3.0 * c3 * t + 2.0 * c2) * t + c1)
        if not below < t:
            break
        t = below
    return t / (1.0 + t)


def radius_rogosinski(problem: RadiusProblem, tol: float = 1e-12,
                      scan_step: float = 1e-3) -> RootResult:
    """Minimal positive root of p (1-r^m)/(1+r^m) phi_0 - 2 mu(r) Phi_N = 0.

    Built-in weights with a constant mu bisect the scan index; custom
    weights or a callable mu are scanned.
    """
    if problem.equation_kind != "rogosinski":
        raise ConfigurationError("problem is not of the rogosinski kind")
    scanned = problem.phi.kind == "custom" or problem.mu.value is None
    solve = min_positive_root if scanned else decreasing_root
    return solve(rogosinski_equation(problem), tol, scan_step)


def non_improvable(problem: RadiusProblem, r: float) -> bool:
    """Numeric check of the derivative condition that pins the radius.

    The radius cannot be improved when the equation's left side keeps
    falling behind its right side just past the root; with smooth
    weights this is the derivative inequality F'(r) < 0, evaluated here
    by central differences of step 1e-6.  Diagnostic only, not a certificate.
    """
    F = refined_equation(problem) if problem.equation_kind == "refined" \
        else rogosinski_equation(problem)
    return central_diff(F, r, 1e-6) < 0.0


@dataclass(frozen=True)
class OddRadiusPair:
    """Both circulating closed forms for the alternating weights.

    ``printed`` carries a single factor (1+gamma) under the square
    root; ``derived`` solves the generating equation
    p (1+gamma) (1 - r^2) = 2 r, which squares that factor.  The two
    coincide at gamma = 0; the flag records a disagreement beyond
    series.ROUND_OFF without deciding intent.
    """

    printed: float
    derived: float
    discrepant: bool


def closed_form_radius(case: str, gamma: float | None = None,
                       lambda_h: float | None = None, p: float | None = None):
    """Closed-form radii.

    lambda_base: 1/(1+2L), formed as 0.5/(0.5+L) with no 2L to overflow;
    gamma_p1: (1+g)/(3+g); gamma_p2: (1+g)/(2+g);
    even_p: sqrt(p(1+g)/(2+p(1+g))); odd_p: both branches (see
    OddRadiusPair); recentered: (1-g^2)/(3+g).  The disk is g = 0:
    gamma_p1 and gamma_p2 give 1/3 and 1/2 there.  A value the case needs
    but lacks raises ConfigurationError, an out-of-range one DomainError.
    """
    def need(name, value):
        if value is None:
            raise ConfigurationError(f"case {case!r} needs {name}")
        return _check_param(name, value)

    if case == "lambda_base":
        return 0.5 / (0.5 + need("lambda_h", lambda_h))
    if case not in ("gamma_p1", "gamma_p2", "recentered", "even_p", "odd_p"):
        raise ConfigurationError(f"unknown closed-form case {case!r}")
    g = need("gamma", gamma)
    if case == "gamma_p1":
        return (1.0 + g) / (3.0 + g)
    if case == "gamma_p2":
        return (1.0 + g) / (2.0 + g)
    if case == "recentered":
        return (1.0 - g * g) / (3.0 + g)
    pp = need("p", p)
    if case == "even_p":
        return math.sqrt(pp * (1.0 + g) / (2.0 + pp * (1.0 + g)))
    printed = (math.sqrt(1.0 + pp * pp * (1.0 + g)) - 1.0) / (pp * (1.0 + g))
    derived = (math.sqrt(1.0 + pp * pp * (1.0 + g) ** 2) - 1.0) / (pp * (1.0 + g))
    return OddRadiusPair(printed, derived, abs(printed - derived) > ROUND_OFF)


def rp_lower(p: float) -> float:
    """Closed-form lower bound (1 + (2/p)^{1/(2-p)})^{(p-2)/p} on r_p."""
    p = _check_param("p:r_p", p)
    return (1.0 + (2.0 / p) ** (1.0 / (2.0 - p))) ** ((p - 2.0) / p)


def _rp_upper_objective(p):
    def g(a):
        if a <= 0.0:
            return 1.0
        one_minus_ap = -math.expm1(p * math.log(a))  # 1 - a^p without cancellation
        num = one_minus_ap ** (1.0 / p)
        den = ((1.0 - a * a) ** p + (a**p) * one_minus_ap) ** (1.0 / p)
        return num / den
    return g


def rp_upper(p: float) -> float:
    """Numeric minimization of the upper-bound expression over a in [0, 1)."""
    g = _rp_upper_objective(_check_param("p:r_p", p))
    return grid_then_golden_min(g, 0.0, 1.0 - 1e-9, coarse=RP_UPPER_GRID, tol=1e-13)[1]


def rp_bounds(p: float) -> tuple[float, float]:
    """Two-sided estimate of the p-powered Bohr radius r_p, 1 <= p < 2."""
    return rp_lower(p), rp_upper(p)


# reference radii: (p, m, mu, printed value); one block per weight kind,
# all with N = 1 and a constant mu
REFERENCE_TABLES = {
    1: ("weighted_linear", ((0.5, 1, 1.0, 0.090368),
                            (1.0, 2, 3.0, 0.073469),
                            (1.5, 5, 10.0, 0.067495),
                            (2.0, 10, 100.0, 0.00496281))),
    2: ("weighted_quadratic", ((0.5, 1, 1.0, 0.119726),
                               (1.0, 5, 10.0, 0.0421611),
                               (1.5, 10, 25.0, 0.026917),
                               (2.0, 15, 30.0, 0.0295861))),
    3: ("even_only", ((0.5, 1, 1.0, 0.333333),
                      (1.0, 5, 10.0, 0.218115),
                      (1.5, 10, 25.0, 0.170664),
                      (2.0, 15, 30.0, 0.0295861))),
    4: ("odd_only", ((0.5, 1, 1.0, 0.171573),
                     (1.0, 5, 10.0, 0.049875),
                     (1.5, 10, 25.0, 0.029973),
                     (2.0, 15, 30.0, 0.0332964))),
}


@dataclass(frozen=True)
class TableRow:
    """One recomputed reference row: inputs, both values, and the verdict."""

    table_id: int
    phi_kind: str
    p: float
    m: int
    mu: float
    printed: float
    computed: float
    delta: float
    erratum: bool


def reproduce_table(table_id: int, tol: float = 1e-12,
                    scan_step: float = 1e-3) -> list[TableRow]:
    """Recompute one reference table and compare against the printed values.

    Rows whose printed value misses the recomputed root by more than
    ERRATUM_DELTA are flagged as errata; the printed value is reported
    alongside, never replaced.
    """
    if table_id not in REFERENCE_TABLES:
        raise ConfigurationError(f"unknown table id {table_id!r}")
    phi_kind, rows = REFERENCE_TABLES[table_id]
    phi = BUILTIN_PHI[phi_kind]
    out = []
    for p, m, mu, printed in rows:
        problem = RadiusProblem(phi, p, m=m, N=1, mu=MuFunction.constant(mu),
                                equation_kind="rogosinski")
        computed = radius_rogosinski(problem, tol, scan_step).value
        delta = abs(computed - printed)
        out.append(TableRow(table_id, phi_kind, p, m, mu, printed, computed,
                            delta, delta > ERRATUM_DELTA))
    return out


def reproduce_all_tables(tol: float = 1e-12, scan_step: float = 1e-3) -> list[TableRow]:
    return [row for table_id in sorted(REFERENCE_TABLES)
            for row in reproduce_table(table_id, tol, scan_step)]


@dataclass(frozen=True)
class VerifyReport:
    """verify's verdict on one radius R: the sweep below it and the probe above it."""

    radius: float
    r_below: float
    r_above: float | None  # None when R + PROBE_OFFSET >= 1, where no witness can lie
    checked: int
    failures: int
    worst_margin: float
    worst_a: float
    witness_a: float | None
    passed: bool


def verify(subject, gamma: float = 0.0, degree: int = 2, beta: float | None = None,
           tol: float = 1e-12, scan_step: float = 1e-3) -> VerifyReport:
    """Check a radius R sharp on the extremal family of its domain.

    subject is a RadiusProblem, solved with tol and scan_step and tested by
    ``problem_functional`` on its own domain (a refined problem on a domain
    given by lambda_h has no extremal family and raises ConfigurationError
    before the solve), or a family whose R is
    1/(1 + 2 lambda_H) on Omega_gamma: "area-poly" (of this degree),
    "beta-square" (beta at most, and by default, 1/(4 lambda_H)) or "energy".
    """
    if isinstance(subject, RadiusProblem):
        if (gamma, degree, beta) != (0.0, 2, None):
            raise ConfigurationError("a RadiusProblem reads no gamma, degree or beta")
        if subject.equation_kind == "refined":
            family_gamma(subject.domain)  # a domain given by lambda_h has no family: raise now
            radius = radius_refined(subject, tol, scan_step).value
        else:
            radius = radius_rogosinski(subject, tol, scan_step).value
        bind = lambda r: problem_functional(subject, r)
    else:  # each functional is looked up when called, not held in a table
        lam = DomainSpec.omega_gamma(gamma).effective_lambda
        if subject == "area-poly":
            functional = lambda c, r: bohr_area_functional(c, r, lam, degree)
        elif subject == "beta-square":
            beta = 1.0 / (4.0 * lam) if beta is None else _check_param("beta", beta)
            if beta > 1.0 / (4.0 * lam) + ROUND_OFF:
                raise ConfigurationError("beta must be at most 1/(4 lambda_h)")
            functional = lambda c, r: bohr_beta_functional(c, r, beta)
        elif subject == "energy":
            functional = lambda c, r: bohr_energy_functional(c, r, lam)
        else:
            raise ConfigurationError(f"unknown verify family {subject!r}")
        radius = closed_form_radius("lambda_base", lambda_h=lam)
        bind = lambda r: lambda a: functional(mobius_gamma_coeffs(a, gamma), r)
    r_below = max(radius - PROBE_OFFSET, radius / 2.0)
    reports = list(zip(VERIFY_A_GRID, map(bind(r_below), VERIFY_A_GRID)))
    failures = sum(not rep.satisfied for _, rep in reports)
    worst_margin, worst_a = min((rep.margin, a) for a, rep in reports)
    r_above = radius + PROBE_OFFSET
    r_above = r_above if r_above < 1.0 else None  # the family has no point at r >= 1
    witness = None if r_above is None else _first_violation(bind(r_above), DEFAULT_A_GRID)
    return VerifyReport(radius, r_below, r_above, len(reports), failures, worst_margin, worst_a,
                        witness, not failures and (witness is not None or r_above is None))
