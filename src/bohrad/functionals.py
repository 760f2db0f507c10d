"""Left-hand sides of the Bohr-type inequalities, plus sharpness probes.

Every functional returns a ``FunctionalReport`` comparing its value with
the right-hand side of the inequality it belongs to.  Probes evaluate a
functional along the extremal Mobius family and hunt for a violation
just beyond a claimed radius.  Binders take the radius r and return
coeffs -> report (``refined_at``, ``rogosinski_at``) or a -> report
(``problem_functional``), with every check and r-only value computed
once.  For a built-in weight, a -> report then computes per a only the
extremal family's three numbers and their closed-form sums, with no
series built; a custom weight builds the family at each a and sums it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import ConfigurationError, DomainError
from .phi import MONOMIAL, PhiSequence, _refined_weight, phi_weight, term_at
from .polynomials import area_poly_coeffs
from .series import (ROUND_OFF, CoeffSeries, DomainSpec, GeometricWeight, _check_index,
                     _check_param, _check_radius, _mobius_norms, _trusted, mobius_gamma_coeffs,
                     norm_sum, point_eval_bound, s_r)

if TYPE_CHECKING:  # pragma: no cover
    from .radii import RadiusProblem

# reflects the a -> 1^- limits used by every sharpness argument
DEFAULT_A_GRID = tuple(1.0 - 10.0**-k for k in range(1, 7))


@dataclass(frozen=True)
class MuFunction:
    """A continuous weight mu(r) >= 0 on [0, 1]: a constant or a callable."""

    value: float | None = None
    fn: Callable[[float], float] | None = None

    def __post_init__(self):
        if (self.value is None) == (self.fn is None):
            raise ConfigurationError("provide exactly one of value / fn")
        if self.value is not None:
            object.__setattr__(self, "value", _check_param("mu", self.value))
        elif not callable(self.fn):
            raise ConfigurationError(f"mu fn must be callable, got {type(self.fn).__name__}")
        else:
            for k in range(65):  # coarse admissibility screen, by __call__'s check
                self(k / 64.0)

    @classmethod
    def constant(cls, value: float) -> "MuFunction":
        return cls(value=value)

    @classmethod
    def zero(cls) -> "MuFunction":
        return cls(value=0.0)

    @classmethod
    def of(cls, mu) -> "MuFunction":
        """Coerce a float, callable or MuFunction.

        A number gets the check of a constant, the "mu" row of
        series._PARAMS, once, and is stored without running __post_init__.
        """
        if isinstance(mu, MuFunction):
            return mu
        if callable(mu):
            return cls(fn=mu)
        return _trusted(cls, value=_check_param("mu", mu), fn=None)

    def __call__(self, r: float) -> float:
        if self.value is not None:
            return self.value
        v = float(self.fn(r))
        if not math.isfinite(v) or v < 0:
            raise DomainError(f"mu({r}) = {v} is not finite and non-negative")
        return v


@dataclass(frozen=True)
class FunctionalReport:
    """Value vs right-hand side of one inequality at one radius; a value above the
    right-hand side by at most series.ROUND_OFF still satisfies it."""

    value: float
    rhs: float
    satisfied: bool
    margin: float

    @classmethod
    def compare(cls, value: float, rhs: float) -> "FunctionalReport":
        margin = rhs - value  # a report checks nothing: _trusted skips only __init__
        return _trusted(cls, value=value, rhs=rhs, satisfied=margin >= -ROUND_OFF,
                        margin=margin)


def majorant(coeffs: CoeffSeries, phi: PhiSequence, r: float) -> float:
    """Weighted majorant sum_n ||A_n|| phi_n(r), exact or raising.

    A geometric continuation is summed in closed form for built-in kinds;
    for custom kinds Phi_n(r) ||A_n|| / (1 - q) bounds the rest from n and
    must reach series.ABS_TOL within series.TRUNCATION_N terms.
    """
    _check_radius(r)
    return norm_sum(coeffs, phi_weight(phi, r), coeffs.start_index)


def bohr_area_functional(coeffs: CoeffSeries, r: float, lambda_h: float = 1.0,
                         degree: int = 2) -> FunctionalReport:
    """Bohr sum plus the closed-form polynomial of the Dirichlet sum.

    value = sum ||A_n|| r^n + P(S_r) with P = area_poly_coeffs(lambda_h,
    degree); holds against rhs 1 for r <= 1/(1 + 2 lambda_h).
    """
    P = area_poly_coeffs(lambda_h, degree)
    value = majorant(coeffs, MONOMIAL, r) + P(s_r(coeffs, r))
    return FunctionalReport.compare(value, 1.0)


def bohr_beta_functional(coeffs: CoeffSeries, r: float, beta: float) -> FunctionalReport:
    """Bohr sum with beta-weighted squared coefficients.

    value = ||A_m|| + sum_{n>m} (||A_n|| + beta ||A_n||^2) r^n for a series
    starting at m (m = 0: ||A_0|| head); the guarantee needs beta <= 1/(4 lambda_h).
    """
    beta = _check_param("beta", beta)
    _check_radius(r)
    start, weight = coeffs.start_index, phi_weight(MONOMIAL, r)
    value = (coeffs.norm(start) + norm_sum(coeffs, weight, start + 1)
             + beta * norm_sum(coeffs, weight, start + 1, 2))
    return FunctionalReport.compare(value, 1.0)


def bohr_energy_functional(coeffs: CoeffSeries, r: float,
                           lambda_h: float = 1.0) -> FunctionalReport:
    """Bohr sum plus the weighted coefficient-energy series.

    value = sum ||A_n|| r^n
          + ( (1+L)/(2L(1+||A_0||)) + 2(1+L) r/(3(1-r)) ) sum_{n>=1} ||A_n||^2 r^{2n}.
    """
    lambda_h = _check_param("lambda_h", lambda_h)
    _check_radius(r)
    a0 = coeffs.norm(coeffs.start_index)
    weight = (1.0 + lambda_h) / (2.0 * lambda_h * (1.0 + a0)) \
        + 2.0 * (1.0 + lambda_h) * r / (3.0 * (1.0 - r))
    value = majorant(coeffs, MONOMIAL, r) + weight * _energy(coeffs, r)
    return FunctionalReport.compare(value, 1.0)


def _energy(coeffs, r):  # sum_{n >= 1} ||A_n||^2 r^{2n}
    return norm_sum(coeffs, GeometricWeight((1, 0, 0), r * r, (1.0 - r) * (1.0 + r)), 1, 2)


def refined_functional(coeffs: CoeffSeries, phi: PhiSequence, p: float, m: int,
                       mu, r: float) -> FunctionalReport:
    """Weighted Bohr functional with the refinement term.

    value = phi_m(r) ||A_m||^p + sum_{n>m} ||A_n|| phi_n(r)
          + mu(r) * refined_sum(...), against rhs phi_m(r).  The series
    must vanish below index m.  A bare callable mu is input from outside,
    so each call screens it at 65 points before using it (66 calls of mu);
    wrap it once in a MuFunction to screen it once.
    """
    return refined_at(phi, p, m, mu, r)(coeffs)


def refined_at(phi: PhiSequence, p: float, m: int, mu,
               r: float) -> Callable[[CoeffSeries], FunctionalReport]:
    """coeffs -> refined_functional(coeffs, phi, p, m, mu, r), bound once.

    Every check and every value that depends on r alone is resolved
    once, by ``_bind_refined``: p, m, mu (a bare callable is screened
    there), r, phi_m(r), mu(r), the majorant's weight and the refinement
    weight's r-part.  Each series is then checked for a vanishing head,
    and both sums run from m + 1 with the bound weights.
    """
    bound = _bind_refined(phi, p, m, mu, r)

    def evaluate(coeffs):
        p, m, phi_m, weight, refined_weight, mu_r = bound
        start = coeffs.start_index
        if start < m and any(coeffs.norm(n) != 0.0 for n in range(start, m)):
            raise DomainError("coefficients must vanish below index m")
        am = coeffs.norm(m)
        refined = norm_sum(coeffs, refined_weight(am), m + 1, 2)
        value = phi_m * am**p + norm_sum(coeffs, weight, m + 1) + mu_r * refined
        return FunctionalReport.compare(value, phi_m)
    return evaluate


def _bind_refined(phi, p, m, mu, r):
    """refined_at's checks, in its order, and its r-only values, as one tuple
    (p, m, phi_m(r), weight, refined weight, mu(r)): the cells of a closure per
    value, or a closure per sum, made a one-shot call of the functional measurably
    slower."""
    p = _check_param("p", p)
    _check_index("m", m)
    mu = MuFunction.of(mu)
    _check_radius(r)
    return p, m, term_at(phi, m)(r), phi_weight(phi, r), _refined_weight(phi, r), mu(r)


def rogosinski_functional(coeffs: CoeffSeries, phi: PhiSequence, p: float,
                          N: int, omega_order: int, mu, r: float) -> FunctionalReport:
    """Bohr-Rogosinski functional with a Schwarz-composed point bound.

    value = sup||f(w(z))||^p phi_0(r) + mu(r) sum_{n>=N} ||A_n|| phi_n(r)
    against rhs phi_0(r), where the sup over admissible Schwarz mappings
    of order omega_order and |z| = r is the sharp point bound
    (a + r^k)/(1 + a r^k); the extremal family attains it.  A bare
    callable mu is screened on each call, as in refined_functional.
    """
    return rogosinski_at(phi, p, N, omega_order, mu, r)(coeffs)


def rogosinski_at(phi: PhiSequence, p: float, N: int, omega_order: int, mu,
                  r: float) -> Callable[[CoeffSeries], FunctionalReport]:
    """coeffs -> rogosinski_functional(coeffs, phi, p, N, omega_order, mu, r), bound once.

    As refined_at: the checks, phi_0(r), r^omega_order (where
    schwarz_composed_bound takes the point bound), mu(r) and the
    majorant's weight are resolved once, by ``_bind_rogosinski``; each
    series is then only bounded at r^omega_order and summed from N (or
    its start, if later).
    """
    bound = _bind_rogosinski(phi, p, N, omega_order, mu, r)

    def evaluate(coeffs):
        p, N, phi_0, r_k, weight, mu_r = bound
        head = point_eval_bound(coeffs, r_k) ** p * phi_0
        value = head + mu_r * norm_sum(coeffs, weight, max(N, coeffs.start_index))
        return FunctionalReport.compare(value, phi_0)
    return evaluate


def _bind_rogosinski(phi, p, N, omega_order, mu, r):
    """rogosinski_at's checks, in its order, and its r-only values, as one tuple
    (p, N, phi_0(r), r^omega_order, weight, mu(r)), as in _bind_refined."""
    p = _check_param("p", p)
    _check_index("N", N, 1)
    mu = MuFunction.of(mu)
    _check_radius(r)
    phi_0 = term_at(phi, 0)(r)
    _check_index("omega_order", omega_order, 1)
    return p, N, phi_0, r**omega_order, phi_weight(phi, r), mu(r)


CLASSICAL_VARIANTS = ("bohr", "paulsen", "kayumov_ponnusamy", "refined_square",
                      "rogosinski_partial", "bohr_rogosinski")


def classical_functional(coeffs: CoeffSeries, r: float, variant: str,
                         N: int | None = None) -> FunctionalReport:
    """Scalar-era inequality left-hand sides (norms read as |a_n|).

    Variants: "bohr" (plain majorant), "paulsen" (|a_0|^2 plus the sum from
    n = 1), "kayumov_ponnusamy" (the printed (1/3)^n-damped refinement),
    "refined_square" (majorant plus weighted squares), and the partial sums
    "rogosinski_partial" / "bohr_rogosinski", which need N.  The Rogosinski
    partial sum uses the worst-case majorant surrogate; "bohr_rogosinski" is
    rogosinski_functional(coeffs, MONOMIAL, 1.0, N, 1, 1.0, r).
    """
    _check_radius(r)
    if variant not in CLASSICAL_VARIANTS:
        raise ConfigurationError(f"unknown classical variant {variant!r}")
    if variant in ("rogosinski_partial", "bohr_rogosinski"):
        if N is None:
            raise ConfigurationError(f"variant {variant!r} requires N")
        _check_index("N", N, 1)
    a0 = coeffs.norm(0)
    if variant == "bohr":
        value = majorant(coeffs, MONOMIAL, r)
    elif variant == "paulsen":
        value = a0 * a0 + norm_sum(coeffs, phi_weight(MONOMIAL, r), 1)
    elif variant == "kayumov_ponnusamy":
        # a_0 + sum_{n>=1} (||A_n|| r^n + ||A_n||^2 / 2) 3^-n
        value = majorant(coeffs, MONOMIAL, r / 3.0) + 0.5 * _energy(coeffs, 3.0**-0.5)
    elif variant == "refined_square":
        weight = 1.0 / (1.0 + a0) + r / (1.0 - r)
        value = majorant(coeffs, MONOMIAL, r) + weight * _energy(coeffs, r)
    elif variant == "rogosinski_partial":
        value = math.fsum(coeffs.norm(n) * r**n for n in range(N))
    else:
        value = rogosinski_functional(coeffs, MONOMIAL, 1.0, N, 1, 1.0, r).value
    return FunctionalReport.compare(value, 1.0)


def mobius_partial_modulus(a: float, gamma: float, N: int, r: float) -> float:
    """Exact max of |sum_{n<N} c_n z^n| over |z| = r for the extremal family.

    The Mobius-type map has real Taylor coefficients c_0 = (a-g)/(1-ag)
    and c_n = -(1-g)(1-a^2) q^{n-1}/(1-ag)^2; the circle is scanned at 512
    equally spaced angles.
    """
    _check_index("N", N, 1)
    _check_radius(r)
    a, gamma = _check_param("a", a), _check_param("gamma", gamma)
    q = a * (1.0 - gamma) / (1.0 - a * gamma)
    c = [(a - gamma) / (1.0 - a * gamma)]
    c += [-(1.0 - gamma) * (1.0 - a * a) * q ** (n - 1) / (1.0 - a * gamma) ** 2
          for n in range(1, N)]
    circle = (r * cmath.exp(2j * math.pi * k / 512) for k in range(512))
    return max((abs(sum(cn * z**n for n, cn in enumerate(c))) for z in circle), default=0.0)


def per_function_radius(coeffs: CoeffSeries, phi: PhiSequence, p: float,
                        q: float, m: int = 0, mu=0.0) -> float:
    """Numeric radius estimate for the q-powered functional of ONE function.

    Finds sup{ r : phi_m ||A_m||^p + (sum_{n>m} ||A_n|| phi_n + mu * A)^q <= phi_m },
    A refined_at's refinement sum, both sums from m + 1, by bisection on the monotone
    margin, to a bracket of width 1e-10: a per-function estimate, as no class-wide
    radius is pinned for q != 1.
    """
    p, q = _check_param("p", p), _check_param("q", q)
    _check_index("m", m)
    mu = MuFunction.of(mu)
    am = coeffs.norm(m)

    def gap(r):
        _, _, phi_m, weight, refined_weight, mu_r = _bind_refined(phi, p, m, mu, r)
        inner = (norm_sum(coeffs, weight, m + 1)
                 + mu_r * norm_sum(coeffs, refined_weight(am), m + 1, 2))
        return phi_m * am**p + inner**q - phi_m

    lo, hi = 0.0, 1.0 - 1e-9
    if gap(hi) <= 0:
        return hi
    while hi - lo > 1e-10:  # floats near 1 lie 1.1e-16 apart, so lo < mid < hi
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) <= 0 else (lo, mid)
    return lo


def sharpness_probe(problem: "RadiusProblem", r: float, a_grid=DEFAULT_A_GRID):
    """First extremal parameter in a_grid whose functional beats its rhs at r.

    Binds problem_functional(problem, r) once, evaluates the extremal
    Mobius family at each a in grid order and returns the first a with
    value > rhs + series.ROUND_OFF, or None.  The bind does the checks and
    the r-only work; per a, a built-in weight costs the family's three
    numbers and closed-form sums, and a custom weight a built series.
    """
    return _first_violation(problem_functional(problem, _check_param("r:probe", r)), a_grid)


def _first_violation(evaluate: Callable[[float], FunctionalReport], a_grid):
    """The first a in a_grid whose report evaluate(a) is not satisfied, or None."""
    return next((a for a in a_grid if not evaluate(a).satisfied), None)


def family_gamma(domain: DomainSpec) -> float:
    """gamma of the Mobius-type extremal family that tests a domain: Omega_gamma's own,
    0 on the disk; a domain given by lambda_h has none and raises ConfigurationError."""
    if domain.gamma is None:
        raise ConfigurationError("no extremal family is constructible for a general lambda_h")
    return domain.gamma


def problem_functional(problem: "RadiusProblem", r: float) -> Callable[[float], FunctionalReport]:
    """a -> report of the problem's functional on the extremal family at r, bound once.

    Refined problems use the family of ``family_gamma(problem.domain)``
    shifted by m; Rogosinski problems use the disk family with the
    problem's Schwarz order.  Bound once per r, as by ``refined_at`` /
    ``rogosinski_at``: the checks, phi_m(r) or phi_0(r), mu(r), the
    majorant's weight and its value at the first summed index, the
    refinement weight's r-part and r^k for the point bound.  Per a, a
    built-in weight computes only the family's ||A_0||, scale q and q
    (``series._mobius_norms``), the refinement weight at ||A_0||, the
    ``GeometricWeight.tail`` values and the fsums that ``norm_sum`` forms:
    every report and exception is the binder's on
    ``mobius_gamma_coeffs(a, gamma).shifted(m)``, bit for bit.  A custom
    weight has no closed-form tail, so each a builds that series and the
    binder sums it.
    """
    if problem.equation_kind == "rogosinski":
        args = (problem.phi, problem.p, problem.N, problem.m, problem.mu, r)
        if problem.phi.kind != "custom":
            return _rogosinski_family(_bind_rogosinski(*args), problem.phi, r)
        gamma, shift, evaluate_coeffs = 0.0, 0, rogosinski_at(*args)
    else:
        gamma = family_gamma(problem.domain)
        args = (problem.phi, problem.p, problem.m, problem.mu, r)
        if problem.phi.kind != "custom":
            return _refined_family(_bind_refined(*args), problem.phi, gamma, r)
        shift, evaluate_coeffs = problem.m, refined_at(*args)

    def evaluate(a):
        coeffs = mobius_gamma_coeffs(a, gamma)
        return evaluate_coeffs(coeffs.shifted(shift) if shift else coeffs)
    return evaluate


# The two evaluators below are refined_at's and rogosinski_at's evaluate, and norm_sum,
# written out with the same float operations for the series
# mobius_gamma_coeffs(a, gamma).shifted(m): it stores ||A_m|| = a0 and x = ||A_{m+1}||
# = scale q, and norm(n) continues it as x * q**(n - m - 1).  The tail from the first
# unstored index N, norm(N)**power * weight.tail(N, q, power), follows the stored term in
# the fsum.  A stored x of 0.0 ends the series (CoeffSeries.is_finite) and norm_sum adds
# no tail; then q < 1e-307, y = x q is 0.0 and each tail finite, so the added 0.0 leaves
# the fsum as norm_sum's.  A power of 1 returns its base exactly, so q**1 and y**1 are
# written q and y.  A stored term's weight phi_n(r) (term_at) is norm_sum's w(n): a built-in
# polynomial is an exact int, 0.0 adds nothing to an fsum, and n >= 1 carries no head.

def _refined_family(bound, phi, gamma, r):
    """a -> refined_at(...)(mobius_gamma_coeffs(a, gamma).shifted(m)), built-in weight."""
    p, m, phi_m, weight, refined_weight, mu_r = bound
    n = m + 1
    w_n = term_at(phi, n)(r)  # phi_n(r), the weight at n
    t_n = (r * r) ** n  # t = r^2 of the refinement weight, as _refined_weight forms it

    def evaluate(a):
        a0, scale, q = _mobius_norms(_check_param("a", a), gamma)
        x = scale * q
        sq = refined_weight(a0)
        c0, c1, c2 = sq.c
        sq_n = (c0 + n * (c1 + c2 * n)) * t_n if c1 or c2 else c0 * t_n
        y = x * q  # norm(m + 2)
        refined = math.fsum((x**2 * sq_n, y**2 * sq.tail(n + 1, q, 2)))
        tail = math.fsum((x * w_n, y * weight.tail(n + 1, q, 1)))
        return FunctionalReport.compare(phi_m * a0**p + tail + mu_r * refined, phi_m)
    return evaluate


def _rogosinski_family(bound, phi, r):
    """a -> rogosinski_at(...)(mobius_gamma_coeffs(a, 0.0)), built-in weight.

    The disk family has a0 = a < 1, so the point bound's unit-ball check and
    its clamp at 1 pass a0 unchanged, and x = (1 - a^2)/a * a > 0, so a tail
    is always added.  Its sum from N holds the stored x only for N = 1; the
    first unstored index is max(N, 2).
    """
    p, N, phi_0, r_k, weight, mu_r = bound
    w_1 = term_at(phi, 1)(r) if N == 1 else None
    first_unstored = max(N, 2)
    k = first_unstored - 1

    def evaluate(a):
        a0, scale, q = _mobius_norms(_check_param("a", a), 0.0)
        x = scale * q
        rest = x * q**k * weight.tail(first_unstored, q, 1)
        tail = math.fsum((x * w_1, rest) if N == 1 else (rest,))
        head = ((a0 + r_k) / (1.0 + a0 * r_k)) ** p * phi_0
        return FunctionalReport.compare(head + mu_r * tail, phi_0)
    return evaluate
