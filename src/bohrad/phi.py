"""Weight sequences phi = {phi_n(r)} and their tails.

Generalized Bohr sums replace the monomial weights r^n by an admissible
sequence of non-negative continuous functions whose sum converges on
[0, 1).  Built-in kinds carry closed-form tails; a custom kind without
a ``custom_tail`` sums the first ``series.TRUNCATION_N`` terms of each
tail it evaluates, calling ``custom_term`` directly rather than through
``phi_term``, and adds a geometric estimate of the rest that must not
exceed the fixed tolerance ``series.ABS_TOL``.  The estimate
extrapolates the ratio of the last two terms; nothing bounds a
callable's terms past the truncation, so it is not a proven bound.

Every kind is evaluated one way: the binders ``term_at``/``tail_from``
resolve kind and index checks once and return a function of r that
does not check r; ``phi_term``/``phi_tail`` bind, check r and
call.  An equation bound once checks r once per evaluation, custom
weights included, and the sums call the binders at the r they checked.
Built-in terms, weights and tails all come from ``GEOMETRIC_FORMS``,
the tails through the one routine ``series.power_tail``.  A custom
kind's remainder bound is decided with its weight, in ``phi_weight``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError, DomainError, NonConvergenceError
from .series import (ABS_TOL, TAIL_RATIO_CAP, TRUNCATION_N, CoeffSeries, GeometricWeight,
                     SampledWeight, _check_index, _check_radius, norm_sum, power_tail)

# Each built-in kind as phi_n(r) = (c0 + c1 n + c2 n^2) r^n on the indices
# n = parity (mod step), plus a head at n = 0: (c, step, parity, head).
# The kind registries below are derived from it.
GEOMETRIC_FORMS = {
    "monomial": ((1, 0, 0), 1, 0, 0.0),
    "weighted_linear": ((1, 1, 0), 1, 0, 0.0),
    "weighted_quadratic": ((0, 0, 1), 1, 0, 1.0),
    "even_only": ((1, 0, 0), 2, 0, 0.0),
    "odd_only": ((1, 0, 0), 2, 1, 1.0),
}

PHI_KINDS = (*GEOMETRIC_FORMS, "custom")


@dataclass(frozen=True)
class PhiSequence:
    """An admissible weight sequence.

    kind selects one of:
      monomial            phi_n = r^n
      weighted_linear     phi_n = (n+1) r^n
      weighted_quadratic  phi_0 = 1, phi_n = n^2 r^n
      even_only           phi_{2n} = r^{2n}, odd terms vanish
      odd_only            phi_0 = 1, phi_{2n-1} = r^{2n-1}, even terms vanish
      custom              terms from custom_term(n, r) (>= 0), with an
                          optional closed-form custom_tail(N, r)

    Instances are immutable and safe to share across threads; custom
    callables must be reentrant themselves.
    """

    kind: str
    custom_term: Callable[[int, float], float] | None = None
    custom_tail: Callable[[int, float], float] | None = None

    def __post_init__(self):
        if self.kind not in PHI_KINDS:
            raise ConfigurationError(f"unknown phi kind {self.kind!r}")
        if self.kind != "custom":
            if self.custom_term is not None or self.custom_tail is not None:
                raise ConfigurationError(f"phi kind {self.kind!r} takes no custom_term "
                                         "or custom_tail")
        elif not callable(self.custom_term):
            raise ConfigurationError("custom phi requires a custom_term callable")
        elif self.custom_tail is not None and not callable(self.custom_tail):
            raise ConfigurationError("custom_tail must be callable")


BUILTIN_PHI = {kind: PhiSequence(kind) for kind in GEOMETRIC_FORMS}
MONOMIAL, WEIGHTED_LINEAR, WEIGHTED_QUADRATIC, EVEN_ONLY, ODD_ONLY = BUILTIN_PHI.values()


def term_at(phi: PhiSequence, n: int):
    """phi_n of any kind as a function of r alone, which does not check r.

    The kind and the check on n are resolved here, once.  A built-in
    phi_n is (c0 + c1 n + c2 n^2) r^n of GEOMETRIC_FORMS, or a constant;
    a custom phi_n checks its value.
    """
    _check_index("n", n)
    if phi.kind == "custom":
        return functools.partial(_custom_term, phi.custom_term, n)
    a, value = _form_at(phi.kind, n)
    return (lambda r: a * r**n) if a else (lambda r: value)


def _form_at(kind, n):
    """(a, value) of a built-in phi_n: a r^n if a != 0, else the constant value."""
    (c0, c1, c2), step, parity, head = GEOMETRIC_FORMS[kind]
    return c0 + c1 * n + c2 * n * n if n % step == parity else 0, head if n == 0 else 0.0


def tail_from(phi: PhiSequence, N: int):
    """Phi_N of any kind as a function of r alone; see term_at and phi_tail."""
    _check_index("N", N)
    if phi.kind != "custom":
        c, step, parity, head = GEOMETRIC_FORMS[phi.kind]
        return _power_tail(step, *power_tail(c, step, parity, N), head if N == 0 else 0.0)
    tail = phi.custom_tail
    if tail is not None:
        return functools.partial(_custom_tail, tail, N)
    return lambda r: _truncated_tail(phi, N, r)  # found at call time, so it can be wrapped


def ratio_form(phi: PhiSequence, m: int):
    """(step, k, b0, b1, b2) of Phi_{m+1}/phi_m = r^k (b0 + (b1 + b2 (1 + u)/d) u/d)/d,
    u = r^step, d = 1 - u, for a built-in phi_m = a r^m != 0: series.power_tail's
    (E, b0, b1, b2) at N = m + 1, with k = E - m and each b divided by a; else None."""
    _check_index("m", m)
    if phi.kind == "custom":
        return None
    c, step, parity, _ = GEOMETRIC_FORMS[phi.kind]
    a, value = _form_at(phi.kind, m)
    a = float(a) or value  # phi_m(1), as term_at evaluates it
    if not a:
        return None
    E, b0, b1, b2 = power_tail(c, step, parity, m + 1)
    return step, E - m, b0 / a, b1 / a, b2 / a


def _power_tail(step, k, b0, b1, b2, head=0.0):
    """head + r^k (b0 + (b1 + b2 (1 + u)/d) u/d)/d, u = r^step, d = 1 - u, a call-free
    f(r); the step, and whether b1 = b2 = 0, pick its closed form here, once.  Every
    step-2 P of GEOMETRIC_FORMS and _REFINED_POLYS is constant (a test pins this)."""
    if step == 2:
        return lambda r: head + r**k * b0 / ((1.0 - r) * (1.0 + r))
    if not (b1 or b2):
        return lambda r: head + r**k * b0 / (1.0 - r)

    def tail(r):
        d = 1.0 - r
        return head + r**k * (b0 + (b1 + b2 * (1.0 + r) / d) * r / d) / d
    return tail


# per kind, the three polynomials p in P(2n + a) = P(a) + (2 c1 + 4 c2 a) n + 4 c2 n^2,
# and their tails sum_{a >= 1} p(a) r^a, bound once for _refined_weight
_REFINED_POLYS = {kind: ((c0, c1, c2), (2 * c1, 4 * c2, 0), (4 * c2, 0, 0))
                  for kind, ((c0, c1, c2), *_) in GEOMETRIC_FORMS.items()}
_REFINED_TAILS = {kind: [_power_tail(step, *power_tail(p, step, parity, 1)) for p in polys]
                  for kind, polys in _REFINED_POLYS.items()
                  for step, parity in [GEOMETRIC_FORMS[kind][1:3]]}


def _custom_term(term, n, r):
    value = float(term(n, r))
    if not math.isfinite(value) or value < 0:
        raise DomainError(f"custom term at n={n} must be finite and >= 0")
    return value


def _custom_tail(tail, N, r):
    value = float(tail(N, r))
    if not math.isfinite(value) or value < 0:
        raise DomainError(f"custom tail at N={N}, r={r} must be finite and >= 0")
    return value


def phi_term(phi: PhiSequence, n: int, r: float) -> float:
    """Evaluate phi_n(r)."""
    term = term_at(phi, n)
    _check_radius(r)
    return term(r)


def phi_tail(phi: PhiSequence, N: int, r: float) -> float:
    """Tail sum Phi_N(r) = sum_{n >= N} phi_n(r).

    Built-in kinds use the closed form of _power_tail; custom kinds use
    custom_tail if given (its value must be finite and >= 0, as a
    custom term's), else a truncated sum plus a geometric estimate of
    the rest, extrapolated from the ratio of its last two terms, which
    must not exceed series.ABS_TOL.  That estimate is not a proven
    bound: nothing bounds a callable's terms past the truncation.
    """
    tail = tail_from(phi, N)
    _check_radius(r)
    return tail(r)


def _truncated_tail(phi, N, r):
    """Sum of custom_term(n, r) over N <= n < N + TRUNCATION_N plus a geometric estimate.

    The caller has checked r and N >= 0.  The terms are
    checked together after they are all computed; a failure names the
    first n whose term is negative or not finite.  fsum is given only
    the nonzero terms: an exact zero (a parity gap, a cut-off weight,
    r^n underflowed) never changes an fsum, so the sum is bit identical
    to the fsum of all of them, and fsum of no terms is 0.0.
    """
    term = phi.custom_term
    terms = [float(term(n, r)) for n in range(N, N + TRUNCATION_N)]
    try:
        # min first: fsum raises ValueError on +inf and -inf together
        total = math.fsum(filter(None, terms)) if min(terms) >= 0.0 else math.nan
    except OverflowError:  # valid terms whose sum overflows: raised after the ratio checks
        total = None
    if total is not None and not math.isfinite(total):
        n = next(n for n, t in enumerate(terms, N) if not 0.0 <= t < math.inf)
        raise DomainError(f"custom term at n={n} must be finite and >= 0")
    nonzero = (t for t in reversed(terms) if t > 0.0)
    last, before = next(nonzero, 0.0), next(nonzero, 0.0)
    if not before:  # at most one nonzero term: its sum cannot overflow
        return total
    ratio = last / before
    if ratio >= TAIL_RATIO_CAP:
        raise NonConvergenceError(
            f"term ratio {ratio:.6g} at truncation exceeds the cap "
            f"{TAIL_RATIO_CAP:.6g}; cannot certify convergence")
    bound = last * ratio / (1.0 - ratio)
    if bound > ABS_TOL:
        raise NonConvergenceError(
            f"tail estimate {bound:.3g} exceeds abs_tol {ABS_TOL:.3g} "
            f"after {TRUNCATION_N} terms")
    if total is None:
        raise DomainError(f"custom tail at N={N}, r={r} must be finite and >= 0")
    return total + bound


def phi_weight(phi: PhiSequence, r: float) -> GeometricWeight | SampledWeight:
    """n -> phi_n(r) at a checked r; a custom kind's is a SampledWeight bounded by Phi_n(r)."""
    if phi.kind == "custom":
        return SampledWeight(lambda n: term_at(phi, n)(r), lambda n: tail_from(phi, n)(r))
    c, step, parity, head = GEOMETRIC_FORMS[phi.kind]
    return GeometricWeight(c, r, 1.0 - r, step, parity, head)


def _refined_weight(phi, r):
    """am -> the refinement weight at a checked r, as norm_sum takes it.

    refined_sum and functionals.refined_at both sum with it.  The weight
    is n -> phi_{2n}(r)/(1 + am) + Phi_{2n+1}(r) for n >= 1; a custom
    kind's is a SampledWeight bounded by Phi_{2n}(r).  For a built-in kind with
    polynomial P, phi_{2n} is P(2n) r^{2n} (if 2n is on its indices) and
    Phi_{2n+1} sums P(2n + a) r^{2n+a} over its indices 2n + a, a >= 1: a
    GeometricWeight in t = r^2 (see _REFINED_TAILS).  The tail values, t
    and 1 - t are bound here; per am, only the division by 1 + am and the
    GeometricWeight remain.
    """
    if phi.kind == "custom":
        sup = lambda n: tail_from(phi, 2 * n)(r)
        return lambda am: SampledWeight(lambda n: (term_at(phi, 2 * n)(r) / (1.0 + am)
                                                   + tail_from(phi, 2 * n + 1)(r)), sup)
    (c0, c1, c2), _, parity, _ = GEOMETRIC_FORMS[phi.kind]
    x0, x1, x2 = (c0, 2 * c1, 4 * c2) if parity == 0 else (0, 0, 0)
    tail0, tail1, tail2 = _REFINED_TAILS[phi.kind]
    v0, v1, v2 = tail0(r), tail1(r), tail2(r)
    t, one_minus_t = r * r, (1.0 - r) * (1.0 + r)

    def weight(am):
        d = 1.0 + am
        return GeometricWeight((x0 / d + v0, x1 / d + v1, x2 / d + v2), t, one_minus_t)
    return weight


def refined_sum(coeffs: CoeffSeries, phi: PhiSequence, m: int, r: float) -> float:
    """Refinement term sum_{n > m} ||A_n||^2 ( phi_{2n}/(1 + ||A_m||) + Phi_{2n+1} ).

    The squares are the convention of the refined disk inequality this
    term generalizes.  Built-in kinds sum in closed form; for custom
    kinds Phi_{2n} bounds the weight.
    """
    _check_index("m", m)
    _check_radius(r)
    return norm_sum(coeffs, _refined_weight(phi, r)(coeffs.norm(m)), m + 1, 2)
