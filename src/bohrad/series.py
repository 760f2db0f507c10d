"""Coefficient-norm series of unit-ball holomorphic functions.

A function f(z) = sum_n A_n z^n with operator coefficients enters every
inequality in this package only through the norm sequence ||A_n||.
``CoeffSeries`` stores such a sequence (finitely many entries, with an
optional exact geometric continuation).  Concrete test surfaces are the
Mobius-type extremal family on the enlarged disk Omega_gamma and
diagonal blends of scalar Mobius factors, for which the norms are exact.
The extremal family is geometric from index 1, so it stores two norms
and its ratio; a blend is geometric from its crossover, the index where
the entry with the largest parameter takes over, so it stores its norms
up to there (two for equal parameters) and that parameter as the ratio.
``count`` asks the extremal family for a longer explicit prefix, and
every sum adds the rest in closed form.

Weights and sums do their per-element work with the floating-point
operations of a plain per-element loop, so every value is bit identical
to that loop, with less interpreter work: weights visit only the indices
of their parity class, and stored-norm terms are products mapped in C.

Inputs are checked once, where they enter the package: the public
constructors (``CoeffSeries``, ``MatrixCoeffFn``, ``DomainSpec``, and in
other modules ``MuFunction``, ``HyperbolicDensity`` and
``RadiusProblem``) and the arguments of public functions, by the checks
here: ``_check_index``, ``_check_radius`` and ``_check_param``, whose
table ``_PARAMS`` holds the interval of every other numeric argument:
gamma (``DomainSpec``, ``HyperbolicDensity``, the extremal family and
the Omega_gamma closed forms), nu (the Bloch functions), p (problems,
functionals, ``closed_form_radius``), p:r_p (``rp_lower``, ``rp_upper``),
lambda_h (``DomainSpec``, the area and energy functionals, polynomials,
``closed_form_radius``), a (the extremal family, ``MatrixCoeffFn``), the
solvers' tol and scan_step (``roots.check_steps``, which every solve
calls; ``per_function_radius``'s tol; ``count_sign_changes``), upper
(the root solvers, ``count_sign_changes``), tol:coeff_bound
(``check_coeff_bound``), h (``non_improvable``), beta
(``bohr_beta_functional``, ``radii.verify``), q (``per_function_radius``),
mu (a constant ``MuFunction``), r:probe (``sharpness_probe``),
tail_geometric_ratio (``CoeffSeries``), bloch_norm_budget
(``bloch_majorant_check``) and c (``PolySpec``, ``calibrate_area_poly``).
A value object the package builds itself from values it has checked is
built by ``_trusted``, which runs no ``__init__`` or ``__post_init__``:
the series of ``mobius_gamma_coeffs``, ``CoeffSeries.shifted``,
``CoeffSeries.truncated_from`` and ``diag_blend_coeffs``,
``MuFunction.of`` of a number, ``FunctionalReport.compare`` and the
solvers' ``RootResult``.  Each of those sites says why its values pass
the checks it skips, and a test rebuilds every trusted series through
the public constructor.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import DomainError, NonConvergenceError

# a diagonal blend stores its norms up to the index where the largest
# parameter takes over; parameters that close together raise instead
MAX_BLEND_NORMS = 1 << 18

# Truncation policy for sums that lack a closed form: a remainder of at
# most ABS_TOL within TRUNCATION_N terms past a custom weight's
# closed-form part, or past index max(N, CONTINUATION_FLOOR) on a
# geometric continuation of norms from its first unstored index N (so
# two stored norms are summed as 64 are), and no tail estimate once
# terms shrink more slowly than TAIL_RATIO_CAP per index.
TRUNCATION_N = 512
CONTINUATION_FLOOR = 65
TAIL_RATIO_CAP = 0.99
ABS_TOL = 1e-12


@dataclass(frozen=True)
class CoeffSeries:
    """Non-negative norms ||A_0||, ||A_1||, ... of a coefficient sequence.

    ``norms[n]`` is the norm at index n.  Entries below ``start_index``
    are zero (the series represents z^m * h(z) when start_index = m).
    If ``tail_geometric_ratio`` is set, the sequence continues exactly
    geometrically beyond the stored range:
    ||A_{L+k}|| = ||A_L|| * ratio^k.
    """

    norms: tuple[float, ...]
    start_index: int = 0
    tail_geometric_ratio: float | None = None

    def __post_init__(self):
        _check_index("start_index", self.start_index)
        norms = tuple(map(float, self.norms)) or (0.0,)
        if not (all(map(math.isfinite, norms)) and min(norms) >= 0.0
                and not any(norms[:self.start_index])):
            for n, x in enumerate(norms):  # name the first bad index
                if not math.isfinite(x) or x < 0:
                    raise DomainError(f"norm at index {n} must be finite and >= 0, got {x}")
                if n < self.start_index and x != 0.0:
                    raise DomainError(f"norms below start_index must vanish (index {n})")
        ratio = self.tail_geometric_ratio
        if ratio is not None:
            object.__setattr__(self, "tail_geometric_ratio",
                               _check_param("tail_geometric_ratio", ratio))
        object.__setattr__(self, "norms", norms)

    @classmethod
    def unit_constant(cls):
        """The equality witness f = cI with |c| = 1: norms (1, 0, 0, ...)."""
        return cls((1.0,))

    @property
    def last_index(self) -> int:
        return len(self.norms) - 1

    def norm(self, n: int) -> float:
        """||A_n||, extending geometrically past the stored range if allowed."""
        if type(n) in _BOOL_TYPES:  # True < start_index compares as 1
            raise DomainError("n must be an integer, got bool")
        if n < self.start_index:
            return 0.0
        if n <= self.last_index:
            return self.norms[n]
        if self.tail_geometric_ratio is None:
            return 0.0
        return self.norms[-1] * self.tail_geometric_ratio ** (n - self.last_index)

    def shifted(self, k: int) -> "CoeffSeries":
        """The series of z^k * f(z): every index moves up by k."""
        _check_index("k", k)
        # self's norms are checked floats, finite, >= 0 and zero below its start, and
        # its ratio is checked; k leading zeros keep them zero below start + k
        return _trusted(CoeffSeries, norms=(0.0,) * k + self.norms,
                        start_index=self.start_index + k,
                        tail_geometric_ratio=self.tail_geometric_ratio)

    def is_finite(self) -> bool:
        return self.tail_geometric_ratio is None or self.norms[-1] == 0.0

    def truncated_from(self, N: int) -> "CoeffSeries":
        """The series keeping only indices >= N (lower norms zeroed).

        A geometric continuation survives: when N lies beyond the stored
        range the first kept norm is materialized from it.
        """
        _check_index("N", N)
        start = max(self.start_index, N)
        if N > self.last_index:
            norms = (0.0,) * N + (self.norm(N),)
        else:
            # zero up to the new start: a stored -0.0 below it reads as norm() = 0.0
            keep = min(start, len(self.norms))
            norms = (0.0,) * keep + self.norms[keep:]
        # each norm is 0.0, one of self's checked floats or a checked norm times a power
        # of the checked ratio, and every index below start holds 0.0
        return _trusted(CoeffSeries, norms=norms, start_index=start,
                        tail_geometric_ratio=self.tail_geometric_ratio)


class GeometricWeight(NamedTuple):
    """Weights w(n) = (c0 + c1 n + c2 n^2) t^n on the indices n = parity (mod step).

    ``head`` is added at n = 0; ``one_minus_t`` is 1 - t computed without
    cancellation, e.g. (1-r)(1+r) for t = r^2.  w(n) q^n has the same
    form, so a geometric continuation of the norms sums in closed form.
    Only the package builds weights, from values it has checked, so this
    is a NamedTuple: it checks nothing, and builds without a dataclass
    ``__init__``.
    """

    c: tuple[float, float, float]
    t: float
    one_minus_t: float
    step: int = 1
    parity: int = 0
    head: float = 0.0

    def values(self, start: int, stop: int) -> list[float]:
        """[w(start), ..., w(stop - 1)], computed in one pass.

        Each w(n) on the weight's indices is (c0 + n (c1 + c2 n)) * t**n,
        the operations of a per-index loop, so the values are bit
        identical to it; only the indices on the parity class are visited,
        the factor is c0 alone when c1 = c2 = 0, and the off-parity slots
        are zeros filled by one slice assignment.
        """
        (c0, c1, c2), t, step = self.c, self.t, self.step
        first = start + (self.parity - start) % step
        indices = range(first, stop, step)
        if c1 or c2:
            on = [(c0 + n * (c1 + c2 * n)) * t**n for n in indices]
        else:
            on = [c0 * t**n for n in indices]
        if step == 1:
            w = on
        else:
            w = [0.0] * max(0, stop - start)
            w[first - start::step] = on
        if start == 0 < stop:
            w[0] += self.head
        return w

    def tail(self, N: int, q: float = 1.0, power: int = 1) -> float:
        """sum_{n >= N} q^(power (n - N)) w(n), N >= 0, power 1 or 2: q^(power (E-N))
        t^E times power_tail's factor at s = q^power t, plus the head at N = 0; for
        q in [0, 1) nothing over- or underflows."""
        E, b0, b1, b2 = power_tail(self.c, self.step, self.parity, N)
        qp = q**power
        s = qp * self.t
        # 1 - s = (1 - q)(1 + q + ... + q^(power-1)) + q^power (1 - t); that sum is 1.0 at
        # power 1 and 1.0 + q at power 2
        d = (1.0 - q) * (1.0 if power == 1 else 1.0 + q) + qp * self.one_minus_t
        u, d = (s, d) if self.step == 1 else (s * s, d * (1.0 + s))
        head = self.head if N == 0 else 0.0
        return head + qp ** (E - N) * self.t**E * (b0 + (b1 + b2 * (1.0 + u) / d) * u / d) / d


def power_tail(c, step: int, parity: int, N: int):
    """E, b0, b1, b2 of sum_{n >= N} P(n) s^n over n = parity (mod step), step 1 or 2.

    E is the first index >= N there; with u = s^step and d = 1 - u, the sum
    is s^E (b0 + (b1 + b2 (1 + u)/d) u/d)/d for b0 = P(E), b1 = step P'(E),
    b2 = step^2 c2, as P(E + step j) = b0 + b1 j + b2 j^2 and sum_j j^i u^j
    = 1/d, u/d^2, u(1+u)/d^3.  For c_i >= 0 nothing cancels as s -> 1.
    """
    c0, c1, c2 = c
    E = N + (parity - N) % step
    return E, c0 + E * (c1 + c2 * E), step * (c1 + 2 * c2 * E), c2 * step**2


class SampledWeight(NamedTuple):
    """Weights w(n) = term(n) without a closed form, bounded by sup(n) >= w(k) for all
    k >= n; their maker (phi.phi_weight, phi._refined_weight) decides that bound."""

    term: Callable[[int], float]
    sup: Callable[[int], float]


def norm_sum(coeffs: CoeffSeries, weight: GeometricWeight | SampledWeight, start: int = 0,
             power: int = 1) -> float:
    """sum_{n >= start} ||A_n||^power w(n), for power 1 or 2.

    Any other power raises DomainError before any term is computed.
    The stored norms are summed with fsum.  Their terms are x * w (power
    1) or pow(x, power) * w, mapped over the norms and weights; a zero
    norm adds 0.0, which leaves the fsum unchanged.  A geometric
    continuation of the stored norms adds, for a GeometricWeight, its
    exact remainder.  For a SampledWeight, continuation terms are added
    until the bound sup(n) ||A_n||^power / (1 - q^power) on the rest is
    at most ABS_TOL, or NonConvergenceError.  With N the first unstored
    index and M = max(N, CONTINUATION_FLOOR), terms N .. M are added
    unchecked and the bound is checked at n = M .. M + TRUNCATION_N.  At
    each checked index, term(n) ||A_n||^power is compared first, and
    sup(n) (a custom weight's truncated tail costs TRUNCATION_N terms) is
    evaluated only once that term alone meets the bound; as sup(n) >=
    term(n), this stops where the bound alone would.  So term(n) is
    evaluated at the stop index too, and a prefix shorter than 64 norms
    is summed as if 64 were stored, with the same terms and evaluations.
    A short sum is never returned.
    """
    if power not in (1, 2):
        raise DomainError(f"power must be 1 or 2, got {power!r}")
    norms = coeffs.norms[start:]
    geometric = isinstance(weight, GeometricWeight)
    weights = (weight.values(start, start + len(norms)) if geometric
               else [weight.term(n) if x else 0.0 for n, x in enumerate(norms, start)])
    powered = norms if power == 1 else map(pow, norms, itertools.repeat(power))
    terms = list(map(operator.mul, powered, weights))
    if coeffs.is_finite():
        return math.fsum(terms)
    q = coeffs.tail_geometric_ratio
    N = max(start, coeffs.last_index + 1)
    if geometric:
        terms.append(coeffs.norm(N) ** power * weight.tail(N, q, power))
        return math.fsum(terms)
    term, sup = weight
    check_from = max(N, CONTINUATION_FLOOR)
    bound = ABS_TOL * (1.0 - q**power)
    for n in range(N, check_from + TRUNCATION_N + 1):
        xe, w = coeffs.norm(n) ** power, term(n)
        if n >= check_from and w * xe <= bound and sup(n) * xe <= bound:
            return math.fsum(terms)
        terms.append(xe * w)
    raise NonConvergenceError(f"series remainder stays above abs_tol {ABS_TOL:.3g} "
                              f"after {check_from + TRUNCATION_N - N} continuation terms")


def ratio_sum(terms: Iterable[float], rho: float, tol: float, cap: int) -> float:
    """Sum of non-negative terms t_0, t_1, ... with t_{k+1} <= rho t_k, rho in [0, 1).

    After t_k the rest sums to at most t_k rho/(1 - rho), a proven
    remainder.  The sum stops at the first k where that remainder is at
    most tol times the partial sum t_0 + ... + t_k, a lower bound of the
    whole sum (its running float value is within k ulp of the exact
    one), and returns the fsum of t_0 .. t_k.  No stop within the first
    ``cap`` terms raises NonConvergenceError.
    """
    scale = rho / (1.0 - rho)
    kept = []
    partial = 0.0
    for t in itertools.islice(terms, cap):
        kept.append(t)
        partial += t
        if t * scale <= tol * partial:
            return math.fsum(kept)
    raise NonConvergenceError(f"series remainder stays above relative tol {tol:.3g} "
                              f"after {cap} terms")


@dataclass(frozen=True)
class DomainSpec:
    """A domain, given by exactly one of lambda_h > 0, the constant of a simply
    connected domain, or gamma in [0, 1) for Omega_gamma, whose effective
    constant is 1/(1+gamma); Omega_0 is the unit disk."""

    lambda_h: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if (self.lambda_h is None) == (self.gamma is None):
            raise DomainError("provide exactly one of lambda_h / gamma")
        name = "lambda_h" if self.gamma is None else "gamma"
        object.__setattr__(self, name, _check_param(name, getattr(self, name)))

    @classmethod
    def disk(cls):
        return cls(gamma=0.0)

    @classmethod
    def general(cls, lambda_h: float):
        return cls(lambda_h=lambda_h)

    @classmethod
    def omega_gamma(cls, gamma: float):
        return cls(gamma=gamma)

    @property
    def effective_lambda(self) -> float:
        return 1.0 / (1.0 + self.gamma) if self.lambda_h is None else self.lambda_h


# built once: every evaluation of a radius equation checks its r
_REAL_TYPES = (int, float, np.integer, np.floating)
_BOOL_TYPES = (bool, np.bool_)


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls holding fields, built without running
    its __init__ or __post_init__; only for values the package made and has checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_index(name, n, least=0):
    """Accept an integer index n >= least: an int or a numpy integer, never a bool."""
    if type(n) is not int and not isinstance(n, np.integer):
        raise DomainError(f"{name} must be an integer, got {type(n).__name__}")
    if n < least:
        raise DomainError(f"{name} must be at least {least}")


def _check_radius(r):
    """Accept a real radius in [0, 1), a Python or numpy scalar other than a bool."""
    if type(r) is not float and (isinstance(r, bool) or not isinstance(r, _REAL_TYPES)):
        raise DomainError(f"radius must be a real number, got {type(r).__name__}")
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")


_TINY, _BELOW_ONE, _MAX = math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), sys.float_info.max
_UNIT, _OPEN_UNIT = (0.0, _BELOW_ONE, "[0, 1)"), (_TINY, _BELOW_ONE, "(0, 1)")
_POSITIVE, _NON_NEGATIVE = (_TINY, _MAX, "(0, inf)"), (0.0, _MAX, "[0, inf)")
# each numeric argument's interval as (least float in it, greatest float in it, as printed),
# keyed by its name, or by name:use where the name has another interval elsewhere
_PARAMS = {
    "gamma": _UNIT,  # of Omega_gamma
    "nu": (_TINY, 1.0, "(0, 1]"),  # Bloch order
    "p": (_TINY, 2.0, "(0, 2]"),  # exponent of a radius problem or functional
    "p:r_p": (1.0, math.nextafter(2.0, 0.0), "[1, 2)"),  # of the r_p bounds
    "lambda_h": _POSITIVE,  # domain constant
    "a": _OPEN_UNIT,  # extremal family parameter
    "tol": _POSITIVE,  # root solvers, per_function_radius
    "scan_step": _OPEN_UNIT,  # a step of 1 or more has no grid point
    "upper": (_TINY, 1.0, "(0, 1]"),  # end of a root scan
    "tol:coeff_bound": _NON_NEGATIVE,
    "h": _POSITIVE,  # non_improvable's difference step
    "beta": _NON_NEGATIVE,
    "q": _POSITIVE,  # per_function_radius's outer power
    "mu": _NON_NEGATIVE,  # a constant MuFunction
    "r:probe": _OPEN_UNIT,  # sharpness_probe's radius
    "tail_geometric_ratio": _UNIT,
    "bloch_norm_budget": (0.0, 1.0 + 1e-12, "[0, 1 + 1e-12]"),  # 1 up to round-off
    "c": _POSITIVE,  # a coefficient of an improvement polynomial
}


def _check_param(key, x):
    """x as a float, once it is a real number, not a bool, in key's interval (_PARAMS);
    a message names the argument, the key up to any ':'."""
    lo, hi, interval = _PARAMS[key]
    if type(x) is float and lo <= x <= hi:
        return x
    name = key.partition(":")[0]
    if isinstance(x, bool) or not isinstance(x, _REAL_TYPES):  # np.bool_ is not real
        raise DomainError(f"{name} must be a real number, got {type(x).__name__}")
    if not lo <= x <= hi:  # compared before float(), which overflows on a huge int
        raise DomainError(f"{name} must lie in {interval}, got {x}")
    return float(x)


def mobius_gamma_coeffs(a: float, gamma: float = 0.0, count: int = 1) -> CoeffSeries:
    """Coefficient norms of the Mobius-type extremal map of Omega_gamma.

    h_a composes the disk automorphism (a - w)/(1 - a w) with the affine
    map w = (1-gamma) z + gamma, giving

        ||A_0|| = |a - gamma| / (1 - a gamma),
        ||A_n|| = (1 - a^2)/(a (1 - a gamma)) * q^n,   q = a(1-gamma)/(1 - a gamma),

    for n >= 1.  a = 0 and a = 1 are excluded (the n >= 1 formula has a
    in a denominator and the family is used in the a -> 1^- limit only),
    and so is an a so small that the scale 1/a overflows.
    The norms are exactly geometric from n = 1, so the series stores
    ||A_0||, ||A_1|| and the ratio q, and every sum adds the rest in
    closed form; ``count`` > 1 stores ||A_1|| .. ||A_count|| explicitly,
    for callers that want a longer stored prefix, but only while q^n is
    a normal float: the scale can exceed 1, so a power that underflows
    would store a norm far below its true value (or 0.0, which would end
    the series), and the continuation carries the rest instead.
    """
    a, gamma = _check_param("a", a), _check_param("gamma", gamma)
    _check_index("count", count, 1)
    a0, scale, q = _mobius_norms(a, gamma)
    norms = [a0, scale * q]
    for n in range(2, count + 1):
        power = q**n
        if power < sys.float_info.min:
            break
        norms.append(scale * power)
    # floats from the checked a and gamma, start 0: a0 >= 0 over 1 - a gamma > 0, and a
    # finite scale >= 0 times normal powers of q; q < 1, as a (1 - gamma) rounds below
    # 1 - gamma, which rounds no higher than 1 - a gamma (a test rebuilds the series)
    return _trusted(CoeffSeries, norms=tuple(norms), start_index=0, tail_geometric_ratio=q)


def _mobius_norms(a, gamma):
    """(||A_0||, scale, q) of the extremal family at a checked a and gamma, so that
    ||A_n|| = scale q^n for n >= 1; an a whose scale overflows raises DomainError.
    mobius_gamma_coeffs and functionals.problem_functional both take the norms here."""
    a0 = abs(a - gamma) / (1.0 - a * gamma)
    scale = (1.0 - a * a) / (a * (1.0 - a * gamma))
    if not math.isfinite(scale):
        raise DomainError(f"a = {a} is too small: the norm scale 1/a overflows")
    return a0, scale, a * (1.0 - gamma) / (1.0 - a * gamma)


def s_r(coeffs: CoeffSeries, r: float, include_pi: bool = False) -> float:
    """Dirichlet-type sum sum_n n ||A_n||^2 r^{2n}.

    The bare coefficient sum is the operator convention used throughout;
    ``include_pi`` multiplies by pi, matching the planar-integral
    normalization of the scalar theory.
    """
    _check_radius(r)
    total = norm_sum(coeffs, GeometricWeight((0, 1, 0), r * r, (1.0 - r) * (1.0 + r)), 0, 2)
    return math.pi * total if include_pi else total


def operator_norm(matrix) -> float:
    """Largest singular value of a finite complex matrix."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise DomainError("operator_norm expects a 2-d matrix")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DomainError("matrix entries must be finite")
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class MatrixCoeffFn:
    """Diagonal blend of scalar Mobius factors.

    Entry i of the d x d diagonal is phase_i * (a_i + z)/(1 + a_i z), a
    self-map of the disk, so the blend maps into the operator unit ball.
    Coefficient matrices are diagonal and their operator norm is the max
    of the entry magnitudes, which keeps every norm exact.
    """

    params: tuple[float, ...]
    phases: tuple[complex, ...] | None = None

    def __post_init__(self):
        params = tuple(_check_param("a", a) for a in self.params)
        if not params:
            raise DomainError("at least one diagonal entry is required")
        phases = self.phases
        if phases is None:
            phases = (1.0 + 0.0j,) * len(params)
        else:
            phases = tuple(complex(p) for p in phases)
            if len(phases) != len(params):
                raise DomainError("one phase per diagonal entry is required")
            for p in phases:
                if not abs(abs(p) - 1.0) <= 1e-12:  # a NaN fails it too
                    raise DomainError("phases must be unimodular")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "phases", phases)

    @property
    def dimension(self) -> int:
        return len(self.params)

    def entry_coefficient(self, i: int, n: int) -> complex:
        """n-th Taylor coefficient of entry i: its phase times a, or (1 - a^2)(-a)^(n-1)."""
        _check_index("i", i)
        _check_index("n", n)
        a = self.params[i]
        return self.phases[i] * (complex(a) if n == 0 else (1 - a * a) * (-a) ** (n - 1))


def diag_blend_coeffs(fn: MatrixCoeffFn) -> CoeffSeries:
    """Coefficient-norm series of a diagonal Mobius blend.

    Every phase is unimodular, so ||A_n|| = max_i |c_n^{(i)}|: max_i a_i
    at n = 0 and max_i (1 - a_i^2) a_i^(n-1) after.  Stored norms run to
    the crossover max(1, k), where k is the last index at which an entry
    with a smaller parameter a first falls below the entry with the
    largest one, b: the smallest n with (1-b^2) b^(n-1) >= (1-a^2)
    a^(n-1), which then holds for all larger n, so the continuation
    ratio b is exact and every sum adds the rest in closed form (equal
    parameters store ||A_0|| and ||A_1||).  A log estimate of k, less
    one against round-off, is stepped up until that comparison confirms
    it.  A crossover beyond MAX_BLEND_NORMS raises NonConvergenceError.
    """
    b = max(fn.params)
    n = 1
    for a in fn.params:
        if a < b:
            k = max(1, math.floor(math.log((1.0 - a * a) / (1.0 - b * b))
                                  / math.log1p((b - a) / a)))
            if k > MAX_BLEND_NORMS:
                raise NonConvergenceError(f"parameters {a!r} and {b!r} cross over near index "
                                          f"{k}, past the {MAX_BLEND_NORMS} norms a blend stores")
            while (1.0 - b * b) * b ** (k - 1) < (1.0 - a * a) * a ** (k - 1):
                k += 1
            n = max(n, k)
    scales = {a: 1.0 - a * a for a in fn.params}  # one column per distinct parameter
    columns = [[a] + [scale * a**k for k in range(n)] for a, scale in scales.items()]
    norms = tuple(map(max, *columns)) if len(columns) > 1 else tuple(columns[0])
    # checked a in (0, 1), its powers times 1 - a^2: finite, >= 0 from start 0; b in (0, 1)
    return _trusted(CoeffSeries, norms=norms, start_index=0, tail_geometric_ratio=b)


@dataclass(frozen=True)
class CoeffBoundReport:
    """Outcome of a coefficient-bound check over the stored norms."""

    passed: bool
    first_violation: int | None
    checked: int  # stored norms compared, n = m + 1 .. last_index; not the continuation
    max_ratio: float  # max over n of ||A_n|| / bound; 1.0 means equality


def check_coeff_bound(coeffs: CoeffSeries, domain: DomainSpec,
                      tol: float = 1e-12) -> CoeffBoundReport:
    """Check ||A_n|| <= lambda_H (1 - ||A_m||^2) for all stored n > m.

    m is the series start index and A_m its first coefficient; a
    violation is reported, not raised.  The stored norms settle the whole
    series: a geometric continuation has ratio < 1, so no norm past the
    stored range exceeds the last stored one, and the two-norm extremal
    family and a blend stored to its crossover report what any longer
    prefix of them does.  ``checked`` counts the stored norms compared,
    so that family and an equal-parameter blend report 1 (a 64-norm
    prefix, 64), although every check covers every index.
    """
    tol = _check_param("tol:coeff_bound", tol)  # a NaN or infinite tol passes every norm
    m = coeffs.start_index
    a0 = coeffs.norm(m)
    if a0 > 1.0 + tol:
        raise DomainError("leading coefficient norm must be <= 1")
    bound = domain.effective_lambda * (1.0 - a0 * a0)
    first = None
    max_ratio = 0.0
    for n in range(m + 1, coeffs.last_index + 1):
        x = coeffs.norm(n)
        if bound > 0:
            max_ratio = max(max_ratio, x / bound)
        if x > bound + tol and first is None:
            first = n
    return CoeffBoundReport(first is None, first, max(0, coeffs.last_index - m), max_ratio)


def point_eval_bound(coeffs: CoeffSeries, r: float) -> float:
    """Sharp point bound (||A_0|| + r)/(1 + ||A_0|| r) on ||f(z)||, |z| = r."""
    _check_radius(r)
    a0 = coeffs.norm(coeffs.start_index)
    if a0 > 1.0 + 1e-12:
        raise DomainError("point bound requires a unit-ball function")
    a0 = min(a0, 1.0)
    return (a0 + r) / (1.0 + a0 * r)


def schwarz_composed_bound(coeffs: CoeffSeries, omega_order: int, r: float) -> float:
    """Point bound on ||f(w(z))|| for a Schwarz mapping w with a zero of order k.

    |w(z)| <= |z|^k, and t -> (a + t)/(1 + a t) is increasing, so the
    bound is the point bound evaluated at r^k.
    """
    _check_index("omega_order", omega_order, 1)
    _check_radius(r)
    return point_eval_bound(coeffs, r**omega_order)
