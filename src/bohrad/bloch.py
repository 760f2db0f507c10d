"""Hyperbolic densities, circle integrals, and Bloch-type Bohr radii.

The Bloch-space radii are roots of equations in

    M(r) = (r / 2 pi) * integral over |z| = r of lambda^{2 nu}(z) |dz|,

with lambda the hyperbolic density of the domain.  The unit disk is
Omega_0, so every built-in density is an Omega_gamma: its mean is a
positive hypergeometric series, summed to a proven relative remainder
by ``series.ratio_sum`` with no numpy; only a custom density is
integrated, by trapezoidal quadrature with node doubling.

On Omega_gamma log lambda is subharmonic, so M increases and
``increasing_root`` brackets its radii; custom densities are scanned.
A radius exists when lim_{r -> 1} M(r) exceeds its level; the solver's
sign search decides that, raising NoRootError (all_negative) when the
equation stays negative on every scan point.
``bloch_majorant_check`` tests the hypothesis ||Df(z)|| <= (1 - ||A_0||)
lambda(z)^nu on its whole radial grid at once: ``derivative_majorant``
and ``HyperbolicDensity.min_on_circle`` take an ndarray of radii, and
the minimum has a closed form on Omega_gamma.
``derivative_majorant`` builds one (radii x terms) array and reduces
its rows with one numpy sum; every term is non-negative, so each row
is within a few ulp of its exact sum.  Both functions, and
``gamma_equation_value``, accept only radii in [0, 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DomainError, InvalidTestFunctionError, NonConvergenceError,
                     SingularIntegrandError)
from .functionals import FunctionalReport, MuFunction, majorant
from .phi import MONOMIAL, phi_weight
from .roots import RootResult, increasing_root, min_positive_root
from .series import (ROUND_OFF, CoeffSeries, GeometricWeight, _check_param, _check_radius,
                     norm_sum, ratio_sum, s_r)

# sum of 1/s^2 enters the Cauchy-Schwarz step; its reciprocal is the
# threshold in the majorant equation
MAJORANT_THRESHOLD = 6.0 / math.pi**2
REFINED_THRESHOLD = 3.0 / math.pi

# node doubling in m_integral (custom densities only) stops when two
# successive values agree to this
QUAD_TOL = 1e-10
# the Omega_gamma mean's series stops at this relative remainder, about
# one ulp; its term cap admits r = 1 - 1e-8, where the longest series
# (gamma near 1, nu = 1/4) takes about 1.1e5 terms (1.1e4 at 1 - 1e-6)
MEAN_TOL = 1e-16
MEAN_TERMS = 1 << 18


@dataclass(frozen=True)
class HyperbolicDensity:
    """Hyperbolic density of a simply connected domain containing the disk,
    given by exactly one of its two fields.

    gamma in [0, 1): lambda(z) = (1-g)/(1 - |(1-g) z + g|^2) on the
    enlarged disk Omega_gamma (``omega_gamma(g)``); g = 0 is the unit
    disk, lambda(z) = 1/(1 - |z|^2), which ``unit_disk()`` builds.
    fn: any positive callable z -> lambda(z) (``custom(fn)``).
    """

    gamma: float | None = None
    fn: Callable[[complex], float] | None = None

    def __post_init__(self):
        if (self.gamma is None) == (self.fn is None):
            raise DomainError("provide exactly one of gamma / fn")
        if self.fn is None:
            object.__setattr__(self, "gamma", _check_param("gamma", self.gamma))
        elif not callable(self.fn):
            raise DomainError("custom density requires a callable")

    @classmethod
    def unit_disk(cls):
        return cls.omega_gamma(0.0)

    @classmethod
    def omega_gamma(cls, gamma: float):
        return cls(gamma=gamma)

    @classmethod
    def custom(cls, fn):
        return cls(fn=fn)

    def on_circle(self, r: float, thetas: np.ndarray) -> np.ndarray:
        if self.fn is None:
            s = np.sin(0.5 * thetas)
            return _omega_gamma_density(self.gamma, r, s * s)
        z = r * np.exp(1j * thetas)
        lam = np.array([float(self.fn(zz)) for zz in z])
        if not np.all(np.isfinite(lam) & (lam > 0.0)):  # Omega_gamma's is, for r < 1
            raise SingularIntegrandError(f"density is singular or non-positive on |z| = {r}")
        return lam

    def min_on_circle(self, r):
        """Minimum of lambda on |z| = r; r is a float or an ndarray of radii.

        On Omega_gamma the closed form is lambda at z = -r (theta = pi,
        node 128 of the sampling, where sin^2(theta/2) = 1 exactly, so the
        value equals the sampled minimum bit for bit).  Only a custom
        density is sampled, at 256 equally spaced angles (on_circle checks
        each value).
        """
        _check_radii(r)
        if self.fn is None:
            return _omega_gamma_density(self.gamma, r, 1.0)
        thetas = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        mins = [float(np.min(self.on_circle(x, thetas))) for x in np.ravel(r)]
        return np.reshape(mins, np.shape(r)) if np.ndim(r) else mins[0]


def _check_radii(r):
    """Accept a radius in [0, 1) (``_check_radius``) or an ndarray of them."""
    if not isinstance(r, np.ndarray):
        _check_radius(r)
    elif not np.all((r >= 0.0) & (r < 1.0)):  # nan fails both comparisons
        raise DomainError("every radius must lie in [0, 1)")


def _omega_gamma_density(g, r, sin_sq):
    """lambda = (1-g)/(1 - |w|^2) on Omega_gamma at |z| = r, sin_sq = sin^2(theta/2).

    With w = (1-g) z + g, 1 - |w|^2 = (1-g)[(1-r)(1+g+(1-g)r) + 4 g r sin_sq]:
    every term is non-negative, so nothing cancels as r -> 1.
    """
    return 1.0 / ((1.0 - r) * (1.0 + g + (1.0 - g) * r) + 4.0 * g * r * sin_sq)


def _omega_gamma_mean(g, nu, r):
    """Circle mean of lambda^{2 nu} on |z| = r in Omega_gamma, as a positive series.

    There lambda = 1/(c - B cos theta) (``_omega_gamma_density``), with
    A = (1-r)(1+g+(1-g)r), B = 2 g r and c = A + B.  With
    S = sqrt(A (A + 2B)) = sqrt(c^2 - B^2), free of cancellation, and
    x = B/(c + S), c - B cos theta = ((c + S)/2) |1 - x e^(i theta)|^2, so
    Parseval on (1 - x e^(i theta))^(-2 nu) gives the mean as
    (2/(c + S))^{2 nu} F(2 nu) with F(a) = sum_k ((a)_k/k!)^2 w^k and
    w = x^2 < 1 (DLMF 15.8's quadratic transformation of
    c^{-2 nu} 2F1(nu, nu + 1/2; 1; (B/c)^2)).  For nu > 1/4 Euler's
    transformation F(2 nu) = (1 - w)^{1 - 4 nu} F(1 - 2 nu) is summed
    instead, with 1 - w = 2S/(c + S): as w -> 1 it is better conditioned
    and shorter, and at nu = 1/2 and 1 it ends after one and two terms
    (1/S and c/S^3).  Either parameter a lies in [-1, 1/2], so
    |a + k| <= k + 1 and every term ratio ((a + k)/(k + 1))^2 w is at
    most w: ``ratio_sum`` stops at relative remainder MEAN_TOL.
    """
    A = (1.0 - r) * (1.0 + g + (1.0 - g) * r)
    B = 2.0 * g * r
    S = math.sqrt(A * (A + 2.0 * B))
    cs = A + B + S
    w = (B / cs) ** 2
    s = 2.0 * nu
    a, e = (s, 0.0) if nu <= 0.25 else (1.0 - s, 1.0 - 2.0 * s)
    terms = itertools.accumulate(itertools.count(),
                                 lambda t, k: t * ((a + k) / (k + 1)) ** 2 * w, initial=1.0)
    return (2.0 / cs) ** s * (2.0 * S / cs) ** e * ratio_sum(terms, w, MEAN_TOL, MEAN_TERMS)


def m_integral(density: HyperbolicDensity, nu: float, r: float) -> float:
    """M(r) = (r / 2 pi) * circle integral of lambda^{2 nu}.

    Uses the series of ``_omega_gamma_mean`` on Omega_gamma (the unit
    disk included, as g = 0), and for a custom density
    periodic trapezoidal quadrature, doubling nodes from 64 until two
    successive values differ by at most QUAD_TOL (relative for large
    values).
    """
    _check_radius(r)
    nu = _check_param("nu", nu)
    if r == 0.0:  # M(0) = 0 for every density
        return 0.0
    if density.fn is None:
        return r * r * _omega_gamma_mean(density.gamma, nu, r)
    nodes = 64
    prev = None
    while nodes <= 2**20:
        thetas = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
        value = r * r * float(np.mean(density.on_circle(r, thetas) ** (2.0 * nu)))
        if prev is not None and abs(value - prev) <= QUAD_TOL * max(1.0, abs(value)):
            return value
        prev = value
        nodes *= 2
    raise NonConvergenceError(f"circle quadrature did not settle at r = {r}")


def _level_root(density, nu, scale, level, tol, scan_step) -> RootResult:
    """Smallest root of scale * M(r) - level on (0, 1).

    Built-in densities have an increasing M, so ``increasing_root``
    bisects the scan index; a custom density is scanned point by point
    for its first crossing.  Either raises NoRootError when no scan
    point reaches the level.
    """
    def F(r):
        return scale * m_integral(density, nu, r) - level

    solve = increasing_root if density.fn is None else min_positive_root
    return solve(F, tol, scan_step)


def bloch_radius(density: HyperbolicDensity, nu: float, tol: float = 1e-12,
                 scan_step: float = 1e-3) -> RootResult:
    """Smallest root of M(r) = 6/pi^2, the Bloch majorant radius.

    The root exists when lim_{r -> 1} M(r) > 6/pi^2; the sign search decides
    that and raises NoRootError (all_negative) otherwise.
    """
    return _level_root(density, nu, 1.0, MAJORANT_THRESHOLD, tol, scan_step)


def gamma_equation_value(gamma: float, nu: float, r: float) -> float:
    """Closed-form equation for the enlarged disk.

    N(r) = (1-g)^{2 nu} r^2 pi^2 - 6 (1 - ((1-g) r + g)^2)^{2 nu}; its
    root bounds the circle-integral radius from below because the
    density is majorized on |z| = r by its value at (1-g) r + g.
    1 - ((1-g) r + g)^2 is evaluated as (1-g)(1-r)(1+g+(1-g)r), without
    cancellation.  r is a radius in [0, 1), or an ndarray of them.
    """
    gamma, nu = _check_param("gamma", gamma), _check_param("nu", nu)
    _check_radii(r)
    gap = (1.0 - gamma) * (1.0 - r) * (1.0 + gamma + (1.0 - gamma) * r)
    return (1.0 - gamma) ** (2.0 * nu) * r * r * math.pi**2 - 6.0 * gap ** (2.0 * nu)


def bloch_radius_gamma(gamma: float, nu: float, tol: float = 1e-12,
                       scan_step: float = 1e-3) -> RootResult:
    """Minimal root in (0, 1) of the closed-form enlarged-disk equation.

    A root exists for every (g, nu) that ``gamma_equation_value``
    accepts: N(0) = -6 (1 - g^2)^{2 nu} < 0 and N(1) = (1-g)^{2 nu} pi^2
    > 0, and N increases, so the sign search always brackets it.
    """
    def F(r):
        return gamma_equation_value(gamma, nu, r)

    return increasing_root(F, tol, scan_step)


def bloch_refined_radius(density: HyperbolicDensity, nu: float,
                         tol: float = 1e-12, scan_step: float = 1e-3) -> RootResult:
    """Smallest root of H(r) = r * (circle integral) - 3/pi = 0.

    The circle integral here is un-normalized, so H(r) = 2 pi M(r) - 3/pi
    and H(0) = -3/pi.  The root exists when lim_{r -> 1} H(r) > 0; the sign
    search decides that and raises NoRootError (all_negative) otherwise.
    """
    return _level_root(density, nu, 2.0 * math.pi, REFINED_THRESHOLD, tol, scan_step)


def derivative_majorant(coeffs: CoeffSeries, t):
    """Upper bound sum_s s ||A_s|| t^(s-1) on ||Df(z)|| for |z| = t.

    t is a radius in [0, 1) or an ndarray of them.  Row i of one
    (radii x terms) array holds the stored terms s ||A_s|| t_i^(s-1) and
    the geometric continuation ||A_N|| sum_{s >= N} q^(s-N) s t_i^(s-1)
    (a GeometricWeight tail in (1 + n) t^n from n = N - 1); one numpy sum
    along the rows reduces it.  The terms are non-negative, so numpy's
    pairwise sum is within a few ulp of the exact (fsum) value; t = 0
    gives ||A_1||.
    """
    _check_radii(t)
    ts = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
    s = np.arange(1, len(coeffs.norms))
    columns = [s * np.asarray(coeffs.norms[1:]) * ts ** (s - 1)]
    if not coeffs.is_finite():
        N = coeffs.last_index + 1
        weight = GeometricWeight((1, 1, 0), ts, 1.0 - ts)
        columns.append(coeffs.norm(N) * weight.tail(N - 1, coeffs.tail_geometric_ratio))
    sums = np.hstack(columns).sum(axis=1)
    return sums.reshape(np.shape(t)) if np.ndim(t) else float(sums[0])


def bloch_majorant_check(coeffs: CoeffSeries, bloch_norm_budget: float,
                         density: HyperbolicDensity, nu: float, r: float,
                         mu=0.0, refined: bool = False) -> FunctionalReport:
    """Majorant check for a Bloch-normalized test function.

    First verifies on the radial grid 0.999 k/64, k = 1 .. 64, that the derivative
    majorant stays below (budget - ||A_0||) * lambda^nu (the hypothesis the radii
    rely on) up to series.ROUND_OFF, in one array pass over the whole grid; raises
    InvalidTestFunctionError at the first failing radius otherwise.  The plain check
    compares the majorant sum ||A_s|| r^s with 1.  The refined one sums the tail over
    s > m, m the start index, once; it adds head ||A_m|| r^m plus tail (the majorant,
    standing in for ||f(z)||), the tail again and mu(r) times the planar Dirichlet
    integral pi * sum s ||A_s||^2 r^{2s}.  A nu outside (0, 1], or a budget outside
    [0, 1 + series.ROUND_OFF], raises DomainError before any work.
    """
    nu = _check_param("nu", nu)
    budget = _check_param("bloch_norm_budget", bloch_norm_budget)
    a0 = coeffs.norm(coeffs.start_index)
    slack = budget - a0
    if slack < -ROUND_OFF:
        raise InvalidTestFunctionError("||A_0|| already exceeds the norm budget")
    t = 0.999 * np.arange(1, 65) / 64
    fails = np.flatnonzero(derivative_majorant(coeffs, t)
                           > slack * density.min_on_circle(t) ** nu + ROUND_OFF)
    if fails.size:
        raise InvalidTestFunctionError(
            f"derivative bound fails at |z| = {t[fails[0]]:.4f}")
    if not refined:
        return FunctionalReport.compare(majorant(coeffs, MONOMIAL, r), 1.0)
    _check_radius(r)
    tail = norm_sum(coeffs, phi_weight(MONOMIAL, r), coeffs.start_index + 1)
    value = (a0 * r**coeffs.start_index + tail + tail
             + MuFunction.of(mu)(r) * s_r(coeffs, r, include_pi=True))
    return FunctionalReport.compare(value, 1.0)
