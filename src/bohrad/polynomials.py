"""Improvement polynomials added to Bohr sums, and their calibration.

Two polynomial families appear on the left-hand side of the improved
inequalities: one with closed-form coefficients depending on the domain
constant, and one whose positive coefficients must satisfy a linear
calibration constraint built from the peak weights

    d_s = max_{a in [0, 1]} a (1 + a)^2 (1 - a^2)^{2s-2}.

This module also hosts the monotone slack profiles that drive those
inequalities; grid checks of the claimed monotonicity act as numeric
regression tests for the calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, InfeasibleError
from .series import _check_index, _check_param

_CAL_BASE = 8.0 * (3.0 / 8.0) ** 2  # = 9/8, the coefficient multiplying c_1


@dataclass(frozen=True)
class PolySpec:
    """P(w) = c_1 w + c_2 w^2 + ... + c_m w^m with positive coefficients."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(_check_param("c", c) for c in self.coefficients)
        if not coeffs:
            raise ConfigurationError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def __call__(self, w: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = (acc + c) * w
        return acc


def area_poly_coeffs(lambda_h: float, degree: int) -> PolySpec:
    """Closed-form coefficients k_j = ((1 + L)/(1 + 2L))^{2j}, L = lambda_h."""
    lambda_h = _check_param("lambda_h", lambda_h)
    _check_index("degree", degree, 1)
    base = ((1.0 + lambda_h) / (1.0 + 2.0 * lambda_h)) ** 2
    return PolySpec(tuple(base**j for j in range(1, degree + 1)))


def peak_point(s: int) -> tuple[float, float]:
    """(argmax, max) of a (1+a)^2 (1-a^2)^{2s-2} on [0, 1], for s >= 2.

    The factors a and (1 - a^2)^{2s-2} vanish at the endpoints, so the
    maximum is interior.  The logarithmic derivative
    1/a + 2s/(1+a) - (2s-2)/(1-a) vanishes where (1+a)^2 = 4 s a^2, so
    the maximiser is a* = 1/(2 sqrt(s) - 1); s = 1 gives a* = 1 and d_1 = 4.
    """
    _check_index("s", s, 2)
    a = 1.0 / (2.0 * math.sqrt(s) - 1.0)
    return a, a * (1.0 + a) ** 2 * (1.0 - a * a) ** (2 * s - 2)


def peak_weight(s: int) -> float:
    """d_s = max over [0, 1] of a (1+a)^2 (1-a^2)^{2s-2}, for s >= 2."""
    return peak_point(s)[1]


def calibration_residual(spec: PolySpec) -> float:
    """Signed residual of the calibration constraint at 3/8.

    The constraint reads
      sum_{s=1}^{m} 2 (2s - 1) c_s d_s (3/8)^{2s} = 1,
    with d_1 = 4 making the first term 8 c_1 (3/8)^2.
    """
    c1, *tail = spec.coefficients
    return math.fsum([_CAL_BASE * c1, *_tail_terms(tail)]) - 1.0


def _tail_terms(tail):
    """The calibration terms 2 (2s - 1) c_s d_s (3/8)^{2s} of c_2, c_3, ... = tail."""
    return [2.0 * (2 * s - 1) * c * peak_weight(s) * (3.0 / 8.0) ** (2 * s)
            for s, c in enumerate(tail, start=2)]


def calibrate_area_poly(tail_coeffs=()) -> PolySpec:
    """Solve the calibration constraint for c_1 given the tail c_2..c_m.

    The constraint is an equality, so it pins one degree of freedom; the
    caller chooses the rest.  A tail so heavy that c_1 would not be
    positive raises InfeasibleError.
    """
    tail = tuple(_check_param("c", c) for c in tail_coeffs)
    tail_sum = math.fsum(_tail_terms(tail))
    if tail_sum >= 1.0:
        raise InfeasibleError(
            f"tail already contributes {tail_sum:.6g} >= 1; c_1 would not be positive")
    c1 = (1.0 - tail_sum) / _CAL_BASE
    return PolySpec((c1,) + tail)


def area_scale(gamma: float) -> float:
    """Scale factor (3+g)(1-g^2) / ((3+g)^2 - (1-g^2)^2) of the shifted radius.

    Equals rho0/(1 - rho0^2) at rho0 = (1-g^2)/(3+g); decreases from 3/8
    at g = 0 to 0 as g -> 1.
    """
    gamma = _check_param("gamma", gamma)
    top = (3.0 + gamma) * (1.0 - gamma * gamma)
    bottom = (3.0 + gamma) ** 2 - (1.0 - gamma * gamma) ** 2
    return top / bottom


@dataclass(frozen=True)
class MonotonicityReport:
    """Grid verdict on a claimed monotone slack profile."""

    profile: str
    passed: bool
    direction: str            # "decreasing" or "increasing"
    worst_gap: float          # most adverse neighboring difference
    worst_x: float
    value_at_0: float
    value_at_1: float


def area_slack(x: float, m: int) -> float:
    """Slack profile of the closed-form polynomial inequality at its radius.

    J(x) = 16^m/(1+x) - 16^m/2 - sum_{j=1}^m 16^{m-j} (1-x^2)^{2j-1};
    non-negative and decreasing on [0, 1] with J(1) = 0.  Depends only
    on the polynomial degree m.
    """
    _check_index("m", m, 1)
    scale = 16.0**m
    s = math.fsum(16.0 ** (m - j) * (1.0 - x * x) ** (2 * j - 1) for j in range(1, m + 1))
    return scale / (1.0 + x) - scale / 2.0 - s


def beta_slack(x: float, lambda_h: float, beta: float) -> float:
    """Slack profile of the beta-squared inequality: 2/(1+x) - 1 - L b (1-x^2)."""
    return 2.0 / (1.0 + x) - 1.0 - lambda_h * beta * (1.0 - x * x)


def recentered_slack(x: float, gamma: float, spec: PolySpec) -> float:
    """Slack profile of the calibrated inequality on the shifted disk.

    J(x) = 1 + 2 sum_j c_j (1-x^2)^{2j-1} A^{2j} - 2/(1+x), A = area_scale(gamma);
    increasing on [0, 1] with limit 0 at x -> 1 when the calibration holds.
    """
    return _recentered_at(x, area_scale(gamma), spec)


def _recentered_at(x, A, spec):
    """recentered_slack at a scale A = area_scale(gamma) computed once."""
    f = math.fsum(c * (1.0 - x * x) ** (2 * j - 1) * A ** (2 * j)
                  for j, c in enumerate(spec.coefficients, start=1))
    return 1.0 + 2.0 * f - 2.0 / (1.0 + x)


def monotonicity_check(profile: str, grid_size: int = 1000, *, m: int = 1,
                       lambda_h: float = 1.0, beta: float = 0.25,
                       gamma: float = 0.0, spec: PolySpec | None = None,
                       tol: float = 1e-9) -> MonotonicityReport:
    """Check the claimed monotonicity of a slack profile on a uniform grid.

    profile is one of "area_poly" (decreasing, zero at 1; parameter m;
    lambda_h is checked but cancels out of this profile), "beta_square"
    (decreasing, zero at 1; parameters lambda_h and beta), "recentered"
    (increasing, limit 0 at 1; parameters gamma and a calibrated spec).
    A failure is reported, not raised: out-of-hypothesis parameters are
    expected to fail.
    """
    lambda_h = _check_param("lambda_h", lambda_h)
    if profile == "area_poly":
        fn = lambda x: area_slack(x, m)
        direction = "decreasing"
    elif profile == "beta_square":
        fn = lambda x: beta_slack(x, lambda_h, beta)
        direction = "decreasing"
    elif profile == "recentered":
        if spec is None:
            raise ConfigurationError("recentered profile needs a calibrated spec")
        A = area_scale(gamma)  # once per check, not once per grid point
        fn = lambda x: _recentered_at(x, A, spec)
        direction = "increasing"
    else:
        raise ConfigurationError(f"unknown profile {profile!r}")
    _check_index("grid_size", grid_size, 2)

    xs = [k / grid_size for k in range(grid_size + 1)]
    vals = [fn(x) for x in xs]
    worst_gap = 0.0
    worst_x = 0.0
    scale = max(1.0, max(abs(v) for v in vals))
    for k in range(grid_size):
        step = vals[k + 1] - vals[k]
        adverse = step if direction == "decreasing" else -step
        if adverse > worst_gap:
            worst_gap = adverse
            worst_x = xs[k + 1]
    # both claims pin the boundary value at x = 1 to zero
    passed = worst_gap <= tol * scale and abs(vals[-1]) <= tol * scale
    return MonotonicityReport(profile, passed, direction, worst_gap, worst_x,
                              vals[0], vals[-1])
