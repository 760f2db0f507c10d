"""Leftmost-root bracketing on (0, 1).

Every radius in this package is defined as the minimal positive root of
a continuous function.  Minimality is certified at finite resolution:
the grid x_k = k scan_step is scanned left to right for the first
bracketed sign change.  For an f whose sign changes at most once in a
known direction (the Bloch and built-in radius equations; see ``bloch``
and ``radii``), ``increasing_root`` and ``decreasing_root`` find that
grid point by bisecting the scan index, in about log2(1/scan_step)
calls, with the scan's result.  Every solver then narrows the bracket
the same way: Brent-Dekker steps (inverse quadratic or secant) under a
bisection safeguard that bounds the work at twice bisection's plus 3
evaluations, about 3 to 5 evaluations from a 1e-3 cell to 2e-12 on a
smooth f where bisection takes 29 (see ``_narrow``).

Signs are compared, not multiplied: a product of values below about
1e-162 underflows to -0.0.  Roots are isolated, so 0.0 on two
consecutive grid points is underflow and raises NonConvergenceError,
and so is 0.0 at x_1 and at x_1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRootError, NonConvergenceError
from .series import _check_param, _trusted

# grid points per array call of count_sign_changes: the default step
# scans (0, 1) in one call, and a tiny step builds its grid a block at a
# time rather than all at once
SCAN_BLOCK = 1024


@dataclass(frozen=True)
class RootResult:
    """A bracketed root with its certificate data.

    ``iterations`` counts the scan points up to and including the one
    that closed the bracket, plus every call of F that narrowed and
    certified it, however the bracket was found (scalar scan or index
    bisection).  The calls that confirm a zero on a scan point are not
    counted.  A closed built-in refined root (``radii.radius_refined``)
    counts its 3 calls of G: the certificate at both ends of its
    bracket (R - tol, R + tol), and the residual at R.
    """

    value: float
    bracket: tuple[float, float]
    residual: float
    iterations: int
    scan_step: float


def min_positive_root(f, tol: float = 1e-12, scan_step: float = 1e-3,
                      upper: float = 1.0) -> RootResult:
    """Leftmost root of f on (0, upper).

    Scans r = scan_step, 2 scan_step, ... for the first sign change,
    then narrows the bracket by safeguarded Brent-Dekker steps to at
    most 2 tol, and halves it further until the midpoint residual is
    below 10 tol (continuing to float resolution for steep f).  Raises
    NoRootError when no sign change is detected, reporting whether the
    scanned values were all positive or all negative, and
    NonConvergenceError when f reads 0.0 on two consecutive scan points,
    or on x_1 and x_1/2.
    """
    return _root(f, tol, scan_step, upper, _scan)


def increasing_root(f, tol: float = 1e-12, scan_step: float = 1e-3,
                    upper: float = 1.0) -> RootResult:
    """min_positive_root for an f trusted, not checked, to increase."""
    return _root(f, tol, scan_step, upper, _increasing_search)


def decreasing_root(f, tol: float = 1e-12, scan_step: float = 1e-3,
                    upper: float = 1.0) -> RootResult:
    """min_positive_root for an f trusted to change sign at most once, from + to -."""
    return _root(f, tol, scan_step, upper, _decreasing_search)


def check_steps(tol, scan_step):
    """(tol, scan_step) as floats, once each lies in its interval of series._PARAMS."""
    return _check_param("tol", tol), _check_param("scan_step", scan_step)


def _root(f, tol, scan_step, upper, search):
    tol, scan_step = check_steps(tol, scan_step)
    upper = _check_param("upper", upper)
    k, prev_v, v = search(f, scan_step, upper)
    x = k * scan_step
    lo = (k - 1) * scan_step
    if v == 0.0:
        after = (k + 1) * scan_step
        if after < upper and f(after) == 0.0:  # not counted in iterations
            raise NonConvergenceError(f"f underflows to 0.0 at r = {x:.6g} and at the "
                                      f"next scan point r = {after:.6g}; its sign is lost")
        if k == 1 and f(0.5 * x) == 0.0:  # x_1 has no scan point before it to check
            raise NonConvergenceError(f"f underflows to 0.0 at r = {0.5 * x:.6g} and at the "
                                      f"first scan point r = {x:.6g}; its sign is lost")
        # RootResult checks nothing: _trusted only skips its generated __init__
        return _trusted(RootResult, value=x, bracket=(max(lo, x - tol), min(x + tol, upper)),
                        residual=0.0, iterations=k, scan_step=scan_step)
    return _narrow(f, lo, x, prev_v, v, tol, scan_step, k)


def _opposite(a, b):
    """a and b are nonzero with opposite signs; unlike a * b < 0, even when tiny."""
    return a < 0.0 < b or b < 0.0 < a


def _index_search(f, scan_step, upper, sign):
    """_scan's result for an f with sign f increasing, from about log2(upper/scan_step) calls."""
    lo, hi = 0, math.ceil(upper / scan_step) + 1  # x_hi >= upper
    v_lo = v_hi = math.nan
    while hi - lo > 1:  # sign f(x_lo) < 0 unless lo = 0; sign f(x_hi) >= 0 or x_hi >= upper
        k = (lo + hi) // 2
        v = f(k * scan_step) if k * scan_step < upper else sign * math.inf
        if sign * v >= 0:
            hi, v_hi = k, v
        else:
            lo, v_lo = k, v
    if hi * scan_step >= upper or hi == 1 and sign * v_hi > 0:  # no sign change on the grid
        reached, passed = hi * scan_step < upper, lo > 0  # sign f >= 0 seen, sign f < 0 seen
        raise _no_root(scan_step, upper, *((reached, passed) if sign > 0 else (passed, reached)))
    return hi, v_lo, v_hi


_increasing_search = functools.partial(_index_search, sign=1.0)
_decreasing_search = functools.partial(_index_search, sign=-1.0)


def _scan(f, scan_step, upper):
    """(k, f(x_{k-1}), f(x_k)) at the first x_k = k scan_step where f
    vanishes or changes sign; f(x_0) reads as nan, which changes no sign."""
    prev = math.nan
    saw_positive = saw_negative = False
    k = 1
    while k * scan_step < upper:
        v = f(k * scan_step)
        if v > 0:
            saw_positive = True
        elif v < 0:
            saw_negative = True
        if v == 0.0 or _opposite(prev, v):
            return k, prev, v
        prev = v
        k += 1
    raise _no_root(scan_step, upper, saw_positive, saw_negative)


def _no_root(scan_step, upper, saw_positive, saw_negative):
    return NoRootError(
        "no sign change found in (0, {:.6g}) at scan step {:.3g}".format(upper, scan_step),
        all_positive=saw_positive and not saw_negative,
        all_negative=saw_negative and not saw_positive)


_SQRT_HALF = math.sqrt(0.5)
_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


def _narrow(f, lo, hi, flo, fhi, tol, scan_step, iterations):
    """Narrow the sign-change bracket (lo, hi) of f to a certified root.

    Brent-Dekker steps: f is evaluated at the inverse quadratic
    interpolant's root through both ends and the end dropped last, or
    at the secant's root through both ends until there is a dropped
    end.  An estimate within tol of an end is moved to twice its
    distance from that end (at least 4 ulp inside), so that a root that
    close is bracketed by the next step, near the midpoint where the
    certificate reads the residual.  An estimate farther outside (nan
    at a nan left end, or f not monotone through the three points) is
    replaced by the midpoint.

    Safeguard: the bracket must at least halve every two evaluations
    after the first three, that is be at most 2^((3 - n)/2) (hi - lo)
    wide after n of them.  A step that the bracket is too wide to trust
    to an estimate bisects it instead.  So the width 2 tol is reached
    within 2 ceil(log2((hi - lo)/(2 tol))) + 3 evaluations, however f
    behaves, where bisection always needs ceil(log2((hi - lo)/(2 tol))),
    and a smooth f needs about 3 to 5.

    The midpoint is then certified: the bracket is halved while the
    residual exceeds 10 tol, continuing to float resolution for steep f.
    """
    x3 = f3 = math.nan  # the end dropped last
    allowed = _TWO_SQRT2 * (hi - lo)
    two_tol = 2.0 * tol
    while hi - lo > two_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        allowed *= _SQRT_HALF  # the width allowed after this step
        x = mid
        if hi - lo <= allowed:  # else only the midpoint is sure to keep within it
            estimate = _estimate(lo, hi, flo, fhi, x3, f3)
            if lo - tol < estimate < hi + tol:
                gap = min(estimate - lo, hi - estimate)
                if gap < tol:
                    gap = max(2.0 * gap, 4.0 * math.ulp(estimate))
                    estimate = lo + gap if estimate - lo < hi - estimate else hi - gap
                if lo < estimate < hi:  # else the bracket is a few ulp wide
                    x = estimate
        fx = f(x)
        iterations += 1
        if fx == 0.0:
            return _trusted(RootResult, value=x, bracket=(max(lo, x - tol), min(x + tol, hi)),
                            residual=0.0, iterations=iterations, scan_step=scan_step)
        if fx < 0.0 < fhi or fhi < 0.0 < fx:  # _opposite(fx, fhi), inline on the hot step
            x3, f3, lo, flo = lo, flo, x, fx
        else:
            x3, f3, hi, fhi = hi, fhi, x, fx
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    iterations += 1
    # keep narrowing beyond the width target until the residual
    # certificate holds or floats run out of resolution
    while (hi - lo) > two_tol or abs(fmid) > 10.0 * tol:
        if fmid == 0.0:
            break
        if _opposite(fmid, fhi):
            lo = mid
        else:
            hi, fhi = mid, fmid
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        iterations += 1
        if mid == lo or mid == hi:
            break
    return _trusted(RootResult, value=mid, bracket=(lo, hi), residual=fmid,
                    iterations=iterations, scan_step=scan_step)


def _estimate(lo, hi, flo, fhi, x3, f3):
    """Root estimate from the ends of a sign-change bracket and the
    point (x3, f3) dropped from it last (nan for none).

    Values enter only as ratios to the end value b of least modulus, so
    the scale of f cancels.  With c the other end, w = f(c)/f(b) <= -1,
    so no denominator below can be zero.
    """
    b, fb, c, fc = (lo, flo, hi, fhi) if abs(flo) < abs(fhi) else (hi, fhi, lo, flo)
    u, w = f3 / fb, fc / fb
    if u == 1.0 or u == w or math.isnan(u):  # secant through both ends
        return b + (c - b) / (1.0 - w)
    # inverse quadratic through (f3, x3), (fb, b), (fc, c), read at 0
    return b + (x3 - b) * w / ((u - 1.0) * (u - w)) + (c - b) * u / ((w - u) * (w - 1.0))


def count_sign_changes(f, scan_step: float = 1e-3, upper: float = 1.0) -> int:
    """Number of sign changes of f seen on the scan grid of (0, upper).

    f is called on an ndarray of grid points once per block of at most
    SCAN_BLOCK points.  A zero keeps the previous sign; a nan counts no
    change on either side of it.
    """
    scan_step, upper = _check_param("scan_step", scan_step), _check_param("upper", upper)
    count = 0
    prev = math.nan
    k = 1
    while k * scan_step < upper:
        xs = np.arange(k, k + SCAN_BLOCK) * scan_step
        vs = np.asarray(f(xs[xs < upper]), dtype=float)
        nonzero = np.concatenate(([prev], vs[vs != 0.0]))
        count += int(np.count_nonzero(np.sign(nonzero[:-1]) * np.sign(nonzero[1:]) < 0))
        prev = nonzero[-1]
        k += SCAN_BLOCK
    return count
