"""Leftmost-root bracketing on (0, 1).

Every radius in this package is defined as the minimal positive root of
a continuous function.  Minimality is certified at finite resolution:
the grid x_k = k scan_step is scanned left to right and the first
bracketed sign change is bisected.  For an f whose sign changes at most
once in a known direction (the Bloch and built-in radius equations; see
``bloch`` and ``radii``), ``increasing_root`` and ``decreasing_root``
find that grid point by bisecting the scan index, in about
log2(1/scan_step) calls, and return the scan's RootResult.

Signs are compared, not multiplied: a product of values below about
1e-162 underflows to -0.0.  Roots are isolated, so 0.0 on two
consecutive grid points is underflow and raises NonConvergenceError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoRootError, NonConvergenceError

# grid points per array call of count_sign_changes: the default step
# scans (0, 1) in one call, and a tiny step builds its grid a block at a
# time rather than all at once
SCAN_BLOCK = 1024


@dataclass(frozen=True)
class RootResult:
    """A bracketed root with its certificate data.

    ``iterations`` counts the scan points up to and including the one
    that closed the bracket, plus the bisection calls of F, however the
    bracket was found (scalar scan or index bisection).
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
    then bisects until the bracket is narrower than 2 tol and the
    midpoint residual is below 10 tol (continuing to float resolution
    for steep f).  Raises NoRootError when no sign change is detected,
    reporting whether the scanned values were all positive or all
    negative, and NonConvergenceError when f reads 0.0 on two
    consecutive scan points.
    """
    return _root(f, tol, scan_step, upper, _scan)


def increasing_root(f, tol: float = 1e-12, scan_step: float = 1e-3,
                    upper: float = 1.0) -> RootResult:
    """min_positive_root for an f trusted, not checked, to increase."""
    return _root(f, tol, scan_step, upper, functools.partial(_index_search, sign=1.0))


def decreasing_root(f, tol: float = 1e-12, scan_step: float = 1e-3,
                    upper: float = 1.0) -> RootResult:
    """min_positive_root for an f trusted to change sign at most once, from + to -."""
    return _root(f, tol, scan_step, upper, functools.partial(_index_search, sign=-1.0))


def _root(f, tol, scan_step, upper, search):
    if not (tol > 0 and scan_step > 0):  # also rejects nan
        raise DomainError("tol and scan_step must be positive")
    if not 0.0 < upper <= 1.0:
        raise DomainError("upper must lie in (0, 1]")
    k, prev_v, v = search(f, scan_step, upper)
    x = k * scan_step
    lo = (k - 1) * scan_step
    if v == 0.0:
        after = (k + 1) * scan_step
        if after < upper and f(after) == 0.0:  # not counted in iterations
            raise NonConvergenceError(f"f underflows to 0.0 at r = {x:.6g} and at the "
                                      f"next scan point r = {after:.6g}; its sign is lost")
        return RootResult(x, (max(lo, x - tol), min(x + tol, upper)), 0.0, k, scan_step)
    return _bisect(f, lo, x, prev_v, tol, scan_step, k)


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


def _bisect(f, lo, hi, flo, tol, scan_step, iterations):
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    iterations += 1
    # keep narrowing beyond the width target until the residual
    # certificate holds or floats run out of resolution
    while (hi - lo) > 2.0 * tol or abs(fmid) > 10.0 * tol:
        if fmid == 0.0:
            break
        if _opposite(flo, fmid):
            hi = mid
        else:
            lo, flo = mid, fmid
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        iterations += 1
        if mid == lo or mid == hi:
            break
    return RootResult(mid, (lo, hi), fmid, iterations, scan_step)


def count_sign_changes(f, scan_step: float = 1e-3, upper: float = 1.0) -> int:
    """Number of sign changes of f seen on the scan grid of (0, upper).

    f is called on an ndarray of grid points once per block of at most
    SCAN_BLOCK points.  A zero keeps the previous sign; a nan counts no
    change on either side of it.
    """
    if not scan_step > 0:  # also rejects nan; a step <= 0 never ends the scan
        raise DomainError("scan_step must be positive")
    if not 0.0 < upper <= 1.0:
        raise DomainError("upper must lie in (0, 1]")
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
