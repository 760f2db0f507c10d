"""Leftmost-root bracketing on (0, 1).

Every radius in this package is defined as the minimal positive root of
a continuous function.  Minimality is certified at finite resolution:
the interval is scanned left to right at ``scan_step`` and the first
bracketed sign change is bisected.

A closed-form F may be marked ``vectorized``: F then also maps an
ndarray of radii to its values.  The scan evaluates its grid
x_k = k scan_step in blocks of at most SCAN_BLOCK points, one array call
per block; only the bisection calls F on a scalar.  The blocks are
cached read-only, so solves at one ``scan_step`` build the grid once.
Both paths scan the same floats x_k, so they return the same RootResult
whenever the grid values have the signs of the scalar ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoRootError

# grid points per array call: the default step scans (0, 1) in one
# block, and a tiny step cannot allocate a huge grid
SCAN_BLOCK = 1024


@dataclass(frozen=True)
class RootResult:
    """A bracketed root with its certificate data.

    ``iterations`` counts the scan points up to and including the one
    that closed the bracket, plus the bisection calls of F, however the
    bracket was found (scalar scan, array scan or index bisection).
    """

    value: float
    bracket: tuple[float, float]
    residual: float
    iterations: int
    scan_step: float


def min_positive_root(f, tol: float = 1e-12, scan_step: float = 1e-3,
                      upper: float = 1.0, vectorized: bool = False) -> RootResult:
    """Leftmost root of f on (0, upper).

    Scans r = scan_step, 2 scan_step, ... for the first sign change,
    then bisects until the bracket is narrower than 2 tol and the
    midpoint residual is below 10 tol (continuing to float resolution
    for steep f).  Raises NoRootError when no sign change is detected,
    reporting whether the scanned values were all positive or all
    negative.

    With ``vectorized``, f is called on ndarray blocks of the scan grid;
    bisection still calls f on a scalar, so the root is the one the
    scalar scan finds whenever the grid values carry the same signs.
    numpy's ``pow`` differs from libm's by one ulp at about 6% of grid
    points (non-integer exponents), so a grid value within round-off of
    zero may read with the other sign.
    """
    return _root(f, tol, scan_step, upper, _scan_grid if vectorized else _scan)


def increasing_root(f, tol: float = 1e-12, scan_step: float = 1e-3,
                    upper: float = 1.0) -> RootResult:
    """min_positive_root for an increasing f, bracketed by bisecting the scan index.

    f is trusted to increase, not checked; the RootResult is the scan's.
    """
    return _root(f, tol, scan_step, upper, _index_search)


def _root(f, tol, scan_step, upper, search):
    if not (tol > 0 and scan_step > 0):  # also rejects nan
        raise DomainError("tol and scan_step must be positive")
    if not 0.0 < upper <= 1.0:
        raise DomainError("upper must lie in (0, 1]")
    k, prev_v, v = search(f, scan_step, upper)
    x = k * scan_step
    lo = (k - 1) * scan_step
    if v == 0.0:
        return RootResult(x, (max(lo, x - tol), min(x + tol, upper)), 0.0, k, scan_step)
    return _bisect(f, lo, x, prev_v, tol, scan_step, k)


def _index_search(f, scan_step, upper):
    """_scan's result for an increasing f, from about log2(upper/scan_step) calls."""
    lo, hi = 0, math.ceil(upper / scan_step) + 1  # x_hi >= upper
    v_lo = v_hi = math.nan
    while hi - lo > 1:  # f(x_lo) < 0 unless lo = 0; f(x_hi) >= 0 or x_hi >= upper
        k = (lo + hi) // 2
        v = f(k * scan_step) if k * scan_step < upper else math.inf
        if v >= 0:
            hi, v_hi = k, v
        else:
            lo, v_lo = k, v
    if hi * scan_step >= upper or hi == 1 and v_hi > 0:  # f < 0 on the grid, or f(x_1) > 0
        raise _no_root(scan_step, upper, hi * scan_step < upper, lo > 0)
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
        if v == 0.0 or prev * v < 0:
            return k, prev, v
        prev = v
        k += 1
    raise _no_root(scan_step, upper, saw_positive, saw_negative)


def _scan_grid(f, scan_step, upper):
    """_scan with one array call of f per block; prev carries across blocks."""
    prev = math.nan
    saw_positive = saw_negative = False
    for k, xs in _grid_blocks(scan_step, upper):
        vs = np.asarray(f(xs), dtype=float)
        before = np.concatenate(([prev], vs[:-1]))
        hits = np.flatnonzero((vs == 0.0) | (before * vs < 0))
        if hits.size:
            i = int(hits[0])
            return k + i, float(before[i]), float(vs[i])
        saw_positive = saw_positive or bool(np.any(vs > 0))
        saw_negative = saw_negative or bool(np.any(vs < 0))
        prev = vs[-1]
    raise _no_root(scan_step, upper, saw_positive, saw_negative)


def _grid_blocks(scan_step, upper):
    """(k, x_k .. x_{k+n-1}) blocks of the scan grid below upper, 0 < n <= SCAN_BLOCK."""
    k = 1
    while k * scan_step < upper:
        yield k, _grid_block(k, scan_step, upper)
        k += SCAN_BLOCK


@functools.lru_cache(maxsize=32)
def _grid_block(k, scan_step, upper):
    """x_j = j scan_step for k <= j < k + SCAN_BLOCK, cut at upper; cached read-only.

    x_j is the same float the scalar scan uses.  Solves at one scan_step
    share their blocks; 32 blocks hold 256 KiB.  A scan that needs more
    than 32 blocks (steps below about 3.1e-5) evicts its own first
    blocks before the next solve reads them, so it rebuilds its whole
    grid every time and gains nothing from the cache.
    """
    xs = np.arange(k, k + SCAN_BLOCK) * scan_step
    xs = xs[xs < upper]
    xs.flags.writeable = False
    return xs


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
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        iterations += 1
        if mid == lo or mid == hi:
            break
    return RootResult(mid, (lo, hi), fmid, iterations, scan_step)


def count_sign_changes(f, scan_step: float = 1e-3, upper: float = 1.0,
                       vectorized: bool = False) -> int:
    """Number of sign changes of f seen on the scan grid of (0, upper).

    The grid is evaluated in blocks as in min_positive_root; without
    ``vectorized``, f is called on each point as a Python float.
    """
    if not scan_step > 0:  # also rejects nan; a step <= 0 never ends the scan
        raise DomainError("scan_step must be positive")
    if not 0.0 < upper <= 1.0:
        raise DomainError("upper must lie in (0, 1]")
    evaluate = f if vectorized else (lambda xs: [f(x) for x in xs.tolist()])
    count = 0
    prev = math.nan
    for _, xs in _grid_blocks(scan_step, upper):
        vs = np.asarray(evaluate(xs), dtype=float)
        nonzero = np.concatenate(([prev], vs[vs != 0.0]))
        count += int(np.count_nonzero(nonzero[:-1] * nonzero[1:] < 0))
        prev = nonzero[-1]
    return count
