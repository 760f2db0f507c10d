"""Leftmost-root bracketing on (0, 1).

Every radius in this package is defined as the minimal positive root of
a continuous function.  Minimality is certified at finite resolution:
the interval is scanned left to right at ``scan_step`` and the first
bracketed sign change is bisected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoRootError


@dataclass(frozen=True)
class RootResult:
    """A bracketed root with its certificate data."""

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
    negative.
    """
    if not (tol > 0 and scan_step > 0):  # also rejects nan
        raise DomainError("tol and scan_step must be positive")
    if not 0.0 < upper <= 1.0:
        raise DomainError("upper must lie in (0, 1]")

    evaluations = 0
    prev_x = None
    prev_v = None
    saw_positive = saw_negative = False
    k = 1
    while k * scan_step < upper:
        x = k * scan_step
        v = f(x)
        evaluations += 1
        if v > 0:
            saw_positive = True
        elif v < 0:
            saw_negative = True
        if v == 0.0:
            lo = prev_x if prev_x is not None else max(x - scan_step, 0.0)
            return RootResult(x, (max(lo, x - tol), min(x + tol, upper)),
                              0.0, evaluations, scan_step)
        if prev_v is not None and prev_v * v < 0:
            return _bisect(f, prev_x, x, prev_v, tol, scan_step, evaluations)
        prev_x, prev_v = x, v
        k += 1
    raise NoRootError(
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


def count_sign_changes(f, scan_step: float = 1e-3, upper: float = 1.0) -> int:
    """Number of sign changes of f seen on the scan grid of (0, upper)."""
    if not scan_step > 0:  # also rejects nan; a step <= 0 never ends the scan
        raise DomainError("scan_step must be positive")
    if not 0.0 < upper <= 1.0:
        raise DomainError("upper must lie in (0, 1]")
    count = 0
    prev = None
    k = 1
    while k * scan_step < upper:
        v = f(k * scan_step)
        if prev is not None and prev * v < 0:
            count += 1
        if v != 0.0:
            prev = v
        k += 1
    return count
