"""40-digit reference values for the series sums, independent of bohrad.

Each geometric continuation ||A_n|| = ||A_L|| q^(n-L) is summed through
polylogarithms: sum_{n>=1} n^k z^n = Li_{-k}(z), minus a finite head,
with a parity class picked out by (1 + (-1)^(n - parity)) / 2.  The
weights are restated here from their definitions, not imported.
"""

from typing import NamedTuple

import mpmath as mp

DPS = 40

# the grid every rewritten sum is checked on
R_GRID = (0.9, 0.999, 0.9999)
Q_GRID = (0.0, 1e-3, 0.5, 1.0 - 1e-6)
NORMS = (0.3, 0.5, 0.2, 0.4)

# phi_n(r) = P(n) r^n on a parity class (None: every n), plus phi_0 = head
KINDS = {
    "monomial": ((1, 0, 0), None, 0),
    "weighted_linear": ((1, 1, 0), None, 0),
    "weighted_quadratic": ((0, 0, 1), None, 1),
    "even_only": ((1, 0, 0), 0, 0),
    "odd_only": ((1, 0, 0), 1, 1),
}


def close(value, ref, abs_tol=1e-12, rel_tol=1e-12):
    """Within max(abs_tol, rel_tol |ref|) of the reference."""
    return abs(mp.mpf(value) - ref) <= max(abs_tol, rel_tol * abs(ref))


def _poly(c, n):
    return c[0] + c[1] * n + c[2] * n * n


def poly_tail(c, z, N, parity=None):
    """sum_{n >= N} P(n) z^n over every n, or over n = parity (mod 2).

    The head subtracted from Li_{-k}(z) cancels about N log10(1/|z|)
    digits, so those are added to the working precision.
    """
    def every(z):
        total = sum(ck * mp.polylog(-k, z) for k, ck in enumerate(c))
        total -= sum(_poly(c, n) * z**n for n in range(1, N))
        return total + c[0] if N == 0 else total

    lost = int(N * -mp.log10(abs(z))) if 0 < abs(z) < 1 else 0
    with mp.workdps(mp.mp.dps + lost):
        if parity is None:
            value = every(z)
        else:
            value = (every(z) + (-1) ** parity * every(-z)) / 2
    return +value


def _on(parity, n):
    return parity is None or n % 2 == parity


def phi(kind, n, r):
    c, parity, head = KINDS[kind]
    value = _poly(c, n) * r**n if _on(parity, n) else mp.mpf(0)
    return value + head if n == 0 else value


def phi_tail(kind, N, r):
    c, parity, head = KINDS[kind]
    value = poly_tail(c, r, N, parity)
    return value + head if N == 0 else value


class Blend(NamedTuple):
    """Exact norms of a diagonal Mobius blend, read like a CoeffSeries: max_i a_i at
    n = 0 and max_i (1 - a_i^2) a_i^(n-1) after, stored until the entry with the
    largest parameter b dominates every other, and geometric with ratio b from there."""

    norms: tuple
    tail_geometric_ratio: object

    def norm(self, n):
        return self.norms[n]


def blend(params):
    with mp.workdps(DPS):
        params = [mp.mpf(a) for a in params]
        b = max(params)
        norms = [b]
        while True:
            n = len(norms)
            entries = [(1 - a * a) * a ** (n - 1) for a in params]
            norms.append(max(entries))
            if (1 - b * b) * b ** (n - 1) == norms[-1]:
                return Blend(tuple(norms), b)


def _series(coeffs):
    """(stored norms, last index, ratio or None) with exact mp values."""
    norms = [mp.mpf(x) for x in coeffs.norms]
    q = coeffs.tail_geometric_ratio
    return norms, len(norms) - 1, (mp.mpf(q) if q and norms[-1] else None)


def majorant(coeffs, kind, r, start=0):
    """sum_{n >= start} ||A_n|| phi_n(r)."""
    with mp.workdps(DPS):
        r = mp.mpf(r)
        x, L, q = _series(coeffs)
        total = sum(x[n] * phi(kind, n, r) for n in range(start, L + 1))
        if q:
            c, parity, _ = KINDS[kind]
            total += x[L] * q**-L * poly_tail(c, q * r, max(L + 1, start), parity)
        return total


def remainder_bound(coeffs, kind, r, n, power, index_scale=1):
    """Phi_{index_scale n}(r) ||A_n||^power / (1 - q^power), for n past the stored norms.

    It bounds the continuation sum_{k >= n} ||A_k||^power w_k when every
    w_k, k >= n, is at most Phi_{index_scale n}(r).
    """
    with mp.workdps(DPS):
        x, L, q = _series(coeffs)
        xn = x[L] * q ** (n - L)
        return phi_tail(kind, index_scale * n, mp.mpf(r)) * xn**power / (1 - q**power)


def s_r(coeffs, r):
    with mp.workdps(DPS):
        r = mp.mpf(r)
        x, L, q = _series(coeffs)
        total = sum(n * x[n] ** 2 * r ** (2 * n) for n in range(L + 1))
        if q:
            total += x[L] ** 2 * q ** (-2 * L) * poly_tail((0, 1, 0), (q * r) ** 2, L + 1)
        return total


def energy(coeffs, r):
    """sum_{n >= 1} ||A_n||^2 r^{2n}."""
    with mp.workdps(DPS):
        r = mp.mpf(r)
        x, L, q = _series(coeffs)
        total = sum(x[n] ** 2 * r ** (2 * n) for n in range(1, L + 1))
        if q:
            total += x[L] ** 2 * q ** (-2 * L) * poly_tail((1, 0, 0), (q * r) ** 2, L + 1)
        return total


def derivative_majorant(coeffs, t):
    with mp.workdps(DPS):
        t = mp.mpf(t)
        x, L, q = _series(coeffs)
        total = sum(n * x[n] * t ** (n - 1) for n in range(1, L + 1))
        if q:
            total += x[L] * q**-L * poly_tail((0, 1, 0), q * t, L + 1) / t
        return total


def kayumov_ponnusamy(coeffs, r):
    """||A_0|| + sum_{n >= 1} (||A_n|| r^n + ||A_n||^2 / 2) 3^-n."""
    with mp.workdps(DPS):
        r, third = mp.mpf(r), mp.mpf(1) / 3
        x, L, q = _series(coeffs)
        total = x[0] + sum((x[n] * r**n + x[n] ** 2 / 2) * third**n for n in range(1, L + 1))
        if q:
            total += x[L] * q**-L * poly_tail((1, 0, 0), q * r * third, L + 1)
            total += x[L] ** 2 / 2 * q ** (-2 * L) * poly_tail((1, 0, 0), q * q * third, L + 1)
        return total


def refined_sum(coeffs, kind, m, r):
    """sum_{n > m} ||A_n||^2 (phi_{2n}/(1 + ||A_m||) + Phi_{2n+1}), for m <= L.

    The continuation swaps the order of the double sum,
    sum_{n>L} q^{2n} Phi_{2n+1} = sum_{k >= 2L+3} phi_k sum_{n=L+1}^{(k-1)//2} q^{2n}.
    """
    with mp.workdps(DPS):
        r = mp.mpf(r)
        x, L, q = _series(coeffs)
        am = x[m]
        c, parity, _ = KINDS[kind]

        def weight(n):
            return phi(kind, 2 * n, r) / (1 + am) + phi_tail(kind, 2 * n + 1, r)

        total = sum(x[n] ** 2 * weight(n) for n in range(m + 1, L + 1))
        if not q:
            return total
        z = q * r
        even = poly_tail(c, z, 2 * L + 2, 0) if _on(parity, 0) else 0
        cut = q * poly_tail(c, z, 2 * L + 3, 1) if _on(parity, 1) else 0
        if _on(parity, 0):
            cut += poly_tail(c, z, 2 * L + 4, 0)
        swapped = (q ** (2 * L + 2) * phi_tail(kind, 2 * L + 3, r) - cut) / (1 - q * q)
        return total + x[L] ** 2 * q ** (-2 * L) * (even / (1 + am) + swapped)
