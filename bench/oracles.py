"""Independent reference values for the benchmark's operations.

Nothing in this module calls into ``bohrad``.  Weight series are summed
term by term with numpy (Horner on a grid of radii, or an explicit
vector of terms), the extremal Mobius family uses textbook geometric
sums, circle integrals use a fixed-node trapezoid rule, and roots are
bracketed on a grid finer than the program's scan step before being
narrowed.  Each ``*_root`` returns the leftmost root, so a root the
program skipped inside one of its scan cells shows as a mismatch.
"""

from __future__ import annotations

import math

import numpy as np

# functions advertise abs_tol = 1e-12 for certified sums
SUM_TOL = 1e-12
# an independent root agrees with a solver run at tol 1e-12 to this much
ROOT_TOL = 1e-10
# circle-integral roots: the program stops node doubling at 1e-10 on M(r)
QUAD_ROOT_TOL = 1e-8

MAJORANT_THRESHOLD = 6.0 / math.pi**2
REFINED_THRESHOLD = 3.0 / (2.0 * math.pi**2)   # 2 pi M(r) = 3/pi
DEFAULT_A_GRID = tuple(1.0 - 10.0**-k for k in range(1, 7))
VIOLATION_TOL = 1e-12


# ------------------------------------------------------------ weight kinds

def weight(kind: str, n) -> np.ndarray:
    """c(n) with phi_n(r) = c(n) r^n for the five built-in weight kinds."""
    n = np.asarray(n, dtype=float)
    if kind == "monomial":
        return np.ones_like(n)
    if kind == "weighted_linear":
        return n + 1.0
    if kind == "weighted_quadratic":
        return np.where(n == 0, 1.0, n * n)
    if kind == "even_only":
        return (n % 2 == 0).astype(float)
    if kind == "odd_only":
        return ((n % 2 == 1) | (n == 0)).astype(float)
    raise ValueError(f"unknown weight kind {kind!r}")


def _terms_needed(rmax: float, start: int) -> int:
    """Series length after which c(n) r^n, c(n) <= (n+1)^2, is below 1e-20."""
    rate = -math.log(rmax)
    K = 64
    for _ in range(3):
        K = int(math.ceil((46.0 + 2.0 * math.log(start + K + 2.0)) / rate)) + 8
    return K


def tail(kind: str, N: int, R: np.ndarray) -> np.ndarray:
    """Phi_N(R) = sum_{n >= N} c(n) R^n by Horner over a truncated series."""
    R = np.asarray(R, dtype=float)
    K = _terms_needed(float(R.max()), N)
    acc = np.zeros_like(R)
    for c in weight(kind, np.arange(N, N + K))[::-1]:
        acc = acc * R + c
    return acc * R**N


def refined_F(kind, p, m, lam):
    """p phi_m(r) - 2 lam Phi_{m+1}(r), vectorised over r."""
    cm = float(weight(kind, m))
    return lambda R: p * cm * R**m - 2.0 * lam * tail(kind, m + 1, R)


def rogosinski_F(kind, p, m, N, mu):
    """p (1 - r^m)/(1 + r^m) phi_0(r) - 2 mu Phi_N(r), vectorised over r."""
    c0 = float(weight(kind, 0))
    return lambda R: p * (1.0 - R**m) / (1.0 + R**m) * c0 - 2.0 * mu * tail(kind, N, R)


# ------------------------------------------------------------------ roots

def _narrow(F, lo, hi, rounds=7, points=65):
    """Shrink a sign-change bracket by evaluating F on sub-grids."""
    for _ in range(rounds):
        G = np.linspace(lo, hi, points)
        s = np.sign(F(G))
        if s[0] == 0.0:
            return G[0]
        k = int(np.nonzero(s * s[0] <= 0.0)[0][0])
        lo, hi = G[k - 1], G[k]
        if s[k] == 0.0:
            return G[k]
    return 0.5 * (lo + hi)


def leftmost_root(F, hi: float, step: float):
    """First sign change of F on the grid step, 2 step, ... <= hi, narrowed.

    Returns None when F keeps one sign on the whole grid.
    """
    R = step * np.arange(1, int(hi / step) + 1)
    s = np.sign(F(R))
    if s[0] == 0.0:
        return float(R[0])
    cross = np.nonzero(s[:-1] * s[1:] <= 0.0)[0]
    if cross.size == 0:
        return None
    j = int(cross[0])
    if s[j + 1] == 0.0:
        return float(R[j + 1])
    return float(_narrow(F, R[j], R[j + 1]))


def check_root(F, value: float, scan_step: float, tol: float = ROOT_TOL,
               label: str = "root"):
    """None if value is F's leftmost root, searched at scan_step / 4."""
    hi = min(value + 2.0 * scan_step, 1.0 - scan_step / 4.0)
    ref = leftmost_root(F, hi, scan_step / 4.0)
    if ref is None:
        return f"{label}: oracle finds no sign change below {hi:.6g}"
    if abs(ref - value) > tol:
        return f"{label}: program {value!r}, oracle leftmost root {ref!r}"
    return None


def monomial_radius(p: float, lam: float) -> float:
    """Root of p r^m = 2 lam r^{m+1}/(1 - r), which is the same for every m."""
    return p / (p + 2.0 * lam)


# ------------------------------------------------------------------ bloch

def m_disk(nu: float, R):
    R = np.asarray(R, dtype=float)
    return R * R / (1.0 - R * R) ** (2.0 * nu)


def m_omega(gamma: float, nu: float, R, nodes: int = 1024):
    """(r/2pi) circle integral of lambda^{2 nu} on Omega_gamma, fixed nodes."""
    R = np.atleast_1d(np.asarray(R, dtype=float))
    cos = np.cos(2.0 * math.pi * np.arange(nodes) / nodes)
    g = gamma
    out = np.empty_like(R)
    for i in range(0, R.size, 128):
        r = R[i:i + 128, None]
        w_sq = (1 - g) ** 2 * r * r + g * g + 2 * g * (1 - g) * r * cos
        lam = (1.0 - g) / (1.0 - w_sq)
        out[i:i + 128] = r[:, 0] ** 2 * np.mean(lam ** (2.0 * nu), axis=1)
    return out


def bloch_root(domain: str, variant: str, nu: float, gamma: float = 0.0,
               scan_step: float = 1e-3):
    """Independent leftmost root of a Bloch radius equation."""
    threshold = REFINED_THRESHOLD if variant == "refined" else MAJORANT_THRESHOLD
    if domain == "disk":
        return leftmost_root(lambda R: m_disk(nu, R) - threshold, 0.9999, scan_step / 4)
    if domain == "omega":
        coarse = leftmost_root(lambda R: m_omega(gamma, nu, R) - threshold,
                               0.98, scan_step / 2)
        # polish at four times the nodes inside the coarse cell
        fine = lambda R: m_omega(gamma, nu, R, nodes=4096) - threshold
        return float(_narrow(fine, coarse - scan_step / 2, coarse + scan_step / 2))
    if domain == "gamma_closed":
        return leftmost_root(lambda R: gamma_equation(gamma, nu, R), 0.9999, scan_step / 4)
    raise ValueError(domain)


def gamma_equation(gamma, nu, R):
    """(1-g)^{2nu} r^2 pi^2 - 6 (1 - ((1-g) r + g)^2)^{2nu}."""
    R = np.asarray(R, dtype=float)
    outer = (1.0 - gamma) * R + gamma
    return (1.0 - gamma) ** (2 * nu) * R * R * math.pi**2 - 6.0 * (1.0 - outer**2) ** (2 * nu)


# ------------------------------------------------- extremal Mobius family

class Mobius:
    """Norms of the extremal map of Omega_gamma, shifted by m.

    ||A_m|| = |a-g|/(1-ag) and ||A_{m+k}|| = s q^k for k >= 1, with
    s = (1-a^2)/(a(1-ag)) and q = a(1-g)/(1-ag).
    """

    def __init__(self, a: float, gamma: float = 0.0, m: int = 0):
        self.a, self.gamma, self.m = a, gamma, m
        self.a0 = abs(a - gamma) / (1.0 - a * gamma)
        self.s = (1.0 - a * a) / (a * (1.0 - a * gamma))
        self.q = a * (1.0 - gamma) / (1.0 - a * gamma)

    def _k(self, rate: float):
        """k = 1..K covering the terms s q^k rate^k down to 1e-20."""
        return np.arange(1, _terms_needed(self.q * rate, self.m) + 1, dtype=float)

    def majorant(self, kind: str, r: float) -> float:
        """sum_n ||A_n|| phi_n(r)."""
        m, z = self.m, self.q * r
        if kind == "monomial":
            return self.a0 * r**m + self.s * r**m * z / (1.0 - z)
        k = self._k(r)
        n = m + k
        terms = self.s * weight(kind, n) * np.exp(k * math.log(self.q) + n * math.log(r))
        return self.a0 * float(weight(kind, m)) * r**m + math.fsum(terms)

    def tail_majorant(self, kind: str, N: int, r: float) -> float:
        """sum_{n >= N} ||A_n|| phi_n(r) (the series cut below N)."""
        k = self._k(r)
        n = self.m + k
        terms = self.s * weight(kind, n) * np.exp(k * math.log(self.q) + n * math.log(r))
        head = self.a0 * float(weight(kind, self.m)) * r**self.m if self.m >= N else 0.0
        return head + math.fsum(terms[n >= N])

    def s_r(self, r: float) -> float:
        """sum_n n ||A_n||^2 r^{2n} in closed form."""
        m, rho = self.m, (self.q * r) ** 2
        base = r ** (2 * m)
        head = m * self.a0**2 * base
        return head + self.s**2 * base * (m * rho / (1.0 - rho) + rho / (1.0 - rho) ** 2)

    def energy(self, r: float) -> float:
        """sum_{n>=1} ||A_n||^2 r^{2n} (unshifted family)."""
        rho = (self.q * r) ** 2
        return self.s**2 * rho / (1.0 - rho)

    def square_majorant(self, r: float) -> float:
        """sum_{n>=1} ||A_n||^2 r^n (unshifted family)."""
        z = self.q * self.q * r
        return self.s**2 * z / (1.0 - z)

    def refined_sum(self, kind: str, r: float) -> float:
        """sum_{n>m} ||A_n||^2 (phi_{2n}(r)/(1 + ||A_m||) + Phi_{2n+1}(r))."""
        m = self.m
        k = self._k(r * r)
        n = m + k
        J = int(2 * n[-1] + 2 + _terms_needed(r, int(2 * n[-1])))
        j = np.arange(J, dtype=float)
        phi = weight(kind, j) * np.exp(j * math.log(r))
        Phi = np.cumsum(phi[::-1])[::-1]      # Phi[j] = sum_{i >= j} phi_i
        idx = (2 * n).astype(int)
        x_sq = self.s**2 * np.exp(2.0 * k * math.log(self.q))
        terms = x_sq * (phi[idx] / (1.0 + self.a0) + Phi[idx + 1])
        return math.fsum(terms)


def point_bound(a0: float, t: float) -> float:
    return (a0 + t) / (1.0 + a0 * t)


def close(prog: float, ref: float, tol: float = SUM_TOL, relative: bool = False) -> bool:
    """|prog - ref| within tol scaled by magnitude.

    The scale is max(1, |ref|) for sums certified to an absolute tolerance
    (majorant's abs_tol), and |ref| itself for s_r, whose stop rule is
    relative.  The 1e-14 relative slack covers rounding in the two
    evaluations, so a sum stopped just inside its tolerance is not failed
    on round-off.
    """
    scale = abs(ref) if relative else max(1.0, abs(ref))
    return abs(prog - ref) <= tol * scale + 1e-14 * abs(ref)


# ------------------------------------------------------ polynomials / r_p

def peak_weight(s: int) -> float:
    """max_a a (1+a)^2 (1-a^2)^{2s-2}, attained at a* = 1/(2 sqrt(s) - 1)."""
    a = 1.0 / (2.0 * math.sqrt(s) - 1.0)
    return a * (1.0 + a) ** 2 * (1.0 - a * a) ** (2 * s - 2)


def calibrated_c1(tail) -> float:
    total = math.fsum(2.0 * (2 * s - 1) * c * peak_weight(s) * (3.0 / 8.0) ** (2 * s)
                      for s, c in enumerate(tail, start=2))
    return (1.0 - total) / (8.0 * (3.0 / 8.0) ** 2)


def rp_lower(p: float) -> float:
    return (1.0 + (2.0 / p) ** (1.0 / (2.0 - p))) ** ((p - 2.0) / p)


def rp_upper(p: float) -> float:
    """min over a in [0, 1) of the r_p upper-bound expression, grid then zoom."""
    def g(A):
        one_minus = 1.0 - A**p
        return one_minus ** (1.0 / p) / ((1.0 - A * A) ** p + A**p * one_minus) ** (1.0 / p)

    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(8):
        A = np.linspace(lo, hi, 2001)
        k = int(np.argmin(g(A)))
        lo, hi = A[max(k - 1, 0)], A[min(k + 1, A.size - 1)]
    return float(np.min(g(np.linspace(lo, hi, 2001))))
