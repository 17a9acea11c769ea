"""Angular-momentum algebra: Wigner 3j symbols, the d^J(pi/2) tables and the
shell rotations D^J(alpha, beta, 0) built on them, normalized associated
Legendre tables swept over every m, and the package's one Gauss-Legendre
rule (gauss_legendre).

The 3j symbol uses the Racah sum with log-factorials, combined per term in
log space.  For the rank-2 couplings needed here the alternating sum has at
most five terms, which keeps it accurate to ~1e-12 through j of a few
hundred.  Matrix elements that have no finite spherical-tensor expansion
(e.g. cos 2phi, whose theta overlaps run over all Delta-l) are built instead
by exact Gauss-Legendre quadrature: the integrands are polynomials in
cos(theta), so the quadrature is exact at machine precision.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_LOG_FACT_CACHE = np.array([math.lgamma(n + 1.0) for n in range(2047)])  # log(n!)


def _logfact(n):
    return _LOG_FACT_CACHE[np.asarray(n)]


def wigner3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol for integer arguments."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    if m1 == m2 == m3 == 0 and (j1 + j2 + j3) % 2 == 1:
        return 0.0      # parity zero, exact (the Racah sum only cancels in floats)
    log_delta = (_logfact(j1 + j2 - j3) + _logfact(j1 - j2 + j3)
                 + _logfact(-j1 + j2 + j3) - _logfact(j1 + j2 + j3 + 1))
    log_outer = (_logfact(j1 + m1) + _logfact(j1 - m1)
                 + _logfact(j2 + m2) + _logfact(j2 - m2)
                 + _logfact(j3 + m3) + _logfact(j3 - m3))
    k_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    k_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = 0.0
    base = 0.5 * (log_delta + log_outer)
    for k in range(k_min, k_max + 1):
        log_den = (_logfact(k) + _logfact(j1 + j2 - j3 - k)
                   + _logfact(j1 - m1 - k) + _logfact(j2 + m2 - k)
                   + _logfact(j3 - j2 + m1 + k) + _logfact(j3 - j1 - m2 + k))
        total += (-1.0) ** k * math.exp(base - log_den)
    return (-1.0) ** (j1 - j2 - m3) * total


def wigner3j_array(j1, j2, j3, m1, m2, m3) -> np.ndarray:
    """Wigner 3j symbols over broadcast integer arrays.

    The same Racah sum as `wigner3j`, term by term, so entries agree with the
    scalar symbol to rounding.  The sum runs over k <= j2 + m2, which bounds
    the loop at 2 j2 + 1 array passes (five for the rank-2 couplings).
    """
    args = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64)
                                 for a in (j1, j2, j3, m1, m2, m3)))
    j1, j2, j3, m1, m2, m3 = args
    ok = ((m1 + m2 + m3 == 0)
          & (np.abs(m1) <= j1) & (np.abs(m2) <= j2) & (np.abs(m3) <= j3)
          & (j3 >= np.abs(j1 - j2)) & (j3 <= j1 + j2)
          & ~((m1 == 0) & (m2 == 0) & (m3 == 0) & ((j1 + j2 + j3) % 2 == 1)))
    # zero every argument of a vanishing symbol so all factorial indices exist
    j1, j2, j3, m1, m2, m3 = (np.where(ok, a, 0) for a in args)
    log_delta = (_logfact(j1 + j2 - j3) + _logfact(j1 - j2 + j3)
                 + _logfact(-j1 + j2 + j3) - _logfact(j1 + j2 + j3 + 1))
    log_outer = (_logfact(j1 + m1) + _logfact(j1 - m1)
                 + _logfact(j2 + m2) + _logfact(j2 - m2)
                 + _logfact(j3 + m3) + _logfact(j3 - m3))
    base = 0.5 * (log_delta + log_outer)
    k_min = np.maximum(np.maximum(0, j2 - j3 - m1), j1 - j3 + m2)
    k_max = np.minimum(np.minimum(j1 + j2 - j3, j1 - m1), j2 + m2)
    total = np.zeros(base.shape)
    for k in range(int(k_max.max(initial=-1)) + 1):
        on = (k >= k_min) & (k <= k_max)
        log_den = (_logfact(k)
                   + _logfact(np.where(on, j1 + j2 - j3 - k, 0))
                   + _logfact(np.where(on, j1 - m1 - k, 0))
                   + _logfact(np.where(on, j2 + m2 - k, 0))
                   + _logfact(np.where(on, j3 - j2 + m1 + k, 0))
                   + _logfact(np.where(on, j3 - j1 - m2 + k, 0)))
        total += (-1.0) ** k * np.exp(np.where(on, base - log_den, -np.inf))
    sign = np.where((j1 - j2 - m3) % 2 == 1, -1.0, 1.0)
    return np.where(ok, sign * total, 0.0)


def legendre_sweep(l_max: int, x: np.ndarray):
    """Fully normalized associated Legendre tables for m = 0..l_max in turn.

    Table m holds rows l = m..l_max, Theta[l - m, i] = Y_lm(theta_i, 0) at
    x = cos(theta), Condon-Shortley phase included, stable to high l by
    upward recursion.  The sectoral seed Pbar_mm is carried from m to m, one
    product per step.  Negative m follow from Pbar_l,-m = (-1)^m Pbar_lm.

    Every table is a view of one (l_max + 1) x len(x) buffer, rows m..l_max,
    valid until the next table is drawn; the caller may scale it in place,
    and must copy a table to keep it.  Each row l >= m + 2 is written in
    place from the two below it with one scratch row, in the operation order
    of a (x Pbar_l-1 - b Pbar_l-2), so no row allocates.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    pmm = np.full(len(x), 1.0 / math.sqrt(4.0 * math.pi))
    buffer = np.empty((l_max + 1, len(x)))
    scratch = np.empty(len(x))
    for m in range(l_max + 1):
        if m:
            pmm = -math.sqrt((2 * m + 1) / (2.0 * m)) * s * pmm
        rows = buffer[m:]
        rows[0] = pmm
        if l_max > m:
            rows[1] = math.sqrt(2.0 * m + 3.0) * x * pmm
        for l in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            row = np.multiply(x, rows[l - m - 1], out=rows[l - m])
            row -= np.multiply(b, rows[l - m - 2], out=scratch)
            row *= a
        yield rows


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (increasing) and weights, accurate to rounding.

    Golub-Welsch nodes (Math. Comp. 23, 221 (1969)) polished by two Newton
    steps on P_n, weights from 2 / ((1 - x^2) P_n'(x)^2).  Raw eigenvector
    weights are off by 1e-16 to 1e-14 somewhere on [-1, 1], and that error
    would become the noise floor of the density's kernel spectra.  Each rule
    is built once per n and shared, so both arrays are read-only.
    """
    def legendre_n(x):
        p_prev, p = np.ones(n), x.copy()
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / (x * x - 1.0)       # P_n, P_n'

    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        p, dp = legendre_n(x)
        x = x - p / dp
    _, dp = legendre_n(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def wigner_d_half_pi(J_max: int) -> list[np.ndarray]:
    """Wigner d^J(pi/2) for J = 0..J_max; entry [M + J, m + J] is d^J_{M m}.

    d^J_{M m}(beta) = <J M| exp(-i beta J_y) |J m>.  Built by Risbo's
    recursion (J. Geodesy 70, 383 (1996)): coupling one spin 1/2 to d^{j-1/2}
    gives d^j with the Clebsch-Gordan weights sqrt((j +- m)/2j), so every
    half step is a positive combination of the previous table, stable to
    rounding for any J.
    """
    c = s = math.sqrt(0.5)              # cos(beta/2), sin(beta/2) at beta = pi/2
    d = np.ones((1, 1))
    out = [d]
    for two_j in range(1, 2 * J_max + 1):
        n = two_j + 1
        p = np.arange(n)
        a = np.sqrt(p / two_j)              # sqrt((j + m)/2j), m = p - j
        b = np.sqrt((two_j - p) / two_j)    # sqrt((j - m)/2j)
        old = np.zeros((n + 1, n + 1))
        old[1:n, 1:n] = d                   # old[p, q] = d^{j-1/2}[p - 1, q - 1]
        d = (np.outer(a, a) * (c * old[:n, :n]) - np.outer(a, b) * (s * old[:n, 1:])
             + np.outer(b, a) * (s * old[1:, :n]) + np.outer(b, b) * (c * old[1:, 1:]))
        if two_j % 2 == 0:
            out.append(d)
    return out


def shell_rotations(l_max: int, alpha: float, beta: float):
    """D^l(alpha, beta, 0) = exp(-i alpha J_z) exp(-i beta J_y), l = 0..l_max in turn:
    d(pi/2) diag(e^{-i beta m}) d(pi/2)^T is exp(-i beta J_x), and the phases
    Q = diag(e^{-i pi m/2}) turn it into exp(-i beta J_y), for any sign of beta."""
    for l, d in enumerate(wigner_d_half_pi(l_max)):
        m = np.arange(-l, l + 1)
        yield (np.exp(-1j * (alpha + math.pi / 2) * m)[:, None]    # diag(e^{-i alpha m}) Q
               * ((d * np.exp(-1j * beta * m)) @ d.T) * np.exp(0.5j * math.pi * m))
