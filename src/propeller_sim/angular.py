"""Angular-momentum algebra: Wigner 3j symbols, the Wigner d^J(pi/2)
rotation tables, normalized associated Legendre tables (one m at a time,
or swept over every m with the sectoral seed carried along), and the rank-2
harmonics Y_2q at a polarization vector.

The 3j symbol uses the Racah sum with log-factorials, combined per term in
log space.  For the rank-2 couplings needed here the alternating sum has at
most five terms, which keeps it accurate to ~1e-12 through j of a few
hundred.  Matrix elements that have no finite spherical-tensor expansion
(e.g. cos 2phi, whose theta overlaps run over all Delta-l) are built instead
by exact Gauss-Legendre quadrature: the integrands are polynomials in
cos(theta), so the quadrature is exact at machine precision.
"""

from __future__ import annotations

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


def y2_components(p: np.ndarray) -> np.ndarray:
    """[Y_{2,-2} .. Y_{2,2}] evaluated at the unit vector p."""
    x, y, z = p
    c2 = math.sqrt(15.0 / (32.0 * math.pi))
    c1 = math.sqrt(15.0 / (8.0 * math.pi))
    c0 = math.sqrt(5.0 / (16.0 * math.pi))
    xp, xm = complex(x, y), complex(x, -y)
    return np.array([c2 * xm * xm, c1 * z * xm, c0 * (3 * z * z - 1),
                     -c1 * z * xp, c2 * xp * xp])


def _sectoral_seeds(x: np.ndarray, m_max: int):
    """Pbar_mm(x) for m = 0..m_max in turn, each seed one product from the last."""
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    pmm = np.full(len(x), 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(m_max + 1):
        if m:
            pmm = -math.sqrt((2 * m + 1) / (2.0 * m)) * s * pmm
        yield pmm


def _upward(l_max: int, m: int, x: np.ndarray, pmm: np.ndarray) -> np.ndarray:
    """Rows l = m..l_max of Pbar_lm(x), m >= 0, by upward recursion from the seed."""
    rows = np.empty((l_max - m + 1, len(x)))
    rows[0] = pmm
    if l_max > m:
        rows[1] = math.sqrt(2.0 * m + 3.0) * x * pmm
    for l in range(m + 2, l_max + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        rows[l - m] = a * (x * rows[l - m - 1] - b * rows[l - m - 2])
    return rows


def legendre_table(l_max: int, m: int, x: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre functions, rows l = |m| .. l_max.

    Returns Theta[l - |m|, i] = Y_{l m}(theta_i, 0) at x = cos(theta), real
    for any sign of m (Condon-Shortley phase included), stable to high l via
    upward recursion.
    """
    am = abs(m)
    if l_max < am:
        return np.zeros((0, len(x)))
    x = np.asarray(x, dtype=float)
    *_, pmm = _sectoral_seeds(x, am)
    rows = _upward(l_max, am, x, pmm)
    if m < 0:
        rows = rows * (-1.0) ** am
    return rows


def legendre_sweep(l_max: int, x: np.ndarray):
    """legendre_table(l_max, m, x) for m = 0..l_max in turn.

    The sectoral seed Pbar_mm is carried from m to m, one product per step,
    so a sweep over every m builds each seed once; every table is bitwise
    the one legendre_table returns.
    """
    x = np.asarray(x, dtype=float)
    for m, pmm in enumerate(_sectoral_seeds(x, l_max)):
        yield _upward(l_max, m, x, pmm)


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
