import math

import mpmath
import numpy as np
import pytest
from scipy.special import sph_harm_y
from sympy.physics.wigner import wigner_3j as sympy_3j

from oracles import gaunt_y2, symtop_d2_element
from propeller_sim import angular
from propeller_sim.angular import (legendre_table, wigner3j, wigner3j_array,
                                   wigner_d_half_pi, y2_components)


def _exact_3j(j1, j2, j3, m1, m2, m3):
    """The Racah sum in 40-digit arithmetic with exact factorials."""
    if m1 + m2 + m3 != 0 or not abs(j1 - j2) <= j3 <= j1 + j2 \
            or max(abs(m1) - j1, abs(m2) - j2, abs(m3) - j3) > 0:
        return 0.0
    f = mpmath.factorial
    with mpmath.workdps(40):
        pre = mpmath.sqrt(f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3)
                          / f(j1 + j2 + j3 + 1) * f(j1 + m1) * f(j1 - m1)
                          * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3))
        total = mpmath.fsum((-1) ** k / (f(k) * f(j1 + j2 - j3 - k) * f(j1 - m1 - k)
                                         * f(j2 + m2 - k) * f(j3 - j2 + m1 + k)
                                         * f(j3 - j1 - m2 + k))
                            for k in range(max(0, j2 - j3 - m1, j1 - j3 + m2),
                                           min(j1 + j2 - j3, j1 - m1, j2 + m2) + 1))
        return float((-1) ** (j1 - j2 - m3) * pre * total)


class TestLogFactorials:
    def test_against_exact(self):
        n = np.arange(len(angular._LOG_FACT_CACHE))
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.log(mpmath.factorial(int(k)))) for k in n])
        err = np.abs(angular._logfact(n) - ref)
        assert np.max(err / np.maximum(ref, 1.0)) <= 1e-13


class TestWigner3j:
    def test_against_sympy_small(self):
        for j1 in range(0, 7):
            for j2 in range(0, 3):
                for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                    for m1 in range(-j1, j1 + 1):
                        for m2 in range(-j2, j2 + 1):
                            m3 = -m1 - m2
                            if abs(m3) > j3:
                                continue
                            ref = float(sympy_3j(j1, j2, j3, m1, m2, m3))
                            assert wigner3j(j1, j2, j3, m1, m2, m3) == \
                                pytest.approx(ref, abs=1e-12)

    def test_against_sympy_large(self):
        cases = [(60, 2, 60, 13, 0, -13), (120, 2, 122, -40, 2, 38),
                 (90, 2, 88, 0, 0, 0), (150, 2, 150, 149, -2, -147)]
        for args in cases:
            ref = float(sympy_3j(*args))
            assert wigner3j(*args) == pytest.approx(ref, rel=1e-10, abs=1e-14)

    def test_invalid_configurations_vanish(self):
        assert wigner3j(1, 2, 5, 0, 0, 0) == 0.0      # triangle violated
        assert wigner3j(2, 2, 2, 1, 0, 0) == 0.0      # m-sum nonzero
        assert wigner3j(2, 2, 3, 0, 0, 0) == 0.0      # odd sum with zero m


class TestWigner3jArray:
    def test_matches_scalar_symbol(self):
        # every integer argument set with j1, j3 <= 9, j2 <= 3 and |m| <= j + 1,
        # so m-sum, |m| > j and triangle violations are all included
        cases = [(j1, j2, j3, m1, m2, -m1 - m2 + dm)
                 for j1 in range(10) for j2 in range(4) for j3 in range(10)
                 for m1 in range(-j1 - 1, j1 + 2) for m2 in range(-j2 - 1, j2 + 2)
                 for dm in (0, 1)]
        got = wigner3j_array(*np.array(cases).T)
        ref = np.array([wigner3j(*c) for c in cases])
        assert np.max(np.abs(got - ref)) <= 1e-14
        assert np.array_equal(got == 0.0, ref == 0.0)

    def test_broadcast_and_large_j(self):
        j = np.arange(100, 160)
        got = wigner3j_array(j, 2, j + 2, 7, -2, -5)
        ref = [wigner3j(int(x), 2, int(x) + 2, 7, -2, -5) for x in j]
        assert got.shape == j.shape
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_empty(self):
        assert wigner3j_array([], 2, [], [], 0, []).shape == (0,)

    @pytest.mark.parametrize("j1", [0, 1, 7, 40, 118, 120])
    def test_rank2_against_exact(self, j1):
        # the rank-2 couplings the engines build, j <= 120: every j3 and m2,
        # and m1 spread over its range
        cases = np.array([(j1, 2, j3, m1, m2, -m1 - m2)
                          for j3 in range(max(j1 - 2, 0), j1 + 3) for m2 in range(-2, 3)
                          for m1 in sorted({*range(-j1, j1 + 1, max(1, j1 // 6)), j1})])
        ref = [_exact_3j(*map(int, c)) for c in cases]
        assert np.max(np.abs(wigner3j_array(*cases.T) - ref)) <= 1e-13


class TestWignerDHalfPi:
    D = wigner_d_half_pi(70)

    def test_unitary(self):
        assert len(self.D) == 71
        for J, d in enumerate(self.D):
            assert d.shape == (2 * J + 1, 2 * J + 1)
            assert np.max(np.abs(d @ d.T - np.eye(2 * J + 1))) <= 1e-13, J

    def test_edge_row_closed_form(self):
        # d^J_{J m}(pi/2) = (-1)^(J - m) sqrt(C(2J, J - m)) / 2^J
        for J in (1, 2, 7, 30, 70):
            m = np.arange(-J, J + 1)
            ref = np.array([(-1.0) ** (J - k) * math.sqrt(math.comb(2 * J, J - k))
                            for k in m]) / 2.0 ** J
            assert np.max(np.abs(self.D[J][-1] - ref)) <= 1e-14, J

    def test_rotates_jz_into_minus_jx(self):
        # exp(i pi/2 J_y) J_z exp(-i pi/2 J_y) = -J_x, column by column
        for J in (1, 5, 33, 70):
            d = self.D[J]
            m = np.arange(-J, J)
            jx = np.diag(0.5 * np.sqrt(J * (J + 1.0) - m * (m + 1.0)), 1)
            jx = jx + jx.T
            assert np.max(np.abs(d.T @ (np.arange(-J, J + 1)[:, None] * d) + jx)) <= 1e-12, J


class TestLegendreTable:
    @pytest.mark.parametrize("m", [0, 1, 3, -2, -5])
    def test_against_scipy(self, m):
        x = np.linspace(-0.99, 0.99, 9)
        theta = np.arccos(x)
        tab = legendre_table(12, m, x)
        for row, l in enumerate(range(abs(m), 13)):
            ref = np.array([complex(sph_harm_y(l, m, t, 0.0)).real for t in theta])
            assert np.allclose(tab[row], ref, atol=1e-12), (l, m)

    def test_high_l_stability(self):
        x = np.array([0.123])
        tab = legendre_table(200, 7, x)
        ref = complex(sph_harm_y(200, 7, math.acos(0.123), 0.0)).real
        assert tab[-1][0] == pytest.approx(ref, rel=1e-9)

    def test_orthonormality(self):
        x, w = np.polynomial.legendre.leggauss(40)
        tab = legendre_table(20, 2, x)
        overlaps = 2 * math.pi * (tab * w) @ tab.T
        assert np.allclose(overlaps, np.eye(len(tab)), atol=1e-12)

    @pytest.mark.parametrize("L", [0, 1, 88, 200])
    def test_sweep_is_bitwise_the_tables(self, L):
        # the sweep carries the sectoral seed from m to m; the poles make it 0
        x = np.concatenate([[-1.0, 1.0, 0.0], np.linspace(-0.999, 0.999, 37)])
        sweep = list(angular.legendre_sweep(L, x))
        assert len(sweep) == L + 1
        for m, table in enumerate(sweep):
            assert table.tobytes() == legendre_table(L, m, x).tobytes(), m


class TestY2Components:
    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.standard_normal(3)
            p /= np.linalg.norm(p)
            theta, phi = math.acos(p[2]), math.atan2(p[1], p[0])
            got = y2_components(p)
            ref = np.array([complex(sph_harm_y(2, q, theta, phi))
                            for q in range(-2, 3)])
            assert np.allclose(got, ref, atol=1e-13)


class TestGaunt:
    def test_selection_rules(self):
        assert gaunt_y2(3, 1, 0, 3, 2) == 0.0     # m mismatch
        assert gaunt_y2(5, 0, 0, 2, 0) == 0.0     # |dl| > 2
        assert gaunt_y2(3, 0, 0, 2, 0) == 0.0     # parity (l + l' odd)

    def test_quadrature_oracle(self):
        # independent 2-D quadrature of Y*_{l'm'} Y_{2q} Y_{lm}
        x, w = np.polynomial.legendre.leggauss(64)
        theta = np.arccos(x)
        n_phi = 64
        phi = np.arange(n_phi) * 2 * math.pi / n_phi
        th_g, ph_g = np.meshgrid(theta, phi, indexing="ij")
        for (lp, mp, q, l, m) in [(2, 0, 0, 0, 0), (3, 1, 0, 1, 1), (4, -1, -2, 2, 1),
                                  (2, 2, 2, 2, 0), (5, 0, 0, 5, 0), (3, -2, -1, 2, -1)]:
            integrand = (np.conj(sph_harm_y(lp, mp, th_g, ph_g))
                         * sph_harm_y(2, q, th_g, ph_g)
                         * sph_harm_y(l, m, th_g, ph_g))
            ref = float(np.real(np.einsum("i,ij->", w, integrand) * 2 * math.pi / n_phi))
            assert gaunt_y2(lp, mp, q, l, m) == pytest.approx(ref, abs=1e-12)


# independent little-d implementation (factorial sum) for the symtop oracle
def _little_d(j, mp, m, theta):
    total = 0.0
    for k in range(max(0, m - mp), min(j - mp, j + m) + 1):
        num = (math.sqrt(math.factorial(j + m) * math.factorial(j - m)
                         * math.factorial(j + mp) * math.factorial(j - mp))
               * (-1.0) ** (mp - m + k))
        den = (math.factorial(j + m - k) * math.factorial(k)
               * math.factorial(mp - m + k) * math.factorial(j - mp - k))
        total += (num / den * math.cos(theta / 2) ** (2 * j - mp + m - 2 * k)
                  * math.sin(theta / 2) ** (mp - m + 2 * k))
    return total


class TestSymtopD2:
    def test_spot_value(self):
        assert symtop_d2_element(2, 0, 0, 0, 0, 0) == pytest.approx(1 / math.sqrt(5))
        assert symtop_d2_element(0, 0, 0, 0, 0, 0) == 0.0

    def test_euler_quadrature_oracle(self):
        # brute-force 3-D product-grid quadrature (64 GL x 64 x 64 uniform)
        # of psi*_{J'K M'} D^{2*}_{p0} psi_{J K M} for all J, J' <= 4
        n = 64
        x, w = np.polynomial.legendre.leggauss(n)
        theta = np.arccos(x)
        phi = np.arange(n) * 2 * math.pi / n
        chi = phi
        checked = 0
        for K in (-2, 0, 1, 3):
            for p in (-2, 0, 2):
                for J in range(abs(K), 5):
                    for Jp in range(abs(K), 5):
                        for M in range(-J, J + 1):
                            Mp = M + p
                            if abs(Mp) > Jp:
                                continue
                            # phi and chi integrals: uniform sums over the
                            # product grid (exact for these mode numbers)
                            ph_sum = np.exp(1j * (-Mp + p + M) * phi).sum() * (2 * math.pi / n)
                            ch_sum = np.exp(1j * (K - K) * chi).sum() * (2 * math.pi / n)
                            dth = np.array([_little_d(Jp, Mp, K, t) for t in theta])
                            d2 = np.array([_little_d(2, p, 0, t) for t in theta])
                            dlo = np.array([_little_d(J, M, K, t) for t in theta])
                            th_sum = float(w @ (dth * d2 * dlo))
                            pref = math.sqrt((2 * Jp + 1) * (2 * J + 1)) / (8 * math.pi ** 2)
                            ref = pref * th_sum * float(np.real(ph_sum * ch_sum))
                            got = symtop_d2_element(Jp, Mp, J, M, K, p)
                            assert got == pytest.approx(ref, abs=1e-8), (Jp, Mp, J, M, K, p)
                            checked += 1
        assert checked > 400
