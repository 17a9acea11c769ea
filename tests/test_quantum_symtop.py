import math

import numpy as np
import pytest

from propeller_sim import angular, quantum_symtop
from oracles import lm_index, matrix_of, symtop_d2_element
from propeller_sim.angular import wigner3j, wigner3j_array, wigner_d_half_pi
from propeller_sim.core import (ParameterError, PulseSpec, TruncationError, benzene,
                                nitrogen, sigma_th)
from propeller_sim.quantum_linear import LinearBasis, thermal_run
from propeller_sim.quantum_symtop import (SymTopBasis, _pulse_frame_blocks,
                                          alignment_trace, coupling_block,
                                          delay_curve, thermal_levels)
from symtop_oracle import (alignment_block, block_keys, compose_two_pulses,
                           coupling_matrix, solve_pulse, thermal_expectation,
                           thermal_states)

BZ = benzene()


class TestBasis:
    def test_state_count(self):
        for jm in (3, 5):
            b = SymTopBasis(jm)
            assert b.size == sum((2 * J + 1) ** 2 for J in range(jm + 1))

    def test_energy_table(self):
        b = SymTopBasis(6)    # benzene ratio I1/I3 = 1/2
        assert b.energy(4, 2) == 4 * 5 / 2 - 4 / 4 * 1.0
        assert b.energy(3, -2) == b.energy(3, 2)
        assert b.energy(0, 0) == 0.0

    def test_k_limit_restriction(self):
        b = SymTopBasis(5, K_limit=1)
        assert np.max(np.abs(b.K)) == 1


class TestCouplingMatrix:
    def test_block_structure(self):
        b = SymTopBasis(5)
        m = coupling_matrix(b)
        assert np.max(np.abs(m - m.T)) < 1e-12
        rows, cols = np.nonzero(m)
        assert np.all(b.K[rows] == b.K[cols])
        assert np.all(np.isin(np.abs(b.M[rows] - b.M[cols]), [0, 2]))
        assert np.all(np.abs(b.J[rows] - b.J[cols]) <= 2)

    def test_km_zero_delta_j_even(self):
        # Delta J = 0, +-2 whenever K M = 0
        b = SymTopBasis(5)
        m = coupling_matrix(b)
        rows, cols = np.nonzero(m)
        km_zero = (b.K[cols] * b.M[cols] == 0) & (b.K[rows] * b.M[rows] == 0)
        dj = np.abs(b.J[rows] - b.J[cols])
        assert np.all(dj[km_zero] % 2 == 0)

    def test_k0_block_matches_linear_rotor(self):
        # |J,0,M> states are spherical harmonics: Omega = 3 cos^2(beta_x) - 1
        # must match the linear-rotor matrix built from Gaunt coefficients
        jm = 6
        b = SymTopBasis(jm, K_limit=0)
        lb = LinearBasis(jm)
        lin = matrix_of(lb, lb.op_cos2beta(np.array([1.0, 0.0, 0.0])))
        omega_lin = 3 * lin - np.eye(lb.size)
        m = coupling_matrix(b)
        for i in range(b.size):
            for j in range(b.size):
                a = lm_index(int(b.J[i]), int(b.M[i]))
                c = lm_index(int(b.J[j]), int(b.M[j]))
                assert m[i, j] == pytest.approx(omega_lin[a, c].real, abs=1e-10)

    @pytest.mark.parametrize("jm", [0, 1, 4, 8])
    def test_blocks_match_scalar_elements(self, jm):
        # element-wise oracle: Omega = -D2*_00 + sqrt(3/2)(D2*_20 + D2*_-20)
        # from the scalar 3j symbols, on every pair of states of every block
        b = SymTopBasis(jm, K_limit=jm)
        for key in block_keys(b):
            idx = b.block_indices(*key)
            ref = np.zeros((len(idx), len(idx)))
            for r, gr in enumerate(idx):
                for c, gc in enumerate(idx):
                    args = (int(b.J[gr]), int(b.M[gr]), int(b.J[gc]), int(b.M[gc]), key[0])
                    ref[r, c] = (-symtop_d2_element(*args, 0)
                                 + math.sqrt(1.5) * (symtop_d2_element(*args, 2)
                                                     + symtop_d2_element(*args, -2)))
            assert np.max(np.abs(coupling_block(b, key) - ref)) <= 1e-13, key

    def test_alignment_operator_isotropy(self):
        b = SymTopBasis(4)
        for key in block_keys(b):
            blk = alignment_block(b, key)
            idx = b.block_indices(*key)
            for n, g in enumerate(idx):
                if b.J[g] == 0:
                    assert blk[n, n] == pytest.approx(1 / 3)


class TestSolveAndCompose:
    def test_zero_strength_identity(self):
        b = SymTopBasis(4)
        sol = solve_pulse(b, PulseSpec(P=0.0, p=(1.0, 0, 0)))
        for key in block_keys(b):
            U = sol.block_U(key)
            assert np.allclose(U, np.eye(len(U)), atol=1e-12)

    def test_unitarity(self):
        b = SymTopBasis(8)
        sol = solve_pulse(b, PulseSpec(P=-3.0, p=(1.0, 0, 0)))
        for key in block_keys(b):
            U = sol.block_U(key)
            assert np.max(np.abs(U @ U.conj().T - np.eye(len(U)))) < 1e-8

    def test_ground_state_selection_chain(self):
        b = SymTopBasis(10)
        sol = solve_pulse(b, PulseSpec(P=-2.0, p=(1.0, 0, 0)))
        row = sol.row(0, 0, 0)
        pops = np.abs(row) ** 2
        sel = pops > 1e-10
        assert np.all(b.K[sel] == 0)
        assert np.all(b.M[sel] % 2 == 0)
        # K M = 0 chains only reach even J from |0,0,0>
        assert np.all(b.J[sel] % 2 == 0)

    def test_compose_tau_sweep_against_sequential(self):
        b = SymTopBasis(8, K_limit=2)
        pulse = PulseSpec(P=-2.0, p=(1.0, 0, 0))
        sol = solve_pulse(b, pulse)
        dphi = -math.pi / 4
        rng = np.random.default_rng(6)
        for tau in rng.uniform(0.0, 4.0, 5):
            blocks = compose_two_pulses(sol, None, tau, dphi)
            for key in ((0, 0), (1, 1), (-2, 0)):
                idx = b.block_indices(*key)
                e = b.energies[idx]
                M = b.M[idx]
                U = sol.block_U(key)
                for col in (0, len(idx) // 2):
                    psi = U[:, col]
                    psi = np.exp(-1j * e * tau) * psi
                    psi = np.exp(1j * M * dphi) * psi     # into pulse-2 frame
                    psi = U @ psi
                    psi = np.exp(-1j * M * dphi) * psi    # back to lab frame
                    psi_b = np.exp(-1j * e * tau) * blocks[key][col, :]
                    assert np.max(np.abs(psi - psi_b)) < 1e-8

    def test_second_pulse_zero_reduces_to_first(self):
        b = SymTopBasis(6, K_limit=1)
        sol1 = solve_pulse(b, PulseSpec(P=-2.0, p=(1.0, 0, 0)))
        sol2 = solve_pulse(b, PulseSpec(P=0.0, p=(1.0, 0, 0)))
        blocks = compose_two_pulses(sol1, sol2, 1.3, 0.7)
        for key in block_keys(b):
            # B = C up to the state-diagonal phases that cancel in |B|
            assert np.allclose(np.abs(blocks[key]), np.abs(sol1.block_U(key).T),
                               atol=1e-10)

    def test_double_kick_at_zero_delay(self):
        b = SymTopBasis(8, K_limit=0)
        sol1 = solve_pulse(b, PulseSpec(P=-1.5, p=(1.0, 0, 0)))
        soldouble = solve_pulse(b, PulseSpec(P=-3.0, p=(1.0, 0, 0)))
        blocks = compose_two_pulses(sol1, None, 0.0, 0.0)
        for key in block_keys(b):
            assert np.allclose(blocks[key], soldouble.block_U(key).T, atol=1e-10)


class TestThermal:
    def test_zero_temperature(self):
        levels, trunc = thermal_levels(BZ, 0.0)
        assert levels == [(0, 0, 1.0)] and trunc == 0.0

    def test_benzene_weights(self):
        levels, trunc = thermal_levels(BZ, 0.9)
        total = sum((2 * J + 1) * (2 if Ka else 1) * w for J, Ka, w in levels)
        assert total >= 0.9999 and trunc < 1e-4
        # energies even in K: the expanded list gives +-K the same weight
        w = {(J, K, M): wt for J, K, M, wt in thermal_states(BZ, 0.9)}
        assert w[(2, 1, 0)] == pytest.approx(w[(2, -1, 0)], rel=1e-12)

    def test_linear_molecule_is_the_k0_case(self):
        # N2 through the pulse-frame engine: its one K = 0 block reproduces
        # the linear engine's alignment and post-pulse-2 Ly and L2
        n2, dphi, jm = nitrogen(), math.radians(45.0), 44
        times = np.linspace(0.0, 1.0, 201)
        align = alignment_trace(n2, 50.0, 5.0, times, J_max=jm)
        ref = thermal_run(n2, 50.0, [PulseSpec(P=5.0, p=(0, 0, 1.0))], t_max=1.0,
                          dt_out=0.005, l_max=jm)
        assert np.max(np.abs(align.channels["cos2theta"] - ref.channels["cos2theta"])) <= 1e-12
        taus = np.array([0.01, 0.07])
        scan = delay_curve(n2, 50.0, 5.0, 5.0, dphi, taus, J_max=jm)
        for k, tau in enumerate(taus):
            p2 = PulseSpec.along(5.0, (math.sin(dphi), 0.0, math.cos(dphi)), t_apply=tau)
            avg = thermal_run(n2, 50.0, [PulseSpec(P=5.0, p=(0, 0, 1.0)), p2], t_max=0.1,
                              dt_out=0.1, l_max=jm).meta["revival_avg"]
            for name in ("Ly", "L2"):
                assert scan.channels[name][k] == pytest.approx(avg[name], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("T_K", [0.9, 2.0])
    def test_levels_are_the_shortest_energy_ordered_prefix(self, T_K):
        # whole levels in energy order, cut at the first level that brings
        # the kept Boltzmann share to WEIGHT_CUTOFF
        levels, trunc = thermal_levels(BZ, T_K)
        e = [J * (J + 1) / 2 + (BZ.i1_over_i3 - 1) * Ka * Ka / 2 for J, Ka, _ in levels]
        assert e == sorted(e)
        share = [(2 * J + 1) * (2 if Ka else 1) * w * (1 - trunc) for J, Ka, w in levels]
        assert sum(share[:-1]) < quantum_symtop.WEIGHT_CUTOFF <= sum(share) + 1e-12
        sig1, _ = sigma_th(BZ, T_K)
        for (J, Ka, w), ek in zip(levels, e):
            assert w == pytest.approx(levels[0][2] * math.exp(-ek / sig1 ** 2), rel=1e-12)

    def test_no_pulse_isotropic(self):
        ts = alignment_trace(BZ, 0.9, 0.0, np.linspace(0, 0.3, 7), J_max=12)
        assert np.allclose(ts.channels["cos2theta"], 1 / 3, atol=1e-8)
        dc = delay_curve(BZ, 0.9, 0.0, 0.0, -math.pi / 4,
                         np.linspace(0, 0.2, 5), J_max=12)
        assert np.allclose(dc.channels["Ly"], 0.0, atol=1e-8)

    def test_anti_alignment_dip(self):
        ts = alignment_trace(BZ, 0.9, -3.0, np.linspace(0.0, 0.08, 81))
        c2 = ts.channels["cos2theta"]
        assert c2[0] == pytest.approx(1 / 3, abs=1e-6)
        assert c2.min() < 1 / 3 - 0.05

    def test_dphi_sign_flips_jz(self):
        taus = np.linspace(0.0, 0.08, 9)
        plus = delay_curve(BZ, 0.9, -3.0, -3.0, math.pi / 4, taus, J_max=30)
        minus = delay_curve(BZ, 0.9, -3.0, -3.0, -math.pi / 4, taus, J_max=30)
        assert np.max(np.abs(plus.channels["Ly"] + minus.channels["Ly"])) < 1e-8

    def test_fold_matches_explicit_negative_k(self):
        # evaluate the thermal trace with all K blocks explicitly and compare
        # against the folded K >= 0 evaluation used in production
        states = thermal_states(BZ, 2.0)
        b = SymTopBasis(10)
        pulse = PulseSpec(P=-1.0, p=(1.0, 0, 0))
        sol = solve_pulse(b, pulse)
        taus = np.array([0.01, 0.05])
        blocks_all = compose_two_pulses(sol, None, 0.2, -math.pi / 4)
        full = thermal_expectation(blocks_all, b, "Ly", states, taus)
        keys_pos = [k for k in blocks_all if k[0] >= 0]
        folded = thermal_expectation({k: blocks_all[k] for k in keys_pos},
                                     b, "Ly", states, taus)
        assert np.allclose(full, folded, atol=1e-10)

    def test_revival_recurrences(self):
        # half and full rotational revivals: strong recurrence transients
        # around t = 0.5 and 1.0 T_rev, and a trace-autocorrelation local
        # maximum within 1% of the full revival period
        t = np.arange(0.0, 1.25, 0.0005)
        ts = alignment_trace(BZ, 0.9, -3.0, t)
        c2 = ts.channels["cos2theta"]

        def activity(lo, hi):
            sel = (t >= lo) & (t < hi)
            return c2[sel].std()

        quiet = max(activity(0.25, 0.35), activity(0.75, 0.85))
        assert activity(0.45, 0.55) > 10 * quiet      # half revival
        assert activity(0.95, 1.05) > 10 * quiet      # full revival

        dev = c2 - c2.mean()
        n = len(dev)
        lags = np.arange(1, n)
        ac = np.correlate(dev, dev, "full")[n:] / (n - lags)
        lag_t = t[1] * lags
        near = (lag_t > 0.95) & (lag_t < 1.05)
        idx = np.flatnonzero(near)
        vals = ac[idx]
        loc = [i for i in range(1, len(vals) - 1)
               if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
        best = max(loc, key=lambda i: vals[i])
        assert abs(lag_t[idx[best]] - 1.0) <= 0.01
        # exact full-revival periodicity of the trace itself
        period = np.isclose(t[None, :] - t[:, None], 1.0, atol=1e-12)
        i, j = np.nonzero(period)
        assert np.max(np.abs(c2[j] - c2[i])) < 1e-8

    def test_truncation_doubling(self):
        # doubling the default-rule J_max changes observables below 1e-6
        taus = np.linspace(0.0, 0.1, 11)
        a = alignment_trace(BZ, 0.9, -3.0, taus, J_max=30)
        b = alignment_trace(BZ, 0.9, -3.0, taus, J_max=60)
        assert np.max(np.abs(a.channels["cos2theta"] - b.channels["cos2theta"])) < 1e-6
        da = delay_curve(BZ, 0.9, -1.0, -1.0, -math.pi / 4, taus, J_max=21)
        db = delay_curve(BZ, 0.9, -1.0, -1.0, -math.pi / 4, taus, J_max=42)
        assert np.max(np.abs(da.channels["Ly_norm"] - db.channels["Ly_norm"])) < 1e-6


def _lab_from_pulse_frame(J_max, K):
    """R Omega_z R^T on the whole K sector, R = d^J(pi/2) per J; (J, M) order."""
    Js = np.arange(abs(K), J_max + 1)
    om = _pulse_frame_blocks(J_max, K)
    S = (-1.0) ** Js
    start = np.concatenate([[0], np.cumsum(2 * Js + 1)])
    pos = {J: start[i] + J for i, J in enumerate(Js)}       # row of (J, M = 0)
    n = start[-1]
    oz = np.zeros((n, n))
    for m in range(-J_max, J_max + 1):
        blk = om[m] if m >= 0 else S[:, None] * om[-m] * S[None, :]
        for i, J1 in enumerate(Js):
            for j, J2 in enumerate(Js):
                if abs(m) <= min(J1, J2):
                    oz[pos[J1] + m, pos[J2] + m] = blk[i, j]
    R = np.zeros((n, n))
    for J, d in zip(Js, wigner_d_half_pi(J_max)[abs(K):]):
        R[pos[J] - J:pos[J] + J + 1, pos[J] - J:pos[J] + J + 1] = d
    return R @ oz @ R.T, pos


def _per_K_blocks(J_max, K):
    """The pulse-frame blocks built per K, with both 3j factors evaluated for
    this K alone: the build the shared rank-2 table replaces."""
    Js = np.arange(abs(K), J_max + 1)
    n = len(Js)
    m = np.arange(J_max + 1)[:, None]
    sign = np.where((m - K) % 2 == 1, -1.0, 1.0)
    out = np.zeros((J_max + 1, n, n))
    for dJ in (0, 1, 2):
        i = np.arange(n - dJ)
        J = Js[i]
        v = (2.0 * np.sqrt((2.0 * J + 2 * dJ + 1) * (2.0 * J + 1)) * sign
             * wigner3j_array(J + dJ, 2, J, m, 0, -m)
             * wigner3j_array(J + dJ, 2, J, K, 0, -K))
        out[:, i + dJ, i] = v
        out[:, i, i + dJ] = v
    return out


class TestRank2Table:
    @pytest.mark.parametrize("J_max", [0, 1, 4, 10])
    def test_m_factor_against_scalar_3j(self, J_max):
        t = quantum_symtop._rank2_table(J_max)
        assert t.shape == (3, J_max + 1, J_max + 1) and not t.flags.writeable
        for dJ in range(3):
            for m in range(J_max + 1):
                for J in range(J_max + 1):
                    ref = wigner3j(J + dJ, 2, J, m, 0, -m)
                    assert t[dJ, m, J] == pytest.approx(ref, abs=1e-14), (dJ, m, J)

    @pytest.mark.parametrize("J_max", [0, 1, 4, 10])
    def test_k_factor_with_parity_sign(self, J_max):
        # (J+dJ 2 J; K 0 -K) is the table at m = |K|, times (-1)^dJ for K < 0,
        # for every K up to J_max
        t = quantum_symtop._rank2_table(J_max)
        for K in range(-J_max, J_max + 1):
            for dJ in range(3):
                sign = (-1.0) ** dJ if K < 0 else 1.0
                for J in range(J_max + 1):
                    ref = wigner3j(J + dJ, 2, J, K, 0, -K)
                    assert t[dJ, abs(K), J] * sign == pytest.approx(ref, abs=1e-14), (K, dJ, J)

    @pytest.mark.parametrize("J_max, K", [*((12, K) for K in range(-3, 4)),
                                          (0, 0), (1, 0), (1, 1), (1, -1), (5, 5)])
    def test_blocks_equal_per_K_build(self, J_max, K):
        got = _pulse_frame_blocks(J_max, K)
        ref = _per_K_blocks(J_max, K)
        if K >= 0:
            assert got.tobytes() == ref.tobytes()
            return
        # the Racah sum at -K runs over other terms, so the per-K build differs
        # from the mirror in the last bits; the table gives the exact mirror
        # S B(|K|) S, S = (-1)^J
        S = (-1.0) ** np.arange(abs(K), J_max + 1)
        assert np.array_equal(got, S[:, None] * _pulse_frame_blocks(J_max, -K) * S)
        assert np.max(np.abs(got - ref)) <= 1e-14


class TestSetupWork:
    """The engines build one 3j table and diagonalise each block once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"wigner3j_array": 0, "eigh": 0}
        w3j, eigh = angular.wigner3j_array, np.linalg.eigh

        def counting_w3j(*args):
            calls["wigner3j_array"] += 1
            return w3j(*args)

        def counting_eigh(a, *args, **kwargs):
            calls["eigh"] += 1
            return eigh(a, *args, **kwargs)

        quantum_symtop._rank2_table.cache_clear()
        monkeypatch.setattr(angular, "wigner3j_array", counting_w3j)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        yield calls
        quantum_symtop._rank2_table.cache_clear()

    def test_delay_curve(self, calls):
        taus = np.linspace(0.0, 0.05, 11)
        ts = delay_curve(BZ, 0.9, -2.0, -2.0, -math.pi / 4, taus)
        assert ts.meta["K_limit"] > 0
        assert calls["wigner3j_array"] <= 3
        assert calls["eigh"] == ts.meta["n_blocks"]

    def test_alignment_trace(self, calls):
        ts = alignment_trace(BZ, 0.9, -2.0, np.linspace(0.0, 0.05, 11))
        assert calls["wigner3j_array"] <= 3
        assert calls["eigh"] == ts.meta["n_blocks"]


class TestPulseFrame:
    @pytest.mark.parametrize("K", [0, 1, 3, -2, 8])
    def test_blocks_match_scalar_elements(self, K):
        # Omega about the pulse axis is 2 D2*_00, diagonal in m
        jm = 8
        om = _pulse_frame_blocks(jm, K)
        Js = range(abs(K), jm + 1)
        for m in range(jm + 1):
            ref = np.array([[2 * symtop_d2_element(Jp, m, J, m, K, 0)
                             if m <= min(J, Jp) else 0.0 for J in Js] for Jp in Js])
            assert np.max(np.abs(om[m] - ref)) <= 1e-13, m

    def test_rotation_gives_coupling_block(self):
        # D Omega_z D^T is the x-polarized coupling on every (K, M-parity) block,
        # and it never couples the two M parities
        jm = 12
        b = SymTopBasis(jm)
        for K in range(-jm, jm + 1):
            lab, pos = _lab_from_pulse_frame(jm, K)
            rows = {p: [pos[int(J)] + int(M) for J, M in
                        zip(b.J[b.block_indices(K, p)], b.M[b.block_indices(K, p)])]
                    for p in (0, 1)}
            for p in (0, 1):
                ref = coupling_block(b, (K, p))
                assert np.max(np.abs(lab[np.ix_(rows[p], rows[p])] - ref)) <= 1e-13, (K, p)
            assert np.max(np.abs(lab[np.ix_(rows[0], rows[1])]), initial=0.0) <= 1e-13


@pytest.fixture
def no_headroom_gate(monkeypatch):
    # the oracle comparison is exact on any truncated basis, so a strong kick
    # at J_max = 10 is a fair test even though it fills the top of the basis
    monkeypatch.setattr(quantum_symtop, "HEADROOM_TOL", math.inf)


class TestAgainstBlockOracle:
    """Pulse-frame engine vs the lab-frame solve/compose/expectation chain."""

    JM = 10

    def _oracle(self, T_K, P1, P2):
        states = thermal_states(BZ, T_K)
        K_lim = max(abs(s[1]) for s in states)
        b = SymTopBasis(self.JM, BZ.i1_over_i3, K_limit=K_lim)
        sol1 = solve_pulse(b, PulseSpec(P=P1, p=(1.0, 0, 0)))
        sol2 = solve_pulse(b, PulseSpec(P=P2, p=(1.0, 0, 0)))
        return states, b, sol1, sol2

    def test_alignment_trace(self, no_headroom_gate):
        times = np.array([0.0, 0.004, 0.013, 0.05, 0.21, 0.5, 0.77])
        states, b, sol1, sol0 = self._oracle(0.9, -3.0, 0.0)
        ref = thermal_expectation(compose_two_pulses(sol1, sol0, 0.0, 0.0), b,
                                  "cos2theta", states, times)
        got = alignment_trace(BZ, 0.9, -3.0, times, J_max=self.JM)
        assert np.max(np.abs(got.channels["cos2theta"] - ref)) <= 1e-12

    @pytest.mark.parametrize("dphi", [-math.pi / 4, 0.3])
    def test_delay_curve(self, no_headroom_gate, dphi):
        taus = np.array([0.0, 0.013, 0.05, 0.11, 0.5])
        states, b, sol1, sol2 = self._oracle(0.9, -3.0, -2.0)
        got = delay_curve(BZ, 0.9, -3.0, -2.0, dphi, taus, J_max=self.JM)
        for k, tau in enumerate(taus):
            blocks = compose_two_pulses(sol1, sol2, 2 * math.pi * tau, dphi)
            for name in ("Ly", "L2"):
                ref = thermal_expectation(blocks, b, name, states, [0.0])[0]
                assert abs(got.channels[name][k] - ref) <= 1e-12, (name, tau)


class TestHeadroom:
    def test_alignment_rejects_small_basis(self):
        with pytest.raises(TruncationError, match="after pulse 1"):
            alignment_trace(BZ, 0.9, -4.0, np.linspace(0.0, 0.1, 5), J_max=12)

    def test_delay_curve_rejects_after_second_pulse(self):
        # no first kick: only the post-pulse-2 check can see the overflow
        taus = np.linspace(0.0, 0.1, 11)
        with pytest.raises(TruncationError, match="after pulse 2"):
            delay_curve(BZ, 0.9, 0.0, -4.0, -math.pi / 4, taus, J_max=14)
        with pytest.raises(TruncationError, match="after pulse 1"):
            delay_curve(BZ, 0.9, -4.0, -4.0, -math.pi / 4, taus, J_max=12)

    def test_basis_below_thermal_levels(self):
        with pytest.raises(ParameterError):
            alignment_trace(BZ, 0.9, -1.0, [0.0], J_max=5)

    def test_post_pulse_2_tail_is_exact_on_the_grid(self):
        # at T = 0 the one initial state |0 0 0> is the same in both frames, so
        # the reported tail is the lab-frame band population, maximised over
        # every delay of the output grid; only even J are reachable from it,
        # and an odd J_max puts one at the lower edge of the band
        jm, P, dphi = 21, -2.0, -math.pi / 4
        taus = np.linspace(0.0, 0.2, 41)
        got = delay_curve(BZ, 0.0, P, P, dphi, taus, J_max=jm).meta
        b = SymTopBasis(jm, BZ.i1_over_i3, K_limit=0)
        sol = solve_pulse(b, PulseSpec(P=P, p=(1.0, 0, 0)), keys=[(0, 0)])
        idx = b.block_indices(0, 0)
        band = b.J[idx] > jm - quantum_symtop.HEADROOM_BAND
        pops = [np.sum(np.abs(compose_two_pulses(sol, None, 2 * math.pi * t, dphi)
                              [(0, 0)][0, band]) ** 2) for t in taus]
        assert got["headroom_tail_pulse2"] == pytest.approx(max(pops), rel=1e-6)
        assert 1e-13 < got["headroom_tail_pulse2"] < quantum_symtop.HEADROOM_TOL
        assert got["headroom_tail"] == got["headroom_tail_pulse2"]

    @pytest.mark.parametrize("P", [-1.0, -2.0])
    def test_default_J_max_holds_weak_kicks_at_zero_temperature(self, P):
        # weak equal kicks from |0 0 0> spread furthest relative to 4|P|
        # over the delay grid; the default basis keeps the band empty
        taus = np.arange(0.0, 0.15 + 0.00025, 0.0005)
        got = delay_curve(BZ, 0.0, P, P, -math.pi / 4, taus).meta
        assert got["headroom_tail"] <= quantum_symtop.HEADROOM_TOL
        # the rule leaves strong kicks where 4|P| already dominates
        assert quantum_symtop.default_J_max(4.0, 7) == 33
