import math
import time
import tracemalloc

import numpy as np
import pytest

from propeller_sim import angular, quantum_symtop
from oracles import cos2beta_tables, lm_index, matrix_of, symtop_d2_element
from propeller_sim.angular import wigner3j, wigner3j_array, wigner_d_half_pi
from propeller_sim.core import (ParameterError, PulseSpec, TruncationError, benzene,
                                nitrogen, sigma_th)
from propeller_sim.quantum_linear import LinearBasis, thermal_run
from propeller_sim.quantum_symtop import (SymTopBasis, _pulse_frame_blocks,
                                          alignment_trace, coupling_block,
                                          delay_curve, thermal_levels)
from symtop_oracle import (alignment_block, block_keys, compose_two_pulses,
                           coupling_matrix, embed, solve_pulse, thermal_expectation,
                           thermal_rows, thermal_states)

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
        lin = matrix_of(lb, cos2beta_tables(lb, (1.0, 0.0, 0.0)))
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

    def test_room_temperature_benzene_stays_under_the_j_limit(self):
        # the sum runs past J = 250 to keep J <= 151
        levels, trunc = thermal_levels(BZ, 300.0)
        assert max(J for J, _, _ in levels) == 151 and trunc < 1e-4

    def test_j_limit_applies_to_the_kept_levels(self):
        # at 500 K the sum runs past J = THERMAL_J_LIMIT to keep J <= 195
        levels, trunc = thermal_levels(BZ, 500.0)
        assert max(J for J, _, _ in levels) == 195 and len(levels) == 12100
        assert trunc < 1e-4

    @pytest.mark.parametrize("T_K", [1200.0, 1e9])
    def test_levels_above_the_j_limit_are_rejected_quickly(self, T_K):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="above J=300"):
            thermal_levels(BZ, T_K)
        assert time.perf_counter() - start < 1.0

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

    def test_alignment_trace_contracts_per_m_block(self):
        # one (n, n) copy of (1 + Omega[m0])/3 per thermal state peaked at
        # 10.6 MiB here (14,322 states, J_max 44); one per m block needs 1.9 MiB
        tracemalloc.start()
        try:
            alignment_trace(BZ, 10.0, -1.0, [0.0, 0.01, 0.02])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_delay_curve_memory_at_5K(self):
        # pulse 2 in closed form keeps no (m, state, J) stack: the 5 K curve
        # peaked at 1.1 MiB here, where the pulse-2 tilt of every state peaked
        # at 15.8 MiB (and at 22.4 MiB as one stack)
        taus = np.linspace(0.0, 0.15, 30)
        tracemalloc.start()
        try:
            delay_curve(BZ, 5.0, -1.0, -1.0, -math.pi / 4, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 2 ** 20

    def test_pulse1_pass_is_bounded_before_it_is_allocated(self, monkeypatch):
        # at 0.9 K and P = -1 (J_max = 25) the largest K is 0: Omega on 28
        # blocks of 28 x 28, and the 21 mirrored states' 26 amplitudes twice.
        # A budget one byte short rejects both functions before the pass
        # allocates; at the warmest temperature thermal_levels accepts the
        # same count reaches 476 MiB, over the real budget
        levels, J_max, _ = quantum_symtop._thermal_setup(BZ, 0.9, (-1.0,), None)
        need = 8 * 28 ** 3 + 2 * 16 * 21 * 26
        assert J_max == 25 and quantum_symtop._pass_bytes(levels, J_max) == (need, 0)
        monkeypatch.setattr(quantum_symtop, "STATE_BATCH_BYTES", need)
        alignment_trace(BZ, 0.9, -1.0, [0.0])
        monkeypatch.setattr(quantum_symtop, "STATE_BATCH_BYTES", need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="pulse-1 pass needs 0 MiB at K=0"):
                alignment_trace(BZ, 0.9, -1.0, [0.0])
            with pytest.raises(ParameterError, match="over STATE_BATCH_BYTES"):
                delay_curve(BZ, 0.9, -1.0, -1.0, -math.pi / 4, [0.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 17

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


class TestOnePass:
    """alignment_trace is the pulse-1 pass alone, and delay_curve's cos2theta
    is the same pass's alignment at each delay."""

    def test_delay_curve_alignment_is_the_trace(self, benzene_quantum_scans):
        # P1 = P2 = -1, -3, -10 on one grid: the same basis, the same bits,
        # so the acceptance criteria read the curves' cos2theta
        for P, curve in benzene_quantum_scans.items():
            trace = alignment_trace(BZ, 0.9, P, curve.grid)
            assert curve.meta["J_max"] == trace.meta["J_max"]
            assert np.array_equal(curve.grid, trace.grid)
            assert curve.channels["cos2theta"].tobytes() == trace.channels["cos2theta"].tobytes()

    def test_stronger_second_pulse_moves_the_alignment_by_rounding(self):
        # |P2| > |P1| widens the curve's basis past the one pulse 1 needs
        taus = np.arange(0.0, 0.15 + 0.00025, 0.0005)
        curve = delay_curve(BZ, 0.9, -2.0, -6.0, -math.pi / 4, taus)
        trace = alignment_trace(BZ, 0.9, -2.0, taus)
        assert curve.meta["J_max"] > trace.meta["J_max"]
        ref = trace.channels["cos2theta"]
        assert np.max(np.abs(curve.channels["cos2theta"] - ref)) <= 1e-13 * np.max(ref)


class TestAdditionTheorem:
    """delay_curve's pulse 2 from pulse 1's moments: the mixture is symmetric
    about p1, so P_l(cos) about p2 averages to P_l(cos dphi) P_l(cos theta)."""

    @pytest.mark.parametrize("T_K", [0.9, 5.0])
    @pytest.mark.parametrize("dphi", [-math.pi / 4, 0.3])
    def test_ly_is_the_kick_times_the_alignment(self, T_K, dphi):
        # Ly = P2 sin(2 dphi) <P_2(cos theta)> as pulse 2 fires, read on the
        # curve's own cos2theta channel
        P2, taus = -3.0, np.linspace(0.0, 0.15, 61)
        run = delay_curve(BZ, T_K, -2.0, P2, dphi, taus)
        ref = P2 * math.sin(2.0 * dphi) * (3.0 * run.channels["cos2theta"] - 1.0) / 2.0
        assert np.max(np.abs(run.channels["Ly"] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("T_K, P1", [(0.9, -3.0), (5.0, -2.0)])
    def test_no_second_pulse_keeps_the_pulse1_j2(self, T_K, P1):
        # with P2 = 0, L2 is <J^2> after pulse 1 at every delay: the thermal
        # <J^2> plus 4 P1^2 (<cos^2> - <cos^4>) = 8 P1^2 / 15 of the isotropic
        # mixture, U^dag J^2 U for U = e^{i P1 cos^2}
        L2 = delay_curve(BZ, T_K, P1, 0.0, 0.3, np.linspace(0.0, 0.15, 61)).channels["L2"]
        levels, _ = thermal_levels(BZ, T_K)
        ref = sum((2 * J + 1) * (2 if Ka else 1) * w * J * (J + 1.0) for J, Ka, w in levels)
        ref += 8.0 * P1 * P1 / 15.0
        assert np.ptp(L2) == 0.0
        assert abs(L2[0] - ref) <= 1e-12 * ref


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

    def _oracle(self, T_K, P1, P2, pad=0):
        """Pulse 1 on the engine's basis; pulse 2 on a basis pad levels larger."""
        states = thermal_states(BZ, T_K)
        K_lim = max(abs(s[1]) for s in states)
        b = SymTopBasis(self.JM, BZ.i1_over_i3, K_limit=K_lim)
        padded = SymTopBasis(self.JM + pad, BZ.i1_over_i3, K_limit=K_lim)
        sol1 = embed(solve_pulse(b, PulseSpec(P=P1, p=(1.0, 0, 0))), padded)
        sol2 = solve_pulse(padded, PulseSpec(P=P2, p=(1.0, 0, 0)))
        return states, padded, sol1, sol2

    def test_alignment_trace(self, no_headroom_gate):
        times = np.array([0.0, 0.004, 0.013, 0.05, 0.21, 0.5, 0.77])
        states, b, sol1, sol0 = self._oracle(0.9, -3.0, 0.0)
        blocks = compose_two_pulses(sol1, sol0, 0.0, 0.0, thermal_rows(b, states))
        ref = thermal_expectation(blocks, b, "cos2theta", states, times)
        got = alignment_trace(BZ, 0.9, -3.0, times, J_max=self.JM)
        assert np.max(np.abs(got.channels["cos2theta"] - ref)) <= 1e-12

    @pytest.mark.parametrize("dphi", [-math.pi / 4, 0.3])
    def test_delay_curve(self, no_headroom_gate, dphi):
        taus = np.array([0.0, 0.013, 0.05, 0.11, 0.5])
        # the engine's pulse 2 is exact on its J_max basis, so the oracle's
        # second kick runs on a basis padded until the band it fills stays empty
        states, b, sol1, sol2 = self._oracle(0.9, -3.0, -2.0, pad=12)
        got = delay_curve(BZ, 0.9, -3.0, -2.0, dphi, taus, J_max=self.JM)
        rows = thermal_rows(b, states)
        for k, tau in enumerate(taus):
            blocks = compose_two_pulses(sol1, sol2, 2 * math.pi * tau, dphi, rows)
            for name in ("Ly", "L2"):
                ref = thermal_expectation(blocks, b, name, states, [0.0])[0]
                assert abs(got.channels[name][k] - ref) <= 1e-12, (name, tau)


class TestHeisenbergKick:
    """delay_curve applies pulse 2 to the observables, U = e^{iP c^2}:
    U^dag J_y U = J_y + iP [J_y, c^2] and U^dag J^2 U = J^2 + iP [J^2, c^2]
    + 4P^2 (c^2 - c^4), with c^2 = cos^2 about p2."""

    @staticmethod
    def _explicit(states, jm, jp, P2, dphi, taus):
        """Sum_s w_s <J_y> and <J^2> after free flight and an eigh kick on J <= jp."""
        out = np.zeros((2, len(taus)))
        rot = list(angular.shell_rotations(jm, 0.0, dphi))
        for K, (m0, w, psi) in states.items():
            Js = np.arange(K, jp + 1)
            # amplitudes phi[s, J, m + jp] in pulse 2's frame, <J m|D^dagger|J m0>
            phi = np.zeros((len(w), len(Js), 2 * jp + 1), dtype=complex)
            for i, J in enumerate(range(K, jm + 1)):
                on = m0 <= J
                phi[on, i, jp - J:jp + J + 1] = psi[on, i, None] * np.conj(rot[J][m0[on] + J])
            # free flight to each delay, (tau, s, J, m), then the kick on each m block
            phase = np.exp(-1j * np.outer(2 * math.pi * taus, Js * (Js + 1.0) / 2.0))
            phi = phase[:, None, :, None] * phi
            omega = _pulse_frame_blocks(jp, K)
            S = (-1.0) ** Js
            for m in range(-jp, jp + 1):
                lo = max(abs(m) - K, 0)
                blk = omega[m] if m >= 0 else S[:, None] * omega[-m] * S
                lam, W = np.linalg.eigh(blk[lo:, lo:])
                U = (W * np.exp(1j * (P2 / 3.0) * lam)) @ W.T
                phi[:, :, lo:, m + jp] = phi[:, :, lo:, m + jp] @ U.T
            m = np.arange(-jp, jp)
            # <J m|J_y|J m+1> = (i/2) sqrt(J(J+1) - m(m+1))
            jy = 0.5j * np.sqrt(np.clip(Js[:, None] * (Js[:, None] + 1.0) - m * (m + 1), 0, None))
            out[0] += 2.0 * np.einsum("tsjm,jm,s->t", np.conj(phi[..., :-1]) * phi[..., 1:],
                                      jy, w).real
            out[1] += np.einsum("tsjm,j,s->t", np.abs(phi) ** 2, Js * (Js + 1.0), w)
        return out

    @pytest.mark.parametrize("P2, dphi", [(-4.0, -math.pi / 4), (2.5, 0.3)])
    def test_closed_form_matches_explicit_kick(self, monkeypatch, P2, dphi):
        # random pulse-frame states on J <= jm in place of the first kick's;
        # the explicit kick runs on a basis padded past the band it fills
        jm, jp, n_s = 12, 36, 5
        rng = np.random.default_rng(11)
        states = {}

        def random_states(K, levels, omega, P1):
            m0 = rng.integers(0, max(J for J, _ in levels) + 1, n_s)
            Js = np.arange(K, jm + 1)
            psi = (rng.normal(size=(n_s, len(Js))) + 1j * rng.normal(size=(n_s, len(Js))))
            psi *= Js >= m0[:, None]
            psi /= np.linalg.norm(psi, axis=1)[:, None]
            states[K] = (m0, rng.uniform(0.5, 1.0, n_s), psi)
            return *states[K], 0.0

        monkeypatch.setattr(quantum_symtop, "_first_kick", random_states)
        taus = np.array([0.0, 0.013, 0.21])
        got = delay_curve(BZ, 0.9, 0.0, P2, dphi, taus, J_max=jm)
        ref = self._explicit(states, jm, jp, P2, dphi, taus)
        # at tau = 0 delay_curve writes the Ly symmetry zero of the isotropic
        # thermal mixture it is built for, which these states do not share
        assert got.channels["Ly"][0] == 0.0
        for name, r, rows in zip(("Ly", "L2"), ref, (slice(1, None), slice(None))):
            dev = np.max(np.abs(got.channels[name][rows] - r[rows]))
            assert dev <= 1e-13 * np.max(np.abs(r)), name

    @pytest.mark.parametrize("P", [-1.0, -4.0])
    def test_ly_vanishes_at_zero_delay(self, P):
        # at tau = 0 the two kicks make one kick e^{i f} with f a function of
        # the figure axis alone; its torque r x grad f integrates to zero over
        # the sphere, and the thermal mixture is isotropic, so <J_y> = 0; the
        # beats are integers, so every whole revival repeats tau = 0.  Those
        # rows are written as exact zeros, and their neighbours approach them
        scan = np.arange(0.0, 0.15 + 0.00025, 0.0005)
        # 1, 2 + 1 ulp (whole to within 4 ulp), then 1e-9 T_rev off 0 and 1
        extra = np.array([1.0, np.nextafter(2.0, 3.0), 1e-9, 1.0 - 1e-9, 1.0 + 1e-9])
        run = delay_curve(BZ, 0.9, P, P, -math.pi / 4, np.concatenate([scan, extra]))
        Ly, Ly_norm = run.channels["Ly"], run.channels["Ly_norm"]
        n = len(scan)
        zeros = [0, n, n + 1]
        assert np.all(Ly[zeros] == 0.0) and np.all(Ly_norm[zeros] == 0.0)
        assert np.all(Ly[1:n] != 0.0)
        assert np.max(np.abs(Ly[n + 2:])) <= 1e-6 * np.max(np.abs(Ly))


class TestHeadroom:
    def test_alignment_rejects_small_basis(self):
        with pytest.raises(TruncationError, match="after pulse 1"):
            alignment_trace(BZ, 0.9, -4.0, np.linspace(0.0, 0.1, 5), J_max=12)

    def test_delay_curve_checks_only_the_first_pulse(self):
        # pulse 2 acts on the observables, so with no first kick a basis that
        # the second kick would overfill as a state gives the large-basis
        # curve; Ly vanishes here (one kick on an isotropic mixture), so both
        # channels are judged on L2's column scale
        taus = np.linspace(0.0, 0.1, 11)
        small = delay_curve(BZ, 0.9, 0.0, -4.0, -math.pi / 4, taus, J_max=14)
        large = delay_curve(BZ, 0.9, 0.0, -4.0, -math.pi / 4, taus, J_max=40)
        scale = np.max(np.abs(large.channels["L2"]))
        for name in ("Ly", "L2"):
            assert np.max(np.abs(small.channels[name] - large.channels[name])) <= 1e-13 * scale
        with pytest.raises(TruncationError, match="after pulse 1"):
            delay_curve(BZ, 0.9, -4.0, -4.0, -math.pi / 4, taus, J_max=12)

    def test_basis_below_thermal_levels(self):
        with pytest.raises(ParameterError):
            alignment_trace(BZ, 0.9, -1.0, [0.0], J_max=5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pulses_rejected(self, bad):
        # before the basis rule, which would size J_max from |P|
        for J_max in (None, 12):
            with pytest.raises(ParameterError, match="finite"):
                alignment_trace(BZ, 0.9, bad, [0.0], J_max=J_max)
            for P1, P2, dphi in ((bad, -1.0, 0.5), (-1.0, bad, 0.5), (-1.0, -1.0, bad)):
                with pytest.raises(ParameterError, match="finite"):
                    delay_curve(BZ, 0.9, P1, P2, dphi, [0.0], J_max=J_max)

    def test_post_pulse_2_values_are_exact_on_the_grid(self):
        # at T = 0 the one initial state |0 0 0> is the same in both frames;
        # J_max = 16 is the smallest basis that passes pulse 1, and a second
        # kick on it would move L2 by 1e-11 of its scale.  The engine matches
        # the lab-frame chain with pulse 2 on a padded basis at every delay
        jm, pad, P, dphi = 16, 8, -2.0, -math.pi / 4
        taus = np.linspace(0.0, 0.2, 41)
        got = delay_curve(BZ, 0.0, P, P, dphi, taus, J_max=jm)
        kick = PulseSpec(P=P, p=(1.0, 0, 0))
        padded = SymTopBasis(jm + pad, BZ.i1_over_i3, K_limit=0)
        first = embed(solve_pulse(SymTopBasis(jm, BZ.i1_over_i3, K_limit=0), kick,
                                  keys=[(0, 0)]), padded).blocks[(0, 0)]
        second = solve_pulse(padded, kick, keys=[(0, 0)]).blocks[(0, 0)]
        idx = second.idx
        e, M, J = padded.energies[idx], padded.M[idx], padded.J[idx]
        phase = np.exp(-1j * np.outer(e, 2 * math.pi * taus) + 1j * M[:, None] * dphi)
        pop = np.abs(second.apply(phase * first.U()[:, :1])) ** 2
        for name, ref in (("Ly", M @ pop), ("L2", (J * (J + 1.0)) @ pop)):
            assert np.max(np.abs(got.channels[name] - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("P", [-1.0, -2.0])
    def test_default_J_max_holds_weak_kicks_at_zero_temperature(self, P):
        # weak kicks from |0 0 0> spread furthest relative to 4|P|; the
        # default basis keeps the band empty after pulse 1
        taus = np.arange(0.0, 0.15 + 0.00025, 0.0005)
        got = delay_curve(BZ, 0.0, P, P, -math.pi / 4, taus).meta
        assert got["headroom_tail"] <= quantum_symtop.HEADROOM_TOL
        # the rule leaves strong kicks where 4|P| already dominates
        assert quantum_symtop.default_J_max(4.0, 7) == 33
