import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag, expm
from scipy.special import sph_harm_y

from oracles import (cos2beta_tables, gaunt_table, gaunt_y2, lm_index, matrix_of,
                     nitrogen_spin_weights, observe_grid)
from propeller_sim import angular, quantum_linear, quantum_symtop
from propeller_sim.core import (TWO_PI, ParameterError, ProtocolError, PulseSpec,
                                TruncationError, nitrogen, sigma_th)
from propeller_sim.ensemble import EnsembleConfig, run_protocol, segment_of
from propeller_sim.quantum_linear import LinearBasis, kick_batch, thermal_run
from propeller_sim.quantum_symtop import thermal_levels
from propeller_sim.spectral import accumulate_pattern

Z5 = PulseSpec(P=5.0, p=(0.0, 0.0, 1.0))
# polarizations on, against and across z, and two general tilts
KICK_AXES = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (1, 0.5, 2), (0.3, -1, 0.2)]


def pure(basis, l, m):
    c = np.zeros(basis.size, dtype=complex)
    c[lm_index(l, m)] = 1.0
    return c


def kick(basis, c, pulse):
    """One impulsive kick of a single state, as a one-column batch."""
    return kick_batch(basis, c[:, None], pulse)[:, 0]


def evolve(basis, c, t):
    """Field-free propagation: phases exp(-i l(l+1) t / 2)."""
    return c * np.exp(-1j * basis.energies * t)


def expect(basis, c, name):
    return float(np.real(np.conj(c) @ matrix_of(basis, basis.operator(name)) @ c))


class TestBasis:
    def test_enumeration(self):
        b = LinearBasis(3)
        assert b.size == 16
        assert (b.l[lm_index(2, -1)], b.m[lm_index(2, -1)]) == (2, -1)
        assert b.energies[lm_index(3, 0)] == 6.0

    def test_matrix_element_quadrature_oracle(self):
        # brute-force 2-D quadrature of Y*_{l'm'} (p.r)^2 Y_{lm} for l <= 6: the
        # Gaunt oracle at a tilted p, and the engine's cos^2 theta at p = z
        b = LinearBasis(6)
        tilt = np.array([1.0, 0.5, 2.0])
        tilt /= np.linalg.norm(tilt)
        x, w = np.polynomial.legendre.leggauss(96)
        theta = np.arccos(x)
        n_phi = 128
        phi = np.arange(n_phi) * 2 * math.pi / n_phi
        th_g, ph_g = np.meshgrid(theta, phi, indexing="ij")
        ytab = np.stack([sph_harm_y(int(l), int(m), th_g, ph_g)
                         for l, m in zip(b.l, b.m)])
        scale = 2 * math.pi / n_phi
        for p, op in ((tilt, cos2beta_tables(b, tilt)), ((0.0, 0.0, 1.0), b.op_cos2beta())):
            dots2 = (p[0] * np.sin(th_g) * np.cos(ph_g)
                     + p[1] * np.sin(th_g) * np.sin(ph_g)
                     + p[2] * np.cos(th_g)) ** 2
            mat = matrix_of(b, op)
            for i in range(b.size):
                for j in range(b.size):
                    ref = scale * np.einsum("t,tp->", w,
                                            np.conj(ytab[i]) * dots2 * ytab[j])
                    assert mat[i, j] == pytest.approx(ref, abs=1e-9), (p, i, j)

    def test_rank2_elements_match_scalar_oracle(self):
        # the Gaunt tables against scalar 3j symbols, element by element ...
        b = LinearBasis(8)
        for q in range(-2, 3):
            ref = np.array([[gaunt_y2(int(lp), int(mp), q, int(l), int(m))
                             for l, m in zip(b.l, b.m)] for lp, mp in zip(b.l, b.m)])
            got = matrix_of(b, {q: gaunt_table(b, q)}, hermitian=False)
            assert np.max(np.abs(got - ref)) < 1e-14, q
        # ... and the engine's cos^2 theta, from the K = 0 blocks, against them
        for l_max in (8, 80):
            b = LinearBasis(l_max)
            got, ref = b.op_cos2beta()[0], cos2beta_tables(b, (0.0, 0.0, 1.0))[0]
            assert np.max(np.abs(got - ref)) <= 1e-12, l_max

    def test_hermiticity(self):
        b = LinearBasis(10)
        ops = [cos2beta_tables(b, np.array([1.0, 0, 1.0]) / math.sqrt(2))]
        for op in ops + [b.operator(name) for name in ("cos2theta", "cos2phi", "Ly", "L2")]:
            m = matrix_of(b, op)
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_cos2theta_closed_form(self):
        b = LinearBasis(8)
        m = matrix_of(b, b.op_cos2beta())
        for l in range(9):
            for mm in range(-l, l + 1):
                i = lm_index(l, mm)
                ref = 1 / 3 + (2 / 3) * (l * (l + 1) - 3 * mm * mm) \
                    / ((2 * l - 1) * (2 * l + 3))
                assert m[i, i].real == pytest.approx(ref, abs=1e-12)

    @staticmethod
    def assert_traces_match_dense(b, psi, w):
        # sum_s w_s psi_s(t)^H A psi_s(t) from the dense matrices, at five times
        names = ("cos2theta", "cos2phi", "Ly", "L2")
        traces = accumulate_pattern({name: b.operator(name) for name in names},
                                    psi, b.m_rows, w)
        assert list(traces) == list(names)
        times = np.array([0.0, 0.13, 0.9, 2.4, 5.7])
        for name in names:
            A = matrix_of(b, b.operator(name))
            ref = [np.real(np.einsum("is,ij,js,s->", np.conj(ev), A, ev, w))
                   for ev in (psi * np.exp(-1j * b.energies * t)[:, None] for t in times)]
            assert np.max(np.abs(traces[name].evaluate(times) - ref)) <= 1e-13, name

    def test_accumulate_pattern_matches_dense_trace(self):
        # a random batch kicked by a tilted pulse
        b = LinearBasis(20)
        rng = np.random.default_rng(11)
        psi = rng.normal(size=(b.size, 6)) + 1j * rng.normal(size=(b.size, 6))
        psi[b.l > 5] = 0.0
        psi = kick_batch(b, psi / np.linalg.norm(psi, axis=0), PulseSpec.along(1.5, (1, 0.5, 2)))
        self.assert_traces_match_dense(b, psi, rng.uniform(0.1, 1.0, size=6))

    def test_accumulate_pattern_over_mixed_support(self):
        # columns confined to one m block by a kick along z, columns spread
        # over every m by a tilted kick, and an all-zero column: the products
        # over live states and l >= |m| may drop only exact zeros
        b = LinearBasis(20)
        start = np.zeros((b.size, 4), dtype=complex)
        for k, (l, m) in enumerate([(0, 0), (3, -2), (5, 5), (4, 1)]):
            start[lm_index(l, m), k] = 1.0
        confined = kick_batch(b, start, PulseSpec(P=2.0, p=(0, 0, 1.0)))
        spread = kick_batch(b, start[:, 1:3], PulseSpec.along(1.5, (1, 0.5, 2)))
        psi = np.hstack([confined, spread, np.zeros((b.size, 1))])
        assert [sum(np.any(psi[rows, s] != 0) for rows in b.m_rows)
                for s in range(psi.shape[1])] == [1, 1, 1, 1, 41, 41, 0]
        w = np.random.default_rng(5).uniform(0.1, 1.0, size=psi.shape[1])
        self.assert_traces_match_dense(b, psi, w)
        # J_y couples m to m + 1 only, so the confined columns have no beat in it
        ly = accumulate_pattern({"Ly": b.operator("Ly")}, confined, b.m_rows, w[:4])["Ly"]
        assert ly.distinct_freqs == 0 and not ly.G.any()
        assert ly.time_average == 0.0


class TestFreeEvolution:
    def test_revival_period(self):
        b = LinearBasis(18)
        c = kick(b, pure(b, 0, 0), PulseSpec(P=2.0, p=(0, 0, 1.0)))
        ev = evolve(b, c, 2 * math.pi)
        for name in ("cos2theta", "cos2phi", "Ly", "L2"):
            assert expect(b, ev, name) == pytest.approx(expect(b, c, name), abs=1e-10)

    def test_ground_state_stationary(self):
        b = LinearBasis(4)
        assert evolve(b, pure(b, 0, 0), 0.77)[0] == pytest.approx(1.0)

    def test_composition(self):
        b = LinearBasis(16)
        c = kick(b, pure(b, 1, 1), PulseSpec(P=1.5, p=(0, 0, 1.0)))
        a = evolve(b, evolve(b, c, 0.3), 0.9)
        bb = evolve(b, c, 1.2)
        assert np.allclose(a, bb, atol=1e-14)


class TestSuddenKick:
    def test_zero_strength_identity(self):
        b = LinearBasis(6)
        c = pure(b, 2, 1)
        out = kick(b, c, PulseSpec(P=0.0, p=(0, 0, 1.0)))
        assert np.allclose(out, c, atol=1e-14)

    def test_z_kick_selection_rules(self):
        b = LinearBasis(20)
        out = kick(b, pure(b, 0, 0), PulseSpec(P=3.0, p=(0, 0, 1.0)))
        pops = np.abs(out) ** 2
        populated = pops > 1e-12
        assert np.all(b.m[populated] == 0)
        assert np.all(b.l[populated] % 2 == 0)

    def test_kick_preserves_probability_density_instant(self):
        # exp(iP cos^2 beta) is a pure phase in angle space: every angular
        # observable is unchanged at the kick instant
        b = LinearBasis(24)
        out = kick(b, pure(b, 0, 0), Z5)
        assert expect(b, out, "cos2theta") == pytest.approx(1 / 3, abs=1e-10)
        assert expect(b, out, "cos2phi") == pytest.approx(0.5, abs=1e-10)
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-10)
        # and alignment then builds up to a maximum at finite delay
        fine = [expect(b, evolve(b, out, t), "cos2theta")
                for t in np.linspace(0, 0.6, 121)]
        k = int(np.argmax(fine))
        assert 0 < k < 120
        assert fine[k] > 0.5

    @pytest.mark.parametrize("axis", KICK_AXES)
    def test_kick_matches_dense_expm(self, axis):
        # exp(i P cos^2 beta) itself, global phase included, for both signs of P.
        # cos^2 beta is even under r -> -r, so the dense lab-frame matrix has
        # exact zeros between even and odd l, and expm runs on each parity block
        b = LinearBasis(30)
        cols = [lm_index(l, m) for l, m in ((0, 0), (1, -1), (3, 2), (5, -5), (6, 0))]
        even = b.l % 2 == 0
        for P in (3.0, -2.5):
            pulse = PulseSpec.along(P, axis)
            A = matrix_of(b, cos2beta_tables(b, pulse.p_vec))
            assert not np.any(A[np.ix_(even, ~even)]) and not np.any(A[np.ix_(~even, even)])
            ref = np.zeros_like(A)
            for block in (np.ix_(even, even), np.ix_(~even, ~even)):
                ref[block] = expm(1j * P * A[block])
            got = kick_batch(b, np.eye(b.size, dtype=complex)[:, cols], pulse)
            assert np.max(np.abs(got - ref[:, cols])) <= 1e-13, P

    def test_shell_rotations_carry_cos2theta_to_cos2beta(self):
        b = LinearBasis(12)
        c2 = matrix_of(b, b.op_cos2beta())
        for axis in KICK_AXES:
            p = PulseSpec.along(1.0, axis).p_vec
            beta, alpha = math.atan2(math.hypot(p[0], p[1]), p[2]), math.atan2(p[1], p[0])
            D = block_diag(*angular.shell_rotations(b.l_max, alpha, beta))
            assert np.max(np.abs(D @ D.conj().T - np.eye(b.size))) <= 1e-13, axis
            ref = matrix_of(b, cos2beta_tables(b, p))
            assert np.max(np.abs(D @ c2 @ D.conj().T - ref)) <= 1e-13, axis

    def test_tilted_kick_couples_m(self):
        b = LinearBasis(18)
        out = kick(b, pure(b, 0, 0), PulseSpec.along(2.0, (1, 0, 1)))
        ms = set(int(m) for m, pop in zip(b.m, np.abs(out) ** 2) if pop > 1e-10)
        assert ms > {0}

    def test_headroom_error(self):
        b = LinearBasis(6)
        with pytest.raises(TruncationError):
            kick(b, pure(b, 0, 0), Z5)

    def test_equal_kicks_share_one_eigensystem(self, monkeypatch):
        # the K = 0 blocks are built from one 3j table and diagonalised once
        # per basis, for equal and for unequal kick strengths alike
        calls = {"wigner3j_array": 0, "eigh": 0}
        w3j, eigh = angular.wigner3j_array, np.linalg.eigh

        def counting_w3j(*args):
            calls["wigner3j_array"] += 1
            return w3j(*args)

        def counting_eigh(a, *args, **kwargs):
            calls["eigh"] += 1
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(angular, "wigner3j_array", counting_w3j)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for P2 in (2.0, 3.0):
            calls.update(wigner3j_array=0, eigh=0)
            quantum_symtop._rank2_table.cache_clear()
            pulses = [PulseSpec(P=2.0, p=(0, 0, 1.0)),
                      PulseSpec.along(P2, (1, 0, 1), t_apply=0.03)]
            ts = thermal_run(nitrogen(), 10.0, pulses, t_max=0.1, dt_out=0.05, l_max=26)
            assert calls["eigh"] == 27 == ts.meta["n_blocks"], P2
            assert calls["wigner3j_array"] <= 3, P2
        quantum_symtop._rank2_table.cache_clear()

    def test_unitarity_long_run(self):
        b = LinearBasis(64)
        c = pure(b, 1, 0)
        for _ in range(10):
            c = evolve(b, kick(b, c, PulseSpec(P=1.5, p=(0, 0, 1.0))), 2 * math.pi)
        assert abs(np.vdot(c, c).real - 1.0) < 1e-8


class TestObserve:
    def test_ground_state(self):
        b = LinearBasis(6)
        c = pure(b, 0, 0)
        assert expect(b, c, "cos2theta") == pytest.approx(1 / 3)
        assert expect(b, c, "cos2phi") == pytest.approx(0.5)
        assert expect(b, c, "L2") == 0.0

    def test_px_state_hand_values(self):
        # (|1,1> - |1,-1>)/sqrt(2) has |psi|^2 ~ sin^2(theta) cos^2(phi):
        # <cos^2 theta> = 1/5 and <cos^2 phi> = 3/4 by direct integration
        b = LinearBasis(6)
        c = np.zeros(b.size, dtype=complex)
        c[lm_index(1, 1)] = 1 / math.sqrt(2)
        c[lm_index(1, -1)] = -1 / math.sqrt(2)
        assert expect(b, c, "cos2theta") == pytest.approx(0.2, abs=1e-12)
        assert expect(b, c, "cos2phi") == pytest.approx(0.75, abs=1e-12)

    def test_grid_path_matches_matrix_path(self):
        b = LinearBasis(16)
        c = evolve(b, kick(b, pure(b, 1, -1), PulseSpec.along(1.5, (1, 0, 2))), 0.37)
        got_grid = observe_grid(b, c, lambda th, ph: np.cos(th) ** 2 * np.ones_like(ph))
        assert got_grid == pytest.approx(expect(b, c, "cos2theta"), abs=1e-6)
        got_phi = observe_grid(b, c, lambda th, ph: np.cos(ph) ** 2 * np.ones_like(th))
        assert got_phi == pytest.approx(expect(b, c, "cos2phi"), abs=1e-6)
        assert observe_grid(b, c, lambda th, ph: np.ones_like(th) * np.ones_like(ph)) == \
            pytest.approx(1.0, abs=1e-8)


class TestThermal:
    # N2 is the K = 0 case of the symmetric top's thermal level list
    def test_zero_temperature_single_state(self):
        levels, trunc = thermal_levels(nitrogen(), 0.0)
        assert levels == [(0, 0, 1.0)] and trunc == 0.0

    def test_weight_normalization(self):
        levels, trunc = thermal_levels(nitrogen(), 50.0)
        assert sigma_th(nitrogen(), 50.0) == pytest.approx(2.9475, abs=1e-4)
        assert [(J, Ka) for J, Ka, _ in levels] == [(J, 0) for J in range(len(levels))]
        total = sum((2 * J + 1) * w for J, _, w in levels)
        # included states are renormalized; the dropped fraction is reported
        assert total == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= trunc < 1e-4

    def test_spin_weight_hook(self):
        levels, _ = thermal_levels(nitrogen(), 20.0, nitrogen_spin_weights)
        s2 = sigma_th(nitrogen(), 20.0) ** 2
        assert levels[0][2] / levels[1][2] == pytest.approx(2.0 * math.exp(1.0 / s2), rel=1e-12)

    def test_basis_below_thermal_levels(self):
        # the thermal list at 50 K reaches l = 12; a basis that drops the top
        # levels is rejected, not truncated
        with pytest.raises(ParameterError, match="thermal J=12"):
            thermal_run(nitrogen(), 50.0, [Z5], t_max=0.1, dt_out=0.05, l_max=11)

    def test_fig2_run_holds_about_two_state_batches(self):
        # fig2's run: 2,025 x 91 mirrored states, 2.8 MiB a batch.  All 169
        # columns, a dense kick per strength and phase tables over all 2,501
        # output times took the tracemalloc peak to 25.2 MiB; a padded (m, l)
        # stack per segment and a phase copy per flight, to 44.5 MiB before
        pulses = [Z5, PulseSpec.along(5.0, (1, 0, 1), t_apply=0.0196)]
        tracemalloc.start()
        try:
            ts = thermal_run(nitrogen(), 50.0, pulses, t_max=5.0, dt_out=0.002)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ts.meta["n_columns"] == 91 and peak < 16 * 2 ** 20

    def test_mirror_matches_the_run_turned_out_of_the_xz_plane(self):
        # fig2's pulses turned by 90 degrees about z: pulse 2 then has p_y != 0,
        # so every column is carried.  The turn leaves cos^2 theta and J^2
        # alone, maps cos^2 phi to 1 - cos^2 phi and J_y to J_x, which the
        # xz-plane mirror makes zero
        a = math.radians(45.0)
        runs = [thermal_run(nitrogen(), 50.0,
                            [Z5, PulseSpec.along(5.0, p2, t_apply=0.0196)],
                            t_max=5.0, dt_out=0.002)
                for p2 in ((math.sin(a), 0.0, math.cos(a)), (0.0, math.sin(a), math.cos(a)))]
        mirrored, turned = runs
        assert (mirrored.meta["n_columns"], turned.meta["n_columns"]) == (91, 169)
        assert mirrored.meta["n_initial_states"] == turned.meta["n_initial_states"] == 169
        avg_m, avg_t = mirrored.meta["revival_avg"], turned.meta["revival_avg"]
        for name in ("cos2theta", "L2"):
            ref = mirrored.channels[name]
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(turned.channels[name] - ref)) <= 1e-13 * scale, name
            assert abs(avg_t[name] - avg_m[name]) <= 1e-13 * scale, name
        assert np.max(np.abs(turned.channels["cos2phi"] - (1.0 - mirrored.channels["cos2phi"]))) \
            <= 1e-13
        assert abs(avg_t["cos2phi"] - (1.0 - avg_m["cos2phi"])) <= 1e-13
        ly_max = np.max(np.abs(mirrored.channels["Ly"]))
        assert ly_max > 1.0
        assert np.max(np.abs(turned.channels["Ly"])) <= 1e-13 * ly_max
        assert abs(avg_t["Ly"]) <= 1e-13 * ly_max

    def test_batch_budget_counts_the_columns_carried(self, monkeypatch):
        # N2 at 10 K keeps l0 <= 5: 21 mirrored columns of 36.  A budget of
        # exactly the 729 x 21 mirrored batch admits the xz-plane run and
        # rejects the same run turned out of that plane
        monkeypatch.setattr(quantum_linear, "STATE_BATCH_BYTES", 729 * 21 * 16)

        def run(p):
            return thermal_run(nitrogen(), 10.0, [PulseSpec.along(2.0, p)],
                               t_max=0.02, dt_out=0.01, l_max=26)

        assert run((1, 0, 1)).meta["n_columns"] == 21
        with pytest.raises(ParameterError, match="729 x 36 state batch"):
            run((0, 1, 1))

    def test_no_pulse_stays_isotropic(self):
        ts = thermal_run(nitrogen(), 30.0, [PulseSpec(P=0.0, p=(0, 0, 1.0))],
                         t_max=0.5, dt_out=0.05, l_max=14)
        assert np.allclose(ts.channels["cos2theta"], 1 / 3, atol=1e-8)
        assert np.allclose(ts.channels["cos2phi"], 0.5, atol=1e-8)
        assert np.allclose(ts.channels["Ly"], 0.0, atol=1e-8)

    @pytest.mark.parametrize("t1, delay", [(0.0, 0.03), (0.05, 0.03),
                                           (0.0, "auto"), (0.05, "auto")],
                             ids=["0.0", "0.05", "0.0-auto", "0.05-auto"])
    def test_traces_only_for_segments_on_the_grid(self, monkeypatch, t1, delay):
        # one accumulate_pattern call builds a segment's four traces.  Pulse 1
        # at t = 0 leaves segment 0 without a grid time, so its call is
        # skipped; at t1 > 0 the pre-pulse times still read it.  An auto
        # delay scans the traces that the segment after pulse 1 records, so
        # it makes no call of its own
        calls = []
        original = quantum_linear.accumulate_pattern

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(quantum_linear, "accumulate_pattern", counting)
        pulses = [PulseSpec(P=2.0, p=(0, 0, 1.0), t_apply=t1),
                  PulseSpec.along(2.0, (1, 0, 1),
                                  t_apply=delay if delay == "auto" else t1 + delay)]
        ts = thermal_run(nitrogen(), 20.0, pulses, t_max=0.2, dt_out=0.01, l_max=26)
        assert ts.meta["pulse_times_trev"][1] > t1 + 0.01     # a grid time between the pulses
        assert len(calls) == (2 if t1 == 0.0 else 3)
        pre = ts.grid < t1 - 1e-9
        assert pre.sum() == round(t1 / 0.01)
        assert np.allclose(ts.channels["cos2theta"][pre], 1 / 3, rtol=0, atol=1e-12)
        assert np.allclose(ts.channels["cos2phi"][pre], 0.5, rtol=0, atol=1e-12)
        assert np.all(ts.channels["Ly"][pre] == 0.0)
        after = ts.grid > t1 + 1e-9          # the kick itself leaves cos^2 theta alone
        assert np.all(np.abs(ts.channels["cos2theta"][after] - 1 / 3) > 1e-3)

    def test_grid_time_tied_with_a_pulse_sees_its_kick(self):
        # dt_out = 2^-7 and the second pulse at 3 dt_out: grid time 3 is the
        # pulse time exactly, and both engines put it after the kick
        dt = 2.0 ** -7
        pulses = (PulseSpec(P=2.0, p=(0, 0, 1.0)),
                  PulseSpec.along(2.0, (1, 0, 1), t_apply=3 * dt))
        times = np.arange(6) * dt * TWO_PI
        assert segment_of([0.0, times[3]], times).tolist() == [1, 1, 1, 2, 2, 2]
        quantum = thermal_run(nitrogen(), 10.0, pulses, t_max=5 * dt, dt_out=dt, l_max=26)
        classical = run_protocol(EnsembleConfig(mol=nitrogen(), T_K=10.0, n_traj=500,
                                                seed=3, pulses=pulses, t_max=5 * dt,
                                                dt_out=dt))
        for ts in (quantum, classical):
            ly = ts.channels["Ly"]
            assert ly[3] == pytest.approx(ly[4], rel=0, abs=1e-12)
            assert abs(ly[3] - ly[2]) > 1e-2

    def test_revival_periodicity_of_traces(self):
        ts = thermal_run(nitrogen(), 20.0,
                         [PulseSpec(P=2.0, p=(0, 0, 1.0)),
                          PulseSpec.along(2.0, (1, 0, 1), t_apply=0.02)],
                         t_max=2.2, dt_out=0.01)
        g = ts.grid
        one_rev = np.isclose(g[None, :] - g[:, None], 1.0, atol=1e-9)
        i, j = np.nonzero(one_rev & (g[:, None] >= 0.05))
        assert len(i) > 50
        for name in ("cos2theta", "cos2phi", "Ly"):
            assert np.max(np.abs(ts.channels[name][j] - ts.channels[name][i])) < 1e-8

    def test_truncation_doubling(self):
        pulses = [PulseSpec(P=2.0, p=(0, 0, 1.0)),
                  PulseSpec.along(2.0, (1, 0, 1), t_apply=0.03)]
        a = thermal_run(nitrogen(), 10.0, pulses, t_max=0.2, dt_out=0.02, l_max=26)
        b = thermal_run(nitrogen(), 10.0, pulses, t_max=0.2, dt_out=0.02, l_max=52)
        for name in ("cos2theta", "cos2phi", "Ly"):
            assert np.max(np.abs(a.channels[name] - b.channels[name])) < 1e-6
        for name, val in a.meta["revival_avg"].items():
            assert val == pytest.approx(b.meta["revival_avg"][name], abs=1e-6)

    def test_auto_delay_close_to_classical(self, nitrogen_fig2_classical):
        pulses = [PulseSpec(P=5.0, p=(0, 0, 1.0)),
                  PulseSpec.along(5.0, (1, 0, 1), t_apply="auto")]
        ts = thermal_run(nitrogen(), 50.0, pulses, t_max=0.5, dt_out=0.05)
        d_cl = nitrogen_fig2_classical.meta["auto_delay_trev"]
        assert ts.meta["auto_delay_trev"] == pytest.approx(d_cl, abs=0.002)

    @pytest.mark.parametrize("engine", ["classical", "quantum"])
    def test_auto_delay_window_ends_at_t_max(self, engine):
        # pulse 1 at 0.30 T_rev leaves a 0.01 T_rev window before t_max = 0.31,
        # which ends before the first alignment maximum (about 0.02 T_rev on)
        pulses = [PulseSpec(P=5.0, p=(0, 0, 1.0), t_apply=0.30),
                  PulseSpec.along(5.0, (1, 0, 1), t_apply="auto")]
        with pytest.raises(ProtocolError, match=r"window \[0, 0\.01\] T_rev"):
            if engine == "quantum":
                thermal_run(nitrogen(), 50.0, pulses, t_max=0.31, dt_out=0.01)
            else:
                run_protocol(EnsembleConfig(mol=nitrogen(), T_K=50.0, n_traj=2000, seed=1,
                                            pulses=pulses, t_max=0.31, dt_out=0.01))

    @pytest.mark.parametrize("engine", ["classical", "quantum"])
    @pytest.mark.parametrize("times", [(), ("auto", 0.1), (0.0, 0.1, "auto"), (0.1, 0.05)],
                             ids=["empty", "auto_first", "auto_third", "unsorted"])
    def test_both_engines_reject_the_same_pulse_lists(self, engine, times):
        # one rule for both engines: at least one pulse, the first at a fixed
        # time, auto only on the second, fixed times non-decreasing
        pulses = [PulseSpec(P=2.0, p=(0, 0, 1.0), t_apply=t) for t in times]
        with pytest.raises(ParameterError):
            if engine == "quantum":
                thermal_run(nitrogen(), 10.0, pulses, t_max=0.2, dt_out=0.01)
            else:
                EnsembleConfig(mol=nitrogen(), T_K=10.0, n_traj=10, seed=1,
                               pulses=pulses, t_max=0.2, dt_out=0.01)
