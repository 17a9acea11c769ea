import math
import statistics

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import chi2

from oracles import kicked_means, positions_at
from propeller_sim import classical_symtop, ensemble
from propeller_sim.classical_symtop import SymTopEnsemble
from propeller_sim.core import (TWO_PI, ParameterError, ProtocolError, PulseSpec, benzene,
                                nitrogen, sigma_th)
from propeller_sim.ensemble import (CHUNK, POLE_SIN2, SCAN_STEP, EnsembleConfig,
                                    delay_scan, final_states, find_alignment_extremum,
                                    first_local_extremum,
                                    linear_ensemble_from_uniforms, mean_cos2theta, ndtri,
                                    orientation_from_uniforms, parabolic_vertex,
                                    record_protocol,
                                    run_protocol, symtop_ensemble_from_uniforms,
                                    tangent_frame, uniform_matrix)

N2, BZ = nitrogen(), benzene()


class TestOrientationSampler:
    def test_transformation_endpoints(self):
        # theta = 2 arcsin(sqrt(w)): w = 0 -> 0, w = 1/2 -> pi/2
        th, ph = (2 * np.arcsin(np.sqrt(np.array([0.0, 0.5]))),
                  2 * math.pi * np.array([0.0, 0.5]))
        assert th[0] == 0.0
        assert th[1] == pytest.approx(math.pi / 2, abs=1e-14)
        assert ph[1] == pytest.approx(math.pi)

    def test_cos2_moment(self):
        u = uniform_matrix(1, 100_000, 2)
        th, ph = orientation_from_uniforms(u[:, 0], u[:, 1])
        c2 = np.cos(th) ** 2
        se = c2.std() / math.sqrt(len(c2))
        assert abs(c2.mean() - 1.0 / 3.0) < 3 * se


class TestNdtri:
    # AS241 switches branch at |p - 1/2| = 0.425 and, in the tails, at
    # r = sqrt(-log min(p, 1 - p)) = 5; P holds points on both sides of each
    # switch, the sampler's extreme uniforms (2^-54 after its guard, and
    # 1 - 2^-53) and a random sweep
    CENTRAL_EDGE = [np.nextafter(p, p + d) for p in (0.075, 0.925) for d in (-1.0, 0.0, 1.0)]
    TAIL_EDGE = [f(math.exp(-(5.0 + d) ** 2)) for f in (lambda x: x, lambda x: 1.0 - x)
                 for d in (-1e-5, 1e-5)]
    P = np.concatenate([[2.0 ** -54, 1.0 - 2.0 ** -53, 0.5], CENTRAL_EDGE, TAIL_EDGE,
                        uniform_matrix(5, 20_000, 1)[:, 0]])

    @staticmethod
    def _ulps(got, ref):
        return np.max(np.abs(got - ref) / np.spacing(np.abs(ref)))

    def test_points_straddle_the_branch_switches(self):
        central = (np.abs(np.array(self.CENTRAL_EDGE) - 0.5) <= 0.425).reshape(2, 3)
        p = np.array(self.TAIL_EDGE)
        near = np.sqrt(-np.log(np.minimum(p, 1.0 - p))) <= 5.0
        assert central.any(axis=1).all() and not central.all(axis=1).any()
        assert near.tolist() == [True, False, True, False]

    def test_against_stdlib(self):
        ref = np.array([statistics.NormalDist().inv_cdf(p) for p in self.P])
        assert self._ulps(ndtri(self.P), ref) <= 8

    def test_against_scipy(self):
        assert self._ulps(ndtri(self.P), scipy_ndtri(self.P)) <= 8

    def test_zero_uniforms_give_finite_rotors(self):
        # a row of zero uniforms reaches the quantile through the 2^-54 guard
        for r, L in (linear_ensemble_from_uniforms(np.zeros((1, 4)), 2.0),
                     symtop_ensemble_from_uniforms(np.zeros((1, 5)), 1.5, 1.5)):
            assert np.all(np.isfinite(r)) and np.all(np.isfinite(L)) and np.any(L)


def _velocity_components(u, r, L):
    """(v_theta, v_phi) of the rotors (r, L) drawn from the uniforms u."""
    e_th, e_ph = tangent_frame(*orientation_from_uniforms(u[:, 0], u[:, 1]))
    v = np.cross(L, r)
    return np.einsum("ij,ij->i", v, e_th), np.einsum("ij,ij->i", v, e_ph)


class TestVelocitySampler:
    def test_zero_width(self):
        u = uniform_matrix(2, 100, 4)
        r, L = linear_ensemble_from_uniforms(u, 0.0)
        vt, vp = _velocity_components(u, r, L)
        assert np.all(L == 0) and np.all(vt == 0) and np.all(vp == 0)

    def test_nitrogen_variance(self):
        sigma = sigma_th(N2, 50.0)
        u = uniform_matrix(3, 100_000, 4)
        vt, _ = _velocity_components(u, *linear_ensemble_from_uniforms(u, sigma))
        var = vt ** 2
        se = var.std() / math.sqrt(len(var))
        assert abs(var.mean() - sigma ** 2) < 3 * se
        assert sigma ** 2 == pytest.approx(8.69, abs=0.05)

    def test_tangency(self):
        # the linear sampler's rotors are the L . r = 0 tops
        u = uniform_matrix(7, 5000, 4)
        r, L = linear_ensemble_from_uniforms(u, 2.0)
        assert np.max(np.abs(np.einsum("ij,ij->i", r, L))) < 1e-12
        assert np.max(np.abs(np.linalg.norm(r, axis=1) - 1)) < 1e-12


class TestSymtopSampler:
    def test_zero_temperature(self):
        r, L = symtop_ensemble_from_uniforms(uniform_matrix(4, 50, 5), 0.0, 0.0)
        assert np.all(L == 0)
        assert np.max(np.abs(np.linalg.norm(r, axis=1) - 1)) < 1e-12

    def test_benzene_second_moments(self):
        s1, s3 = sigma_th(BZ, 0.9)
        r, L = symtop_ensemble_from_uniforms(uniform_matrix(5, 100_000, 5), s1, s3)
        L3 = np.einsum("ij,ij->i", L, r)
        Lpar2 = np.einsum("ij,ij->i", L, L) - L3 ** 2
        se_par = Lpar2.std() / math.sqrt(len(Lpar2))
        se_3 = (L3 ** 2).std() / math.sqrt(len(L3))
        assert abs(Lpar2.mean() - 2 * s1 ** 2) < 3 * se_par
        assert abs((L3 ** 2).mean() - s3 ** 2) < 3 * se_3
        assert 2 * s1 ** 2 == pytest.approx(3.33, abs=0.04)
        assert s3 ** 2 == pytest.approx(3.31, abs=0.04)

    def test_axis_marginal_isotropic(self):
        # chi^2 on 12 x 24 equal-area bins (uniform z-bands x phi sectors)
        s1, s3 = sigma_th(BZ, 0.9)
        u = uniform_matrix(11, 100_000, 5)
        r, _ = symtop_ensemble_from_uniforms(u, s1, s3)
        zi = np.clip(((r[:, 2] + 1) / 2 * 12).astype(int), 0, 11)
        pi_ = np.clip(((np.arctan2(r[:, 1], r[:, 0]) + math.pi)
                       / (2 * math.pi) * 24).astype(int), 0, 23)
        counts = np.bincount(zi * 24 + pi_, minlength=288)
        expected = len(r) / 288
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.999, 287)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=500, seed=99,
                             pulses=(PulseSpec(P=5.0, p=(0, 0, 1.0)),
                                     PulseSpec.along(5.0, (1, 0, 1), t_apply="auto")),
                             t_max=0.5, dt_out=0.01)
        a, b = run_protocol(cfg), run_protocol(cfg)
        for name in a.channels:
            assert np.array_equal(a.channels[name], b.channels[name]), name

    def test_sweep_over_strengths_draws_one_sample(self, monkeypatch):
        # a preset sweep repeats (molecule, T, n_traj, seed) with other
        # pulses: one draw serves it, read-only, and a new seed draws anew
        draws = []
        monkeypatch.setattr(ensemble, "uniform_matrix",
                            lambda *args: draws.append(args) or uniform_matrix(*args))
        ensemble._scan_sample.cache_clear()
        scans = [delay_scan(EnsembleConfig(mol=BZ, T_K=0.9, n_traj=300, seed=seed,
                                           pulses=(PulseSpec(P=P, p=(0, 0, 1.0)),
                                                   PulseSpec.along(P, (1, 0, -1)))),
                            np.linspace(0.0, 0.05, 6))
                 for seed, P in ((7, -1.0), (7, -3.0), (8, -3.0))]
        assert draws == [(7, 300, 5), (8, 300, 5)]
        r, L = ensemble._scan_sample(BZ, 0.9, 300, 8)
        assert not (r.flags.writeable or L.flags.writeable)
        assert not np.array_equal(scans[0].channels["Ly"], scans[1].channels["Ly"])

    def test_extension_stability(self):
        # the first rows of the sample matrix do not change when n grows
        small = uniform_matrix(5, 100, 4)
        big = uniform_matrix(5, 1000, 4)
        assert np.array_equal(big[:100], small)

    @pytest.mark.parametrize("mol, T_K", [(N2, 50.0), (BZ, 0.9)], ids=["n2", "benzene"])
    def test_sample_rows_depend_only_on_seed_and_index(self, mol, T_K):
        # the first n molecules are the same, bit for bit, in a larger sample
        r_big, L_big = ensemble._thermal_sample(mol, T_K, 5000, 3)
        for n in (1, 7, 8, 9, 17, 4099):
            r, L = ensemble._thermal_sample(mol, T_K, n, 3)
            assert np.array_equal(r, r_big[:n]) and np.array_equal(L, L_big[:n]), n

    def test_thread_count_invariance(self, monkeypatch):
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=40_000, seed=3,
                             pulses=(PulseSpec(P=5.0, p=(0, 0, 1.0)),),
                             t_max=0.05, dt_out=0.01)
        monkeypatch.setenv("PROPELLER_THREADS", "1")
        a = run_protocol(cfg)
        monkeypatch.setenv("PROPELLER_THREADS", "4")
        b = run_protocol(cfg)
        for name in a.channels:
            assert np.array_equal(a.channels[name], b.channels[name]), name

    def test_propeller_threads_env(self, monkeypatch):
        cfg = EnsembleConfig(mol=N2, T_K=20.0, n_traj=30_000, seed=9,
                             pulses=(PulseSpec(P=3.0, p=(0, 0, 1.0)),),
                             t_max=0.03, dt_out=0.01)
        monkeypatch.delenv("PROPELLER_THREADS", raising=False)
        a = run_protocol(cfg)                       # unset: one thread
        monkeypatch.setenv("PROPELLER_THREADS", "3")
        b = run_protocol(cfg)
        assert (a.meta["free_flight"]["threads"], b.meta["free_flight"]["threads"]) == (1, 2)
        for name in a.channels:
            assert np.array_equal(a.channels[name], b.channels[name]), name


class TestProtocol:
    def test_zero_pulses_stay_isotropic(self):
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=20_000, seed=12,
                             pulses=(PulseSpec(P=0.0, p=(0, 0, 1.0)),),
                             t_max=1.0, dt_out=0.05)
        ts = run_protocol(cfg)
        n = cfg.n_traj
        # 4-standard-error bands around the isotropic values
        assert np.all(np.abs(ts.channels["cos2theta"] - 1 / 3) < 4 * 0.30 / math.sqrt(n))
        assert np.all(np.abs(ts.channels["cos2phi"] - 0.5) < 4 * 0.36 / math.sqrt(n))
        sig = sigma_th(N2, 50.0)
        assert np.all(np.abs(ts.channels["Ly_norm"]) < 4 / math.sqrt(n) * 1.2)
        # range invariants of the recorded channels
        assert np.all((ts.channels["cos2theta"] >= 0) & (ts.channels["cos2theta"] <= 1))
        assert np.all(ts.channels["L2"] >= ts.channels["Ly"] ** 2)

    def test_zero_temperature_quadrature_oracle(self):
        # T = 0, single z-pulse: MC <cos^2 theta>(t) vs direct quadrature of
        # the isotropic-ensemble integral on a 128 x 128 (theta0, phi0) grid
        P = 5.0
        cfg = EnsembleConfig(mol=N2, T_K=0.0, n_traj=30_000, seed=8,
                             pulses=(PulseSpec(P=P, p=(0, 0, 1.0)),),
                             t_max=0.08, dt_out=0.01)
        ts = run_protocol(cfg)
        x, w = np.polynomial.legendre.leggauss(128)
        th0 = np.arccos(x)
        u = uniform_matrix(cfg.seed, cfg.n_traj, 4)
        for i, t_trev in enumerate(ts.grid):
            t = t_trev * 2 * math.pi
            th_t = th0 - P * t * np.sin(2 * th0)     # kicked-from-rest evolution
            vals = np.cos(th_t) ** 2
            exact = float(w @ vals) / 2.0            # phi integral is trivial
            th_i = 2 * np.arcsin(np.sqrt(u[:, 0]))
            per_mol = np.cos(th_i - P * t * np.sin(2 * th_i)) ** 2
            se = per_mol.std() / math.sqrt(cfg.n_traj)
            assert abs(ts.channels["cos2theta"][i] - exact) < 3 * max(se, 1e-6)

    def test_auto_delay_recorded_and_sane(self):
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=5000, seed=2,
                             pulses=(PulseSpec(P=5.0, p=(0, 0, 1.0)),
                                     PulseSpec.along(5.0, (1, 0, 1), t_apply="auto")),
                             t_max=1.0, dt_out=0.01)
        ts = run_protocol(cfg)
        d = ts.meta["auto_delay_trev"]
        assert 0.005 < d < 0.1
        # alignment maximum: curve lower on both sides of the found extremum
        fin = final_states(cfg)
        assert fin["meta"]["auto_delay_trev"] == d

    @pytest.mark.parametrize("mol", [N2, BZ], ids=["n2", "benzene"])
    def test_final_states_carry_l(self, mol):
        # one state for both kinds: axes and angular momenta, no velocities
        cfg = EnsembleConfig(mol=mol, T_K=0.9 if mol is BZ else 50.0, n_traj=200,
                             seed=3, pulses=(PulseSpec(P=-3.0, p=(0, 0, 1.0)),
                                             PulseSpec.along(-3.0, (1, 0, 1), t_apply=0.02)))
        fin = final_states(cfg)
        assert "v" not in fin and fin["L"].shape == fin["r"].shape == (200, 3)
        if mol is N2:
            assert np.max(np.abs(np.einsum("ij,ij->i", fin["L"], fin["r"]))) < 1e-12

    def test_extremum_not_found_raises(self):
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=200, seed=2,
                             pulses=(PulseSpec(P=5.0, p=(0, 0, 1.0)),
                                     PulseSpec.along(5.0, (1, 0, 1), t_apply="auto")),
                             t_max=0.002, dt_out=0.001)
        with pytest.raises(ProtocolError):
            run_protocol(cfg)

    def test_l_channels_static_after_last_kick(self):
        cfg = EnsembleConfig(mol=BZ, T_K=0.9, n_traj=3000, seed=5,
                             pulses=(PulseSpec(P=-3.0, p=(0, 0, 1.0)),
                                     PulseSpec.along(-3.0, (-1, 0, 1), t_apply=0.03)),
                             t_max=0.4, dt_out=0.02)
        ts = run_protocol(cfg)
        after = ts.grid > 0.031
        for name in ("Lx", "Ly", "Lz", "L2"):
            vals = ts.channels[name][after]
            assert np.max(np.abs(vals - vals[0])) < 1e-10, name

    def test_auto_delay_only_second_pulse(self):
        with pytest.raises(ParameterError):
            EnsembleConfig(mol=N2, T_K=0.0, n_traj=10, seed=1,
                           pulses=(PulseSpec(P=1.0, p=(0, 0, 1.0), t_apply="auto"),))


class _DipState:
    """A protocol state whose <cos^2 theta> after t is
    sign (1 - exp(-((t - t0)/w)^2)): its one local extremum, a minimum for
    sign 1, lies at t0."""

    def __init__(self, t0, w, sign):
        self.t0, self.w, self.sign = t0, w, sign

    def cos2theta(self, times, h):
        return self.sign * (1.0 - np.exp(-((times - self.t0) / self.w) ** 2))


class TestAlignmentExtremum:
    @pytest.mark.parametrize("curvature", [2.5, -1.0])
    @pytest.mark.parametrize("offset", [-0.4, -0.25, 0.3])
    def test_vertex_of_an_exact_parabola(self, curvature, offset):
        # the vertex on either side of the middle sample x1; y has no constant
        # term, so its rounding stays relative to a (x - v)^2 and the vertex is
        # exact to rounding; a constant c would scale it by |c| / (a h^2)
        x1 = 137 * SCAN_STEP
        v = x1 + offset * SCAN_STEP
        x = x1 + SCAN_STEP * np.array([-1.0, 0.0, 1.0])
        assert parabolic_vertex(x, curvature * (x - v) ** 2) == pytest.approx(v, rel=1e-15, abs=0)

    @pytest.mark.parametrize("values, kind, want", [
        ([0, 1, 1, 0], "max", None),        # a plateau is no strict extremum
        ([1, 0, 0, 1], "min", None),
        ([0, 2, 1, 3, 0], "max", 1),        # the first of two
        ([3, 2, 2, 1, 2], "min", 3),        # past a plateau
    ])
    def test_first_local_extremum_is_strict(self, values, kind, want):
        assert first_local_extremum(values, kind) == want

    @pytest.mark.parametrize("kind, sign", [("min", 1.0), ("max", -1.0)])
    def test_extremum_is_the_vertex_of_its_bracketing_samples(self, kind, sign):
        # the dip lies past the first 256-step scan block, between two steps
        t0 = 300.37 * SCAN_STEP
        state = _DipState(t0, 40 * SCAN_STEP, sign)
        found = find_alignment_extremum(state, kind, 0.5 * TWO_PI)
        ts = np.array([299.0, 300.0, 301.0]) * SCAN_STEP
        assert found == parabolic_vertex(ts, mean_cos2theta(state, ts))
        assert abs(found - t0) < 0.01 * SCAN_STEP


class _StubState:
    """A protocol state that logs each record call and records, on every
    channel, the number of kicks it has taken."""

    def __init__(self, channels, log, kicks=0):
        self.channels, self.log, self.kicks = channels, log, kicks

    def advance(self, dt):
        return self

    def kick(self, pulse):
        return _StubState(self.channels, self.log, self.kicks + 1)

    def record(self, times, h):
        self.log.append((self.kicks, times, h))
        return {name: np.full(len(times), float(self.kicks)) for name in self.channels}


class TestRecordProtocol:
    DT = 2.0 ** -7

    @pytest.mark.parametrize("pulse_steps, expect", [
        # pulse 1 at t = 0: no grid time precedes it, so segment 0 is skipped
        ((0.0, 3.0), [(1, 0, 3), (2, 3, 8)]),
        # two pulses between grid times 0 and 1: segment 1 is skipped
        ((0.5, 0.75), [(0, 0, 1), (2, 1, 8)]),
    ])
    def test_records_each_segment_on_the_grid_once(self, pulse_steps, expect):
        log = []
        pulses = [PulseSpec(P=1.0, p=(0, 0, 1.0), t_apply=k * self.DT) for k in pulse_steps]
        ts, recorded, last = record_protocol(pulses, 7 * self.DT, self.DT,
                                             _StubState(("c",), log))
        t = np.arange(8) * self.DT * TWO_PI
        event_times = [k * self.DT * TWO_PI for k in pulse_steps]
        assert [kicks for kicks, _, _ in log] == [kicks for kicks, _, _ in expect]
        for (kicks, times, h), (_, lo, hi) in zip(log, expect):
            t0 = event_times[kicks - 1] if kicks else 0.0
            assert np.array_equal(times, t[lo:hi] - t0)
            assert h == self.DT * TWO_PI
        assert [(t0, n, state.kicks) for t0, n, state in recorded] == [
            (event_times[kicks - 1] if kicks else 0.0, hi - lo, kicks)
            for kicks, lo, hi in expect]
        assert last.kicks == 2 and list(ts.channels) == ["c"]
        assert np.array_equal(ts.grid, np.arange(8) * self.DT)
        assert ts.channels["c"].tolist() == sum(([float(k)] * (hi - lo)
                                                 for k, lo, hi in expect), [])
        assert ts.meta["pulse_times_trev"] == [k * self.DT for k in pulse_steps]

    @pytest.mark.parametrize("channels, normed", [
        (("Ly", "L2"), True), (("Ly",), False), (("L2", "c"), False)])
    def test_ly_norm_only_with_ly_and_l2(self, channels, normed):
        ts, _, _ = record_protocol([PulseSpec(P=1.0, p=(0, 0, 1.0))], 0.05, 0.01,
                                   _StubState(channels, []))
        assert list(ts.channels) == [*channels, *(["Ly_norm"] if normed else [])]
        if normed:
            assert np.array_equal(ts.channels["Ly_norm"], np.ones(6))


class TestDelayScan:
    def test_single_zero_strength_second_pulse(self):
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=20_000, seed=6,
                             pulses=(PulseSpec(P=5.0, p=(0, 0, 1.0)),
                                     PulseSpec(P=0.0, p=(0, 0, 1.0), t_apply="auto")),
                             t_max=1.0, dt_out=0.01)
        scan = delay_scan(cfg, [0.02])
        # a single z-pulse induces no oriented L_y beyond MC noise
        assert abs(scan.channels["Ly"][0]) < 4 * 3.0 / math.sqrt(cfg.n_traj)
        assert scan.channels["dLy"][0] == 0.0

    def test_transferred_ly_identity(self):
        # per-molecule identity: dL_y = P (z^2 - x^2) for p2 = (1,0,1)/sqrt(2),
        # so the ensemble transfer equals P<z^2 - x^2> exactly; the delays
        # are uneven, so each is its own one-point scan
        P = 5.0
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=10_000, seed=10,
                             pulses=(PulseSpec(P=P, p=(0, 0, 1.0)),
                                     PulseSpec.along(P, (1, 0, 1), t_apply="auto")),
                             t_max=1.0, dt_out=0.01)
        taus = np.array([0.005, 0.02, 0.05])
        u = uniform_matrix(cfg.seed, cfg.n_traj, 4)
        sig = sigma_th(N2, 50.0)
        r, L = linear_ensemble_from_uniforms(u, sig)
        v = np.cross(L, r)
        from propeller_sim.classical_linear import kick_velocity, propagate_arrays
        v1 = kick_velocity(r, v, P, np.array([0.0, 0.0, 1.0]))
        for tau in taus:
            scan = delay_scan(cfg, [tau])
            rt, _ = propagate_arrays(r, v1, tau * 2 * math.pi)
            expect = P * np.mean(rt[:, 2] ** 2 - rt[:, 0] ** 2)
            assert scan.channels["dLy"][0] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("mol, T_K, P", [(N2, 50.0, 5.0), (BZ, 0.9, -1.0),
                                             (BZ, 0.9, -3.0), (BZ, 0.9, -10.0)],
                             ids=["n2_P5", "benzene_P-1", "benzene_P-3", "benzene_P-10"])
    def test_matches_direct_oracle(self, mol, T_K, P):
        cfg = EnsembleConfig(mol=mol, T_K=T_K, n_traj=3000, seed=8,
                             pulses=(PulseSpec(P=P, p=(0, 0, 1.0)),
                                     PulseSpec.along(P, (-1, 0, 1), t_apply="auto")),
                             t_max=0.5, dt_out=0.01)
        taus = np.arange(0.0, 0.12 + 0.25 / 2000, 1.0 / 2000)
        scan = delay_scan(cfg, taus)
        kicked = ensemble._initial_swarm(cfg).advance(0.0).kick(cfg.pulses[0])
        p2 = cfg.pulses[1]
        expect = kicked_means(kicked.r, kicked.L, p2.P, p2.p_vec, taus * TWO_PI)
        for name, row in zip(("cos2theta", "Ly", "L2"), expect):
            assert np.max(np.abs(scan.channels[name] - row)) <= 1e-12 * np.max(np.abs(row)), name
        assert scan.meta["Ly_pre"] == pytest.approx(np.mean(kicked.L[:, 1]), rel=0, abs=1e-14)

    def test_rest_and_parallel_rows_match_oracle(self):
        # molecules at rest (one of them with r = p, where the oracle's kick
        # is exactly zero) and a rotor that passes through p at t = 0, where
        # the oracle's kick_momentum zeroes a dL of rounding size
        rng = np.random.default_rng(23)
        n = 700
        r = rng.standard_normal((n, 3))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        L = 3.0 * rng.standard_normal((n, 3))
        p = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
        L[:40] = 0.0
        r[0] = p
        r[40] = p
        L[40] = 4.0 * np.cross(p, [0.0, 1.0, 0.0])
        pulse = PulseSpec(P=-10.0, p=tuple(p))
        grid = classical_symtop.UniformGrid(0.0, 0.003, 97)
        means, ly_pre = ensemble._kicked_means(ensemble._Swarm(r, L), pulse, grid)
        expect = kicked_means(r, L, pulse.P, p, np.arange(grid.n) * grid.h)
        for got, row in zip(means, expect):
            assert np.max(np.abs(got - row)) <= 1e-12 * np.max(np.abs(row))
        assert ly_pre == pytest.approx(np.mean(L[:, 1]), rel=0, abs=1e-14)

    @pytest.mark.parametrize("delays", [[0.0, 0.01, 0.03], [0.02, 0.01, 0.03],
                                        [], [0.01, 0.02, 0.03 + 1e-9]])
    def test_uneven_delays_rejected(self, delays):
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=50, seed=1,
                             pulses=(PulseSpec(P=5.0, p=(0, 0, 1.0)),
                                     PulseSpec.along(5.0, (1, 0, 1), t_apply="auto")),
                             t_max=1.0, dt_out=0.01)
        with pytest.raises(ParameterError, match="delay"):
            delay_scan(cfg, delays)

    def test_even_delays_accepted(self):
        # linspace and hand-written decimals are even to within a few ulps
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=50, seed=1,
                             pulses=(PulseSpec(P=5.0, p=(0, 0, 1.0)),
                                     PulseSpec.along(5.0, (1, 0, 1), t_apply="auto")),
                             t_max=1.0, dt_out=0.01)
        for delays in ([0.01, 0.02, 0.03], np.linspace(0.3, 0.7, 301),
                       np.arange(0.25, 0.5, 0.001), [0.07, 0.07]):
            assert len(delay_scan(cfg, delays).channels["Ly"]) == len(delays)

    def test_sign_flip_is_exact(self):
        base = dict(mol=BZ, T_K=0.9, n_traj=20_000, seed=13, t_max=0.3, dt_out=0.01)
        taus = np.linspace(0.01, 0.06, 6)
        plus = delay_scan(EnsembleConfig(
            pulses=(PulseSpec(P=-3.0, p=(0, 0, 1.0)),
                    PulseSpec.along(-3.0, (1, 0, 1), t_apply="auto")), **base), taus)
        minus = delay_scan(EnsembleConfig(
            pulses=(PulseSpec(P=-3.0, p=(0, 0, 1.0)),
                    PulseSpec.along(-3.0, (-1, 0, 1), t_apply="auto")), **base), taus)
        assert np.allclose(plus.channels["dLy"], -minus.channels["dLy"],
                           rtol=0, atol=1e-12)
        assert np.all(np.sign(plus.channels["Ly"]) == -np.sign(minus.channels["Ly"]))


class TestScanAdditionTheorem:
    """The delay scan's kick algebra against pulse 2 from pulse-1 moments.

    The kick adds dL = -2P (p.r)(p x r), and L.dL = P d(p.r)^2/dt, since the
    axis moves as dr/dt = L x r.  Averaged over turns about p1, P_l(c) with
    c = p2.r is P_l(cos dphi) P_l(z), so dLy = P sin(2 dphi) <P_2(z)> and
    L2 = <|L|^2> + 2P P_2(cos dphi) <dz^2/dt> + 4P^2 (<c^2> - <c^4>), with
    <c^2> and <c^4> from <P_2(z)> and <P_4(z)>, all at the kick.  Each
    channel depends on a molecule's azimuth about p1 through degree <= 4, so
    a sample turned by 2 pi k / 5 about p1, k = 0..4, averages it exactly,
    and its scan meets the closed form of the unturned sample's moments to
    rounding (1.2e-15 here).
    """

    @pytest.mark.parametrize("P", [-1.0, -3.0, -10.0])
    @pytest.mark.parametrize("dphi", [-math.pi / 4, 0.3])
    def test_symmetrised_sample_meets_the_closed_form(self, monkeypatch, P, dphi):
        r, L = ensemble._thermal_sample(BZ, 0.9, 2000, 5)
        turns = [np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0],
                           [0.0, 0.0, 1.0]]) for a in TWO_PI * np.arange(5) / 5]
        monkeypatch.setattr(ensemble, "_scan_sample", lambda *args: (
            np.concatenate([r @ R.T for R in turns]), np.concatenate([L @ R.T for R in turns])))
        p1 = PulseSpec(P=P, p=(0.0, 0.0, 1.0))
        cfg = EnsembleConfig(mol=BZ, T_K=0.9, n_traj=5 * len(r), seed=5, t_max=0.2, dt_out=0.01,
                             pulses=(p1, PulseSpec.along(P, (math.sin(dphi), 0.0, math.cos(dphi)),
                                                         t_apply="auto")))
        delays = np.linspace(0.0, 0.15, 61)
        scan = delay_scan(cfg, delays)
        kicked = ensemble._Swarm(r, L).kick(p1)
        pos = positions_at(kicked.flight, delays * TWO_PI)      # (delays, N, 3)
        z = pos[..., 2]
        zdot = kicked.L[:, 0] * pos[..., 1] - kicked.L[:, 1] * pos[..., 0]   # (L x r)_z
        A2 = (3.0 * np.mean(z ** 2, axis=1) - 1.0) / 2.0
        A4 = (35.0 * np.mean(z ** 4, axis=1) - 30.0 * np.mean(z ** 2, axis=1) + 3.0) / 8.0
        x = math.cos(dphi)
        p2, p4 = (3.0 * x * x - 1.0) / 2.0, (35.0 * x ** 4 - 30.0 * x * x + 3.0) / 8.0
        c2 = 1.0 / 3.0 + (2.0 / 3.0) * p2 * A2
        c4 = 1.0 / 5.0 + (4.0 / 7.0) * p2 * A2 + (8.0 / 35.0) * p4 * A4
        dLy = P * math.sin(2.0 * dphi) * A2
        dz2 = np.mean(2.0 * z * zdot, axis=1)
        L2 = np.mean(np.sum(kicked.L ** 2, axis=1)) + 2.0 * P * p2 * dz2 + 4.0 * P * P * (c2 - c4)
        for name, ref in (("dLy", dLy), ("L2", L2), ("Ly_norm", dLy / np.sqrt(L2))):
            dev = np.max(np.abs(scan.channels[name] - ref))
            assert dev <= 1e-12 * np.max(np.abs(ref)), (name, dev)
        assert abs(scan.meta["Ly_pre"]) <= 1e-15


class TestFreeFlightBlocks:
    BZ_TWO = (PulseSpec(P=-3.0, p=(0, 0, 1.0)),
              PulseSpec.along(-3.0, (-1, 0, 1), t_apply=0.03))
    N2_AUTO = (PulseSpec(P=5.0, p=(0, 0, 1.0)),
               PulseSpec.along(5.0, (1, 0, 1), t_apply="auto"))

    @pytest.mark.parametrize("mol, pulses", [(BZ, BZ_TWO), (N2, N2_AUTO)],
                             ids=["benzene_two_pulse", "n2_auto_delay"])
    def test_thread_invariance(self, monkeypatch, mol, pulses):
        cfg = EnsembleConfig(mol=mol, T_K=0.9 if mol is BZ else 50.0,
                             n_traj=2 * CHUNK + 1000, seed=21, pulses=pulses,
                             t_max=0.06, dt_out=0.005)
        runs = []
        for k in ("1", "2", "4"):
            monkeypatch.setenv("PROPELLER_THREADS", k)
            runs.append(run_protocol(cfg))
        assert [r.meta["free_flight"]["threads"] for r in runs] == [1, 2, 3]
        for other in runs[1:]:
            assert other.meta.get("auto_delay_trev") == runs[0].meta.get("auto_delay_trev")
            for name in runs[0].channels:
                assert np.array_equal(runs[0].channels[name], other.channels[name]), name

    @pytest.mark.parametrize("mol, pulses", [(BZ, BZ_TWO), (N2, N2_AUTO)],
                             ids=["benzene", "n2"])
    def test_delay_scan_thread_invariance(self, monkeypatch, mol, pulses):
        # 3 chunks of SCAN_CHUNK molecules and a partial fourth
        n = 3 * ensemble.SCAN_CHUNK + 77
        cfg = EnsembleConfig(mol=mol, T_K=0.9 if mol is BZ else 50.0, n_traj=n,
                             seed=4, pulses=pulses, t_max=0.5, dt_out=0.01)
        taus = np.arange(0.0, 0.1 + 0.25 / 2000, 1.0 / 2000)
        runs = []
        for k in ("1", "2", "4"):
            monkeypatch.setenv("PROPELLER_THREADS", k)
            runs.append(delay_scan(cfg, taus))
        flights = [r.meta["free_flight"] for r in runs]
        assert [f["threads"] for f in flights] == [1, 2, 4]
        assert all(f["chunks"] == 4 and f["harmonic_degree"] == ensemble.SCAN_DEGREE
                   and f["block_shape"] == [classical_symtop.ANCHOR_STEP, ensemble.SCAN_CHUNK]
                   for f in flights)
        for other in runs[1:]:
            assert other.meta["Ly_pre"] == runs[0].meta["Ly_pre"]
            for name in runs[0].channels:
                assert np.array_equal(runs[0].channels[name], other.channels[name]), name

    def test_delay_scan_builds_constant_geometry(self, monkeypatch):
        builds = []
        original = SymTopEnsemble.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(classical_symtop.SymTopEnsemble, "__init__", counting)
        cfg = EnsembleConfig(mol=BZ, T_K=0.9, n_traj=3000, seed=4, pulses=self.BZ_TWO,
                             t_max=0.5, dt_out=0.01)
        counts = []
        for n_delays in (3, 40):
            builds.clear()
            delay_scan(cfg, np.linspace(0.0, 0.1, n_delays))
            counts.append(len(builds))
        assert counts[0] == counts[1] <= 2

    @staticmethod
    def _position_sums(flight, times):
        """Per-time z^2 and off-pole x^2/(x^2+y^2) sums and off-pole counts,
        each kept term summed as a compressed 1-D array of the positions."""
        z2, c2p, n_az = [], [], []
        for pos in positions_at(flight, times):
            s2 = pos[:, 0] ** 2 + pos[:, 1] ** 2
            ok = s2 >= POLE_SIN2
            z2.append(np.sum(pos[:, 2] ** 2))
            c2p.append(np.sum(pos[ok, 0] ** 2 / s2[ok]))
            n_az.append(np.count_nonzero(ok))
        return np.array(z2), np.array(c2p), np.array(n_az)

    @staticmethod
    def _pole_swarm(n):
        # molecules at rest on the poles, and one flying through a pole at
        # t = pi/4 (grid index 2 of k pi/8)
        rng = np.random.default_rng(17)
        r = rng.standard_normal((n, 3))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        v = np.cross(r, rng.standard_normal((n, 3)))
        r[:3] = [[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]]
        v[:3] = [[0, 0, 0], [0, 0, 0], [0, 0, 2.0]]
        return r, np.cross(r, v)

    def test_pole_molecules_leave_cos2phi(self):
        # the grid sums agree with the compressed 1-D sums of the normalised
        # positions to rounding: the kernel neither normalises r nor joins
        # cos/sin per element, so the terms differ by ulps
        n = 300
        r, L = self._pole_swarm(n)
        flight = SymTopEnsemble(r, L)
        grid = classical_symtop.UniformGrid(0.0, math.pi / 8, 5)
        z2, c2p, n_az, _, _ = ensemble._chunk_sums(flight, L, grid, (0, n))
        ref_z2, ref_c2p, ref_n_az = self._position_sums(flight, np.arange(5) * grid.h)
        assert list(n_az) == list(ref_n_az) == [n - 2 - (i == 2) for i in range(5)]
        assert np.allclose(c2p, ref_c2p, rtol=1e-14, atol=0)
        assert np.allclose(z2, ref_z2, rtol=1e-14, atol=0)
        # exactly: each time's sum is the 1-D sum of the kernel's own
        # per-molecule terms, with the pole molecules left out, not zeroed
        alone = [ensemble._chunk_sums(flight, L, grid, (k, k + 1)) for k in range(n)]
        for i in range(grid.n):
            assert c2p[i] == np.sum([p[1][i] for p in alone if p[2][i]])
            assert z2[i] == np.sum([p[0][i] for p in alone])

    def test_blocks_start_on_64_byte_boundaries(self):
        # cache-line aligned block buffers, so free flight does not run at a
        # speed set by the heap layout; eight are held at once, so a heap
        # that aligns one by chance cannot pass
        r, L = self._pole_swarm(300)
        flight = SymTopEnsemble(r, L)
        grid = classical_symtop.UniformGrid(0.0, math.pi / 8, 200)
        runs = [list(ensemble._circle_blocks(flight, grid, (0, n), axes))
                for n in (150, 200, 250, 300) for axes in (slice(0, 3), slice(2, 3))]
        assert all(len(blocks) > 1 and all(pos.ctypes.data % 64 == 0 for *_, pos in blocks)
                   for blocks in runs)
        held = [ensemble._aligned_empty((k, 3)) for k in range(1, 40)]
        assert all(a.ctypes.data % 64 == 0 and a.shape == (k, 3) and a.flags.c_contiguous
                   for k, a in enumerate(held, start=1))

    def test_scan_matches_positions(self):
        # the auto-delay scan records a window of the T_rev/2000 grid; each
        # time agrees with the mean z^2 of the normalised positions, with
        # molecules resting on the poles and one flying through a pole
        r, L = self._pole_swarm(300)
        swarm = ensemble._Swarm(r, L)
        times = np.arange(1000, 1257) * SCAN_STEP
        got = ensemble.mean_cos2theta(swarm, times)
        z = positions_at(swarm.flight, times)[..., 2]
        assert np.max(np.abs(got - np.mean(z * z, axis=-1))) <= 1e-14

    def test_scan_reads_record_cos2theta_bitwise(self, monkeypatch):
        # the scan's z-only sums over three chunks are record's cos2theta bit
        # for bit, so the auto delay does not move
        monkeypatch.setattr(ensemble, "CHUNK", 128)
        r, L = self._pole_swarm(300)
        swarm = ensemble._Swarm(r, L)
        times = np.arange(1000, 1257) * SCAN_STEP
        assert np.array_equal(ensemble.mean_cos2theta(swarm, times),
                              swarm.record(times, SCAN_STEP)["cos2theta"])

    def test_pole_and_pole_free_blocks(self, monkeypatch):
        # two times per block: only the block of indices 2 and 3 holds a
        # pole molecule, so the others take the path without a pole mask
        n = 300
        r, L = self._pole_swarm(n)
        r, L = r[2:], L[2:]                 # no molecule rests on a pole
        monkeypatch.setattr(ensemble, "BLOCK", 2 * (n - 2))
        flight = SymTopEnsemble(r, L)
        grid = classical_symtop.UniformGrid(0.0, math.pi / 8, 6)
        z2, c2p, n_az, _, _ = ensemble._chunk_sums(flight, L, grid, (0, n - 2))
        ref_z2, ref_c2p, ref_n_az = self._position_sums(flight, np.arange(6) * grid.h)
        assert list(n_az) == list(ref_n_az) == [n - 2 - (i == 2) for i in range(6)]
        assert np.allclose(c2p, ref_c2p, rtol=1e-14, atol=0)
        assert np.allclose(z2, ref_z2, rtol=1e-14, atol=0)

    def test_grid_phases_track_exact_positions(self):
        # a fig2 segment: N2 at 50 K after a P = 5 kick, 2,501 steps of
        # T_rev/500; the grid sums agree with sums of positions at every time
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=2000, seed=3,
                             pulses=(PulseSpec(P=5.0, p=(0, 0, 1.0)),), t_max=5.0,
                             dt_out=0.002)
        swarm = ensemble._initial_swarm(cfg).kick(cfg.pulses[0])
        grid = classical_symtop.UniformGrid(0.0, 0.002 * TWO_PI, 2501)
        got = ensemble._chunk_sums(swarm.flight, swarm.L, grid, (0, 2000))[:3]
        ref = [np.concatenate(part) for part in zip(*(
            self._position_sums(swarm.flight, np.arange(i, min(i + 128, grid.n)) * grid.h)
            for i in range(0, grid.n, 128)))]
        assert np.array_equal(got[2], ref[2])
        for value, exact in zip(got[:2], ref[:2]):
            assert np.max(np.abs(value - exact) / exact) <= 1e-13

    def test_grid_phases_follow_the_rows(self):
        # a molecule's grid values do not depend on the chunk it is
        # evaluated in, and each time's chunk sum is the 1-D sum of them
        rng = np.random.default_rng(2)
        r = rng.standard_normal((20, 3))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        L = 4.0 * rng.standard_normal((20, 3))
        flight = SymTopEnsemble(r, L)
        grid = classical_symtop.UniformGrid(0.3, 0.1, 70)
        alone = [ensemble._chunk_sums(SymTopEnsemble(r[k:k + 1], L[k:k + 1]), L[k:k + 1],
                                      grid, (0, 1)) for k in range(20)]
        for k in range(20):
            inside = ensemble._chunk_sums(flight, L, grid, (k, k + 1))
            for got, want in zip(inside[:3], alone[k][:3]):
                assert np.array_equal(got, want)
        z2, c2p, n_az, _, _ = ensemble._chunk_sums(flight, L, grid, (0, 20))
        for total, parts in ((z2, [p[0] for p in alone]), (c2p, [p[1] for p in alone])):
            per_time = np.array(parts).T.copy()      # (times, molecules), C-ordered
            assert np.array_equal(total, [np.sum(row) for row in per_time])
        assert np.all(n_az == 20)

    @pytest.mark.parametrize("mol", [BZ, N2], ids=["benzene", "n2"])
    def test_sums_ignore_threads_and_blocks(self, monkeypatch, mol):
        # two chunks, the second partial: 1 or 2 threads, one time per block
        # or blocks across anchor groups, and the sums agree bit for bit
        cfg = EnsembleConfig(mol=mol, T_K=0.9 if mol is BZ else 50.0, n_traj=CHUNK + 700,
                             seed=8, pulses=(PulseSpec(P=5.0, p=(0, 0, 1.0)),),
                             t_max=0.1, dt_out=0.001)
        runs = []
        for threads, block in (("1", ensemble.BLOCK), ("2", ensemble.BLOCK),
                               ("2", 40 * CHUNK), ("1", 1)):
            monkeypatch.setenv("PROPELLER_THREADS", threads)
            monkeypatch.setattr(ensemble, "BLOCK", block)
            runs.append(run_protocol(cfg))
        assert [r.meta["free_flight"]["threads"] for r in runs] == [1, 2, 2, 1]
        assert runs[2].meta["free_flight"]["block_shape"] == [40, CHUNK]
        for other in runs[1:]:
            for name in runs[0].channels:
                assert np.array_equal(runs[0].channels[name], other.channels[name],
                                      equal_nan=True), name

    @pytest.mark.parametrize("block", [1, 3 * 997, 7 * 997, 2 ** 22])
    def test_run_protocol_ignores_block_size(self, monkeypatch, block):
        # 997 molecules: one time per block, 3 or 7 (across anchor groups),
        # or the whole segment at once
        cfg = EnsembleConfig(mol=N2, T_K=50.0, n_traj=997, seed=5, pulses=self.N2_AUTO,
                             t_max=0.3, dt_out=0.002)
        base = run_protocol(cfg)
        monkeypatch.setattr(ensemble, "BLOCK", block)
        other = run_protocol(cfg)
        assert other.meta["free_flight"]["block_shape"][0] == max(1, block // 997)
        for name in base.channels:
            assert np.array_equal(base.channels[name], other.channels[name],
                                  equal_nan=True), name

    def test_free_flight_meta(self):
        cfg = EnsembleConfig(mol=BZ, T_K=0.0, n_traj=500, seed=3, pulses=(
            PulseSpec(P=-3.0, p=(0, 0, 1.0), t_apply=0.02),), t_max=0.05, dt_out=0.01)
        meta = run_protocol(cfg).meta["free_flight"]
        assert meta["n_traj"] == 500 and meta["chunks"] == 1 and meta["threads"] == 1
        assert meta["block_shape"] == [ensemble.BLOCK // 500, 500]
        # T = 0: all molecules rest until the pulse; after it only the ones
        # whose axis lies along the polarisation stay frozen
        before, after = meta["segments"]
        assert (before["n_times"], after["n_times"]) == (2, 4)
        assert before["n_frozen"] == 500 and after["n_frozen"] == 0


class TestThreadSetting:
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_propeller_threads_rejected(self, monkeypatch, value):
        monkeypatch.setenv("PROPELLER_THREADS", value)
        cfg = EnsembleConfig(mol=N2, T_K=20.0, n_traj=100, seed=9,
                             pulses=(PulseSpec(P=3.0, p=(0, 0, 1.0)),),
                             t_max=0.02, dt_out=0.01)
        with pytest.raises(ParameterError, match="PROPELLER_THREADS"):
            run_protocol(cfg)

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_chunk_totals_add_in_index_order(self, monkeypatch, threads):
        # (0 + 1) + 1e16 rounds to 1e16, so in index order the three chunks
        # total 0; added in reverse they total 1
        monkeypatch.setenv("PROPELLER_THREADS", threads)
        values = (1.0, 1e16, -1e16)
        (total,) = ensemble._chunk_totals(lambda rows: [np.array([values[rows[0]]])], 3, 1)
        assert total.tolist() == [0.0]

    def test_workers_capped_at_chunks(self, monkeypatch):
        monkeypatch.setenv("PROPELLER_THREADS", "8")
        base = dict(mol=N2, T_K=20.0, n_traj=2 * CHUNK + 5, seed=9,
                    pulses=(PulseSpec(P=3.0, p=(0, 0, 1.0)),), t_max=0.02, dt_out=0.01)
        capped = run_protocol(EnsembleConfig(**base))
        assert capped.meta["free_flight"]["chunks"] == 3
        assert capped.meta["free_flight"]["threads"] == 3
        monkeypatch.setenv("PROPELLER_THREADS", "1")
        single = run_protocol(EnsembleConfig(**base))
        for name in single.channels:
            assert np.array_equal(single.channels[name], capped.channels[name]), name


class TestRunParameters:
    @pytest.mark.parametrize("field, value", [
        ("T_K", math.nan), ("T_K", math.inf), ("t_max", math.nan),
        ("t_max", -1.0), ("dt_out", math.inf), ("dt_out", math.nan)])
    def test_bad_values_rejected(self, field, value):
        kwargs = dict(mol=N2, T_K=0.0, n_traj=10, seed=1,
                      pulses=(PulseSpec(P=1.0, p=(0, 0, 1.0)),))
        kwargs[field] = value
        with pytest.raises(ParameterError, match=field):
            EnsembleConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(P=math.nan), dict(P=-math.inf),
                                        dict(P=1.0, t_apply=math.nan),
                                        dict(P=1.0, t_apply=math.inf)])
    def test_bad_pulse_rejected(self, kwargs):
        with pytest.raises(ParameterError, match="finite"):
            PulseSpec(p=(0, 0, 1.0), **kwargs)
