import math

import mpmath as mp
import numpy as np
import pytest

from oracles import kicks_at, positions_at
from propeller_sim import ensemble
from propeller_sim.classical_symtop import SymTopEnsemble, UniformGrid, kick_momentum
from propeller_sim.classical_linear import kick_velocity, propagate_arrays
from propeller_sim.core import PulseSpec


def fly(r, L, dt):
    """One molecule's axis after free flight by dt."""
    return SymTopEnsemble(np.array([r], float), np.array([L], float)).positions(dt)[0]


def kick(r, L, pulse):
    """One molecule's angular momentum after the kick."""
    r, L = np.array([r], float), np.array([L], float)
    return kick_momentum(r, L, pulse.P, pulse.p_vec)[0]


def cos_theta_pr(r, L):
    return float(np.clip(L @ r / np.linalg.norm(L), -1.0, 1.0))


def energy(r, L, i1_over_i3=0.5):
    """Kinetic energy in units hbar^2/I_1: Lpar^2/2 + (I_1/I_3) L3^2/2."""
    L3 = L @ r
    return 0.5 * (L @ L - L3 * L3) + 0.5 * i1_over_i3 * L3 * L3


# ---- brute-force rigid-body oracle -------------------------------------------
#
# Fixed-step RK4 on the quaternion + Euler equations in the body frame
# (I1 = I2 = 1, I3 = 2).  The step 2e-4 keeps the RK4 error per precession
# period below ~1e-12 for the |L| range sampled here, far inside the 1e-6
# comparison tolerance.

def _quat_mul(a, b):
    w1, x1, y1, z1 = a.T
    w2, x2, y2, z2 = b.T
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=1)


def _axis_from_quat(q):
    w, x, y, z = q.T
    return np.stack([2 * (x * z + w * y), 2 * (y * z - w * x),
                     1 - 2 * (x * x + y * y)], axis=1)


def rigid_body_oracle(r0, L0, t_final, dt=2e-4):
    """Axis direction r(t_final) by direct integration of rigid-body motion."""
    n = r0.shape[0]
    e3 = r0
    helper = np.where(np.abs(e3[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    e1 = np.cross(helper, e3)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(e3, e1)
    R0 = np.stack([e1, e2, e3], axis=2)          # columns are body axes
    Lb = np.einsum("nij,nj->ni", R0.transpose(0, 2, 1), L0)
    # quaternion of R0
    q = np.empty((n, 4))
    tr = R0[:, 0, 0] + R0[:, 1, 1] + R0[:, 2, 2]
    q[:, 0] = 0.5 * np.sqrt(np.maximum(1 + tr, 1e-15))
    q[:, 1] = (R0[:, 2, 1] - R0[:, 1, 2]) / (4 * q[:, 0])
    q[:, 2] = (R0[:, 0, 2] - R0[:, 2, 0]) / (4 * q[:, 0])
    q[:, 3] = (R0[:, 1, 0] - R0[:, 0, 1]) / (4 * q[:, 0])

    def deriv(q, Lb):
        omega = Lb.copy()
        omega[:, 2] *= 0.5                       # I3 = 2 I1
        oq = np.concatenate([np.zeros((n, 1)), omega], axis=1)
        dq = 0.5 * _quat_mul(q, oq)
        dL = np.cross(Lb, omega)
        return dq, dL

    steps = int(round(t_final / dt))
    h = t_final / steps
    for _ in range(steps):
        k1q, k1l = deriv(q, Lb)
        k2q, k2l = deriv(q + 0.5 * h * k1q, Lb + 0.5 * h * k1l)
        k3q, k3l = deriv(q + 0.5 * h * k2q, Lb + 0.5 * h * k2l)
        k4q, k4l = deriv(q + h * k3q, Lb + h * k3l)
        q = q + (h / 6) * (k1q + 2 * k2q + 2 * k3q + k4q)
        Lb = Lb + (h / 6) * (k1l + 2 * k2l + 2 * k3l + k4l)
        q /= np.linalg.norm(q, axis=1, keepdims=True)
    return _axis_from_quat(q)


class TestPropagation:
    def test_axis_parallel_to_l_is_frozen(self):
        for dt in (0.1, 1.0, 10.0):
            assert np.allclose(fly([0, 0, 1], [0, 0, 2.5], dt), [0, 0, 1], atol=1e-12)

    def test_zero_momentum_frozen(self):
        assert np.array_equal(fly([1, 0, 0], [0, 0, 0], 3.0), [1, 0, 0])

    def test_perpendicular_l_matches_linear_rotor(self):
        # theta_pr = pi/2: great circle at rate Omega_pr = |L|, same as the
        # closed-form linear rotor with v0 = L x r
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            L = np.cross(r, rng.standard_normal(3))
            dt = rng.uniform(0, 4)
            b = propagate_arrays(r[None, :], np.cross(L, r)[None, :], dt)[0][0]
            assert np.allclose(fly(r, L, dt), b, atol=1e-10)

    def test_quarter_turn_example(self):
        assert np.allclose(fly([0, 0, 1], [0, 2.0, 0], math.pi / 4), [1, 0, 0], atol=1e-12)

    def test_l_and_cone_angle_conserved(self):
        # free flight moves r only; the cone angle and the energy stay
        rng = np.random.default_rng(9)
        r = rng.standard_normal(3)
        r /= np.linalg.norm(r)
        L = rng.standard_normal(3) * 2
        c0, e0 = cos_theta_pr(r, L), energy(r, L)
        for _ in range(100):
            r = fly(r, L, 0.21)
            assert abs(np.linalg.norm(r) - 1) < 1e-10
            assert cos_theta_pr(r, L) == pytest.approx(c0, abs=1e-10)
        assert energy(r, L) == pytest.approx(e0, abs=1e-10)

    def test_against_rigid_body_integrator(self):
        rng = np.random.default_rng(123)
        n = 100
        r0 = rng.standard_normal((n, 3))
        r0 /= np.linalg.norm(r0, axis=1, keepdims=True)
        L0 = rng.standard_normal((n, 3))
        L0 *= (rng.uniform(2.0, 6.0, n) / np.linalg.norm(L0, axis=1))[:, None]
        t_final = float(2 * math.pi / np.linalg.norm(L0, axis=1).min())
        exact = rigid_body_oracle(r0, L0, t_final)
        got = SymTopEnsemble(r0, L0).positions(t_final)
        for i in range(n):
            assert np.allclose(got[i], exact[i], atol=1e-6), f"state {i}"


class TestKick:
    def test_no_torque_at_0_and_90(self):
        z = PulseSpec(P=4.0, p=(0.0, 0.0, 1.0))
        assert np.allclose(kick([0, 0, 1], [0, 0, 1], z), [0, 0, 1])
        assert np.allclose(kick([1, 0, 0], [0.5, 0, 0], z), [0.5, 0, 0], atol=1e-12)

    def test_benzene_45_degree_kick(self):
        # torque-integration oracle of the delta-envelope pulse:
        # dL = -P sin(2 beta) e_{p x r} = (0, 3, 0) for P = -3 at 45 deg
        h = math.sqrt(0.5)
        L = kick([h, 0, h], [0, 0, 0], PulseSpec(P=-3.0, p=(0.0, 0.0, 1.0)))
        assert np.allclose(L, [0, 3, 0], atol=1e-12)

    def test_kick_never_torques_along_axis(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            L = rng.standard_normal(3)
            p = PulseSpec.along(rng.uniform(-10, 10), rng.standard_normal(3))
            assert (kick(r, L, p) - L) @ r == pytest.approx(0.0, abs=1e-12)

    def test_l3_conserved_by_kick_and_flight(self):
        rng = np.random.default_rng(31)
        r, L = np.array([0, 0.6, 0.8]), rng.standard_normal(3)
        l3 = L @ r
        L = kick(r, L, PulseSpec.along(-3.0, (1.0, 0, 1.0)))
        assert L @ r == pytest.approx(l3, abs=1e-12)
        r = fly(r, L, 1.7)
        assert L @ r == pytest.approx(l3, abs=1e-10)

    def test_reverse_kick_restores(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            L0 = rng.standard_normal(3)
            p = PulseSpec.along(rng.uniform(-6, 6), rng.standard_normal(3))
            L1 = kick(r, kick(r, L0, p), PulseSpec(P=-p.P, p=p.p))
            assert np.allclose(L1, L0, atol=1e-12)

    def test_degenerate_parallel_polarization(self):
        L = kick([0, 0, 1], [0.3, 0.2, 0.1], PulseSpec(P=5.0, p=(0.0, 0.0, 1.0)))
        assert np.allclose(L, [0.3, 0.2, 0.1])

    def test_near_parallel_kick_is_exactly_zero(self):
        # within |p x r| < 1e-12 of +-p the rounding-sized torque is dropped,
        # so a molecule at rest on the pulse axis stays frozen
        pulse = PulseSpec(P=5.0, p=(0.0, 0.0, 1.0))
        for r in ([1e-13, 0.0, 1.0], [0.0, -3e-13, -1.0]):
            L = kick(r, [0.0, 0.0, 0.0], pulse)
            assert np.array_equal(L, np.zeros(3))
            assert not SymTopEnsemble(np.array([r]), L[None, :]).live[0]


# ---- free-flight kernel -----------------------------------------------------

def _kernel_ensemble(seed=5, n=40):
    """Random cones plus the special cases: rest, r parallel and antiparallel
    to L, r perpendicular to L, and axes at both poles."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, 3))
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    L = 3.0 * rng.standard_normal((n, 3))
    z = np.array([0.0, 0.0, 1.0])
    r[:4] = [z, -z, z, -z]
    L[0] = 0.0                                  # at rest on a pole
    L[1] = [0.0, 2.0, 0.0]                      # precessing through the poles
    L[2] = 2.5 * z                              # r parallel to L
    L[3] = 1.5 * z                              # r antiparallel to L
    L[4] = np.cross(r[4], rng.standard_normal(3))   # great circle
    L[5] = 1e-15 * L[5]                         # below the rest threshold
    return r, L


def _rodrigues(r, L, t):
    """Axis r rotated about e_L by |L| t, one molecule at a time."""
    out = np.empty_like(r)
    for i, (ri, Li) in enumerate(zip(r, L)):
        m = np.linalg.norm(Li)
        if m <= 1e-14:
            out[i] = ri
            continue
        e = Li / m
        c, s = math.cos(m * t), math.sin(m * t)
        out[i] = ri * c + np.cross(e, ri) * s + e * (e @ ri) * (1 - c)
    return out


class TestFreeFlightKernel:
    TIMES = np.array([0.0, 0.013, 0.4, 1.1, 2.9, 7.5])

    def test_symtop_block_matches_rotation_oracle(self):
        r, L = _kernel_ensemble()
        block = positions_at(SymTopEnsemble(r, L), self.TIMES)
        assert block.shape == (len(self.TIMES), len(r), 3)
        for i, t in enumerate(self.TIMES):
            assert np.allclose(block[i], _rodrigues(r, L, t), rtol=0, atol=1e-12)

    def test_one_time_is_c_ordered(self):
        r, L = _kernel_ensemble()
        ens = SymTopEnsemble(r, L)
        for t in self.TIMES:
            single = ens.positions(t)
            assert single.shape == (len(r), 3) and single.flags.c_contiguous
        # an array of times would broadcast against the N molecules
        with pytest.raises(TypeError):
            ens.positions(np.linspace(0.0, 1.0, len(r)))

    def test_frozen_molecules_stay_put(self):
        r, L = _kernel_ensemble()
        ens = SymTopEnsemble(r, L)
        frozen = ~ens.live
        assert frozen[[0, 2, 3, 5]].all() and ens.live[[1, 4]].all()
        block = positions_at(ens, self.TIMES)
        unit = r / np.linalg.norm(r, axis=1, keepdims=True)    # every row is normalised
        for i in range(len(self.TIMES)):
            assert np.array_equal(block[i][frozen], unit[frozen])

    def test_linear_block_matches_propagate_arrays(self):
        # a linear rotor is the (r, L = r x v) cone; against the (r, v) closed
        # form the positions agree to 1.2e-14 here (2.2e-14 over 200 seeds)
        r, L = _kernel_ensemble()
        v = np.cross(L, r)                      # tangential; zero on the rest and L || r rows
        v[6] = 0.0
        ens = SymTopEnsemble(r, np.cross(r, v))
        assert (~ens.live)[[0, 2, 3, 5, 6]].all()
        block = positions_at(ens, self.TIMES)
        for i, t in enumerate(self.TIMES):
            assert np.allclose(block[i], propagate_arrays(r, v, t)[0], rtol=0, atol=2e-14)

    def test_great_circle_is_the_unit_cone(self):
        # a rotor with r perpendicular to L flies the linear rotor's circle:
        # w = 1 and a = 0 up to rounding, and the closed form agrees to 1e-14
        r, L = _kernel_ensemble()
        L = np.cross(r, np.random.default_rng(8).standard_normal(r.shape))
        ens = SymTopEnsemble(r, L)
        assert np.all(ens.w == 1.0) and np.max(np.abs(ens.a)) <= 1e-15
        top = positions_at(ens, self.TIMES)
        for i, t in enumerate(self.TIMES):
            lin = propagate_arrays(r, np.cross(L, r), t)[0]
            assert np.allclose(top[i], lin, rtol=0, atol=1e-14)

    def test_grid_phases_match_high_precision(self):
        # the double-double anchors keep each molecule's grid value within a
        # few ulps of its circle at omega (t0 + i h), at angles of several
        # hundred radians where np.cos of the rounded product is off by up
        # to ~5e-14: one molecule per chunk, so z2 is that molecule's z^2
        rng = np.random.default_rng(6)
        r = rng.standard_normal((64, 3))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        L = rng.standard_normal((64, 3))
        L *= rng.uniform(0.0, 16.0, (64, 1)) / np.linalg.norm(L, axis=1, keepdims=True)
        ens = SymTopEnsemble(r, L)
        grid = UniformGrid(0.37, 0.002 * 2.0 * math.pi, 2501)
        z2 = np.array([ensemble._chunk_sums(ens, L, grid, (k, k + 1))[0] for k in range(64)])
        with mp.workdps(40):
            for i, k in zip(rng.integers(2000, 2501, 200), rng.integers(0, 64, 200)):
                ang = mp.mpf(ens.omega[k]) * (mp.mpf(grid.t0) + int(i) * mp.mpf(grid.h))
                z = (mp.mpf(ens.a[2, k]) + mp.mpf(ens.w[k]) * (
                    mp.mpf(ens.b[2, k]) * mp.cos(ang) + mp.mpf(ens.c[2, k]) * mp.sin(ang)))
                assert abs(z2[k, i] - float(z * z)) <= 2e-15

    def test_linear_kick_is_the_velocity_kick(self):
        # on a linear ensemble (L . r = 0) the kick at each time is r x (the
        # velocity kick) of the closed form, to 2.7e-15 here (5.3e-15 over
        # 200 seeds)
        r, L = _kernel_ensemble()
        p = PulseSpec.along(-3.0, (-1.0, 0.0, 1.0)).p_vec
        lin = np.cross(r, np.cross(L, r))
        pos = positions_at(SymTopEnsemble(r, lin), self.TIMES)
        oracle = np.cross(pos, kick_velocity(pos, np.cross(lin, pos), -3.0, p))
        assert np.allclose(kicks_at(pos, lin, -3.0, p), oracle, rtol=0, atol=5e-15)
