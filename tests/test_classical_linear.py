"""Linear-rotor physics on the engine's (r, L) state.

A linear molecule is the rigid rotor with L . r = 0: its tangential velocity
is v = L x r, kicks go through kick_momentum and free flight through the
great circle of SymTopEnsemble.  test_classical_symtop holds this kernel
and kick against the (r, v) closed form of classical_linear.
"""

import math

import numpy as np
import pytest

from propeller_sim import ensemble
from propeller_sim.classical_symtop import SymTopEnsemble, UniformGrid, kick_momentum
from propeller_sim.core import PulseSpec


def kick(r, L, pulse):
    """One molecule's angular momentum after the kick."""
    r, L = np.array([r], float), np.array([L], float)
    return kick_momentum(r, L, pulse.P, pulse.p_vec)[0]


def fly(r, L, dt):
    """One molecule's axis after free flight by dt."""
    return SymTopEnsemble(np.array([r], float), np.array([L], float)).positions(dt)[0]


def random_rotor(rng):
    """A unit axis and a tangential velocity, carried as L = r x v."""
    r = rng.standard_normal(3)
    r /= np.linalg.norm(r)
    v = np.cross(r, rng.standard_normal(3))
    return r, np.cross(r, v)


Z = PulseSpec(P=5.0, p=(0.0, 0.0, 1.0))


class TestKick:
    def test_no_torque_parallel(self):
        assert np.allclose(kick([0, 0, 1], [0, 0, 0], Z), 0.0)

    def test_no_torque_perpendicular(self):
        assert np.allclose(kick([1, 0, 0], [0, 0, 0], Z), 0.0)

    def test_45_degree_kick(self):
        # |dL| = |P sin 2 beta| = 5 at beta = 45 deg; dv = (-5h, 0, 5h) along
        # e_theta, so dL = r x dv = (0, -5, 0)
        h = math.sqrt(0.5)
        L = kick([h, 0, h], [0, 0, 0], Z)
        assert np.allclose(L, [0.0, -5.0, 0.0], atol=1e-12)
        assert np.linalg.norm(L) == pytest.approx(5.0, abs=1e-12)

    def test_orientation_frozen(self):
        r = np.array([[0.6, 0.0, 0.8]])
        before = r.copy()
        kick_momentum(r, np.zeros((1, 3)), Z.P, Z.p_vec)
        assert np.array_equal(r, before)

    def test_spherical_component_oracle(self):
        # z-polarized kick in spherical components: dv_theta = -P sin(2 theta),
        # dv_phi = 0 (the paper's one-dimensional form of the kick law), so
        # dL = r x dv has dL_phi = -P sin(2 theta) and dL_theta = 0
        P = 3.7
        pulse = PulseSpec(P=P, p=(0.0, 0.0, 1.0))
        for theta in np.linspace(0.01, math.pi - 0.01, 100):
            phi = 2.5
            r = np.array([math.sin(theta) * math.cos(phi),
                          math.sin(theta) * math.sin(phi), math.cos(theta)])
            e_th = np.array([math.cos(theta) * math.cos(phi),
                             math.cos(theta) * math.sin(phi), -math.sin(theta)])
            e_ph = np.array([-math.sin(phi), math.cos(phi), 0.0])
            L = kick(r, np.zeros(3), pulse)
            assert L @ e_ph == pytest.approx(-P * math.sin(2 * theta), abs=1e-12)
            assert L @ e_th == pytest.approx(0.0, abs=1e-12)
            assert L @ r == pytest.approx(0.0, abs=1e-12)

    def test_kick_then_reverse_restores(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r, L0 = random_rotor(rng)
            p = PulseSpec.along(rng.uniform(-8, 8), rng.standard_normal(3))
            L1 = kick(r, kick(r, L0, p), PulseSpec(P=-p.P, p=p.p))
            assert np.allclose(L1, L0, atol=1e-12)


class TestPropagation:
    def test_rest_state_unchanged(self):
        assert np.array_equal(fly([0, 1, 0], [0, 0, 0], 17.3), [0, 1, 0])

    def test_quarter_circle(self):
        # r = z, v = x: L = r x v = y; after a quarter turn r = x, v = L x r = -z
        L = np.cross([0, 0, 1.0], [1.0, 0, 0])
        r = fly([0, 0, 1], L, math.pi / 2)
        assert np.allclose(r, [1, 0, 0], atol=1e-12)
        assert np.allclose(np.cross(L, r), [0, 0, -1], atol=1e-12)

    def test_full_circle(self):
        r, L = random_rotor(np.random.default_rng(3))
        back = fly(r, L, 2 * math.pi / np.linalg.norm(L))
        assert np.allclose(back, r, atol=1e-10)

    def test_speed_and_l_conserved(self):
        # L is the state, so the conserved quantities are L . r = 0 (the
        # rotor stays linear) and the speed |v| = |L x r| = |L|
        r, L = random_rotor(np.random.default_rng(4))
        speed = np.linalg.norm(np.cross(L, r))
        for _ in range(200):
            r = fly(r, L, 0.37)
            assert abs(np.linalg.norm(r) - 1) < 1e-10
            assert abs(L @ r) < 1e-10
        assert np.linalg.norm(np.cross(L, r)) == pytest.approx(speed, abs=1e-10)

    def test_composition(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            r, L = random_rotor(rng)
            dt1, dt2 = rng.uniform(0, 3, 2)
            assert np.allclose(fly(fly(r, L, dt1), L, dt2), fly(r, L, dt1 + dt2),
                               atol=1e-9)


def _observables(r, L):
    """One molecule's cos^2 theta, cos2phi (None off the azimuth), L and
    kinetic energy, through the engine's per-time reductions."""
    r, L = np.array([r], float), np.array([L], float)
    z2, c2p, n_az, Lsum, L2 = ensemble._chunk_sums(SymTopEnsemble(r, L), L,
                                                   UniformGrid(0.0, 1.0, 1), (0, 1))
    return {"cos2theta": z2[0], "cos2phi": c2p[0] if n_az[0] else None,
            "L": Lsum, "energy": 0.5 * L2}


class TestObservables:
    def test_pole(self):
        obs = _observables([0, 0, 1], [0, 0, 0])
        assert obs["cos2theta"] == pytest.approx(1.0)
        assert obs["cos2phi"] is None

    def test_xz_rotation(self):
        # r = x moving with v = -z: L = r x v = y, energy |v|^2 / 2
        obs = _observables([1, 0, 0], np.cross([1, 0, 0], [0, 0, -1]))
        assert np.allclose(obs["L"], [0, 1, 0])
        assert obs["cos2phi"] == pytest.approx(1.0)
        assert obs["energy"] == pytest.approx(0.5)

    def test_diagonal_equator(self):
        h = math.sqrt(0.5)
        obs = _observables([h, h, 0], [0, 0, 0])
        assert obs["cos2theta"] == pytest.approx(0.0)
        assert obs["cos2phi"] == pytest.approx(0.5)
