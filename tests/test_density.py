import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import i0, ive

from oracles import grid_moments, kde_at, kde_snapshot, phi_average
from propeller_sim import angular, density, io_formats
from propeller_sim.classical_symtop import SymTopEnsemble, kick_momentum
from propeller_sim.core import (IntegrationError, ParameterError, PulseSpec, benzene,
                                nitrogen, sigma_th)
from propeller_sim.density import (DensityGrid, analytic_zero_temp, belt_average,
                                   second_moments)
from propeller_sim.ensemble import (EnsembleConfig, final_states,
                                    linear_ensemble_from_uniforms,
                                    symtop_ensemble_from_uniforms, uniform_matrix)


class TestKdeSnapshot:
    def test_single_point_peak(self):
        pole = np.array([[0.0, 0.0, 1.0]])
        vals = kde_at(np.array([[0, 0, 1.0], [0, 0, -1.0]]), pole, sigma=0.1)
        # peak amplitude 1/(2 pi sigma^2) at the kernel center, ~exp(-200) opposite
        assert vals[0] == pytest.approx(1 / (2 * math.pi * 0.01), rel=1e-12)
        assert vals[0] == pytest.approx(15.92, abs=0.01)
        assert vals[1] <= 1e-80
        grid = kde_snapshot(pole, sigma=0.1)
        assert grid.rho[0].max() == pytest.approx(vals[0], rel=0.01)
        assert grid.rho[-1].max() <= 1e-80

    def test_sigma_bounds(self):
        pts = np.array([[0.0, 0.0, 1.0]])
        for bad in (0.0, -0.1, 0.6):
            with pytest.raises(ParameterError):
                kde_snapshot(pts, sigma=bad)

    def test_uniform_cloud_flatness(self):
        # MC fluctuation oracle for N = 1e4, sigma = 0.1: the per-node relative
        # sd is sqrt(E[K^2]/N)/E[K] ~ 0.10, so the sup over ~4pi/(2 pi s^2)
        # ~ 200 kernel-sized patches is ~0.33 and stays below 0.45; the
        # phi-averaged profile has ~31 sin(theta) independent patches per row
        # and its sup stays below 0.15.
        rng = np.random.default_rng(1)
        v = rng.standard_normal((10_000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        grid = kde_snapshot(v, sigma=0.1, grid=DensityGrid.build(121, 240))
        iso = 1 / (4 * math.pi)
        assert np.max(np.abs(grid.rho - iso)) / iso <= 0.45
        assert np.max(np.abs(phi_average(grid) - iso)) / iso <= 0.15
        # histogram oracle: coarse equal-area bins agree with the kernel field
        zi = np.clip(((v[:, 2] + 1) / 2 * 6).astype(int), 0, 5)
        counts = np.bincount(zi, minlength=6) / len(v)
        band_prob = counts * 6 / (4 * math.pi)     # mean density per band
        for k in range(6):
            sel = (np.cos(grid.theta) + 1) / 2 * 6
            rows = (sel.astype(int) == k)
            if rows.any():
                assert grid.rho[rows].mean() == pytest.approx(band_prob[k], rel=0.1)

    def test_normalization(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((500, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        assert kde_snapshot(v, sigma=0.12).integral() == pytest.approx(1.0, abs=1e-3)


class TestBeltAverage:
    def test_equatorial_belt_value(self):
        # one molecule rotating in the x-y plane: belt peak 1/(2 pi sqrt(2 pi) s)
        r0 = np.array([[1.0, 0.0, 0.0]])
        L0 = np.array([[0.0, 0.0, 2.0]])         # r0 x v0 with v0 = (0, 2, 0)
        grid = belt_average(r0, L0, 0.1)
        i_eq = np.argmin(np.abs(grid.theta - math.pi / 2))
        expect = 1 / (2 * math.pi * math.sqrt(2 * math.pi) * 0.1)
        assert grid.rho[i_eq].mean() == pytest.approx(expect, rel=2e-3)
        assert expect == pytest.approx(0.635, abs=1e-3)
        assert grid.rho[0].max() <= 1e-20 and grid.rho[-1].max() <= 1e-20

    def test_normalization_and_positivity(self):
        u = uniform_matrix(3, 2000, 4)
        r, L = linear_ensemble_from_uniforms(u, 1.5)
        L = kick_momentum(r, L, 4.0, np.array([0.0, 0.0, 1.0]))
        grid = belt_average(r, L, 0.1, grid=DensityGrid.build(91, 180))
        assert np.all(grid.rho >= 0)
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)

    def test_time_shift_invariance(self):
        # belts depend only on the rotation-plane normal: propagating the
        # ensemble along its own trajectories leaves the belt field unchanged
        u = uniform_matrix(5, 400, 4)
        r, L = linear_ensemble_from_uniforms(u, 1.0)
        L = kick_momentum(r, L, 3.0, np.array([0.0, 0.0, 1.0]))
        a = belt_average(r, L, 0.1)
        b = belt_average(SymTopEnsemble(r, L).positions(1.234), L, 0.1)
        assert np.max(np.abs(a.rho - b.rho)) < 1e-12 * np.max(a.rho) + 1e-12

    def test_rest_molecules_point_kernel(self):
        r0 = np.array([[0.0, 0.0, 1.0]])
        grid = belt_average(r0, np.zeros((1, 3)), 0.1)
        # nearest grid node sits ~0.013 rad off the pole, hence the 1% slack
        assert grid.rho[0].max() == pytest.approx(1 / (2 * math.pi * 0.01), rel=0.01)

    def test_infinite_n_profile_on_zero_temp_ensemble(self):
        # For the T = 0 z-kick ensemble the exact finite-width belt profile is
        # rho(theta) = e^{-x} I0(x) / (2 pi sqrt(2 pi s^2)), x = sin^2/(4 s^2);
        # the estimator must reproduce it within Monte Carlo noise.
        sig = 0.1
        cfg = EnsembleConfig(mol=nitrogen(), T_K=0.0, n_traj=25_000, seed=20,
                             pulses=(PulseSpec(P=10.0, p=(0, 0, 1.0)),),
                             t_max=0.1, dt_out=0.01)
        fin = final_states(cfg)
        grid = belt_average(fin["r"], fin["L"], sig,
                            grid=DensityGrid.build(181, 60))
        prof = phi_average(grid)
        x = np.sin(grid.theta) ** 2 / (4 * sig * sig)
        exact = np.exp(-x) * i0(x) / (2 * math.pi * math.sqrt(2 * math.pi) * sig)
        sel = (grid.theta > 0.25) & (grid.theta < math.pi - 0.25)
        assert np.max(np.abs(prof[sel] / exact[sel] - 1)) < 0.02

    def test_kde_long_time_average_matches_belt(self):
        # 500 uniformly spaced snapshots over 5 T_rev, kernel-estimated and
        # averaged, agree with the closed-form belt construction pointwise
        # where the density is appreciable (same molecules, so MC noise cancels)
        u = uniform_matrix(8, 300, 4)
        r, L = linear_ensemble_from_uniforms(u, 1.0)
        L = kick_momentum(r, L, 5.0, np.array([0.0, 0.0, 1.0]))
        grid_shape = (61, 120)
        accum = DensityGrid.build(*grid_shape)
        total = np.zeros(accum.rho.shape)
        times = np.linspace(0.0, 5 * 2 * math.pi, 500, endpoint=False)
        flight = SymTopEnsemble(r, L)
        for t in times:
            rt = flight.positions(t)
            total += kde_snapshot(rt, 0.1, grid=DensityGrid.build(*grid_shape)).rho
        avg = total / len(times)
        belt = belt_average(r, L, 0.1, grid=DensityGrid.build(*grid_shape))
        sel = belt.rho > 0.1 * belt.rho.max()
        rel = np.abs(avg[sel] - belt.rho[sel]) / belt.rho[sel]
        assert np.max(rel) < 0.05

    def test_symtop_cone_belt(self):
        # axis on a 60-degree cone about z: density peaks near theta = pi/3
        c = math.cos(math.pi / 3)
        s = math.sin(math.pi / 3)
        r0 = np.array([[s, 0.0, c]])
        L = np.array([[0.0, 0.0, 3.0]])
        grid = belt_average(r0, L, 0.1)
        peak_theta = grid.theta[np.argmax(phi_average(grid))]
        assert peak_theta == pytest.approx(math.pi / 3, abs=0.02)
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)


class TestConeNormalisation:
    @pytest.mark.parametrize("T_K", [0.9, 50.0])
    @pytest.mark.parametrize("n, path", [(40, "direct"), (400, "spectral")])
    def test_benzene_cone_belts_integrate_to_one(self, T_K, n, path):
        # each cone kernel is normalised on the sphere at its own centre
        # cos(theta_pr); normalised at the centre 0 instead, benzene's belts
        # would integrate to about 0.97 at 0.9 K and 0.93 at 50 K
        cfg = EnsembleConfig(mol=benzene(), T_K=T_K, n_traj=n, seed=3,
                             pulses=(PulseSpec(P=-3.0, p=(0, 0, 1.0)),
                                     PulseSpec.along(-3.0, (-1, 0, 1), t_apply=0.03)))
        fin = final_states(cfg)
        grid = belt_average(fin["r"], fin["L"])
        assert grid.meta["path"] == path and grid.meta["n_live"] > 0
        assert abs(grid.integral() - 1.0) <= 1e-12


def _linear_ensemble(n, seed, n_rest=0):
    """Kicked thermal N2-like belts; the last n_rest molecules are at rest."""
    r, L = linear_ensemble_from_uniforms(uniform_matrix(seed, n, 4), 1.5)
    L = kick_momentum(r, L, 4.0, np.array([0.0, 0.0, 1.0]))
    L[n - n_rest:] = 0.0
    return r, L


def _benzene_ensemble(n, seed):
    """Kicked thermal benzene cones (0.9 K, P = -3)."""
    r, L = symtop_ensemble_from_uniforms(uniform_matrix(seed, n, 5),
                                         *sigma_th(benzene(), 0.9))
    return r, kick_momentum(r, L, -3.0, np.array([0.0, 0.0, 1.0]))


def _cone_ensemble(n, seed):
    """Precession cones with cos(theta_pr) spread over (-1, 1), down to cones
    1e-7 rad wide about either pole (sin(theta_pr) just above CONE_SIN scale)."""
    rng = np.random.default_rng(seed)
    e_l = rng.standard_normal((n, 3))
    e_l /= np.linalg.norm(e_l, axis=1, keepdims=True)
    perp = np.cross(e_l, rng.standard_normal((n, 3)))
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    theta_pr = np.linspace(0.0, math.pi, n)
    theta_pr[[0, 1, -2, -1]] = [1e-7, 1e-4, math.pi - 1e-4, math.pi - 1e-7]
    r0 = np.cos(theta_pr)[:, None] * e_l + np.sin(theta_pr)[:, None] * perp
    return r0, 2.5 * e_l


ORACLE_ENSEMBLES = {
    "linear_belts": lambda: _linear_ensemble(80, 3),
    "symtop_cones": lambda: _cone_ensemble(60, 4),
    "rest_points": lambda: _linear_ensemble(40, 5, n_rest=40),
    "mixed_live_rest": lambda: _linear_ensemble(60, 6, n_rest=20),
}


def _belt_on_path(monkeypatch, spectral, r, w, sigma, shape):
    monkeypatch.setattr(density, "_spectral_is_cheaper", lambda *args: spectral)
    return belt_average(r, w, sigma, grid=DensityGrid.build(*shape))


class TestSpectralBelt:
    @pytest.mark.parametrize("shape", [(61, 120), (181, 360)])
    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.5])
    @pytest.mark.parametrize("ensemble", sorted(ORACLE_ENSEMBLES))
    def test_matches_direct_sum(self, monkeypatch, ensemble, sigma, shape):
        r, w = ORACLE_ENSEMBLES[ensemble]()
        direct = _belt_on_path(monkeypatch, False, r, w, sigma, shape)
        spectral = _belt_on_path(monkeypatch, True, r, w, sigma, shape)
        assert direct.meta["path"] == "direct" and spectral.meta["path"] == "spectral"
        top = direct.rho.max()
        assert np.max(np.abs(spectral.rho - direct.rho)) <= 1e-10 * top
        assert spectral.integral() == pytest.approx(direct.integral(), abs=1e-10)
        assert np.allclose(grid_moments(spectral), grid_moments(direct), rtol=0, atol=1e-10)

    def test_linear_belts_share_one_spectrum(self, monkeypatch):
        # a kicked linear ensemble carries L . r = 0 only to rounding, so the
        # computed cone centres scatter about 0; SymTopEnsemble takes every
        # centre within CONE_SIN of 0 as exactly 0, which keeps one Legendre
        # spectrum and l_max = 88
        r, L = _linear_ensemble(600, 10)
        dots = np.einsum("ij,ij->i", L / np.linalg.norm(L, axis=1, keepdims=True), r)
        assert 0.0 < np.max(np.abs(dots)) < 1e-14 and len(np.unique(dots)) > 1
        centres = []
        spectra = density._kernel_spectra

        def counted(c, point, *args):
            centres.append(np.unique(c[~point]).size)
            return spectra(c, point, *args)

        monkeypatch.setattr(density, "_kernel_spectra", counted)
        direct = _belt_on_path(monkeypatch, False, r, L, 0.1, (61, 120))
        spectral = _belt_on_path(monkeypatch, True, r, L, 0.1, (61, 120))
        assert set(centres) == {1} and spectral.meta["l_max"] == 88
        assert np.max(np.abs(spectral.rho - direct.rho)) <= 1e-10 * direct.rho.max()

    def test_belts_and_cones_in_one_call(self, monkeypatch):
        # no molecule kind is passed: N2 belts and benzene cones mix in one
        # call, which is the n-weighted sum of its parts, and every belt
        # still has the centre 0 exactly (one spectrum for all of them)
        belts, cones = _linear_ensemble(300, 11), _benzene_ensemble(100, 12)
        r, L = (np.concatenate(parts) for parts in zip(belts, cones))
        centres = []
        spectra = density._kernel_spectra

        def counted(c, point, *args):
            centres.append(np.unique(c[~point]))
            return spectra(c, point, *args)

        monkeypatch.setattr(density, "_kernel_spectra", counted)
        mixed = _belt_on_path(monkeypatch, True, r, L, 0.1, (61, 120))
        mixed_centres = centres[-1]
        parts = [_belt_on_path(monkeypatch, True, *part, 0.1, (61, 120))
                 for part in (belts, cones)]
        cone_centres = centres[-1]
        assert np.count_nonzero(mixed_centres == 0.0) == 1
        assert np.array_equal(mixed_centres, np.union1d(cone_centres, [0.0]))
        assert mixed.meta["n_live"] == sum(p.meta["n_live"] for p in parts) == 400
        weighted = (300 * parts[0].rho + 100 * parts[1].rho) / 400
        assert np.max(np.abs(mixed.rho - weighted)) <= 1e-12 * mixed.rho.max()

    def test_single_molecule_takes_direct_path(self):
        r, L = _linear_ensemble(1, 7)
        assert belt_average(r, L, 0.1).meta["path"] == "direct"

    def test_fig4_size_takes_spectral_path(self):
        r, L = _linear_ensemble(4000, 8)
        grid = belt_average(r, L, 0.1)
        assert grid.meta["path"] == "spectral"
        assert 80 <= grid.meta["l_max"] <= 100
        assert grid.integral() == pytest.approx(1.0, abs=1e-9)

    def test_in_plane_ensemble_stays_nonnegative(self):
        # 500 belts about the z axis: the true density at the poles is ~1e-22,
        # which the synthesis reproduces only to round-off of either sign
        phase = np.linspace(0.0, 2 * math.pi, 500, endpoint=False)
        r0 = np.stack([np.cos(phase), np.sin(phase), np.zeros(500)], axis=1)
        v0 = 2.0 * np.stack([-np.sin(phase), np.cos(phase), np.zeros(500)], axis=1)
        grid = belt_average(r0, np.cross(r0, v0), 0.1)
        assert grid.meta["path"] == "spectral"
        assert np.all(grid.rho >= 0)
        top = grid.rho.max()
        assert grid.rho[0].max() <= 1e-14 * top and grid.rho[-1].max() <= 1e-14 * top
        assert -grid.meta["synthesis_error"] <= grid.meta["clamped_min"] <= 0.0

    def test_negative_beyond_error_bound_raises(self, monkeypatch):
        r, L = _linear_ensemble(500, 9)
        monkeypatch.setattr(density, "_spectral_sum",
                            lambda grid, *args: np.full(grid.rho.shape, -1e-6))
        with pytest.raises(IntegrationError, match="error bound"):
            belt_average(r, L, 0.1)


class TestInputValidation:
    def test_empty_ensemble_rejected(self):
        empty = np.zeros((0, 3))
        with pytest.raises(ParameterError, match="at least one"):
            belt_average(empty, empty)
        with pytest.raises(ParameterError, match="at least one"):
            second_moments(empty, empty)

    def test_mismatched_lengths_rejected(self):
        r0 = np.tile([1.0, 0.0, 0.0], (3, 1))
        w = np.tile([0.0, 1.0, 0.0], (2, 1))
        with pytest.raises(ParameterError, match="shape"):
            belt_average(r0, w)
        with pytest.raises(ParameterError, match="shape"):
            second_moments(r0, w)


class TestAnalyticLaw:
    def test_value_at_equator(self):
        assert analytic_zero_temp(math.pi / 2) == pytest.approx(1 / (2 * math.pi ** 2))
        assert analytic_zero_temp(math.pi / 2) == pytest.approx(0.05066, abs=1e-5)

    def test_normalized(self):
        th = np.linspace(1e-6, math.pi - 1e-6, 20001)
        integral = np.trapezoid(analytic_zero_temp(th) * np.sin(th), th) * 2 * math.pi
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_mirror_symmetry(self):
        th = np.linspace(0.1, 1.5, 7)
        assert np.allclose(analytic_zero_temp(th), analytic_zero_temp(math.pi - th))


class TestSecondMoments:
    def test_isotropic_rest_ensemble(self):
        u = uniform_matrix(9, 200_000, 4)
        r, L = linear_ensemble_from_uniforms(u, 0.0)
        mx, my, mz = second_moments(r, L)
        assert mx + my + mz == pytest.approx(1.0, abs=1e-10)
        for m in (mx, my, mz):
            assert m == pytest.approx(1 / 3, abs=0.005)

    def test_moments_match_belt_grid(self):
        u = uniform_matrix(14, 3000, 4)
        r, L = linear_ensemble_from_uniforms(u, 1.0)
        L = kick_momentum(r, L, 6.0, np.array([0.0, 0.0, 1.0]))
        analytic = second_moments(r, L)
        grid_m = grid_moments(belt_average(r, L, 0.05,
                                           grid=DensityGrid.build(91, 180)))
        # the belt grid smears by ~sigma^2, so compare loosely
        assert np.allclose(analytic, grid_m, atol=0.01)

    def test_symtop_sum_to_one(self):
        u = uniform_matrix(15, 5000, 5)
        r, L = symtop_ensemble_from_uniforms(u, 1.3, 1.8)
        m = second_moments(r, L)
        assert sum(m) == pytest.approx(1.0, abs=1e-10)


class TestQuadratureAndSpectra:
    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3, 1.0])
    def test_point_spectrum_against_scipy(self, sigma):
        # e^{-a} i_l(a) = sqrt(pi / (2a)) ive(l + 1/2, a), a = 1 / sigma^2
        a, l_max = 1.0 / sigma ** 2, density._spectrum_cap(min(sigma, 0.5))
        ref = math.sqrt(math.pi / (2.0 * a)) * ive(np.arange(l_max + 1) + 0.5, a)
        got = density._point_spectrum(l_max, a)
        assert np.max(np.abs(got - ref)) <= 1e-13 * ref[0]

    @pytest.mark.parametrize("sigma", [0.05, 0.5])
    def test_point_spectrum_termwise_against_exact(self, sigma):
        # each term to its own relative accuracy, tail terms included
        a, l_max = 1.0 / sigma ** 2, density._spectrum_cap(sigma)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.sqrt(mpmath.pi / (2 * a)) * mpmath.exp(-a)
                                  * mpmath.besseli(ell + 0.5, a)) for ell in range(l_max + 1)])
        got = density._point_spectrum(l_max, a)
        assert np.max(np.abs(got - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("n", [2, 50, 153, 273])
    def test_gauss_legendre_against_tridiagonal_solver(self, n, monkeypatch):
        x, w = angular.gauss_legendre(n)
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda t: eigvalsh_tridiagonal(np.diag(t), np.diag(t, 1)))
        x_ref, w_ref = angular.gauss_legendre.__wrapped__(n)     # built afresh, not cached
        assert np.max(np.abs(x - x_ref)) <= 1e-15 and np.max(np.abs(w - w_ref)) <= 1e-15
        assert np.sum(w) == pytest.approx(2.0, abs=1e-14)

    def test_gauss_legendre_built_once_per_size(self):
        # each belt reads its spectrum rule twice; the cached rule is shared,
        # so it is read-only and bitwise the rule built afresh
        rule = angular.gauss_legendre(153)
        assert angular.gauss_legendre(153) is rule
        assert not any(a.flags.writeable for a in rule)
        for cached, fresh in zip(rule, angular.gauss_legendre.__wrapped__(153)):
            assert np.array_equal(cached, fresh)


class TestMemory:
    """tracemalloc peaks of the density path: one Legendre buffer and one
    spectra table for the belt, one theta row for the text."""

    def test_belt_average_at_fig4_size(self):
        # fig4's final states: 4,000 N2 molecules at 50 K after P = 5 + 5 at 45 deg
        cfg = EnsembleConfig(mol=nitrogen(), T_K=50.0, n_traj=4000, seed=1, t_max=5.0,
                             pulses=(PulseSpec(P=5.0, p=(0.0, 0.0, 1.0)),
                                     PulseSpec.along(5.0, (1.0, 0.0, 1.0), t_apply="auto")))
        final = final_states(cfg)
        tracemalloc.start()
        try:
            grid = belt_average(final["r"], final["L"], 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.meta["path"] == "spectral"
        assert peak <= 8.5 * 2 ** 20

    def test_density_text_streams_rows(self, tmp_path):
        grid = DensityGrid.build(181, 360)
        grid.rho = np.random.default_rng(3).uniform(0.0, 1.0, grid.rho.shape)
        grid.meta.update(estimator="belt", sigma=0.1, n_molecules=4000)
        tracemalloc.start()
        try:
            io_formats.write_density_text(tmp_path / "density.csv", grid, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20
        theta, phi, rho, _ = io_formats.read_density_text(tmp_path / "density.csv")
        for got, ref in ((theta, grid.theta), (phi, grid.phi), (rho, grid.rho)):
            assert np.allclose(got, ref, rtol=1e-10, atol=0.0)


class TestUnique:
    def test_matches_numpy_unique(self):
        # repeated cone centres (a linear ensemble's zeros, shared c values)
        # and distinct ones, in the layout np.unique returns
        rng = np.random.default_rng(4)
        for x in (np.zeros(7), rng.choice([-0.5, 0.0, 0.25, 1.0], 300),
                  rng.uniform(-1.0, 1.0, 257), np.zeros(0)):
            centers, inverse = density._unique(x)
            ref_centers, ref_inverse = np.unique(x, return_inverse=True)
            assert np.array_equal(centers, ref_centers)
            assert np.array_equal(inverse, ref_inverse) and inverse.dtype == ref_inverse.dtype
            assert np.array_equal(centers[inverse], x)


class TestGrid:
    def test_build_shapes(self):
        g = DensityGrid.build(61, 90)
        assert g.theta.shape == (61,) and g.phi.shape == (90,)
        assert np.all(np.diff(g.theta) > 0)
        # quadrature integrates sin-weighted constants exactly
        g.rho = np.full((61, 90), 1 / (4 * math.pi))
        assert g.integral() == pytest.approx(1.0, rel=1e-12)
