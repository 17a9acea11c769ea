"""Angular-distribution estimators on the unit sphere.

Two reconstructions of the molecular-axis distribution from a Monte Carlo
ensemble:

* belt_average: per-molecule long-time average.  A freely rotating linear
  molecule covers a great circle, so its time-averaged density is a Gaussian
  "belt" exp(-(e_L.r)^2/(2 sigma^2)) around the plane normal to its angular
  momentum direction; a symmetric top covers its precession cone
  e_L.r = cos(theta_pr), handled by the same kernel recentered on the cone
  (the per-molecule normalization is then the exact truncated-Gaussian
  integral).  Molecules at rest contribute a point kernel at their position;
* analytic_zero_temp: the closed-form 1/(2 pi^2 sin theta) law for molecules
  kicked from rest by a single z-polarized pulse.

Grids are Gauss-Legendre in cos(theta) crossed with uniform phi, so the
normalization integral is spectrally accurate.

belt_average has two paths that agree to ~1e-13 of the peak density:

* direct: every kernel evaluated at every grid node, N x n_theta x n_phi
  exponentials.  It is the reference the tests compare against.
* spectral: every belt, cone and point kernel is zonal, k_i(u_i . r), so by
  the Funk-Hecke theorem (Atkinson & Han, Spherical Harmonics and
  Approximations on the Unit Sphere, 2012)
  sum_i k_i(u_i . r) = sum_lm Y_lm(r) sum_i kappa_il Y*_lm(u_i), with the
  kernel spectrum kappa_l = 2 pi int k(t) P_l(t) dt (closed form for the
  point kernel, Gauss-Legendre projection for belts and cones).  The
  harmonic moments cost O(N L^2) and one synthesis puts them on the grid.
  The truncation degree L is the last degree at which some kernel's
  |kappa_l| / kappa_0 exceeds one rounding unit: L = 88 for sigma = 0.1
  belts, 166 for sigma = 0.05.  grid.meta records L, the kernel-spectrum
  tail beyond it, the resulting error bound, and the most negative value
  before round-off below zero was clamped.

The path follows an operation count over N, n_theta * n_phi and L.  On the
181 x 360 grid at sigma = 0.1 the measured crossover is near N = 80 (one
molecule: 12 ms direct, 110 ms spectral; 4000 molecules: 5.8 s direct,
0.17 s spectral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import angular
from . import classical_symtop as csym
from .core import IntegrationError, ParameterError, TWO_PI

DEFAULT_SIGMA = 0.1
_KERNEL_CUTOFF = 45.0    # exp(-45^2/2) ~ 1e-440; beyond this the kernel is zero
_MOL_CHUNK = 128
_SPECTRAL_CHUNK = 8192     # molecules per chunk of the harmonic-moment sums
_SPECTRUM_TOL = float(np.finfo(float).eps)   # |kappa_l| / kappa_0 below which l is dropped
# spectral costs in direct-sum kernel evaluations (22 ns each on a 2-core
# x86 box): one Legendre recursion step per molecule or grid row, and the
# interpreter overhead of one (l, m) row
_SPECTRAL_STEP_COST = 0.1
_SPECTRAL_ROW_COST = 700.0


@dataclass
class DensityGrid:
    """Density samples rho(theta, phi) with quadrature weights (integral ~ 1)."""

    theta: np.ndarray          # (n_theta,) polar nodes, increasing
    phi: np.ndarray            # (n_phi,) azimuthal nodes, uniform
    rho: np.ndarray            # (n_theta, n_phi), >= 0
    theta_weights: np.ndarray  # Gauss-Legendre weights in cos(theta)
    meta: dict = field(default_factory=dict)

    @classmethod
    def build(cls, n_theta: int = 181, n_phi: int = 360) -> "DensityGrid":
        x, w = leggauss(n_theta)
        order = np.argsort(-x)               # increasing theta = decreasing cos
        theta = np.arccos(x[order])
        phi = np.arange(n_phi) * (TWO_PI / n_phi)
        return cls(theta=theta, phi=phi, rho=np.zeros((n_theta, n_phi)),
                   theta_weights=w[order])

    def points(self) -> np.ndarray:
        """All grid nodes as unit vectors, shape (n_theta * n_phi, 3)."""
        st, ct = np.sin(self.theta), np.cos(self.theta)
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        x = st[:, None] * cp[None, :]
        y = st[:, None] * sp[None, :]
        z = np.broadcast_to(ct[:, None], x.shape)
        return np.stack([x, y, z], axis=-1).reshape(-1, 3)

    def integral(self) -> float:
        dphi = TWO_PI / len(self.phi)
        return float(self.theta_weights @ self.rho.sum(axis=1) * dphi)


def _check_sigma(sigma: float):
    if not (0.0 < sigma <= 0.5):
        raise ParameterError(
            f"kernel width must be in (0, 0.5], got {sigma} "
            "(the small-angle form 1 - cos(a) ~ a^2/2 breaks down beyond)")


def _accumulate(grid_pts: np.ndarray, centers_or_axes: np.ndarray,
                kernel_of_dots) -> np.ndarray:
    """Sum kernel_of_dots(E_chunk @ grid^T) over molecule chunks."""
    total = np.zeros(grid_pts.shape[0])
    for a in range(0, centers_or_axes.shape[0], _MOL_CHUNK):
        dots = centers_or_axes[a:a + _MOL_CHUNK] @ grid_pts.T
        total += kernel_of_dots(dots).sum(axis=0)
    return total


def _ensemble_arrays(r0, L) -> tuple[np.ndarray, np.ndarray]:
    """Axes and angular momenta as matching (N, 3) arrays, N >= 1."""
    r0 = np.atleast_2d(np.asarray(r0, dtype=float))
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if r0.shape != L.shape or r0.ndim != 2 or r0.shape[1] != 3:
        raise ParameterError(f"positions {r0.shape} and angular momenta {L.shape} "
                             "must both have shape (N, 3)")
    if r0.shape[0] < 1:
        raise ParameterError("need at least one molecule")
    return r0, L


def _spectrum_cap(sigma: float) -> int:
    """Degree by which every kernel spectrum has decayed below e^-72 of its l = 0 term.

    The sharpest profiles (the point kernel and the belt through the origin)
    have angular width sigma, so their spectra fall like exp(-l^2 sigma^2 / 2).
    """
    return int(math.ceil(12.0 / sigma)) + 32


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights accurate to rounding.

    Golub-Welsch nodes polished by two Newton steps on P_n, weights from
    2 / ((1 - x^2) P_n'(x)^2).  numpy's leggauss and the raw eigenvector
    weights are each off by 1e-16 to 1e-14 somewhere on [-1, 1], and that
    error becomes the noise floor of the kernel spectra.
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
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _point_spectrum(l_max: int, a: float) -> np.ndarray:
    """e^{-a} i_l(a) for l <= l_max, i_l the modified spherical Bessel function.

    Miller's backward recurrence i_{l-1} = i_{l+1} + (2l + 1) / a i_l, run
    as ratios i_l / i_{l-1} from a start far enough above l_max that the
    growing solution has died out (its share falls like e^{-(n^2 - l^2)/a}),
    then normalised by e^{-a} i_0(a) = (1 - e^{-2a}) / (2a).
    """
    start = l_max + int(math.ceil(math.sqrt(50.0 * a))) + 20
    factors = np.empty(l_max + 1)        # e^{-a} i_0, then i_l / i_{l-1}
    r = 0.0
    for ell in range(start, 0, -1):
        r = 1.0 / ((2 * ell + 1) / a + r)
        if ell <= l_max:
            factors[ell] = r
    factors[0] = -math.expm1(-2.0 * a) / (2.0 * a)
    return np.cumprod(factors)


def _unique(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of a 1-D array and each element's index among
    them, as np.unique(x, return_inverse=True) gives them, by a sort and a
    diff (np.unique imports numpy.ma on its first call in a process)."""
    order = np.argsort(x)
    ordered = x[order]
    first = np.ones(len(x), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _kernel_spectra(c: np.ndarray, point: np.ndarray, sigma: float,
                    l_max: int) -> np.ndarray:
    """kappa[l, i] = 2 pi int_{-1}^{1} k_i(t) P_l(t) dt for l <= l_max.

    k_i is the cone exp(-(t - c_i)^2 / (2 sigma^2)), or where point[i] the
    point kernel exp(-(1 - t) / sigma^2).  By Funk-Hecke a zonal kernel about
    u is sum_l kappa_l sum_m Y_lm(r) Y*_lm(u).  Cone spectra are Gauss-Legendre
    projections on the same nodes for every l_max, so truncating a spectrum
    never changes its leading entries.
    """
    out = np.empty((l_max + 1, len(c)))
    ell = np.arange(l_max + 1)
    if np.any(point):
        # int e^{-a(1-t)} P_l(t) dt = 2 e^{-a} i_l(a), i_l the modified
        # spherical Bessel function, a = 1 / sigma^2
        out[:, point] = 2.0 * TWO_PI * _point_spectrum(l_max, 1.0 / (sigma * sigma))[:, None]
    centers, inverse = _unique(c[~point])
    if centers.size:
        t, wq = _gauss_legendre(_spectrum_cap(sigma) + 1)
        legendre = (angular.legendre_table(l_max, 0, t)
                    * np.sqrt(2.0 * TWO_PI / (2.0 * ell + 1.0))[:, None])    # P_l(t)
        k = np.exp(-(t[None, :] - centers[:, None]) ** 2 / (2.0 * sigma * sigma))
        out[:, ~point] = (TWO_PI * (legendre * wq) @ k.T)[:, inverse]
    return out


def _truncation(c: np.ndarray, point: np.ndarray, sigma: float) -> tuple[int, np.ndarray]:
    """Truncation degree L and the peak-normalized spectrum envelope.

    L is the last degree at which some kernel's |kappa_l| / kappa_0 exceeds
    _SPECTRUM_TOL.  Cones with centres near +-1 carry quadrature round-off
    of order 1e-15 in that ratio, so for them L can run to the cap; that
    only costs time.  The envelope s_l = (2l + 1) / (4 pi) max_i |kappa_il|
    bounds the degree-l part of any kernel relative to its peak value 1, so
    the sum of s_l beyond L bounds the truncation error.
    """
    l_cap = _spectrum_cap(sigma)
    centers = _unique(c[~point])[0]         # one profile per distinct cone ...
    if np.any(point):                       # ... and one for all point kernels
        centers = np.append(centers, 1.0)
    is_point = np.arange(centers.size) >= centers.size - np.any(point)
    ratio = np.zeros(l_cap + 1)
    peak = np.zeros(l_cap + 1)
    for a in range(0, centers.size, _SPECTRAL_CHUNK):
        s = slice(a, a + _SPECTRAL_CHUNK)
        kap = np.abs(_kernel_spectra(centers[s], is_point[s], sigma, l_cap))
        ratio = np.maximum(ratio, (kap / kap[0]).max(axis=1))
        peak = np.maximum(peak, kap.max(axis=1))
    above = np.nonzero(ratio > _SPECTRUM_TOL)[0]
    l_max = int(above.max()) if above.size else 0
    return l_max, (2.0 * np.arange(l_cap + 1) + 1.0) / (4.0 * math.pi) * peak


def _spectral_sum(grid: DensityGrid, u: np.ndarray, c: np.ndarray, point: np.ndarray,
                  amp: np.ndarray, sigma: float, l_max: int) -> np.ndarray:
    """sum_i amp_i k_i(u_i . r) on the grid, by harmonic moments and synthesis.

    A_lm = sum_i amp_i kappa_il Ybar_lm(u_i) accumulates one m at a time over
    fixed molecule chunks; then rho(theta_j, phi_k) =
    sum_m c_m Re[e^{i m phi_k} sum_l Pbar_lm(x_j) A_lm], c_0 = 1, c_m = 2.
    """
    ms = np.arange(l_max + 1)
    moments = np.zeros((2, l_max + 1, l_max + 1))      # Re/Im A_lm, [., l, m]
    for a in range(0, len(u), _SPECTRAL_CHUNK):
        s = slice(a, a + _SPECTRAL_CHUNK)
        kap = _kernel_spectra(c[s], point[s], sigma, l_max) * amp[s]
        x = u[s, 2]
        phi = np.arctan2(u[s, 1], u[s, 0])
        for m, table in enumerate(angular.legendre_sweep(l_max, x)):
            conj_phase = np.stack([np.cos(m * phi), -np.sin(m * phi)], axis=1)
            moments[:, m:, m] += ((table * kap[m:]) @ conj_phase).T
    # evaluate at |x| and restore the sign by parity, Pbar_lm(-x) =
    # (-1)^(l+m) Pbar_lm(x), so that mirror nodes share their rounding and
    # a density symmetric under z -> -z stays symmetric to the last bit or two
    x_grid = np.cos(grid.theta)
    if np.allclose(x_grid, -x_grid[::-1], rtol=0.0, atol=4.0 * np.finfo(float).eps):
        x_grid = 0.5 * (x_grid - x_grid[::-1])
    sign = np.sign(x_grid)
    rows = np.empty((2, len(grid.theta), l_max + 1))
    for m, table in enumerate(angular.legendre_sweep(l_max, np.abs(x_grid))):
        rows[:, :, m] = (moments[:, m::2, m] @ table[0::2]
                         + sign * (moments[:, m + 1::2, m] @ table[1::2]))
    rows[:, :, 1:] *= 2.0
    m_phi = np.outer(ms, grid.phi)
    return rows[0] @ np.cos(m_phi) - rows[1] @ np.sin(m_phi)


def _spectral_is_cheaper(n: int, n_theta: int, n_phi: int, l_max: int) -> bool:
    """Operation-count dispatch between the direct and the spectral sum.

    The direct sum costs one kernel evaluation per molecule and grid node;
    the spectral sum costs, per (l, m) row, one recursion step per molecule
    and per grid row plus a fixed interpreter overhead.
    """
    per_row = _SPECTRAL_ROW_COST + _SPECTRAL_STEP_COST * (n + n_theta)
    return (l_max + 1) ** 2 * per_row < n * n_theta * n_phi


def _direct_sum(gp: np.ndarray, e_l: np.ndarray, c: np.ndarray, amp: np.ndarray,
                rest: np.ndarray, sigma: float) -> np.ndarray:
    """Belt/cone and point kernels summed node by node over molecule chunks."""
    s2 = sigma * sigma
    rho = np.zeros(gp.shape[0])
    for a in range(0, e_l.shape[0], _MOL_CHUNK):
        dots = e_l[a:a + _MOL_CHUNK] @ gp.T
        dev = dots - c[a:a + _MOL_CHUNK, None]
        mask = np.abs(dev) < _KERNEL_CUTOFF * sigma
        block = np.where(mask, np.exp(-np.minimum(dev * dev / (2.0 * s2), 745.0)), 0.0)
        rho += amp[a:a + _MOL_CHUNK] @ block
    if rest.shape[0]:
        def kern(dots):
            return np.exp(-np.minimum((1.0 - dots) / s2, 745.0))

        amp0 = 1.0 / (2.0 * math.pi * s2)
        rho += amp0 * _accumulate(gp, rest, kern)
    return rho


def belt_average(kind: str, r0: np.ndarray, L: np.ndarray,
                 sigma_belt: float = DEFAULT_SIGMA,
                 grid: DensityGrid | None = None) -> DensityGrid:
    """Long-time-averaged density from per-molecule rotation belts.

    Each molecule (axis r0, angular momentum L) covers its precession cone
    e_L.r = cos(theta_pr).  kind "linear" takes the centre of every belt as
    exactly 0, the great circle of L . r0 = 0, so that rounding in the
    computed cos(theta_pr) cannot split the belts' one Legendre spectrum;
    kind "symtop" takes the computed centres.  Molecules with no rotation
    of their axis (at rest, or axis parallel to L) contribute a point kernel
    at r0 instead.

    grid.meta records the path taken ("direct" or "spectral"), the truncation
    degree l_max, the kernel-spectrum tail beyond it, the bound on the
    spectral synthesis error, and the most negative spectral value before
    round-off below zero was clamped (clamped_min).
    """
    _check_sigma(sigma_belt)
    if kind not in ("linear", "symtop"):
        raise ParameterError(f"unknown ensemble kind {kind!r}")
    r0, L = _ensemble_arrays(r0, L)
    n = r0.shape[0]
    grid = grid or DensityGrid.build()
    s2 = sigma_belt * sigma_belt

    Lnorm = np.linalg.norm(L, axis=-1)
    eL_all = L / np.maximum(Lnorm, 1e-300)[:, None]
    cos_pr = np.clip(np.einsum("ij,ij->i", eL_all, r0), -1.0, 1.0)
    sin_pr = np.sqrt(np.clip(1.0 - cos_pr**2, 0.0, 1.0))
    live = (Lnorm > csym.REST_MOMENTUM) & (sin_pr > csym.CONE_SIN)
    e_l = eL_all[live]
    c = np.zeros(e_l.shape[0]) if kind == "linear" else cos_pr[live]
    # exact on-sphere normalization of the recentered Gaussian in u = e_L.r
    rt2 = math.sqrt(2.0) * sigma_belt
    centers, inverse = _unique(c)
    mass = 0.5 * np.array([math.erf((1.0 - x) / rt2) + math.erf((1.0 + x) / rt2)
                           for x in centers.tolist()])[inverse]
    amp = 1.0 / (TWO_PI * math.sqrt(TWO_PI * s2) * mass)
    rest = r0[~live]

    # every kernel as (axis, cone centre, point flag, amplitude)
    u = np.concatenate([e_l, rest])
    centers = np.concatenate([c, np.ones(rest.shape[0])])
    point = np.arange(n) >= e_l.shape[0]
    amps = np.concatenate([amp, np.full(rest.shape[0], 1.0 / (2.0 * math.pi * s2))])
    l_max, envelope = _truncation(centers, point, sigma_belt)
    tail = float(envelope[l_max + 1:].sum())
    meta = {"estimator": "belt", "sigma": sigma_belt, "n_molecules": n,
            "n_live": int(e_l.shape[0]), "n_rest": int(rest.shape[0]),
            "l_max": l_max, "spectrum_tail": tail}

    n_theta, n_phi = len(grid.theta), len(grid.phi)
    if _spectral_is_cheaper(n, n_theta, n_phi, l_max):
        rho = _spectral_sum(grid, u, centers, point, amps, sigma_belt, l_max) / n
        rounding = (l_max + 1) * np.finfo(float).eps * float(envelope[:l_max + 1].sum())
        error = float(amps.mean()) * (tail + rounding)
        lowest = float(min(rho.min(), 0.0))
        if lowest < -error:
            raise IntegrationError(
                f"spectral belt density reaches {lowest:.3e}, below its synthesis "
                f"error bound -{error:.3e}")
        grid.rho = np.maximum(rho, 0.0)
        meta.update(path="spectral", synthesis_error=error, clamped_min=lowest)
    else:
        rho = _direct_sum(grid.points(), e_l, c, amp, rest, sigma_belt)
        grid.rho = (rho / n).reshape(n_theta, n_phi)
        meta.update(path="direct", synthesis_error=0.0, clamped_min=0.0)
    grid.meta.update(meta)
    return grid


def analytic_zero_temp(theta) -> np.ndarray:
    """Normalized time-averaged density 1/(2 pi^2 sin theta) (T = 0, one z-pulse)."""
    return 1.0 / (2.0 * math.pi**2 * np.sin(np.asarray(theta, dtype=float)))


def second_moments(r0: np.ndarray, L: np.ndarray):
    """Ensemble- and time-averaged (<x^2>, <y^2>, <z^2>), computed analytically.

    The time average runs over each molecule's own closed trajectory (its
    precession cone, a great circle for a linear rotor) with uniform
    measure, so no numerical time stepping enters; the three moments sum to
    1 exactly.
    """
    per_mol = csym.SymTopEnsemble(*_ensemble_arrays(r0, L)).time_average_squares()
    m = per_mol.mean(axis=0)
    return float(m[0]), float(m[1]), float(m[2])
