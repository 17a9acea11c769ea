"""Scalar and direct-sum reference implementations the tests check against.

* gaunt_y2 and symtop_d2_element: one rank-2 matrix element from two
  scalar 3j symbols, the element-wise oracles of the Gaunt tables and of
  the symmetric-top coupling blocks;
* y2_components, gaunt_table and cos2beta_tables: (p . r_hat)^2 for any
  unit p on a `LinearBasis`, by the rank-2 addition theorem over the Gaunt
  integrals <l' m'|Y_2q|l m>, the oracle of the engine's cos^2 theta table
  (the K = 0 pulse-frame blocks) and of its tilted kicks;
* lm_index: the flat index l^2 + l + m of |l, m> in a `LinearBasis`;
* matrix_of: the dense matrix of a `LinearBasis` operator given as its
  q >= 0 block tables, dense or diagonal in l, mirrored into the q < 0
  ones, for the element-wise and dense-matrix oracles;
* observe_grid: <f(theta, phi)> of one |l, m> wave packet by quadrature of
  f against |Psi|^2, the reference for the operator expectation values;
* kde_at and kde_snapshot: the instantaneous kernel density estimate, each
  molecule smeared by a spherical Gaussian exp(-(1 - r.r_i)/sigma^2) /
  (2 pi sigma^2) and summed directly over the grid, the oracle for the
  long-time belt density;
* phi_average and grid_moments: the azimuthal profile and the quadrature
  second moments (<x^2>, <y^2>, <z^2>) of a `DensityGrid`;
* kicked_means: <z^2>, <L_y> and <|L|^2> right after a kick at each time of
  an ensemble's free flight, by positions, kick and mean per time, the
  direct oracle for `ensemble.delay_scan`'s harmonic sums;
* nitrogen_spin_weights: the 2:1 even:odd nuclear-spin weight hook of N2,
  for `quantum_linear.thermal_run(spin_weights=...)`;
* read_manifest: a `RunManifest` read back from its JSON file;
* write_timeseries_csv and write_density_text: the two CSV writers as they
  were before `io_formats.format_e10`, one `'%.10e' %` per value or row
  template, the byte reference of the array-formatting writers;
* moment_of_inertia: I from a rotational constant, the oracle for
  `revival_time`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from propeller_sim import __version__, angular
from propeller_sim.classical_symtop import SymTopEnsemble, kick_momentum
from propeller_sim.constants import PLANCK_H, SPEED_OF_LIGHT_CM
from propeller_sim.core import ParameterError, TWO_PI
from propeller_sim.density import DEFAULT_SIGMA, DensityGrid, _check_sigma
from propeller_sim.io_formats import RunManifest


def gaunt_y2(l1: int, m1: int, q: int, l2: int, m2: int) -> float:
    """<l1 m1 | Y_{2q} | l2 m2> (spherical-harmonic triple integral)."""
    if m1 != m2 + q:
        return 0.0
    pref = math.sqrt((2 * l1 + 1) * 5 * (2 * l2 + 1) / (4.0 * math.pi))
    return ((-1.0) ** m1 * pref * angular.wigner3j(l1, 2, l2, 0, 0, 0)
            * angular.wigner3j(l1, 2, l2, -m1, q, m2))


def symtop_d2_element(Jp: int, Mp: int, J: int, M: int, K: int, p: int) -> float:
    """<J' K M' | D^{2*}_{p,0} | J K M> for symmetric-top eigenstates."""
    if Mp != M + p:
        return 0.0
    pref = math.sqrt((2.0 * Jp + 1) * (2.0 * J + 1))
    sign = (-1.0) ** (p + M - K)
    return (pref * sign * angular.wigner3j(Jp, 2, J, Mp, -p, -M)
            * angular.wigner3j(Jp, 2, J, K, 0, -K))


def y2_components(p) -> np.ndarray:
    """[Y_{2,-2} .. Y_{2,2}] evaluated at the unit vector p."""
    x, y, z = p
    c2 = math.sqrt(15.0 / (32.0 * math.pi))
    c1 = math.sqrt(15.0 / (8.0 * math.pi))
    c0 = math.sqrt(5.0 / (16.0 * math.pi))
    xp, xm = complex(x, y), complex(x, -y)
    return np.array([c2 * xm * xm, c1 * z * xm, c0 * (3 * z * z - 1),
                     -c1 * z * xp, c2 * xp * xp])


def gaunt_table(basis, q: int) -> np.ndarray:
    """<l' m+q|Y_2q|l m>, l' = l-2, l, l+2, as one table T[m + l_max, l', l]
    over the whole basis: gaunt_y2 with the 3j symbols taken as arrays."""
    lp = basis.l[:, None] + np.array([-2, 0, 2])
    col, step = np.nonzero((lp >= np.abs(basis.m + q)[:, None]) & (lp <= basis.l_max))
    l, m = basis.l[col], basis.m[col]
    lp, mp = l + 2 * step - 2, m + q
    sign = np.where(mp % 2 == 1, -1.0, 1.0)
    pref = np.sqrt((2 * lp + 1) * 5 * (2 * l + 1) / (4.0 * math.pi))
    n = basis.l_max + 1
    out = np.zeros((2 * n - 1, n, n), dtype=complex)
    out[m + basis.l_max, lp, l] = (sign * pref * angular.wigner3j_array(lp, 2, l, 0, 0, 0)
                                   * angular.wigner3j_array(lp, 2, l, -mp, q, m))
    return out


def cos2beta_tables(basis, p) -> dict:
    """(p . r_hat)^2 for a unit p as {q: T} tables (see matrix_of), by the
    addition theorem (p . r_hat)^2 = 1/3 + (8 pi/15) sum_q Y*_2q(p) Y_2q(r_hat)."""
    n = basis.l_max + 1
    op = {0: np.zeros((2 * n - 1, n, n), dtype=complex)}
    op[0][basis.m + basis.l_max, basis.l, basis.l] = 1.0 / 3.0
    for q, y in enumerate(y2_components(np.asarray(p, dtype=float))[2:]):
        if abs(y) >= 1e-300:
            op[q] = op.get(q, 0.0) + (8.0 * math.pi / 15.0) * np.conj(y) * gaunt_table(basis, q)
    return op


def lm_index(l: int, m: int) -> int:
    """Flat index of |l, m> in a LinearBasis."""
    return l * l + l + m


def matrix_of(basis, op: dict, hermitian: bool = True) -> np.ndarray:
    """Dense matrix of {q: T} with T[m + l_max, l', l] = <l', m+q|A|l, m>, or
    T[m + l_max, l] = <l, m+q|A|l, m> for a table diagonal in l; real or complex.

    A Hermitian operator's q < 0 tables are the mirrors of its q > 0 ones,
    which are added here; hermitian=False takes the tables as they are.
    """
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for q, T in op.items():
        if T.ndim == 2:                 # diagonal in l: l' = l
            k, l = np.nonzero(T)
            lp, vals = l, T[k, l]
        else:
            k, lp, l = np.nonzero(T)
            vals = T[k, lp, l]
        m = k - basis.l_max
        rows, cols = lp * lp + lp + m + q, l * l + l + m
        out[rows, cols] = vals
        if hermitian and q > 0:
            out[cols, rows] = np.conj(vals)
    return out


def observe_grid(basis, c: np.ndarray, f) -> float:
    """<f(theta, phi)> by quadrature of f against |Psi|^2 on a GL x uniform grid."""
    l_max = basis.l_max
    n_th = 2 * l_max + 8
    n_ph = 4 * l_max + 16
    x, w = np.polynomial.legendre.leggauss(n_th)
    theta = np.arccos(x)
    phi = np.arange(n_ph) * (TWO_PI / n_ph)
    psi_m = np.zeros((2 * l_max + 1, n_th), dtype=complex)
    for m, tab in enumerate(angular.legendre_sweep(l_max, x)):
        # Pbar_l,-m = (-1)^m Pbar_lm
        psi_m[l_max + m] = c[basis.m == m] @ tab
        psi_m[l_max - m] = c[basis.m == -m] @ ((-1.0) ** m * tab)
    phases = np.exp(1j * np.outer(np.arange(-l_max, l_max + 1), phi))
    psi = psi_m.T @ phases          # (n_th, n_ph)
    dens = np.abs(psi) ** 2
    fv = f(theta[:, None], phi[None, :])
    return float(np.einsum("i,ij->", w, dens * fv) * (TWO_PI / n_ph))


def kde_at(at: np.ndarray, points: np.ndarray, sigma: float = DEFAULT_SIGMA) -> np.ndarray:
    """Kernel density estimate evaluated at arbitrary unit vectors."""
    _check_sigma(sigma)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    at = np.atleast_2d(np.asarray(at, dtype=float))
    n = points.shape[0]
    if n < 1:
        raise ParameterError("need at least one point")
    norm = 1.0 / (2.0 * math.pi * sigma * sigma)
    total = np.zeros(at.shape[0])
    for a in range(0, n, 128):
        dots = points[a:a + 128] @ at.T
        total += np.exp(-np.minimum((1.0 - dots) / (sigma * sigma), 745.0)).sum(axis=0)
    return total * (norm / n)


def kde_snapshot(points: np.ndarray, sigma: float = DEFAULT_SIGMA,
                 grid: DensityGrid | None = None) -> DensityGrid:
    """Instantaneous kernel density estimate from unit vectors (N, 3)."""
    grid = grid or DensityGrid.build()
    rho = kde_at(grid.points(), points, sigma)
    grid.rho = rho.reshape(len(grid.theta), len(grid.phi))
    grid.meta.update({"estimator": "kde", "sigma": sigma,
                      "n_molecules": np.atleast_2d(points).shape[0]})
    return grid


def phi_average(grid: DensityGrid) -> np.ndarray:
    return grid.rho.mean(axis=1)


def grid_moments(grid: DensityGrid) -> tuple[float, float, float]:
    """Quadrature second moments (<x^2>, <y^2>, <z^2>) of the density."""
    dphi = TWO_PI / len(grid.phi)
    st2, ct2 = np.sin(grid.theta) ** 2, np.cos(grid.theta) ** 2
    cp2, sp2 = np.cos(grid.phi) ** 2, np.sin(grid.phi) ** 2
    wth = grid.theta_weights
    mx = float(wth @ ((grid.rho * cp2[None, :]).sum(axis=1) * st2) * dphi)
    my = float(wth @ ((grid.rho * sp2[None, :]).sum(axis=1) * st2) * dphi)
    mz = float(wth @ (grid.rho.sum(axis=1) * ct2) * dphi)
    return mx, my, mz


def kicked_means(r: np.ndarray, L: np.ndarray, P: float, p: np.ndarray, times) -> np.ndarray:
    """(3, len(times)): <z^2>, <L_y> and <|L|^2> of the (r, L) ensemble right
    after a kick P p that hits it after free flight by each time."""
    flight = SymTopEnsemble(r, L)
    out = np.empty((3, len(times)))
    for i, t in enumerate(times):
        pos = flight.positions(t)
        kicked = kick_momentum(pos, L, P, p)
        out[:, i] = (np.mean(pos[:, 2] ** 2), np.mean(kicked[:, 1]),
                     np.mean(np.sum(kicked * kicked, axis=1)))
    return out


def nitrogen_spin_weights(l: int) -> float:
    """2:1 even:odd nuclear-spin alternation of N2 (6:3 degeneracies)."""
    return 2.0 if l % 2 == 0 else 1.0


def read_manifest(path) -> RunManifest:
    return RunManifest(**json.loads(Path(path).read_text()))


def write_timeseries_csv(path, ts, time_column: str = "t_trev"):
    names = list(ts.channels)
    lines = [f"# propeller-sim v{__version__}",
             ",".join([time_column] + names)]
    cols = [ts.grid] + [ts.channels[n] for n in names]
    for row in zip(*cols):
        lines.append(",".join("%.10e" % v for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_density_text(path, grid: DensityGrid, seed=None):
    meta = grid.meta
    lines = [
        f"# propeller-sim v{__version__} density grid",
        f"# estimator = {meta.get('estimator', 'unknown')}",
        f"# n_theta = {len(grid.theta)}",
        f"# n_phi = {len(grid.phi)}",
        f"# sigma = {'%.10e' % meta.get('sigma', float('nan'))}",
        f"# n_molecules = {meta.get('n_molecules', 0)}",
        f"# seed = {seed if seed is not None else meta.get('seed', '')}",
        "# columns: theta,phi,rho",
    ]
    # a theta row is one template whose %.10e fields take that row's rho values
    cells = [f",{'%.10e' % ph},%.10e\n" for ph in grid.phi.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        for th, rho in zip(grid.theta.tolist(), grid.rho):
            fh.write("".join(["%.10e" % th + c for c in cells]) % tuple(rho.tolist()))


def moment_of_inertia(B_cm1: float) -> float:
    """I in kg m^2 from a rotational constant in cm^-1 (B = h/(8 pi^2 I c))."""
    if not B_cm1 > 0:
        raise ParameterError("rotational constant must be positive")
    return PLANCK_H / (8 * math.pi**2 * B_cm1 * SPEED_OF_LIGHT_CM)
