"""Rotational wave-packet dynamics of a linear rigid rotor: the K = 0 top.

Works in the classical frame (z along the first pulse) with a truncated
|l, m> spherical-harmonic basis, 0 <= l <= l_max, at the flat index
l^2 + l + m.  Dimensionless energies are e_l = l(l+1)/2, so one revival
period is t' = 2 pi exactly and every observable trace is periodic in it.

An impulsive pulse applies the unitary exp(i P cos^2 beta) with
cos beta = p . r_hat: e^{iP/3} times the K = 0 pulse-frame blocks of
quantum_symtop, conjugated for a tilted p by D^l(alpha, beta, 0) on every l
shell.  The blocks are diagonalised once per distinct P in a run.

Every observable is Hermitian, so it is a dict of block tables {q: T} for
the m-offsets q >= 0 only, with T[m + l_max, l', l] = <l', m+q|A|l, m>; the
q < 0 tables are their mirrors.  The rank-2 Gaunt integrals
<l' m'|Y_2q|l m> fill them for the whole basis at once through
angular.wigner3j_array, and cos 2 phi by exact Gauss-Legendre quadrature.
Each segment's state batch is scattered once into its (m, l) stack, and
spectral.accumulate_pattern contracts it with the tables into the trace of
one (l', l) matrix of amplitudes of the beats e_l' - e_l, the same beats
as the symmetric top's (spectral.beat_freqs).

The thermal mixture is the K = 0 case of quantum_symtop.thermal_levels,
expanded to all m.  Its wave packets are a pulse-protocol state, fired and
recorded by ensemble.record_protocol: each segment builds its four weighted
traces once, for the auto-delay scan and the output grid alike.  The zero
beat of each trace (spectral.SpectralTrace) is its exact revival average.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import angular, quantum_symtop
from .core import MoleculeParams, ParameterError, PulseSpec, sigma_th
from .ensemble import TimeSeries, check_pulses, record_protocol
from .quantum_symtop import HEADROOM_BAND, _band_tail
from .spectral import SpectralTrace, accumulate_pattern


class LinearBasis:
    """Truncated |l, m> basis with cached operator block tables and kicks."""

    def __init__(self, l_max: int):
        if l_max < 0:
            raise ParameterError("l_max must be >= 0")
        self.l_max = l_max
        self.size = (l_max + 1) ** 2
        ls = np.concatenate([np.full(2 * l + 1, l) for l in range(l_max + 1)])
        ms = np.concatenate([np.arange(-l, l + 1) for l in range(l_max + 1)])
        self.l, self.m = ls.astype(np.int64), ms.astype(np.int64)
        self.energies = self.l * (self.l + 1) / 2.0
        self._ops: dict = {}

    def band_population(self, psi: np.ndarray) -> np.ndarray:
        """Per-state population within HEADROOM_BAND of l_max."""
        return (np.abs(psi[self.l > self.l_max - HEADROOM_BAND]) ** 2).sum(axis=0)

    def blocks(self, psi: np.ndarray) -> np.ndarray:
        """A (size, n_states) batch as its (m + l_max, l, n_states) stack."""
        out = np.zeros((2 * self.l_max + 1, self.l_max + 1, psi.shape[1]), dtype=complex)
        out[self.m + self.l_max, self.l] = psi
        return out

    # ---- operator block tables ---------------------------------------------

    def _table(self, m, lp, l, vals) -> np.ndarray:
        """A table with T[m + l_max, l', l] = vals and zeros elsewhere."""
        n = self.l_max + 1
        out = np.zeros((2 * n - 1, n, n), dtype=complex)
        out[m + self.l_max, lp, l] = vals
        return out

    def _diagonal(self, vals) -> dict:
        return {0: self._table(self.m, self.l, self.l, vals)}

    def _y2_matrix(self, q: int) -> np.ndarray:
        """Gaunt integrals <l' m+q|Y_2q|l m>, l' = l-2, l, l+2, as one table."""
        lp = self.l[:, None] + np.array([-2, 0, 2])
        col, step = np.nonzero((lp >= np.abs(self.m + q)[:, None]) & (lp <= self.l_max))
        l, m = self.l[col], self.m[col]
        lp, mp = l + 2 * step - 2, m + q
        sign = np.where(mp % 2 == 1, -1.0, 1.0)
        pref = np.sqrt((2 * lp + 1) * 5 * (2 * l + 1) / (4.0 * math.pi))
        return self._table(m, lp, l, sign * pref * angular.wigner3j_array(lp, 2, l, 0, 0, 0)
                           * angular.wigner3j_array(lp, 2, l, -mp, q, m))

    def op_cos2beta(self, p) -> dict:
        """(p . r_hat)^2 via the rank-2 addition theorem, for a unit p."""
        p = np.asarray(p, dtype=float)
        key = ("cos2beta", tuple(np.round(p, 15)))
        if key in self._ops:
            return self._ops[key]
        op = self._diagonal(1.0 / 3.0)
        pref = (2.0 / 3.0) * (4.0 * math.pi / 5.0)
        for q, y in enumerate(angular.y2_components(p)[2:]):
            if abs(y) >= 1e-300:
                op[q] = op.get(q, 0.0) + pref * np.conj(y) * self._y2_matrix(q)
        self._ops[key] = op
        return op

    def op_cos2theta(self) -> dict:
        return self.op_cos2beta(np.array([0.0, 0.0, 1.0]))

    def op_cos_2phi(self) -> dict:
        """cos(2 phi): couples m -> m + 2 with all Delta-l, built by exact
        Gauss-Legendre quadrature of the theta overlaps (polynomial integrands)."""
        key = "cos_2phi"
        if key in self._ops:
            return self._ops[key]
        L = self.l_max
        x, w = leggauss(L + 4)
        # m = 0..L from one sweep; Pbar_l,-m = (-1)^m Pbar_lm gives the rest
        sweep = list(angular.legendre_sweep(L, x))
        tables = [(-1.0) ** m * t for m, t in zip(range(L, 0, -1), sweep[:0:-1])] + sweep
        up = np.zeros((2 * L + 1, L + 1, L + 1), dtype=complex)   # <l', m+2|.|l, m>
        for m, t_lo, t_hi in zip(range(-L, L - 1), tables, tables[2:]):
            block = math.pi * (t_hi * w) @ t_lo.T
            up[m + L, abs(m + 2):, abs(m):] = np.where(np.abs(block) >= 1e-14, block, 0.0)
        self._ops[key] = op = {2: up}
        return op

    def op_cos2phi(self) -> dict:
        """Azimuthal factor cos^2(phi) = 1/2 + cos(2 phi)/2."""
        return {**self._diagonal(0.5),
                **{q: 0.5 * T for q, T in self.op_cos_2phi().items()}}

    def op_jy(self) -> dict:
        """J_y = (J_+ - J_-)/(2i) (dimensionless angular momentum): the J_+ table."""
        sel = self.m < self.l
        l, m = self.l[sel], self.m[sel]
        return {1: self._table(m, l, l, -0.5j * np.sqrt(l * (l + 1) - m * (m + 1)))}

    def op_j2(self) -> dict:
        return self._diagonal(self.l * (self.l + 1))

    def operator(self, name: str) -> dict:
        if name not in self._ops:
            build = {"cos2theta": self.op_cos2theta, "cos2phi": self.op_cos2phi,
                     "Ly": self.op_jy, "L2": self.op_j2}.get(name)
            if build is None:
                raise ParameterError(f"unknown observable {name!r}")
            self._ops[name] = build()
        return self._ops[name]


def _shell_rotations(l_max: int, p: np.ndarray) -> list[np.ndarray]:
    """D^l(alpha, beta, 0) for l = 0..l_max at the polar and azimuthal angles
    of p: d(pi/2) diag(e^{-i beta m}) d(pi/2)^T is exp(-i beta J_x), and the
    phases Q = diag(e^{-i pi m/2}) turn it into exp(-i beta J_y)."""
    beta, alpha = math.atan2(math.hypot(p[0], p[1]), p[2]), math.atan2(p[1], p[0])
    ms = (np.arange(-l, l + 1) for l in range(l_max + 1))
    return [np.exp(-1j * (alpha + math.pi / 2) * m)[:, None]    # diag(e^{-i alpha m}) Q
            * ((d * np.exp(-1j * beta * m)) @ d.T) * np.exp(0.5j * math.pi * m)
            for m, d in zip(ms, angular.wigner_d_half_pi(l_max))]


def kick_batch(basis: LinearBasis, psi: np.ndarray, pulse: PulseSpec) -> np.ndarray:
    """Apply one impulsive kick to a (size, n_states) coefficient batch."""
    l_max, p = basis.l_max, pulse.p_vec
    key = ("kick", pulse.P)
    if key not in basis._ops:            # one eigensystem per distinct P
        omega = quantum_symtop._pulse_frame_blocks(l_max, 0)
        basis._ops[key] = quantum_symtop._kicks(
            quantum_symtop._block_eigh(omega, 0, l_max + 1), pulse.P)
    U = basis._ops[key]
    shells = list(enumerate(_shell_rotations(l_max, p))) if p[0] or p[1] else []
    out = np.array(psi, dtype=complex, order="C")     # one copy, updated in place
    for l, D in shells:
        out[l * l:(l + 1) ** 2] = D.conj().T @ out[l * l:(l + 1) ** 2]
    for m in range(-l_max, l_max + 1):
        rows = np.flatnonzero(basis.m == m)
        out[rows] = U[abs(m), abs(m):, abs(m):] @ out[rows]
    for l, D in shells:
        out[l * l:(l + 1) ** 2] = D @ out[l * l:(l + 1) ** 2]
    out *= np.exp(1j * pulse.P / 3.0)
    _band_tail(basis.band_population(out), l_max, "after a kick")
    return out


@dataclass(frozen=True)
class _Packets:
    """The thermal wave packets between kicks, as a pulse-protocol state:
    columns psi at the segment start with their Boltzmann weights."""

    basis: LinearBasis
    psi: np.ndarray
    weights: np.ndarray

    @functools.cached_property
    def traces(self) -> dict[str, SpectralTrace]:
        """The weighted cos2theta, cos2phi, Ly and L2 traces, built on first use."""
        blocks = self.basis.blocks(self.psi)
        return {name: accumulate_pattern(self.basis.operator(name), blocks, self.weights)
                for name in ("cos2theta", "cos2phi", "Ly", "L2")}

    def advance(self, dt: float) -> "_Packets":
        phases = np.exp(-1j * self.basis.energies * dt)
        return _Packets(self.basis, self.psi * phases[:, None], self.weights)

    def kick(self, pulse: PulseSpec) -> "_Packets":
        return _Packets(self.basis, kick_batch(self.basis, self.psi, pulse), self.weights)

    def record(self, times: np.ndarray, h: float) -> dict:
        """The traces at the free-flight times since the segment's kick."""
        return {name: trace.evaluate(times) for name, trace in self.traces.items()}


# ---- thermal averaging -------------------------------------------------------


def nitrogen_spin_weights(l: int) -> float:
    """2:1 even:odd nuclear-spin alternation of N2 (6:3 degeneracies)."""
    return 2.0 if l % 2 == 0 else 1.0


def default_l_max(p_max: float, l0_max: int) -> int:
    # 4x the strongest kick |P| plus a constant margin wide enough that the
    # 1e-10 headroom band stays empty even for weak pulses
    return 12 + math.ceil(4.0 * p_max) + l0_max


def thermal_run(mol: MoleculeParams, T_K: float, pulses, t_max: float,
                dt_out: float, l_max: int | None = None,
                spin_weights=None) -> TimeSeries:
    """Boltzmann-averaged double-pulse run; times in T_rev units.

    Pulses are given in the classical frame and fired by
    ensemble.record_protocol: an "auto" second pulse fires at the first
    extremum of the quantum <cos^2 theta> trace after the first pulse.

    The returned TimeSeries carries meta["revival_avg"]: exact one-revival
    time averages of cos2theta, cos2phi, Ly and L2 over the final free
    segment.
    """
    if mol.kind != "linear":
        raise ParameterError("thermal_run handles linear molecules")
    pulses = check_pulses(pulses)
    levels, trunc = quantum_symtop.thermal_levels(mol, T_K, spin_weights)
    l0_max = levels[-1][0]
    p_max = max(abs(p.P) for p in pulses)
    l_max = quantum_symtop._basis_cutoff(l_max, l0_max, default_l_max(p_max, l0_max))
    basis = LinearBasis(l_max)
    # the K = 0 levels are l0 = 0..l0_max, all m: the first (l0_max + 1)^2 states
    n0 = (l0_max + 1) ** 2
    weights = np.repeat([w for _, _, w in levels], [2 * J + 1 for J, _, _ in levels])
    initial = _Packets(basis, np.eye(basis.size, n0, dtype=complex), weights)
    ts, _, last = record_protocol(pulses, t_max, dt_out, initial)
    ts.meta = {"l_max": l_max, "sigma_th": sigma_th(mol, T_K), "n_initial_states": n0,
               "weight_truncation": trunc,
               "n_blocks": len({p.P for p in pulses}) * (l_max + 1),
               "max_block_dim": l_max + 1,
               "spin_weights": "uniform" if spin_weights is None else "custom",
               **ts.meta,
               "headroom_tail": float(basis.band_population(last.psi).max()),
               "revival_avg": {name: float(trace.time_average)
                               for name, trace in last.traces.items()}}
    return ts
