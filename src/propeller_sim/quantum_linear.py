"""Rotational wave-packet dynamics of a linear rigid rotor: the K = 0 top.

Works in the classical frame (z along the first pulse) with a truncated
|l, m> spherical-harmonic basis, 0 <= l <= l_max, at the flat index
l^2 + l + m.  Dimensionless energies are e_l = l(l+1)/2, so one revival
period is t' = 2 pi exactly and every observable trace is periodic in it.

An impulsive pulse applies the unitary exp(i P cos^2 beta) with
cos beta = p . r_hat: e^{iP/3} times the K = 0 pulse-frame blocks of
quantum_symtop, conjugated for a tilted p on every l shell by
D^l(alpha, beta, 0) at p's azimuth and polar angle (angular.shell_rotations,
also quantum_symtop.delay_curve's turn into the second pulse's frame).  The
blocks are built and diagonalised once per basis, Omega = W diag(lam) W^T,
and every kick builds each block's W e^{iP lam/3} W^T from that one
eigensystem as it applies it, so no kick matrices are kept.

Every observable is Hermitian, so it is a dict of block tables {q: T} for
the m-offsets q >= 0 only, with T[m + l_max, l', l] = <l', m+q|A|l, m>; the
q < 0 tables are their mirrors.  A table diagonal in l (the 1/2 of
cos^2 phi, J^2, J_y's J_+) is stored as T[m + l_max, l], and the real ones
(cos^2 theta, cos 2 phi) as floats.  cos^2 theta is (1 + Omega)/3 on the
same K = 0 blocks as the kick, and cos 2 phi is built by exact
Gauss-Legendre quadrature.
One spectral.accumulate_pattern call per segment reads the flat state
batch one m block at a time (LinearBasis.m_rows) and contracts it with the
tables of all four observables, each into the trace of one (l', l) matrix
of amplitudes of the beats e_l' - e_l, the same beats as the symmetric
top's.  After a kick along z every state keeps its m, so the density of
each m block reads only the states that live in it.

The front end is the symmetric top's at K = 0: quantum_symtop._thermal_setup
gives the levels, the spin weights and l_max (default_l_max), and
thermal_states the columns |l0, m0> with their weights.  When every pulse
lies in the xz plane (p_y = 0, as in every CLI run), the reflection
y -> -y maps |l, m> to +-|l, -m>, commutes with the kicks and the free
flight and leaves all four observables unchanged, so only m0 >= 0 is
carried, m0 > 0 at twice the weight.  Its wave packets are a
pulse-protocol state, fired and recorded by ensemble.record_protocol: each
segment builds its four weighted traces once, for the auto-delay scan and
the output grid alike.  The zero beat of each trace (spectral.SpectralTrace)
is its exact revival average.
A free flight only records its duration: the next kick applies its phases
in the one copy of the batch that it makes, so each kick, not each flight,
costs one batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import angular, quantum_symtop
from .core import MoleculeParams, ParameterError, PulseSpec, sigma_th
from .ensemble import TimeSeries, check_pulses, record_protocol
from .quantum_symtop import HEADROOM_BAND, STATE_BATCH_BYTES, _band_tail
from .spectral import SpectralTrace, accumulate_pattern


class LinearBasis:
    """Truncated |l, m> basis with cached operator block tables and kick eigensystem."""

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

    @functools.cached_property
    def m_rows(self) -> list:
        """The flat rows of each m block, m = -l_max..l_max: l^2 + l + m for l >= |m|."""
        ls = np.arange(self.l_max + 1)
        return [ls[abs(m):] * (ls[abs(m):] + 1) + m for m in range(-self.l_max, self.l_max + 1)]

    # ---- operator block tables ---------------------------------------------

    def _diagonal(self, vals) -> np.ndarray:
        """A table diagonal in l, d[m + l_max, l] = vals(l, m), zero where l < |m|."""
        m, l = np.ogrid[-self.l_max:self.l_max + 1, :self.l_max + 1]
        return np.where(l >= np.abs(m), vals(l, m), 0.0)

    @functools.cached_property
    def _omega(self) -> np.ndarray:
        """Omega = 3 cos^2 theta - 1 on the K = 0 pulse-frame blocks m = 0..l_max."""
        return quantum_symtop._pulse_frame_blocks(self.l_max, 0)

    @functools.cached_property
    def _eigs(self) -> list:
        """The blocks of Omega, diagonalised once for the kicks of every strength."""
        return quantum_symtop._block_eigh(self._omega, 0, self.l_max + 1)

    def op_cos2beta(self) -> dict:
        """cos^2 theta = (1 + Omega)/3 on every m block, zero where l or l' < |m|."""
        L = self.l_max
        m = np.abs(np.arange(-L, L + 1))
        live = np.arange(L + 1) >= m[:, None]
        return {0: (live[:, :, None] * np.eye(L + 1) + self._omega[m]) / 3.0}

    def op_cos2phi(self) -> dict:
        """Azimuthal factor cos^2(phi) = 1/2 + cos(2 phi)/2.  cos(2 phi) couples
        m -> m + 2 with all Delta-l, by exact Gauss-Legendre quadrature of the
        theta overlaps (polynomial integrands); the table is real."""
        L = self.l_max
        x, w = angular.gauss_legendre(L + 4)
        # m = 0..L from one sweep, each table copied out of the sweep's one
        # buffer; Pbar_l,-m = (-1)^m Pbar_lm gives the rest
        sweep = [t.copy() for t in angular.legendre_sweep(L, x)]
        tables = [(-1.0) ** m * t for m, t in zip(range(L, 0, -1), sweep[:0:-1])] + sweep
        up = np.zeros((2 * L + 1, L + 1, L + 1))      # <l', m+2|cos(2 phi)/2|l, m>
        for m, t_lo, t_hi in zip(range(-L, L - 1), tables, tables[2:]):
            block = math.pi * (t_hi * w) @ t_lo.T
            up[m + L, abs(m + 2):, abs(m):] = 0.5 * np.where(np.abs(block) >= 1e-14, block, 0.0)
        return {0: self._diagonal(lambda l, m: 0.5), 2: up}

    def op_jy(self) -> dict:
        """J_y = (J_+ - J_-)/(2i) (dimensionless angular momentum): the J_+ table,
        diagonal in l, zero at m = l."""
        return {1: self._diagonal(lambda l, m: np.where(
            m < l, -0.5j * np.sqrt(np.maximum(l * (l + 1) - m * (m + 1), 0)), 0.0))}

    def op_j2(self) -> dict:
        return {0: self._diagonal(lambda l, m: l * (l + 1.0))}

    def operator(self, name: str) -> dict:
        if name not in self._ops:
            build = {"cos2theta": self.op_cos2beta, "cos2phi": self.op_cos2phi,
                     "Ly": self.op_jy, "L2": self.op_j2}.get(name)
            if build is None:
                raise ParameterError(f"unknown observable {name!r}")
            self._ops[name] = build()
        return self._ops[name]


def kick_batch(basis: LinearBasis, psi: np.ndarray, pulse: PulseSpec,
               dt: float = 0.0) -> np.ndarray:
    """Apply one impulsive kick to a (size, n_states) coefficient batch after
    a free flight of dt, whose phases e^{-i e_l dt} fill the one copy made.
    Each m block's kick W e^{iP lam/3} W^T is built from the basis's one
    eigensystem Omega = W diag(lam) W^T when it is applied, and not kept."""
    l_max, p = basis.l_max, pulse.p_vec
    beta, alpha = math.atan2(math.hypot(p[0], p[1]), p[2]), math.atan2(p[1], p[0])
    shells = list(enumerate(angular.shell_rotations(l_max, alpha, beta))) if p[0] or p[1] else []
    # one copy, updated in place
    out = (psi * np.exp(-1j * basis.energies * dt)[:, None] if dt
           else np.array(psi, dtype=complex, order="C"))
    for l, D in shells:
        out[l * l:(l + 1) ** 2] = D.conj().T @ out[l * l:(l + 1) ** 2]
    for m, rows in zip(range(-l_max, l_max + 1), basis.m_rows):
        lam, W = basis._eigs[abs(m)]
        out[rows] = ((W * np.exp(1j * (pulse.P / 3.0) * lam)) @ W.T) @ out[rows]
    for l, D in shells:
        out[l * l:(l + 1) ** 2] = D @ out[l * l:(l + 1) ** 2]
    out *= np.exp(1j * pulse.P / 3.0)
    _band_tail(basis.band_population(out), l_max, "after a kick")
    return out


@dataclass(frozen=True)
class _Packets:
    """The thermal wave packets between kicks, as a pulse-protocol state:
    columns psi at the last kick with their Boltzmann weights, and the free
    flight since then, which the next kick applies.  Traces are built only
    for packets that have not flown (the initial state and each kick's)."""

    basis: LinearBasis
    psi: np.ndarray
    weights: np.ndarray
    flight: float = 0.0

    @functools.cached_property
    def traces(self) -> dict[str, SpectralTrace]:
        """The weighted cos2theta, cos2phi, Ly and L2 traces, built on first use."""
        return accumulate_pattern({name: self.basis.operator(name)
                                   for name in ("cos2theta", "cos2phi", "Ly", "L2")},
                                  self.psi, self.basis.m_rows, self.weights)

    def advance(self, dt: float) -> "_Packets":
        return _Packets(self.basis, self.psi, self.weights, self.flight + dt)

    def kick(self, pulse: PulseSpec) -> "_Packets":
        return _Packets(self.basis, kick_batch(self.basis, self.psi, pulse, self.flight),
                        self.weights)

    def cos2theta(self, times: np.ndarray, h: float) -> np.ndarray:
        """The cos2theta trace alone at the free-flight times since the kick."""
        return self.traces["cos2theta"].evaluate(times)

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
    levels, l_max, setup = quantum_symtop._thermal_setup(
        mol, T_K, [p.P for p in pulses], l_max, spin_weights, default_l_max)
    mirror = all(p.p[1] == 0.0 for p in pulses)       # every pulse in the xz plane
    l0, m0, weights = quantum_symtop.thermal_states(0, levels[0], mirror)
    n_cols = len(weights)
    if (l_max + 1) ** 2 * n_cols * 16 > STATE_BATCH_BYTES:
        raise ParameterError(f"T={T_K} K needs a {(l_max + 1) ** 2} x {n_cols} state batch at "
                             f"l_max={l_max}, over STATE_BATCH_BYTES = {STATE_BATCH_BYTES}")
    basis = LinearBasis(l_max)
    psi = np.zeros((basis.size, n_cols), dtype=complex)
    psi[l0 * (l0 + 1) + m0, np.arange(n_cols)] = 1.0
    ts, _, last = record_protocol(pulses, t_max, dt_out, _Packets(basis, psi, weights))
    ts.meta = {"l_max": l_max, "sigma_th": sigma_th(mol, T_K),
               "n_initial_states": setup["n_initial_states"], "n_columns": n_cols,
               "weight_truncation": setup["weight_truncation"],
               "n_blocks": l_max + 1, "max_block_dim": l_max + 1,
               "spin_weights": "uniform" if spin_weights is None else "custom",
               **ts.meta,
               "headroom_tail": float(basis.band_population(last.psi).max()),
               "revival_avg": {name: float(trace.time_average)
                               for name, trace in last.traces.items()}}
    return ts
