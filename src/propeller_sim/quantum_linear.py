"""Rotational wave-packet dynamics of a linear rigid rotor.

Works in the classical frame (z along the first pulse) with a truncated
|l, m> spherical-harmonic basis, 0 <= l <= l_max.  Dimensionless energies are
e_l = l(l+1)/2, so one revival period is t' = 2 pi exactly and every
observable trace is periodic in it.

An impulsive pulse applies the unitary exp(i P cos^2 beta) with
cos beta = p . r_hat: e^{iP/3} times the K = 0 pulse-frame blocks of
quantum_symtop, conjugated for a tilted p by D^l(alpha, beta, 0) on every l
shell.  The rank-2 observables' Gaunt integrals <l' m'|Y_2q|l m> are
evaluated for the whole basis at once with angular.wigner3j_array.

Thermal averaging sums per-initial-state traces with Boltzmann weights
(optionally modified by a nuclear-spin weight hook); the traces themselves
are evaluated by frequency grouping (spectral.SpectralTrace), whose
zero-frequency bin also provides exact revival-period averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import angular, quantum_symtop
from .core import (MoleculeParams, ParameterError, ProtocolError, PulseSpec,
                   TruncationError, TWO_PI, sigma_th)
from .ensemble import TimeSeries, first_local_extremum, parabolic_vertex
from .spectral import SpectralTrace, accumulate_pattern

SCAN_STEP = TWO_PI / 2000.0
HEADROOM_BAND = 4          # top l band that must stay unpopulated
HEADROOM_TOL = 1e-10
WEIGHT_CUTOFF = 0.9999


@dataclass(frozen=True)
class SparseOp:
    """COO triplets of a Hermitian operator in the |l, m> basis."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


class LinearBasis:
    """Truncated |l, m> basis with cached operator matrix elements."""

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

    def index(self, l: int, m: int) -> int:
        if not (0 <= l <= self.l_max and abs(m) <= l):
            raise ParameterError(f"state |{l},{m}> outside basis")
        return l * l + l + m

    # ---- operator builders -------------------------------------------------

    def _y2_matrix(self, q: int) -> SparseOp:
        """Gaunt integrals <l' m+q|Y_2q|l m>, l' = l-2, l, l+2, column by column."""
        lp = self.l[:, None] + np.array([-2, 0, 2])
        col, step = np.nonzero((lp >= np.abs(self.m + q)[:, None]) & (lp <= self.l_max))
        l, m = self.l[col], self.m[col]
        lp, mp = l + 2 * step - 2, m + q
        sign = np.where(mp % 2 == 1, -1.0, 1.0)
        pref = np.sqrt((2 * lp + 1) * 5 * (2 * l + 1) / (4.0 * math.pi))
        v = (sign * pref * angular.wigner3j_array(lp, 2, l, 0, 0, 0)
             * angular.wigner3j_array(lp, 2, l, -mp, q, m))
        nz = v != 0.0
        return SparseOp((lp * (lp + 1) + mp)[nz], col[nz], v[nz].astype(complex))

    def op_cos2beta(self, p) -> SparseOp:
        """(p . r_hat)^2 via the rank-2 addition theorem; Hermitian for unit p."""
        p = np.asarray(p, dtype=float)
        key = ("cos2beta", tuple(np.round(p, 15)))
        if key in self._ops:
            return self._ops[key]
        y2p = angular.y2_components(p)
        rows = [np.arange(self.size)]
        cols = [np.arange(self.size)]
        vals = [np.full(self.size, 1.0 / 3.0, dtype=complex)]
        pref = (2.0 / 3.0) * (4.0 * math.pi / 5.0)
        for qi, q in enumerate(range(-2, 3)):
            if abs(y2p[qi]) < 1e-300:
                continue
            g = self._y2_matrix(q)
            rows.append(g.rows)
            cols.append(g.cols)
            vals.append(pref * np.conj(y2p[qi]) * g.vals)
        op = SparseOp(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
        self._ops[key] = op
        return op

    def op_cos2theta(self) -> SparseOp:
        return self.op_cos2beta(np.array([0.0, 0.0, 1.0]))

    def op_sin2theta_cos2phi(self) -> SparseOp:
        """x^2 - y^2 = sin^2(theta) cos(2 phi), a pure rank-2 operator."""
        key = "x2my2"
        if key in self._ops:
            return self._ops[key]
        coef = 2.0 * math.sqrt(2.0 * math.pi / 15.0)
        parts = [self._y2_matrix(2), self._y2_matrix(-2)]
        op = SparseOp(np.concatenate([p.rows for p in parts]),
                      np.concatenate([p.cols for p in parts]),
                      coef * np.concatenate([p.vals for p in parts]))
        self._ops[key] = op
        return op

    def op_axis_moment(self, axis: str) -> SparseOp:
        """x^2, y^2 or z^2 as combinations of cos^2(theta) and x^2 - y^2."""
        if axis == "z":
            return self.op_cos2theta()
        c2t = self.op_cos2theta()
        d = self.op_sin2theta_cos2phi()
        sgn = 1.0 if axis == "x" else -1.0
        size = self.size
        rows = np.concatenate([np.arange(size), c2t.rows, d.rows])
        cols = np.concatenate([np.arange(size), c2t.cols, d.cols])
        vals = np.concatenate([np.full(size, 0.5, dtype=complex),
                               -0.5 * c2t.vals, 0.5 * sgn * d.vals])
        return SparseOp(rows, cols, vals)

    def op_cos_2phi(self) -> SparseOp:
        """cos(2 phi): couples m -> m +/- 2 with all Delta-l, built by exact
        Gauss-Legendre quadrature of the theta overlaps (polynomial integrands)."""
        key = "cos_2phi"
        if key in self._ops:
            return self._ops[key]
        n_gl = self.l_max + 4
        x, w = np.polynomial.legendre.leggauss(n_gl)
        rows, cols, vals = [], [], []
        tables = [angular.legendre_table(self.l_max, m, x)     # each built once
                  for m in range(-self.l_max, self.l_max + 1)]
        for m, t_lo, t_hi in zip(range(-self.l_max, self.l_max - 1), tables, tables[2:]):
            mp = m + 2
            block = math.pi * (t_hi * w) @ t_lo.T
            i, j = np.nonzero(np.abs(block) >= 1e-14)
            lp, l = abs(mp) + i, abs(m) + j
            a, b = lp * (lp + 1) + mp, l * (l + 1) + m
            rows.append(np.stack([a, b], axis=1).ravel())
            cols.append(np.stack([b, a], axis=1).ravel())
            vals.append(np.repeat(block[i, j], 2))
        op = SparseOp(np.concatenate(rows), np.concatenate(cols),
                      np.concatenate(vals).astype(complex))
        self._ops[key] = op
        return op

    def op_cos2phi(self) -> SparseOp:
        """Azimuthal factor cos^2(phi) = 1/2 + cos(2 phi)/2."""
        raw = self.op_cos_2phi()
        size = self.size
        rows = np.concatenate([np.arange(size), raw.rows])
        cols = np.concatenate([np.arange(size), raw.cols])
        vals = np.concatenate([np.full(size, 0.5, dtype=complex), 0.5 * raw.vals])
        return SparseOp(rows, cols, vals)

    def op_jy(self) -> SparseOp:
        """J_y = (J_+ - J_-)/(2i) (dimensionless angular momentum)."""
        key = "jy"
        if key in self._ops:
            return self._ops[key]
        col, down = np.nonzero(np.stack([self.m < self.l, self.m > -self.l], axis=1))
        l, m, dm = self.l[col], self.m[col], 1 - 2 * down    # J_+ then J_- per column
        op = SparseOp(col + dm, col, -0.5j * dm * np.sqrt(l * (l + 1) - m * (m + dm)))
        self._ops[key] = op
        return op

    def op_j2(self) -> SparseOp:
        idx = np.arange(self.size)
        return SparseOp(idx, idx, (self.l * (self.l + 1)).astype(complex))

    def operator(self, name: str) -> SparseOp:
        table = {
            "cos2theta": self.op_cos2theta,
            "cos2phi": self.op_cos2phi,
            "Ly": self.op_jy,
            "L2": self.op_j2,
            "x2": lambda: self.op_axis_moment("x"),
            "y2": lambda: self.op_axis_moment("y"),
            "z2": lambda: self.op_axis_moment("z"),
        }
        if name not in table:
            raise ParameterError(f"unknown observable {name!r}")
        return table[name]()


def _headroom_tail(basis: LinearBasis, psi: np.ndarray) -> float:
    """Largest per-state population within HEADROOM_BAND of l_max."""
    band = basis.l > basis.l_max - HEADROOM_BAND
    return float((np.abs(psi[band, :]) ** 2).sum(axis=0).max())


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
    (U,) = quantum_symtop._kicks(quantum_symtop._pulse_frame_blocks(l_max, 0), 0,
                                 (pulse.P,), l_max + 1)
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
    tail = _headroom_tail(basis, out)
    if tail > HEADROOM_TOL:
        raise TruncationError(
            f"population {tail:.2e} within {HEADROOM_BAND} of l_max={basis.l_max}; "
            "increase l_max")
    return out


# ---- thermal averaging -------------------------------------------------------


def nitrogen_spin_weights(l: int) -> float:
    """2:1 even:odd nuclear-spin alternation of N2 (6:3 degeneracies)."""
    return 2.0 if l % 2 == 0 else 1.0


def thermal_states(sigma: float, weight_hook=None, cutoff: float = WEIGHT_CUTOFF):
    """Initial (l0, m0, weight) list covering >= cutoff of the Boltzmann sum.

    Weights of the included states are renormalized to sum to one, so a
    truncated mixture still averages observables without a global bias; the
    dropped fraction of the exact sum is returned alongside.
    """
    hook = weight_hook or (lambda l: 1.0)
    if sigma == 0.0:
        return [(0, 0, 1.0)], 0.0
    two_s2 = 2.0 * sigma * sigma
    l_grid = np.arange(0, max(64, int(12 * sigma) * 8))
    terms = np.array([hook(int(l)) * (2 * l + 1) * math.exp(-l * (l + 1) / two_s2)
                      for l in l_grid])
    z = terms.sum()
    states, cum = [], 0.0
    for l in l_grid:
        wl = hook(int(l)) * math.exp(-l * (l + 1) / two_s2) / z
        for m in range(-int(l), int(l) + 1):
            states.append((int(l), m, wl))
        cum += terms[l] / z
        if cum >= cutoff:
            break
    states = [(l, m, w / cum) for (l, m, w) in states]
    return states, 1.0 - cum


def default_l_max(pulses, l0_max: int) -> int:
    # 4x the strongest kick plus a constant margin wide enough that the
    # 1e-10 headroom band stays empty even for weak pulses
    p_max = max((abs(p.P) for p in pulses), default=0.0)
    return 12 + math.ceil(4.0 * p_max) + l0_max


def thermal_run(mol: MoleculeParams, T_K: float, pulses, t_max: float,
                dt_out: float, l_max: int | None = None,
                observables=("cos2theta", "cos2phi", "Ly", "L2"),
                spin_weights=None) -> TimeSeries:
    """Boltzmann-averaged double-pulse run; times in T_rev units.

    Pulses are given in the classical frame.  A second pulse with
    t_apply="auto" fires at the first extremum of the quantum <cos^2 theta>
    trace after the first pulse (maximum for P1 > 0, minimum for P1 < 0),
    located on a T_rev/2000 grid with parabolic refinement.

    The returned TimeSeries carries meta["revival_avg"]: exact one-revival
    time averages of every requested observable over the final free segment.
    """
    if mol.kind != "linear":
        raise ParameterError("thermal_run handles linear molecules")
    pulses = list(pulses)
    if not pulses:
        raise ParameterError("need at least one pulse")
    sigma = sigma_th(mol, T_K)
    states, trunc = thermal_states(sigma, spin_weights)
    l0_max = max(s[0] for s in states)
    if l_max is None:
        l_max = default_l_max(pulses, l0_max)
    basis = LinearBasis(l_max)
    energies = basis.energies

    psi = np.zeros((basis.size, len(states)), dtype=complex)
    for k, (l0, m0, _) in enumerate(states):
        psi[basis.index(l0, m0), k] = 1.0
    weights = np.array([w for (_, _, w) in states])

    ops = {name: basis.operator(name) for name in observables}
    if "cos2theta" not in ops:
        ops["cos2theta"] = basis.operator("cos2theta")

    meta = {"l_max": l_max, "sigma_th": sigma, "n_initial_states": len(states),
            "weight_truncation": trunc, "n_blocks": len(pulses) * (l_max + 1),
            "max_block_dim": l_max + 1,
            "spin_weights": "uniform" if spin_weights is None else "custom"}

    # segment 0 is the stationary initial mixture; each kick starts a new one
    segments = [(0.0, psi)]
    t_now = 0.0
    psi_now = psi
    scan_limit = t_max * TWO_PI
    for i, pulse in enumerate(pulses):
        if pulse.t_apply == "auto":
            if i == 0:
                raise ParameterError("the first pulse cannot use an auto delay")
            trace = SpectralTrace()
            op = ops["cos2theta"]
            accumulate_pattern(trace, op.rows, op.cols, op.vals, energies, psi_now, weights)
            ts = np.arange(int(scan_limit / SCAN_STEP) + 1) * SCAN_STEP
            vals = trace.evaluate(ts)
            kind = "max" if pulses[0].P >= 0 else "min"
            k = first_local_extremum(vals, kind)
            if k is None:
                raise ProtocolError(
                    f"no quantum alignment {kind} found in scan window "
                    f"[0, {scan_limit / TWO_PI:.4g}] T_rev")
            delay = parabolic_vertex(ts[k - 1:k + 2], vals[k - 1:k + 2])
            t_pulse = t_now + delay
            meta["auto_delay_trev"] = delay / TWO_PI
        else:
            t_pulse = float(pulse.t_apply) * TWO_PI
        if t_pulse < t_now - 1e-12:
            raise ParameterError("pulse times must be non-decreasing")
        phases = np.exp(-1j * energies * (t_pulse - t_now))
        psi_now = kick_batch(basis, psi_now * phases[:, None], pulse)
        t_now = t_pulse
        segments.append((t_pulse, psi_now))
    meta["pulse_times_trev"] = [t / TWO_PI for t, _ in segments[1:]]
    meta["headroom_tail"] = _headroom_tail(basis, segments[-1][1])

    grid = np.arange(0.0, t_max + 0.5 * dt_out, dt_out)
    t_dim = grid * TWO_PI
    starts = np.array([t0 for t0, _ in segments])
    seg_of = np.clip(np.searchsorted(starts, t_dim + 1e-12) - 1, 0, len(starts) - 1)
    out = {name: np.empty(len(grid)) for name in observables}
    last = len(segments) - 1
    for s, (t0, psi_s) in enumerate(segments):
        idx = np.flatnonzero(seg_of == s)
        # a segment no grid time reads (segment 0 when pulse 1 fires at
        # t = 0) needs no trace, except the last, which gives revival_avg
        if not len(idx) and s != last:
            continue
        traces = {}
        for name in observables:
            traces[name] = SpectralTrace()
            op = ops[name]
            accumulate_pattern(traces[name], op.rows, op.cols, op.vals, energies,
                               psi_s, weights)
            if len(idx):
                out[name][idx] = traces[name].evaluate(t_dim[idx] - t0)
    if "Ly" in out and "L2" in out:
        with np.errstate(invalid="ignore", divide="ignore"):
            out["Ly_norm"] = np.where(out["L2"] > 0, out["Ly"] / np.sqrt(out["L2"]), 0.0)

    meta["revival_avg"] = {name: traces[name].time_average() for name in observables}
    return TimeSeries(grid=grid, channels=out, meta=meta)
