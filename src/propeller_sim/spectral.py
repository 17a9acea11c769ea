"""Frequency-grouped evaluation of quantum expectation-value traces.

After the pulses, every expectation value is a finite sum

    <A>(t) = sum_jk  rho_jk A_jk  exp(+i (e_j - e_k) t),

and the distinct frequencies e_j - e_k are quarter-integers in the
dimensionless units used here (integers for every operator that conserves K).
Grouping the amplitudes by frequency turns a trace over many output times
into one small matrix product, and the zero-frequency bin is exactly the
revival-period (long-time) average.
"""

from __future__ import annotations

import numpy as np

_QUARTER = 4    # frequencies are multiples of 1/4 in dimensionless units
_LATTICE_TOL = 1e-9


def group_amplitudes(freqs: np.ndarray, amps: np.ndarray):
    """Collapse (frequency, amplitude) pairs onto the sorted distinct frequencies.

    Amplitudes are binned by the integer lattice key 4f, so the work and the
    scratch arrays scale with the span of the frequencies, which the energy
    tables bound.  Raises ValueError if a frequency is off the quarter lattice.
    """
    scaled = _QUARTER * np.asarray(freqs, dtype=float)
    if not len(scaled):
        return np.zeros(0), np.zeros(0, dtype=complex)
    key = np.round(scaled)
    resid = np.abs(scaled - key)
    worst = int(np.argmax(resid))
    if not resid[worst] <= _LATTICE_TOL:
        raise ValueError(
            f"frequency {float(freqs[worst])!r} is off the 1/{_QUARTER} lattice: "
            f"|{_QUARTER}f - round({_QUARTER}f)| = {resid[worst]:.3e} > {_LATTICE_TOL:g}")
    key = key.astype(np.int64)
    lo = key.min()
    key -= lo
    present = np.flatnonzero(np.bincount(key))
    g = np.empty(len(present), dtype=complex)
    g.real = np.bincount(key, weights=np.real(amps))[present]
    g.imag = np.bincount(key, weights=np.imag(amps))[present]
    return (present + lo) / _QUARTER, g


class SpectralTrace:
    """Accumulates sum_k g_k exp(i w_k t) contributions and evaluates them."""

    def __init__(self):
        self._freqs: list[np.ndarray] = []
        self._amps: list[np.ndarray] = []

    def add(self, freqs: np.ndarray, amps: np.ndarray):
        f, g = group_amplitudes(freqs, amps)
        self._freqs.append(f)
        self._amps.append(g)

    def _merged(self):
        if not self._freqs:
            return np.zeros(0), np.zeros(0, dtype=complex)
        return group_amplitudes(np.concatenate(self._freqs),
                                np.concatenate(self._amps))

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        """Real trace values at the given (dimensionless) times."""
        f, g = self._merged()
        if not len(f):
            return np.zeros(len(times))
        phases = np.exp(1j * np.outer(np.asarray(times), f))
        return np.real(phases @ g)

    def time_average(self) -> float:
        """Exact long-time average: the zero-frequency amplitude."""
        f, g = self._merged()
        sel = f == 0.0
        return float(np.real(g[sel].sum())) if np.any(sel) else 0.0


def accumulate_pattern(trace: SpectralTrace, rows, cols, vals,
                       energies: np.ndarray, psi: np.ndarray,
                       weights: np.ndarray, scale: float = 1.0):
    """Add sum_s w_s <psi_s| A |psi_s>(t) for an operator given as COO triplets.

    psi is a (dim, n_states) coefficient batch at the segment reference time;
    the amplitude of entry (j, k) at frequency e_j - e_k is
    A_jk sum_s w_s conj(psi_js) psi_ks, accumulated in memory-bounded chunks.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    vals = np.asarray(vals)
    freqs = energies[rows] - energies[cols]
    n = len(rows)
    step = max(1, 4_000_000 // max(1, psi.shape[1]))
    for a in range(0, n, step):
        sl = slice(a, min(a + step, n))
        rho = (np.conj(psi[rows[sl], :]) * psi[cols[sl], :]) @ weights
        trace.add(freqs[sl], scale * vals[sl] * rho)
