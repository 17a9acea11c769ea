"""Frequency-grouped evaluation of quantum expectation-value traces.

After the pulses, every expectation value is a finite sum

    <A>(t) = sum_jk  rho_jk A_jk  exp(+i (e_j - e_k) t),

and the distinct frequencies e_j - e_k are quarter-integers in the
dimensionless units used here (integers for every operator that conserves K).
Grouping the amplitudes by frequency turns a trace over many output times
into one small matrix product, and the zero-frequency bin is exactly the
revival-period (long-time) average.

The engines sum the amplitudes of each beat e_J' - e_J over their blocks
before one add (quantum_symtop over its (K, m) blocks, accumulate_pattern
over the linear rotor's m blocks), so an add carries at most (J_max + 1)^2
pairs.
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


def accumulate_pattern(trace: SpectralTrace, op: dict, freqs: np.ndarray,
                       blocks: np.ndarray, weights: np.ndarray):
    """Add sum_s w_s <psi_s|A|psi_s>(t) for A given as per-m block tables.

    op maps each m-offset q to a table T[m, l', l] = <l', m+q|A|l, m>, and
    blocks[m, l, s] holds state s at the segment reference time, m counted
    from the lowest in both.  One batched product per q gives the weighted
    densities rho[m] = (conj(psi[m+q]) w) psi[m]^T; sum_m T[m] * rho[m] is
    the (l', l) matrix of amplitudes of the beats freqs[l', l], which goes
    to the trace in one add.
    """
    amp = np.zeros(freqs.shape, dtype=complex)
    n_m = len(blocks)
    bra = np.conj(blocks) * weights
    for q, T in op.items():
        lo, hi = max(0, -q), min(n_m, n_m - q)
        rho = bra[lo + q:hi + q] @ blocks[lo:hi].transpose(0, 2, 1)
        amp += np.einsum("mij,mij->ij", T[lo:hi], rho)
    nz = amp != 0
    trace.add(freqs[nz], amp[nz])
