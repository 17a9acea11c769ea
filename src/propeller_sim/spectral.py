"""Beat-matrix evaluation of quantum expectation-value traces.

After the pulses, every expectation value is a finite sum over rotor beats,

    <A>(t) = Re sum_{J, J'} g_{J J'} exp(i (e_J - e_J') t),   e_J = J(J+1)/2,

where g is the (J, J') matrix of beat amplitudes, summed over the blocks
(K, m) and the states before it reaches a trace.  The K^2 part of the
symmetric-top energy cancels in every beat, so the beats are integers
(`beat_freqs`), the same for the linear rotor (K = 0) and the symmetric top,
and every trace is periodic in one revival period.

A real trace needs only Re, so `SpectralTrace` folds the strict upper
triangle of g onto the lower one by conjugation, which leaves only the
positive beats.  The real trace of the diagonal is the zero beat: the exact
long-time average.  Grouping equal beats turns a trace over many output
times into one small matrix product.
"""

from __future__ import annotations

import numpy as np


def beat_freqs(n: int) -> np.ndarray:
    """e_J - e_J' for J, J' = 0..n-1: integers, the same for every K."""
    eps = np.arange(n) * (np.arange(n) + 1.0) / 2.0
    return eps[:, None] - eps[None, :]


def group_amplitudes(freqs: np.ndarray, amps: np.ndarray):
    """Collapse amplitudes onto the sorted distinct frequencies.

    amps holds one amplitude per frequency along its last axis, for one
    trace or a stack of them; equal frequencies are summed in input order.
    """
    order = np.argsort(freqs, kind="stable")
    f = np.asarray(freqs, dtype=float)[order]
    starts = np.flatnonzero(np.diff(f, prepend=np.nan) != 0)
    g = np.add.reduceat(np.asarray(amps, dtype=complex)[..., order], starts, axis=-1)
    return f[starts], g


class SpectralTrace:
    """Re sum g_{J J'} exp(i freqs_{J J'} t) for an (n, n) amplitude matrix g,
    or for each matrix of a (..., n, n) stack."""

    def __init__(self, freqs: np.ndarray, g: np.ndarray):
        lo, hi = np.tril_indices(freqs.shape[0], -1)
        folded = g[..., lo, hi] + np.conj(g[..., hi, lo])
        live = np.any(folded != 0, axis=tuple(range(folded.ndim - 1)))
        self.freqs = freqs[lo[live], hi[live]]
        self.amps = folded[..., live]
        # the zero beat: the exact long-time average
        self.time_average = np.real(np.trace(g, axis1=-2, axis2=-1))

    @property
    def distinct_freqs(self) -> int:
        """Number of distinct (positive) beats.  Counted by a set: the first
        plain np.unique in a process imports numpy.ma (~15 ms) to test for a mask."""
        return len(set(self.freqs.tolist()))

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        """Real trace values at the given (dimensionless) times, last axis."""
        f, g = group_amplitudes(self.freqs, self.amps)
        phases = np.exp(1j * np.outer(np.asarray(times), f))
        return self.time_average[..., None] + np.real(g @ phases.T)


def accumulate_pattern(op: dict, blocks: np.ndarray, weights: np.ndarray) -> SpectralTrace:
    """The trace sum_s w_s <psi_s|A|psi_s>(t) of a Hermitian A given as
    per-m block tables.

    op maps each m-offset q >= 0 to a table T[m, l', l] = <l', m+q|A|l, m>;
    the q < 0 tables are their mirrors, whose beats conjugate the q > 0
    ones and so give the same real trace.  blocks[m, l, s] holds state s at
    the segment reference time, m counted from the lowest.  One batched
    product per q gives the weighted densities rho[m] = (conj(psi[m+q]) w)
    psi[m]^T; sum_m T[m] * rho[m], doubled for q > 0, is the (l', l) matrix
    of amplitudes of the beats e_l' - e_l.
    """
    n_m, n_l = blocks.shape[:2]
    amp = np.zeros((n_l, n_l), dtype=complex)
    bra = np.conj(blocks) * weights
    for q, T in op.items():
        rho = bra[q:] @ blocks[:n_m - q].transpose(0, 2, 1)
        amp += (2.0 if q else 1.0) * np.einsum("mij,mij->ij", T[:n_m - q], rho)
    return SpectralTrace(beat_freqs(n_l), amp)
