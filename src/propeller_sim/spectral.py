"""Beat-matrix evaluation of quantum expectation-value traces.

After the pulses, every expectation value is a finite sum over rotor beats,

    <A>(t) = Re sum_{J, J'} g_{J J'} exp(i (e_J - e_J') t),   e_J = J(J+1)/2,

where g is the (J, J') matrix of beat amplitudes, summed over the blocks
(K, m) and the states before it reaches a trace.  The K^2 part of the
symmetric-top energy cancels in every beat, so the beats are integers, the
same for the linear rotor (K = 0) and the symmetric top, and every trace is
periodic in one revival period.  `SpectralTrace` builds them from g's size.

A real trace needs only Re, so `SpectralTrace` folds the strict upper
triangle of g onto the lower one by conjugation, which leaves only the
positive beats.  The real trace of the diagonal is the zero beat: the exact
long-time average.  The beats are integers, so each splits as f = S q + r
with S = ceil(sqrt(f_max + 1)): over T times a trace takes T (Q + S)
exponentials and (T, Q) @ (Q, S) products, never a (times x beats) table.
The times are walked in blocks of TIME_BLOCK, so no table grows with T.

accumulate_pattern builds every trace of a segment from its flat batch of
states in one call, gathering each m block (rows l >= |m|) once and holding
only the few that the largest m-offset pairs: each pair's weighted density
is formed once, for all operators with that offset, over the states live in
both blocks.  The terms it skips are exact zeros.
"""

from __future__ import annotations

import collections
import math

import numpy as np

from .classical_symtop import _split

TIME_BLOCK = 256        # times per block of SpectralTrace.evaluate's phase tables


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
    """Re sum g_{J J'} exp(i (e_J - e_J') t) for an (n, n) amplitude matrix g,
    or for each matrix of a (..., n, n) stack, J, J' = 0..n-1 (beat_freqs)."""

    def __init__(self, g: np.ndarray):
        lo, hi = np.tril_indices(g.shape[-1], -1)
        beats = beat_freqs(g.shape[-1])[lo, hi]
        folded = g[..., lo, hi] + np.conj(g[..., hi, lo])
        live = np.any(folded != 0, axis=tuple(range(folded.ndim - 1)))
        self.freqs = beats[live]
        self.amps = folded[..., live]
        # the zero beat: the exact long-time average
        self.time_average = np.real(np.trace(g, axis1=-2, axis2=-1))

    @property
    def distinct_freqs(self) -> int:
        """Number of distinct (positive) beats.  Counted by a set: the first
        plain np.unique in a process imports numpy.ma (~15 ms) to test for a mask."""
        return len(set(self.freqs.tolist()))

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        """Real trace values at the given (dimensionless) times, last axis:
        Re sum_r [(e^{iSqt})_{t,q} @ G]_{..., t, r} e^{irt}, G[..., q, r] the
        grouped amplitude of beat S q + r, over blocks of TIME_BLOCK times."""
        f, g = group_amplitudes(self.freqs, self.amps)
        t, f_max = np.asarray(times, dtype=float), int(f.max(initial=0))
        S = math.isqrt(f_max) + 1                 # ceil(sqrt(f_max + 1))
        q, r = np.divmod(f.astype(np.int64), S)
        G = np.zeros(g.shape[:-1] + (f_max // S + 1, S), dtype=complex)
        G[..., q, r] = g
        kq, kr = S * np.arange(G.shape[-2]), np.arange(S)
        out = np.empty(G.shape[:-2] + t.shape)
        for a in range(0, len(t), TIME_BLOCK):
            tb = t[a:a + TIME_BLOCK]
            part = _phases(tb, kq) @ G                          # (..., block, S)
            out[..., a:a + TIME_BLOCK] = np.einsum("...tr,tr->...t", part,
                                                   _phases(tb, kr)).real
        out += self.time_average[..., None]
        return out


def _phases(t: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The (times, k) table e^{ikt} for integers 0 <= k < 2^27.  With t split
    into halves (classical_symtop._split), k t_hi is exact, so no angle as
    large as k t is rounded: e^{ikt} = e^{ik t_hi} e^{ik t_lo}."""
    hi, lo = (np.outer(x, 1j * k) for x in _split(t))
    out = np.exp(hi, out=hi)
    out *= np.exp(lo, out=lo)
    return out


def accumulate_pattern(ops: dict, psi: np.ndarray, rows: list, weights: np.ndarray) -> dict:
    """The traces sum_s w_s <psi_s|A|psi_s>(t) of Hermitian operators A,
    {name: SpectralTrace} for ops {name: A}, each A given as per-m block tables.

    A maps each m-offset q >= 0 to a table of <l', m+q|A|l, m>: T[m, l', l],
    or T[m, l] for an A diagonal in l (l' = l), m counted from -l_max.  The
    q < 0 tables are the mirrors, whose beats conjugate the q > 0 ones and
    so give the same real trace.  psi is the flat (size, n_states) batch at
    the segment reference time and rows[m] its rows of block m, l >= |m| in
    l order, m = -l_max..l_max.

    The blocks are gathered once each, walking m up with a window of the
    last max(q) + 1.  Each pair of blocks (m, m + q) builds the weighted
    density rho = (conj(psi[m+q]) w) psi[m]^T once, over the states live
    (with a nonzero entry) in both, and adds T[m] * rho to every table of
    that q; dropped states and rows l < |m| hold exact zeros.  Summed over
    m, doubled for q > 0 and added up in q order, it is the (l', l) matrix
    of amplitudes of the beats e_l' - e_l.
    """
    n_l = (len(rows) + 1) // 2
    parts = {(name, q): np.zeros((n_l, n_l), dtype=complex)
             for name, op in ops.items() for q in sorted(op)}
    window = collections.deque(maxlen=max(q for _, q in parts) + 1)  # window[q]: block k - q
    for k, idx in enumerate(rows):
        block = psi[idx]
        live = np.any(block != 0, axis=0)
        window.appendleft((block, live))
        r = abs(k - n_l + 1)                              # block k's first l
        for q, (ket, ket_live) in enumerate(window):
            tables = [(op[q], parts[name, q]) for name, op in ops.items() if q in op]
            s = np.flatnonzero(live & ket_live)
            if not tables or s.size == 0:
                continue
            m, c = k - q, abs(k - q - n_l + 1)
            rho = (np.conj(block[:, s]) * weights[s]) @ ket[:, s].T
            for T, part in tables:
                if T.ndim == 3:
                    part[r:, c:] += T[m, r:, c:] * rho
                else:
                    d = np.arange(max(r, c), n_l)
                    part[d, d] += T[m, d] * rho[d - r, d - c]
    amps = {name: np.zeros((n_l, n_l), dtype=complex) for name in ops}
    for (name, q), part in parts.items():
        amps[name] += (2.0 if q else 1.0) * part
    return {name: SpectralTrace(amp) for name, amp in amps.items()}
