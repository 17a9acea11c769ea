"""Rotational wave-packet dynamics of an oblate symmetric top.

The laboratory frame has z along the laser propagation and the first pulse
polarized along x; states are |J, K, M>.  Dimensionless energies are

    e(J, K) = J(J+1)/2 + (I_1/I_3 - 1) K^2 / 2          (units hbar^2/I_1),

so e = J(J+1)/2 - K^2/4 for a planar ring (I_3 = 2 I_1).  An impulsive pulse
of strength P applies U = exp(i (P/3) Omega), equal to exp(i P cos^2 beta)
up to a global phase, with Omega = 3 cos^2(beta) - 1 about the polarization.

The engine works in the pulse frame, quantised along the polarization.
There Omega = 2 D^{2*}_{0,0} conserves K and m, so each (K, m) block holds
at most J_max + 1 states and is pentadiagonal in J.  Both 3j factors of an
element, (J' 2 J; m 0 -m) and (J' 2 J; K 0 -K), are read from one rank-2
table per J_max (_rank2_table), shared by every K and by quantum_linear's
K = 0 kick.  Each engine call diagonalises every block it needs once; the
thermal states after pulse 1 are read from that eigensystem column by
column, and only the second pulse forms whole kick matrices.  No block or
eigensystem outlives the call.  The lab-frame coupling is the rotated one,
Omega_x = R Omega_z R^T with R = d^J(pi/2) on every J shell
(angular.wigner_d_half_pi); `coupling_block` builds it directly and serves
as the test oracle.  Block (K, -m) is S (K, m) S with S = diag((-1)^J), and
the K and -K blocks are related the same way, so K, m >= 0 suffice.

* One thermal list serves both quantum engines: thermal_levels gives whole
  degenerate (J, |K|) levels, and a linear molecule is its K = 0 case, so
  these functions run N2 too and quantum_linear draws its mixture here.
* Alignment needs no rotation.  Whole levels make the initial mixture
  isotropic, so it may be resolved into pulse-frame states |J0 K m0>; free
  evolution depends only on (J, K) and commutes with rotations; and
  cos^2 theta about the first pulse is (1 + Omega)/3, diagonal in m.
* The two-pulse delay curve rotates only where it must.  The second pulse
  is tilted by dphi about z, |J,K,M> -> e^{i M dphi} |J,K,M>, which the
  pulse frame sees as Theta^J = d^T e^{i M dphi} d per J shell.  The lab
  J_z observed after it is d^T M d = -J_x there, and J^2 is unchanged.
  Free flight multiplies each J shell by e^{-i e tau}, so with the rank-n
  thermal state after pulse 1 every stationary observable reduces to one
  (J, J') matrix of amplitudes of the beats e_J - e_J' (spectral.beat_freqs,
  the same for every K), summed over the blocks.  No lab-frame block matrix
  is formed.
* Basis truncation is checked per initial state: the population within
  HEADROOM_BAND of J_max after pulse 1, and after pulse 2 at every delay of
  the output grid.  The latter is the same contraction with the band
  projector, one beat matrix per state, evaluated in one stack with the
  observables.  _band_tail is the check and message of both engines.

`SymTopBasis` and `coupling_block` stay as the lab-frame reference: the
tests build their propagator oracle on them (tests/symtop_oracle.py).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import angular
from .core import MoleculeParams, ParameterError, TruncationError, TWO_PI, sigma_th
from .ensemble import TimeSeries, ly_norm
from .spectral import SpectralTrace, beat_freqs

HEADROOM_BAND = 4
HEADROOM_TOL = 1e-10
WEIGHT_CUTOFF = 0.9999


class SymTopBasis:
    """Truncated |J, K, M> basis, optionally restricted to |K| <= K_limit.

    Delta-K = 0 for every operator used here, so restricting K to the
    thermally populated values is exact, not an approximation.
    """

    def __init__(self, J_max: int, i1_over_i3: float = 0.5,
                 K_limit: int | None = None):
        if J_max < 0:
            raise ParameterError("J_max must be >= 0")
        self.J_max = J_max
        self.i1_over_i3 = i1_over_i3
        self.K_limit = J_max if K_limit is None else min(K_limit, J_max)
        J_l, K_l, M_l = [], [], []
        for J in range(J_max + 1):
            for K in range(-min(J, self.K_limit), min(J, self.K_limit) + 1):
                for M in range(-J, J + 1):
                    J_l.append(J)
                    K_l.append(K)
                    M_l.append(M)
        self.J = np.array(J_l, dtype=np.int64)
        self.K = np.array(K_l, dtype=np.int64)
        self.M = np.array(M_l, dtype=np.int64)
        self.size = len(self.J)
        self.energies = self.energy(self.J, self.K)
        self._block_cache: dict = {}

    def energy(self, J, K):
        J = np.asarray(J, dtype=float)
        K = np.asarray(K, dtype=float)
        return J * (J + 1) / 2.0 + (self.i1_over_i3 - 1.0) * K * K / 2.0

    def block_indices(self, K: int, m_parity: int) -> np.ndarray:
        """Global indices of the (K, M-parity) block, ordered by (J, M)."""
        key = (K, m_parity)
        if key not in self._block_cache:
            sel = (self.K == K) & (np.abs(self.M) % 2 == m_parity)
            self._block_cache[key] = np.flatnonzero(sel)
        return self._block_cache[key]


# (J' - J, M' - M) offsets of the Omega couplings on and above the diagonal
# of a block ordered by (J, M); (0, -2) is the mirror of (0, +2)
_UPPER_STEPS = ((0, 0), (0, 2), (1, -2), (1, 0), (1, 2), (2, -2), (2, 0), (2, 2))


def coupling_block(basis: SymTopBasis, key) -> np.ndarray:
    """Dense symmetric matrix of Omega on one (K, M-parity) block.

    <J' K M'|Omega|J K M> is -d_0 for M' = M and sqrt(3/2) d_{+-2} for
    M' = M +- 2, with d_p = <J' K M'|D^{2*}_{p,0}|J K M>, a product of two
    3j symbols.  Each (J' - J, M' - M) offset is filled for the whole block
    at once and mirrored below the diagonal.
    """
    idx = basis.block_indices(*key)
    J, M, K = basis.J[idx], basis.M[idx], key[0]
    nb = len(idx)
    pad = basis.J_max + 2
    local = np.full((pad + 1, 2 * pad + 1), -1)    # (J, M + pad) -> local index
    local[J, M + pad] = np.arange(nb)
    mat = np.zeros((nb, nb))
    for dJ, dM in _UPPER_STEPS:
        a = local[J + dJ, M + dM + pad]
        b = np.flatnonzero(a >= 0)
        a = a[b]
        Jb, Mb = J[b], M[b]
        Jp = Jb + dJ
        pref = np.sqrt((2.0 * Jp + 1) * (2.0 * Jb + 1))
        sign = np.where((dM + Mb - K) % 2 == 1, -1.0, 1.0)
        d = (pref * sign * angular.wigner3j_array(Jp, 2, Jb, Mb + dM, -dM, -Mb)
             * angular.wigner3j_array(Jp, 2, Jb, K, 0, -K))
        v = -d if dM == 0 else math.sqrt(1.5) * d
        mat[a, b] = v
        mat[b, a] = v
    return mat


def thermal_levels(mol: MoleculeParams, T_K: float, hook=None):
    """([(J, |K|, weight per state)], dropped fraction): whole levels in
    energy order up to WEIGHT_CUTOFF of the Boltzmann sum, renormalised.

    Weights are exp(-e(J, K)/sigma_1^2) times the nuclear-spin hook(J).
    Whole levels keep the mixture isotropic and K <-> -K symmetric; a linear
    molecule is the K = 0 case.
    """
    linear = mol.kind == "linear"
    sig = sigma_th(mol, T_K) if linear else sigma_th(mol, T_K)[0]
    if sig == 0.0:
        return [(0, 0, 1.0)], 0.0
    s2 = sig * sig
    ratio = 1.0 if linear else mol.i1_over_i3
    levels, z, J = [], 0.0, 0
    while True:
        shell = 0.0
        for Ka in range(1 if linear else J + 1):
            e = J * (J + 1) / 2.0 + (ratio - 1.0) * Ka * Ka / 2.0
            w = (hook(J) if hook else 1.0) * math.exp(-e / s2)
            mult = (2 * J + 1) * (2 if Ka else 1)
            levels.append((e, J, Ka, w, mult))
            shell += w * mult
        z += shell
        if J > 4 and shell < 1e-16 * z:
            break
        J += 1
    levels.sort(key=lambda t: t[:3])
    kept, cum = [], 0.0
    for e, J, Ka, w, mult in levels:
        kept.append((J, Ka, w / z))
        cum += w * mult / z
        if cum >= WEIGHT_CUTOFF:
            break
    return [(J, Ka, w / cum) for J, Ka, w in kept], 1.0 - cum


def default_J_max(p_max: float, J0_max: int) -> int:
    # 4x the strongest kick |P| plus a margin; weak kicks need the wider
    # 16 + 2|P| for the 1e-10 headroom band to stay empty after two pulses
    return max(10 + math.ceil(4.0 * p_max), 16 + math.ceil(2.0 * p_max)) + J0_max


# ---- pulse-frame engine ------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _rank2_table(J_max: int) -> np.ndarray:
    """t[dJ, m, J] = (J+dJ 2 J; m 0 -m) for dJ = 0, 1, 2 and m, J = 0..J_max.

    Both 3j factors of every pulse-frame block read this one table: the m
    factor directly, and (J+dJ 2 J; K 0 -K) at m = |K|, times (-1)^dJ for
    K < 0.  It is read-only, so it is shared across calls.
    """
    m = np.arange(J_max + 1)[:, None]
    J = np.arange(J_max + 1)
    t = np.stack([angular.wigner3j_array(J + dJ, 2, J, m, 0, -m) for dJ in (0, 1, 2)])
    t.flags.writeable = False
    return t


def _pulse_frame_blocks(J_max: int, K: int) -> np.ndarray:
    """Omega about the pulse axis on every (K, m >= 0) block, zero-padded.

    Entry [m, J' - |K|, J - |K|] is <J' K m|2 D^{2*}_{0,0}|J K m> for
    J, J' = |K|..J_max; it is pentadiagonal in J and vanishes wherever J or
    J' < m.
    """
    t = _rank2_table(J_max)
    Js = np.arange(abs(K), J_max + 1)
    n = len(Js)
    m = np.arange(J_max + 1)[:, None]
    sign = np.where((m - K) % 2 == 1, -1.0, 1.0)
    out = np.zeros((J_max + 1, n, n))
    for dJ in (0, 1, 2):
        i = np.arange(n - dJ)
        J = Js[i]
        k_factor = t[dJ, abs(K), J] * ((-1.0) ** dJ if K < 0 else 1.0)
        v = (2.0 * np.sqrt((2.0 * J + 2 * dJ + 1) * (2.0 * J + 1)) * sign
             * t[dJ][:, J] * k_factor)
        out[:, i + dJ, i] = v
        out[:, i, i + dJ] = v
    return out


def _block_eigh(omega: np.ndarray, K: int, n_m: int) -> list:
    """(lam, W) of the blocks m = 0..n_m-1, each on its rows J >= max(m, K)."""
    return [np.linalg.eigh(omega[m, max(m - K, 0):, max(m - K, 0):]) for m in range(n_m)]


def _kicks(eigs: list, P: float) -> np.ndarray:
    """exp(i (P/3) Omega) on each diagonalised block, zero-padded to the m = 0 size."""
    n = len(eigs[0][0])
    out = np.zeros((len(eigs), n, n), dtype=complex)
    for U, (lam, W) in zip(out, eigs):
        lo = n - len(lam)
        U[lo:, lo:] = (W * np.exp(1j * (P / 3.0) * lam)) @ W.T
    return out


def _frame_tables(J_max: int, dphi: float, m0_top: int):
    """The tilt and the lab J_z seen from the pulse frame, from d^J(pi/2).

    tilt[J, m + J_max, m0] = (d^T e^{i M dphi} d)^J_{m, m0} for m0 < m0_top;
    jz_up[m + J_max, J] = (d^T M d)^J_{m, m+1}.  d^T J_z d is -J_x, so that
    band and its mirror are all of the lab J_z there.
    """
    n_m = 2 * J_max + 1
    tilt = np.zeros((J_max + 1, n_m, m0_top), dtype=complex)
    jz_up = np.zeros((n_m - 1, J_max + 1))
    for J, d in enumerate(angular.wigner_d_half_pi(J_max)):
        M = np.arange(-J, J + 1)
        k = min(J + 1, m0_top)
        tilt[J, J_max - J:J_max + J + 1, :k] = d.T @ (np.exp(1j * M * dphi)[:, None]
                                                      * d[:, J:J + k])
        jz_up[J_max - J:J_max + J, J] = np.einsum("ij,i,ij->j", d[:, :-1], M, d[:, 1:])
    return tilt, jz_up


def _basis_cutoff(J_max: int | None, J0: int, default: int) -> int:
    """J_max (default if None), above the thermal levels and the band."""
    J_max = default if J_max is None else J_max
    if J_max < J0:
        raise ParameterError(f"J_max={J_max} is below the thermal J={J0}")
    if J_max < HEADROOM_BAND:
        raise ParameterError(f"J_max={J_max} is below the headroom band of "
                             f"{HEADROOM_BAND} levels, which must stay unpopulated")
    return J_max


def _thermal_setup(mol: MoleculeParams, T_K: float, strengths, J_max):
    """Thermal levels {K >= 0: [(J0, weight)]}, the basis cut-off and base meta."""
    levels, trunc = thermal_levels(mol, T_K)
    J0 = max(J for J, _, _ in levels)
    J_max = _basis_cutoff(J_max, J0, default_J_max(max(map(abs, strengths)), J0))
    by_K: dict = {}
    for J, Ka, w in levels:
        by_K.setdefault(Ka, []).append((J, w))
    meta = {"J_max": J_max, "K_limit": max(by_K), "weight_truncation": trunc,
            "n_initial_states": sum((2 * J + 1) * (2 if Ka else 1) for J, Ka, _ in levels)}
    return by_K, J_max, meta


def _band_tail(pop_band: np.ndarray, J_max: int, stage: str) -> float:
    """Largest per-state band population; TruncationError above HEADROOM_TOL."""
    tail = float(pop_band.max(initial=0.0))
    if tail > HEADROOM_TOL:
        raise TruncationError(
            f"population {tail:.2e} within {HEADROOM_BAND} of J_max={J_max} "
            f"{stage}; increase J_max")
    return tail


def _first_kick(K: int, levels, J_max: int, P1: float, n_m: int | None = None):
    """The thermal states of one K as pulse-frame states after the first kick.

    A whole level is isotropic, so it may be resolved along the pulse axis
    into |J0 K m0>; m0 and -m0 (like K and -K) contribute alike, so m0 >= 0
    carry doubled weights.  Each (K, m) block, m = 0..n_m-1 (by default up
    to the largest m0), is diagonalised once, Omega = W diag(lam) W^T, and a
    state's kicked amplitudes are its column of the kick,
    psi = (W e^{i P1 lam/3}) W[J0 - K, :]^T, so no kick matrix is formed.
    Returns the (K, m) blocks of Omega, their eigensystems, m0, the weights,
    the amplitudes psi (states x J, J = K..J_max) and the largest per-state
    population within HEADROOM_BAND of J_max.
    """
    J0, m0, w = (np.array(c) for c in zip(*[
        (J, m, wt * (2.0 if m else 1.0) * (2.0 if K else 1.0))
        for J, wt in levels for m in range(J + 1)]))
    J0, m0 = J0.astype(int), m0.astype(int)
    omega = _pulse_frame_blocks(J_max, K)
    n, m_top = omega.shape[1], int(m0.max()) + 1
    eigs = _block_eigh(omega, K, m_top if n_m is None else n_m)
    psi = np.zeros((len(w), n), dtype=complex)
    for m, (lam, W) in enumerate(eigs[:m_top]):
        s = np.flatnonzero(m0 == m)
        lo = n - len(lam)
        psi[s, lo:] = ((W * np.exp(1j * (P1 / 3.0) * lam)) @ W[J0[s] - K - lo].T).T
    tail = _band_tail((np.abs(psi[:, -HEADROOM_BAND:]) ** 2).sum(axis=1), J_max,
                      "after pulse 1")
    return omega, eigs, m0, w, psi, tail


def alignment_trace(mol: MoleculeParams, T_K: float, P1: float, times_trev,
                    J_max: int | None = None) -> TimeSeries:
    """Thermal <cos^2 theta>(t) about the first-pulse axis after one pulse.

    Computed in the pulse frame, where cos^2 theta = (1 + Omega)/3 and the
    kick are both diagonal in m: no rotation is needed.
    """
    levels, J_max, meta = _thermal_setup(mol, T_K, (P1,), J_max)
    amp = np.zeros((J_max + 1, J_max + 1), dtype=complex)
    tail, n_blocks = 0.0, 0
    for K, lev in levels.items():
        omega, eigs, m0, w, psi, tail_K = _first_kick(K, lev, J_max, P1)
        n_blocks += len(eigs)
        tail = max(tail, tail_K)
        op = (np.eye(omega.shape[1]) + omega[m0]) / 3.0
        amp[K:, K:] += np.einsum("sij,si,sj->ij", op, np.conj(psi) * w[:, None], psi)
    trace = SpectralTrace(beat_freqs(J_max + 1), amp)
    times = np.asarray(times_trev, dtype=float)
    values = trace.evaluate(times * TWO_PI)
    meta.update(headroom_tail=tail, headroom_tail_pulse1=tail, n_blocks=n_blocks,
                max_block_dim=J_max + 1 - min(levels),
                distinct_freqs=trace.distinct_freqs)
    return TimeSeries(grid=times, channels={"cos2theta": values}, meta=meta)


def delay_curve(mol: MoleculeParams, T_K: float, P1: float, P2: float,
                dphi: float, taus_trev, J_max: int | None = None) -> TimeSeries:
    """Oriented angular momentum vs pulse delay (stationary after pulse 2).

    Channels: Ly (= <J_z>, the classical-frame L_y), L2 (= <J^2>) and
    Ly_norm = Ly/sqrt(L2); dphi is the tilt of the second pulse about the
    propagation axis in radians (the classical-frame angle of p2 from z).
    Raises TruncationError if any initial state puts more than HEADROOM_TOL
    within HEADROOM_BAND of J_max after pulse 1, or after pulse 2 at any tau.
    """
    levels, J_max, meta = _thermal_setup(mol, T_K, (P1, P2), J_max)
    taus = np.asarray(taus_trev, dtype=float) * TWO_PI
    n = J_max + 1
    m0_top = max(J for lev in levels.values() for J, _ in lev) + 1
    tilt, jz_up = _frame_tables(J_max, dphi, m0_top)
    g_Ly = np.zeros((n, n), dtype=complex)
    g_L2 = np.zeros_like(g_Ly)
    band = []                           # per state: band population beats, (n, n)
    tail1, n_blocks = 0.0, 0
    for K, lev in levels.items():
        _, eigs, m0, w, psi, tail_K = _first_kick(K, lev, J_max, P1, n)
        n_blocks += n
        tail1 = max(tail1, tail_K)
        Js = np.arange(K, n)
        # block -m is S (block m) S with S = (-1)^J; stack m = -J_max..J_max
        S = np.where(Js % 2 == 1, -1.0, 1.0)
        U2 = _kicks(eigs, P2)
        U2 = np.concatenate([U2[:0:-1] * np.outer(S, S), U2])
        # pulse-2 frame amplitudes at each delay, before the phase e^{-i e_J tau}
        Z = (tilt[Js][:, :, m0] * psi.T[:, None, :]).transpose(1, 2, 0)  # (m, s, J)
        Zw = np.conj(Z).transpose(0, 2, 1) * w
        U2h = np.conj(U2).transpose(0, 2, 1)
        a = Js * (Js + 1.0)
        g_L2[K:, K:] += np.einsum("mij,mij->ij", U2h @ (a[:, None] * U2), Zw @ Z)
        # J_z's band above the diagonal; its mirror gives the same real trace
        g_Ly[K:, K:] += 2.0 * np.einsum(
            "mij,mij->ij", U2h[:-1] @ (jz_up[:, Js][:, :, None] * U2[1:]), Zw[:-1] @ Z[1:])
        # per-state population of the top J rows after pulse 2
        Y = U2[:, None, -HEADROOM_BAND:, :] * Z[:, :, None, :]
        Y = Y.transpose(1, 0, 2, 3).reshape(len(w), -1, len(Js))
        pop = np.zeros((len(w), n, n), dtype=complex)
        pop[:, K:, K:] = np.conj(Y).transpose(0, 2, 1) @ Y
        band.append(pop)
    trace = SpectralTrace(beat_freqs(n), np.concatenate([[g_Ly, g_L2], *band]))
    values = trace.evaluate(taus)
    Ly, L2 = values[:2]
    tail2 = _band_tail(values[2:], J_max, "after pulse 2")
    meta.update(headroom_tail=max(tail1, tail2), headroom_tail_pulse1=tail1,
                headroom_tail_pulse2=tail2, dphi=dphi, n_blocks=n_blocks,
                max_block_dim=n - min(levels), distinct_freqs=trace.distinct_freqs)
    return TimeSeries(grid=np.asarray(taus_trev, dtype=float),
                      channels={"Ly": Ly, "L2": L2, "Ly_norm": ly_norm(Ly, L2)}, meta=meta)
