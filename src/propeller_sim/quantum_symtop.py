"""Rotational wave-packet dynamics of an oblate symmetric top.

Dimensionless energies are

    e(J, K) = J(J+1)/2 + (I_1/I_3 - 1) K^2 / 2          (units hbar^2/I_1),

so e = J(J+1)/2 - K^2/4 for a planar ring (I_3 = 2 I_1).  An impulsive pulse
of strength P applies U = exp(i (P/3) Omega), equal to exp(i P cos^2 beta)
up to a global phase, with Omega = 3 cos^2(beta) - 1 about the polarization.

The engines work in the pulse frame, quantised along the polarization;
states are |J, K, m>.  There Omega = 2 D^{2*}_{0,0} conserves K and m, so
each (K, m) block holds at most J_max + 1 states and is pentadiagonal in J.
Its 3j factors, (J' 2 J; m 0 -m) and (J' 2 J; K 0 -K), come from one rank-2
table per basis (_rank2_table), which quantum_linear's K = 0 kick reads too.
Block (K, -m) is S (K, m) S with S = diag((-1)^J), and K and -K are related
the same way, so K, m >= 0 suffice.

* One front end serves both quantum engines, a linear molecule as its K = 0
  case: _thermal_setup gives whole (J, |K|) levels (thermal_levels), the
  basis cut-off and the counts, and thermal_states each K's states |J0 K m0>.
* One pass over K (_pulse1_pass) kicks both functions' states.  Whole levels
  make the mixture isotropic, so it may be resolved into pulse-frame states
  |J0 K m0>, read from each block's one eigensystem without a kick matrix.
  Free flight depends only on (J, K), and z^2 = cos^2 theta about p1 is
  (1 + Omega)/3, diagonal in m, so the pass sums the (J, J') amplitudes of
  the beats e_J - e_J' of z^2 and z^4 and the J populations, the same for
  every K.  alignment_trace is z^2's trace alone; delay_curve returns it at
  each delay as cos2theta.
* Pulse 2 follows from those moments in closed form.  Its kick U = e^{iP c^2},
  c = cos about p2, gives exactly U^dag J_y U = J_y + iP [J_y, c^2] and
  U^dag J^2 U = J^2 + iP [J^2, c^2] + 4P^2 (c^2 - c^4) (classically
  Delta L = -2P (p.r)(p x r)).  After pulse 1 the mixture is symmetric about
  p1, so by the Legendre addition theorem (Edmonds, Angular Momentum in
  Quantum Mechanics, 1957) each P_l(c) averages to P_l(cos dphi) P_l(z)
  over the turns about p1: Ly is P sin(2 dphi) <P_2(z)>, and <c^2>, <c^4>
  and i<[J^2, c^2]> come from <P_2(z)>, <P_4(z)> and 2 d<z^2>/dtau.  They
  are exact on the states' support, with z^4 from blocks built to
  J_max + 2, so only pulse 1 can truncate: _band_tail, the check and
  message of both engines, bounds each initial state's population within
  HEADROOM_BAND of J_max.

`SymTopBasis` and `coupling_block` stay as the lab-frame reference: the
tests build their propagator oracle on them (tests/symtop_oracle.py), in
core's propagation frame (first pulse along x) with states |J, K, M>, where
the coupling Omega_x = R Omega_z R^T, R = d^J(pi/2), is built directly.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import angular
from .core import MoleculeParams, ParameterError, TruncationError, TWO_PI, sigma_th
from .ensemble import TimeSeries, ly_norm
from .spectral import SpectralTrace

HEADROOM_BAND = 4
HEADROOM_TOL = 1e-10
WEIGHT_CUTOFF = 0.9999
# The highest J the thermal level list may keep.  Benzene at 300 K sums
# past J = 250 to keep J <= 151, at 500 K it keeps J <= 195; N2 at 3000 K
# keeps J <= 97, already a 10k-column quantum_linear batch.
THERMAL_J_LIMIT = 300
# The largest dense batch, basis size x columns carried x 16 B, that
# quantum_linear.thermal_run may allocate (N2 at P = 5 needs 2.8 MiB at 50 K),
# and the budget of one K of the pulse-1 pass (_pass_bytes): benzene at 50 K
# needs 6.6 MiB at P = -1, at the warmest temperature thermal_levels accepts
# (about 1,180 K) 476 MiB, which is rejected.
STATE_BATCH_BYTES = 2 ** 28


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
    molecule is the K = 0 case.  A list keeping J > THERMAL_J_LIMIT is rejected,
    once the levels up to the limit weigh under WEIGHT_CUTOFF of the sum.
    """
    linear = mol.kind == "linear"
    sig = sigma_th(mol, T_K) if linear else sigma_th(mol, T_K)[0]
    if sig == 0.0:
        return [(0, 0, 1.0)], 0.0
    s2 = sig * sig
    ratio = 1.0 if linear else mol.i1_over_i3
    levels, z, z_limit, J = [], 0.0, 0.0, 0
    while True:
        shell = 0.0
        for Ka in range(1 if linear else J + 1):
            e = J * (J + 1) / 2.0 + (ratio - 1.0) * Ka * Ka / 2.0
            w = (hook(J) if hook else 1.0) * math.exp(-e / s2)
            mult = (2 * J + 1) * (2 if Ka else 1)
            levels.append((e, J, Ka, w, mult))
            shell += w * mult
        z += shell
        z_limit = z if J <= THERMAL_J_LIMIT else z_limit
        if z_limit < WEIGHT_CUTOFF * z or (J > 4 and shell < 1e-16 * z):
            break
        J += 1
    levels.sort(key=lambda t: t[:3])
    kept, cum = [], 0.0
    for e, J, Ka, w, mult in levels:
        kept.append((J, Ka, w / z))
        cum += w * mult / z
        if cum >= WEIGHT_CUTOFF:
            break
    if max(J for J, _, _ in kept) > THERMAL_J_LIMIT:
        raise ParameterError(f"T={T_K} K needs thermal levels above J={THERMAL_J_LIMIT}, "
                             "more than the quantum engines can hold")
    return [(J, Ka, w / cum) for J, Ka, w in kept], 1.0 - cum


def default_J_max(p_max: float, J0_max: int) -> int:
    # 4x the strongest kick |P| plus a margin, or 16 + 2|P| for weak kicks, a
    # rule sized for two kicked states.  Only pulse 1 kicks states, and pulse 2
    # needs no basis room, but the rule sets the J_max that manifests and the
    # benchmark's references record
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


def _basis_cutoff(J_max: int | None, J0: int, default: int) -> int:
    """J_max (default if None), above the thermal levels and the band."""
    J_max = default if J_max is None else J_max
    if J_max < J0:
        raise ParameterError(f"J_max={J_max} is below the thermal J={J0}")
    if J_max < HEADROOM_BAND:
        raise ParameterError(f"J_max={J_max} is below the headroom band of "
                             f"{HEADROOM_BAND} levels, which must stay unpopulated")
    return J_max


def _thermal_setup(mol: MoleculeParams, T_K: float, strengths, J_max, hook=None,
                   default=default_J_max):
    """Thermal levels {K >= 0: [(J0, weight)]} under the spin hook, the basis
    cut-off (default(|P| max, J0) if J_max is None) and base meta."""
    if not all(map(math.isfinite, strengths)):
        raise ParameterError(f"kick strengths must be finite, got {strengths}")
    levels, trunc = thermal_levels(mol, T_K, hook)
    J0 = max(J for J, _, _ in levels)
    J_max = _basis_cutoff(J_max, J0, default(max(map(abs, strengths)), J0))
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


def thermal_states(K: int, levels, mirror: bool):
    """(J0, m0, weights) of one K's thermal states |J0 K m0>, in the order of
    levels [(J0, weight per state)] and m0 ascending.  K > 0 is doubled, for
    -K.  With mirror (every pulse in the xz plane, every observable even
    under y -> -y) only m0 >= 0 is kept, and m0 > 0 is doubled, for -m0."""
    J0, m0, w = (np.array(c) for c in zip(*[
        (J, m, wt * (2.0 if mirror and m else 1.0) * (2.0 if K else 1.0))
        for J, wt in levels for m in range(0 if mirror else -J, J + 1)]))
    return J0.astype(int), m0.astype(int), w


def _first_kick(K: int, levels, omega: np.ndarray, P1: float):
    """m0 and the weights of thermal_states (mirrored), the amplitudes psi
    (states x J, J = K..J_max) after the first kick, each the column
    (W e^{i P1 lam/3}) W[J0 - K, :]^T of its block's Omega = W diag(lam) W^T,
    and their largest population within HEADROOM_BAND of J_max (_band_tail)."""
    J0, m0, w = thermal_states(K, levels, True)
    n = omega.shape[1]
    psi = np.zeros((len(w), n), dtype=complex)
    for m, (lam, W) in enumerate(_block_eigh(omega, K, int(m0.max()) + 1)):
        s = np.flatnonzero(m0 == m)
        lo = n - len(lam)
        psi[s, lo:] = ((W * np.exp(1j * (P1 / 3.0) * lam)) @ W[J0[s] - K - lo].T).T
    tail = _band_tail((np.abs(psi[:, -HEADROOM_BAND:]) ** 2).sum(axis=1),
                      omega.shape[0] - 1, "after pulse 1")
    return m0, w, psi, tail


def _pass_bytes(levels: dict, J_max: int) -> tuple:
    """(bytes, K) of the largest K's arrays in _pulse1_pass: Omega on the
    J_max + 2 blocks, and the states' amplitudes psi twice, for the copies
    of one m block's rows that the pass gathers beside them."""
    return max((8 * (J_max + 3) * (J_max + 3 - K) ** 2
                + 2 * 16 * sum(J + 1 for J, _ in lev) * (J_max + 1 - K), K)
               for K, lev in levels.items())


def _pulse1_pass(levels: dict, J_max: int, P1: float, meta: dict):
    """The moments of pulse 1's states, one K at a time: (pop, amp, amp4),
    the J populations sum_s w_s |psi_s|^2 and the (J, J') beat amplitudes of
    z^2 = cos^2 theta and of z^4 about p1, each z^k's blocks times
    sum_s w_s psi_s^* psi_s^T summed over the m blocks.  Records the headroom
    tail and the blocks in meta.  Omega and c2 = (1 + Omega)/3 run to
    J_max + 2, so that c^4 = c^2 c^2 is exact on J <= J_max.  A run whose
    largest K needs more than STATE_BATCH_BYTES is rejected before any of it
    is allocated."""
    need, K_top = _pass_bytes(levels, J_max)
    if need > STATE_BATCH_BYTES:
        raise ParameterError(f"the pulse-1 pass needs {need / 2 ** 20:.0f} MiB at K={K_top}, "
                             f"J_max={J_max}, over STATE_BATCH_BYTES = {STATE_BATCH_BYTES}")
    n = J_max + 1
    pop = np.zeros(n)
    amp, amp4 = np.zeros((2, n, n), dtype=complex)
    tail, n_blocks = 0.0, 0
    for K, lev in levels.items():
        omega = _pulse_frame_blocks(J_max + 2, K)
        m0, w, psi, tail_K = _first_kick(K, lev, omega[:n, :-2, :-2], P1)
        n_blocks += int(m0.max()) + 1
        tail = max(tail, tail_K)
        pop[K:] += w @ (psi.real ** 2 + psi.imag ** 2)
        for m in range(int(m0.max()) + 1):
            s = m0 == m
            rho = (np.conj(psi[s]) * w[s, None]).T @ psi[s]
            c2 = (np.eye(omega.shape[1]) + omega[m]) / 3.0
            amp[K:, K:] += c2[:-2, :-2] * rho
            amp4[K:, K:] += (c2 @ c2)[:-2, :-2] * rho
    meta.update(headroom_tail=tail, n_blocks=n_blocks, max_block_dim=n - min(levels))
    return pop, amp, amp4


def alignment_trace(mol: MoleculeParams, T_K: float, P1: float, times_trev,
                    J_max: int | None = None) -> TimeSeries:
    """Thermal <cos^2 theta>(t) about the first-pulse axis after one pulse:
    the pulse-1 pass alone, so equal to delay_curve's cos2theta on the same
    J_max."""
    levels, J_max, meta = _thermal_setup(mol, T_K, (P1,), J_max)
    trace = SpectralTrace(_pulse1_pass(levels, J_max, P1, meta)[1])
    times = np.asarray(times_trev, dtype=float)
    meta.update(distinct_freqs=trace.distinct_freqs)
    return TimeSeries(times, {"cos2theta": trace.evaluate(times * TWO_PI)}, meta)


def delay_curve(mol: MoleculeParams, T_K: float, P1: float, P2: float,
                dphi: float, taus_trev, J_max: int | None = None) -> TimeSeries:
    """Alignment and oriented angular momentum vs pulse delay.

    Channels: cos2theta about p1 as pulse 2 fires, Ly (= <J_y> in the
    classical frame, the oriented angular momentum) and L2 (= <J^2>), both
    stationary after pulse 2, and Ly_norm = Ly/sqrt(L2); dphi is the signed
    angle of p2 from p1 in radians, p2 = (sin dphi, 0, cos dphi).  Pulse 2
    is exact in the basis, so TruncationError comes only from pulse 1's
    headroom.  Ly is 0.0 at tau = 0, one kick e^{if(r)} whose torque averages
    out over the isotropic mixture, and so at every whole revival of
    tau/T_rev (within 4 ulp).  meta's distinct_freqs counts the beats of Ly
    and L2, and cos2theta_freqs those of cos2theta.
    """
    if not math.isfinite(dphi):
        raise ParameterError(f"the pulse angle dphi must be finite, got {dphi}")
    levels, J_max, meta = _thermal_setup(mol, T_K, (P1, P2), J_max)
    taus_trev = np.asarray(taus_trev, dtype=float)
    taus = taus_trev * TWO_PI
    pop, amp, amp4 = _pulse1_pass(levels, J_max, P1, meta)
    # <P_2(z)> and <P_4(z)> about p1 give <c^2> and <c^4> about p2, and
    # i<[J^2, c^2]> is P_2(cos dphi) i<[J^2, z^2]>, by the addition theorem
    D = np.diag(pop)
    A2, A4 = (3.0 * amp - D) / 2.0, (35.0 * amp4 - 30.0 * amp + 3.0 * D) / 8.0
    x = math.cos(dphi)
    p2, p4 = (3.0 * x * x - 1.0) / 2.0, (35.0 * x ** 4 - 30.0 * x * x + 3.0) / 8.0
    c2 = D / 3.0 + (2.0 / 3.0) * p2 * A2
    c4 = D / 5.0 + (4.0 / 7.0) * p2 * A2 + (8.0 / 35.0) * p4 * A4
    # U^dag J_y U = J_y + iP [J_y, c^2] and U^dag J^2 U = J^2 + iP [J^2, c^2]
    # + 4P^2 (c^2 - c^4), U = e^{iP c^2}
    a = np.arange(J_max + 1) * (np.arange(J_max + 1) + 1.0)
    trace = SpectralTrace(np.stack([
        P2 * math.sin(2.0 * dphi) * A2,
        np.diag(a * pop) + 1j * P2 * p2 * (a[:, None] - a) * amp + 4.0 * P2 * P2 * (c2 - c4)]))
    Ly, L2 = trace.evaluate(taus)
    Ly[np.abs(taus_trev - np.round(taus_trev)) <= 4 * np.spacing(np.abs(taus_trev))] = 0.0
    align = SpectralTrace(amp)
    meta.update(dphi=dphi, distinct_freqs=trace.distinct_freqs,
                cos2theta_freqs=align.distinct_freqs)
    cos2theta = align.evaluate(taus)
    return TimeSeries(taus_trev, {"cos2theta": cos2theta, "Ly": Ly, "L2": L2,
                                  "Ly_norm": ly_norm(Ly, L2)}, meta)
