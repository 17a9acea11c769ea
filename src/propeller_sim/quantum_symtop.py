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

* One thermal list serves both quantum engines: thermal_levels gives whole
  degenerate (J, |K|) levels, and a linear molecule is its K = 0 case.
* One pass over K (_pulse1_pass) kicks both functions' states.  Whole levels
  make the mixture isotropic, so it may be resolved into pulse-frame states
  |J0 K m0>, read from each block's one eigensystem without a kick matrix.
  Free flight depends only on (J, K) and cos^2 theta about p1 is
  (1 + Omega)/3, diagonal in m, so the pass also sums the alignment's (J, J')
  amplitudes of the beats e_J - e_J' (spectral.beat_freqs, the same for every
  K).  alignment_trace is that pass alone; delay_curve adds pulse 2 in the
  same K iteration and returns the alignment at each delay as cos2theta.
* The delay curve turns once, into pulse 2's frame, which is pulse 1's (the
  classical frame, light along y) turned by dphi about y: |J K m0> reads
  D^dagger |J K m0> there, D = D^J(0, dphi, 0) from angular.shell_rotations.
  The turn leaves J_y, the oriented angular momentum, and J^2 unchanged.
* Pulse 2 acts on the observables.  With c^2 = cos^2 about p2, (1 + Omega)/3
  on the pulse-2-frame blocks, its kick U = e^{iP c^2} gives exactly
  U^dag J_y U = J_y + iP [J_y, c^2] and U^dag J^2 U = J^2 + iP [J^2, c^2]
  + 4P^2 (c^2 - c^4) (classically Delta L = -2P (p.r)(p x r)), c^4 squaring
  blocks built to J_max + 2.  They are exact on psi's support, so only
  pulse 1 can truncate: _band_tail, the check and message of both engines,
  bounds each initial state's population within HEADROOM_BAND of J_max.

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
from .spectral import SpectralTrace, beat_freqs

HEADROOM_BAND = 4
HEADROOM_TOL = 1e-10
WEIGHT_CUTOFF = 0.9999
# The highest J the thermal level list may keep.  Benzene at 300 K sums
# past J = 250 to keep J <= 151, at 500 K it keeps J <= 195; N2 at 3000 K
# keeps J <= 97, already a 10k-column quantum_linear batch.
THERMAL_J_LIMIT = 300
# The largest dense batch, basis size x columns carried x 16 B, that
# quantum_linear.thermal_run may allocate (N2 at P = 5 needs 2.8 MiB at 50 K),
# and the budget of one chunk of states in delay_curve: its three
# (m, state, J) complex arrays, 192 MiB each for all of benzene's K = 0
# states at 50 K.
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
    # term sized for two kicked states; pulse 1 alone needs less, but the rule
    # sets the J_max that manifests and the benchmark's references record
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


def _thermal_setup(mol: MoleculeParams, T_K: float, strengths, J_max):
    """Thermal levels {K >= 0: [(J0, weight)]}, the basis cut-off and base meta."""
    if not all(map(math.isfinite, strengths)):
        raise ParameterError(f"kick strengths must be finite, got {strengths}")
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


def _first_kick(K: int, levels, omega: np.ndarray, P1: float):
    """m0, the weights (doubled for m0 > 0 and K > 0, which stand for -m0 and
    -K), the amplitudes psi (states x J, J = K..J_max) of one K's states after
    the first kick, each the column (W e^{i P1 lam/3}) W[J0 - K, :]^T of the
    kick from its block's Omega = W diag(lam) W^T, and their largest
    population within HEADROOM_BAND of J_max (_band_tail)."""
    J0, m0, w = (np.array(c) for c in zip(*[
        (J, m, wt * (2.0 if m else 1.0) * (2.0 if K else 1.0))
        for J, wt in levels for m in range(J + 1)]))
    J0, m0 = J0.astype(int), m0.astype(int)
    n = omega.shape[1]
    psi = np.zeros((len(w), n), dtype=complex)
    for m, (lam, W) in enumerate(_block_eigh(omega, K, int(m0.max()) + 1)):
        s = np.flatnonzero(m0 == m)
        lo = n - len(lam)
        psi[s, lo:] = ((W * np.exp(1j * (P1 / 3.0) * lam)) @ W[J0[s] - K - lo].T).T
    tail = _band_tail((np.abs(psi[:, -HEADROOM_BAND:]) ** 2).sum(axis=1),
                      omega.shape[0] - 1, "after pulse 1")
    return m0, w, psi, tail


def _pulse1_pass(levels: dict, J_max: int, P1: float, meta: dict, amp: np.ndarray):
    """Pulse 1's states, one K at a time: yields (K, c2, m0, w, psi), adds to
    amp the (J, J') amplitudes of cos^2 theta about p1, (1 + Omega[m])/3 times
    sum_s w_s psi_s^* psi_s^T summed over the m blocks, and records the
    headroom tail and the blocks in meta.  Omega and c2 = (1 + Omega)/3 run to
    J_max + 2, so that delay_curve's c^4 = c^2 c^2 is exact on J <= J_max."""
    n = J_max + 1
    tail, n_blocks = 0.0, 0
    for K, lev in levels.items():
        omega = _pulse_frame_blocks(J_max + 2, K)[:n]
        m0, w, psi, tail_K = _first_kick(K, lev, omega[:, :-2, :-2], P1)
        n_blocks += int(m0.max()) + 1
        tail = max(tail, tail_K)
        c2 = (np.eye(omega.shape[1]) + omega) / 3.0
        for m in range(int(m0.max()) + 1):
            s = m0 == m
            amp[K:, K:] += c2[m, :-2, :-2] * ((np.conj(psi[s]) * w[s, None]).T @ psi[s])
        yield K, c2, m0, w, psi
    meta.update(headroom_tail=tail, n_blocks=n_blocks, max_block_dim=n - min(levels))


def alignment_trace(mol: MoleculeParams, T_K: float, P1: float, times_trev,
                    J_max: int | None = None) -> TimeSeries:
    """Thermal <cos^2 theta>(t) about the first-pulse axis after one pulse:
    the pulse-1 pass alone, so equal to delay_curve's cos2theta on the same
    J_max."""
    levels, J_max, meta = _thermal_setup(mol, T_K, (P1,), J_max)
    amp = np.zeros((J_max + 1, J_max + 1), dtype=complex)
    for _ in _pulse1_pass(levels, J_max, P1, meta, amp):
        pass
    trace = SpectralTrace(beat_freqs(J_max + 1), amp)
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
    tau/T_rev (within 4 ulp).
    """
    if not math.isfinite(dphi):
        raise ParameterError(f"the pulse angle dphi must be finite, got {dphi}")
    levels, J_max, meta = _thermal_setup(mol, T_K, (P1, P2), J_max)
    taus_trev = np.asarray(taus_trev, dtype=float)
    taus = taus_trev * TWO_PI
    n = J_max + 1
    m0_top = max(J for lev in levels.values() for J, _ in lev) + 1
    # tilt[J, m + J_max, m0] = <J m|D^dagger|J m0> in pulse 2's frame, m0 < m0_top
    tilt = np.zeros((n, 2 * J_max + 1, m0_top), dtype=complex)
    for J, D in enumerate(angular.shell_rotations(J_max, 0.0, dphi)):
        tilt[J, J_max - J:J_max + J + 1, :J + 1] = np.conj(D[J:J + m0_top]).T
    m, J = np.ogrid[-J_max:J_max, :n]   # D commutes with J_y: the same band in both frames
    jy = 0.5 * np.sqrt(np.clip(J * (J + 1.0) - m * (m + 1), 0, None))  # <J m|J_y|J m+1> / i
    g = np.zeros((2, n, n), dtype=complex)   # the beat amplitudes of Ly and L2
    amp = np.zeros((n, n), dtype=complex)    # and of cos^2 theta about p1
    buf = np.empty((2, 0), dtype=complex)    # Z and Zw, sized by the first K, reused
    for K, c2, m0, w, psi in _pulse1_pass(levels, J_max, P1, meta, amp):
        Js = np.arange(K, n)
        # block -m is S (block m) S with S = (-1)^J; stack m = -J_max..J_max
        SS = np.outer((-1.0) ** Js, (-1.0) ** Js)
        c2, c4 = (np.concatenate([x[:0:-1] * SS, x])
                  for x in (c2[:, :-2, :-2], (c2 @ c2)[:, :-2, :-2]))
        # the (m, J, J) densities G = sum_s w_s Z_s^* Z_s^T of the pulse-2 frame
        # amplitudes Z, before the phase e^{-i e_J tau}, and their m -> m + 1
        # band, by chunks of states: Z and Zw, weighted in place, take 2/3 of the budget
        G = G1 = None
        chunk = max(1, STATE_BATCH_BYTES // (3 * 16 * tilt.shape[1] * len(Js)))
        for s in range(0, len(w), chunk):
            sl = slice(s, s + chunk)
            shape = (len(Js), tilt.shape[1], len(w[sl]))     # (J, m, s)
            if buf.shape[1] < math.prod(shape):
                buf = np.empty((2, math.prod(shape)), dtype=complex)
            Z, Zw = (b[:math.prod(shape)].reshape(shape) for b in buf)
            # "clip" writes into Z directly, where "raise" would buffer a copy;
            # every m0 is below m0_top, so nothing is clipped
            np.take(tilt[K:], m0[sl], axis=2, out=Z, mode="clip")
            Z *= psi[sl].T[:, None, :]
            Zw = np.conjugate(Z, out=Zw).transpose(1, 0, 2)    # (m, J, s)
            Z = Z.transpose(1, 2, 0)    # (m, s, J)
            Zw *= w[sl]
            if G is None:
                G, G1 = Zw @ Z, Zw[:-1] @ Z[1:]
            else:
                G += Zw @ Z
                G1 += Zw[:-1] @ Z[1:]
        # U^dag J^2 U = J^2 + iP [J^2, c^2] + 4P^2 (c^2 - c^4), U = e^{iP c^2}
        a = Js * (Js + 1.0)
        h2, h4 = (np.einsum("mij,mij->ij", c, G) for c in (c2, c4))
        g[1, K:, K:] += (np.diag(a * np.einsum("mii->i", G)) + 1j * P2 * (a[:, None] - a) * h2
                         + 4.0 * P2 * P2 * (h2 - h4))
        del G           # unread by the J_y algebra, under which Z and Zw's buffer stays
        # U^dag J_y U = J_y + iP [J_y, c^2] on J_y's band above the diagonal,
        # m -> m + 1, where J_y = i jy; the mirror gives the same real trace
        j = jy[:, Js]
        comm = j[:, :, None] * c2[1:] - c2[:-1] * j[:, None, :]     # [J_y, c^2] / i
        g[0, K:, K:] += (2j * np.diag(np.einsum("mi,mii->i", j, G1))
                         - 2.0 * P2 * np.einsum("mij,mij->ij", comm, G1))
    trace = SpectralTrace(beat_freqs(n), g)
    Ly, L2 = trace.evaluate(taus)
    Ly[np.abs(taus_trev - np.round(taus_trev)) <= 4 * np.spacing(np.abs(taus_trev))] = 0.0
    meta.update(dphi=dphi, distinct_freqs=trace.distinct_freqs)   # cos2theta's are among them
    cos2theta = SpectralTrace(beat_freqs(n), amp).evaluate(taus)
    return TimeSeries(taus_trev, {"cos2theta": cos2theta, "Ly": Ly, "L2": L2,
                                  "Ly_norm": ly_norm(Ly, L2)}, meta)
