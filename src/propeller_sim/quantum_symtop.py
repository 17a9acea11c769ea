"""Rotational wave-packet dynamics of an oblate symmetric top.

Works in the propagation frame (z along the laser propagation, first pulse
polarized along x) with a |J, K, M> basis.  Dimensionless energies are

    e(J, K) = J(J+1)/2 + (I_1/I_3 - 1) K^2 / 2          (units hbar^2/I_1),

so e = J(J+1)/2 - K^2/4 for a planar ring (I_3 = 2 I_1).

The x-polarized pulse couples through the rank-2 spherical-tensor combination

    Omega = -D^{2*}_{0,0} + sqrt(3/2) (D^{2*}_{-2,0} + D^{2*}_{2,0})
          = 3 cos^2(beta) - 1,          cos(beta) = x_hat . r_hat,

whose matrix elements (products of two 3j symbols) obey Delta-K = 0 and
Delta-M in {0, +-2}; an impulsive pulse of strength P applies
U = exp(i (P/3) Omega), equal to exp(i P cos^2 beta) up to a global phase.
The matrix is block-diagonal in (K, parity of M); blocks are diagonalized
once and reused for every initial state, delay and observable.

A second pulse tilted by dphi about z composes through the frame transform
|J,K,M> -> e^{i M dphi} |J,K,M>:

    B(tau) = sum_{r'} C_{ri,r'} C'_{r',r} e^{-i(e'-e) tau} e^{i(M'-M) dphi},

evaluable for any tau from one solve.  The alignment factor about the first
pulse is the operator (1 + Omega)/3; the oriented angular momentum is J_z
(the classical-frame L_y).  Contributions of the K and -K blocks are equal
(they are related by the similarity diag((-1)^J)), so only K >= 0 blocks are
evaluated, with doubled weight for K > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import angular
from .core import (IntegrationError, MoleculeParams, ParameterError,
                   PulseSpec, TruncationError, TWO_PI, sigma_th)
from .ensemble import TimeSeries
from .spectral import SpectralTrace, accumulate_pattern

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
        self._index = {(int(j), int(k), int(m)): i
                       for i, (j, k, m) in enumerate(zip(J_l, K_l, M_l))}
        self.energies = self.energy(self.J, self.K)
        self._block_cache: dict = {}

    def energy(self, J, K):
        J = np.asarray(J, dtype=float)
        K = np.asarray(K, dtype=float)
        return J * (J + 1) / 2.0 + (self.i1_over_i3 - 1.0) * K * K / 2.0

    def index(self, J: int, K: int, M: int) -> int:
        try:
            return self._index[(J, K, M)]
        except KeyError:
            raise ParameterError(f"state |{J},{K},{M}> outside basis") from None

    def block_indices(self, K: int, m_parity: int) -> np.ndarray:
        """Global indices of the (K, M-parity) block, ordered by (J, M)."""
        key = (K, m_parity)
        if key not in self._block_cache:
            sel = (self.K == K) & (np.abs(self.M) % 2 == m_parity)
            self._block_cache[key] = np.flatnonzero(sel)
        return self._block_cache[key]

    def block_keys(self, K_values=None):
        ks = range(-self.K_limit, self.K_limit + 1) if K_values is None else K_values
        return [(k, p) for k in ks for p in (0, 1)
                if len(self.block_indices(k, p))]


# (J' - J, M' - M) offsets of the Omega couplings on and above the diagonal
# of a block ordered by (J, M); (0, -2) is the mirror of (0, +2)
_UPPER_STEPS = ((0, 0), (0, 2), (1, -2), (1, 0), (1, 2), (2, -2), (2, 0), (2, 2))


def coupling_block(basis: SymTopBasis, key) -> np.ndarray:
    """Dense symmetric matrix of Omega on one (K, M-parity) block.

    <J' K M'|Omega|J K M> is -d_0 for M' = M and sqrt(3/2) d_{+-2} for
    M' = M +- 2, with d_p = <J' K M'|D^{2*}_{p,0}|J K M> (see
    angular.symtop_d2_element).  Each (J' - J, M' - M) offset is filled for
    the whole block at once and mirrored below the diagonal.
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


def coupling_matrix(basis: SymTopBasis) -> np.ndarray:
    """Full dense Omega matrix (tests and small bases only)."""
    out = np.zeros((basis.size, basis.size))
    for key in basis.block_keys():
        idx = basis.block_indices(*key)
        out[np.ix_(idx, idx)] = coupling_block(basis, key)
    return out


def alignment_block(basis: SymTopBasis, key, omega=None) -> np.ndarray:
    """cos^2 of the angle to the first-pulse axis: (1 + Omega)/3.

    omega, when given, is the block's coupling matrix, already built.
    """
    if omega is None:
        omega = coupling_block(basis, key)
    return (np.eye(len(omega)) + omega) / 3.0


@dataclass
class BlockSolution:
    """Eigen-factorized impulsive propagator on one block: U = V e^{i(P/3)lam} V^T."""

    key: tuple
    idx: np.ndarray
    V: np.ndarray
    lam: np.ndarray
    P: float

    def U(self) -> np.ndarray:
        phase = np.exp(1j * (self.P / 3.0) * self.lam)
        return (self.V * phase) @ self.V.T

    def apply(self, cols: np.ndarray) -> np.ndarray:
        """U @ cols without materializing U."""
        phase = np.exp(1j * (self.P / 3.0) * self.lam)
        return self.V @ (phase[:, None] * (self.V.T @ cols))


class PulseSolution:
    """Single-pulse amplitude matrix C_{ri,r}, stored block by block."""

    def __init__(self, basis: SymTopBasis, pulse: PulseSpec, blocks: dict):
        self.basis = basis
        self.pulse = pulse
        self.blocks = blocks       # key -> BlockSolution or dense U (finite pulses)

    def block_U(self, key) -> np.ndarray:
        b = self.blocks[key]
        return b.U() if isinstance(b, BlockSolution) else b

    def row(self, J: int, K: int, M: int) -> np.ndarray:
        """One amplitude row C_{ri, r} over the full basis."""
        i = self.basis.index(J, K, M)
        key = (K, abs(M) % 2)
        idx = self.basis.block_indices(*key)
        local = int(np.flatnonzero(idx == i)[0])
        out = np.zeros(self.basis.size, dtype=complex)
        out[idx] = self.block_U(key)[:, local]
        return out


def solve_pulse(basis: SymTopBasis, pulse: PulseSpec,
                block_keys=None) -> PulseSolution:
    """Propagator of one x-polarized pulse on each (K, M-parity) block.

    Impulsive pulses (duration 0) are the matrix exponential of the coupling
    block; finite pulses integrate the coupled coefficient equations with a
    Gaussian envelope of the given FWHM (same integrated strength P).
    """
    keys = block_keys if block_keys is not None else basis.block_keys()
    blocks = {}
    for key in keys:
        idx = basis.block_indices(*key)
        omega = coupling_block(basis, key)
        if pulse.duration == 0.0:
            lam, V = np.linalg.eigh(omega)
            blocks[key] = BlockSolution(key, idx, V, lam, pulse.P)
        else:
            blocks[key] = _finite_pulse_block(basis, idx, omega, pulse)
    return PulseSolution(basis, pulse, blocks)


def _finite_pulse_block(basis: SymTopBasis, idx: np.ndarray, omega: np.ndarray,
                        pulse: PulseSpec) -> np.ndarray:
    """Full finite-pulse propagator on one block (columns = basis states)."""
    from .quantum_linear import gaussian_envelope

    e = basis.energies[idx]
    g = gaussian_envelope(pulse.P / 3.0, pulse.duration)
    span = 4.0 * pulse.duration
    nb = len(idx)

    def rhs(t, y):
        c = y.view(complex).reshape(nb, nb)
        ph = np.exp(-1j * e * t)
        dc = 1j * g(t) * (np.conj(ph)[:, None] * (omega @ (ph[:, None] * c)))
        return dc.reshape(-1).view(float)

    y0 = np.eye(nb, dtype=complex).reshape(-1).view(float)
    sol = solve_ivp(rhs, (-span, span), y0, method="DOP853", rtol=1e-8, atol=1e-10)
    if not sol.success:
        raise IntegrationError(
            f"pulse integration failed at t = {sol.t[-1]:.6g}: {sol.message}")
    return sol.y[:, -1].copy().view(complex).reshape(nb, nb)


def compose_two_pulses(sol1: PulseSolution, sol2: PulseSolution | None,
                       tau: float, dphi: float) -> dict:
    """Two-pulse amplitude blocks B(tau) for a delay tau (dimensionless).

    sol2 = None means the second pulse is a replica of the first.  The tilt
    enters as the diagonal frame-transform phase e^{i(M'-M) dphi} applied per
    intermediate state; amplitudes refer to the convention
    Psi(t) = sum_r B_r exp(-i e_r t)|r>.
    """
    sol2 = sol2 or sol1
    basis = sol1.basis
    out = {}
    for key, b1 in sol1.blocks.items():
        idx = b1.idx if isinstance(b1, BlockSolution) else basis.block_indices(*key)
        e = basis.energies[idx]
        M = basis.M[idx]
        U1 = sol1.block_U(key)
        U2 = sol2.block_U(key)
        d_mid = np.exp(-1j * e * tau + 1j * M * dphi)
        d_out = np.exp(1j * e * tau - 1j * M * dphi)
        out[key] = (U1.T * d_mid) @ U2.T * d_out[None, :]
    return out


def symtop_thermal_states(mol: MoleculeParams, T_K: float, g_ns=None,
                          cutoff: float = WEIGHT_CUTOFF):
    """Initial (J, K, M, weight) list covering >= cutoff of the Boltzmann sum.

    g_ns(|K|) is the nuclear-spin weight hook (default uniform).  Weights use
    exp(-e(J,K)/sigma_1^2) with the dimensionless energy table.
    """
    hook = g_ns or (lambda k: 1.0)
    if mol.kind != "oblate-symtop":
        raise ParameterError("symtop_thermal_states needs an oblate-symtop molecule")
    sig1, _ = sigma_th(mol, T_K)
    if sig1 == 0.0:
        return [(0, 0, 0, 1.0)], 0.0
    s2 = sig1 * sig1
    ratio = mol.i1_over_i3
    levels = []       # one entry per degenerate (J, |K|) level
    J = 0
    z = 0.0
    while True:
        shell = 0.0
        for Ka in range(0, J + 1):
            e = J * (J + 1) / 2.0 + (ratio - 1.0) * Ka * Ka / 2.0
            w = hook(Ka) * math.exp(-e / s2)
            mult = (2 * J + 1) * (2 if Ka else 1)
            levels.append((e, J, Ka, w, mult))
            shell += w * mult
        z += shell
        if J > 4 and shell < 1e-16 * z:
            break
        J += 1
    # include whole degenerate levels (all M, both K signs) so that the
    # truncated mixture stays isotropic and K <-> -K symmetric
    levels.sort(key=lambda t: (t[0], t[1], t[2]))
    states, cum = [], 0.0
    for e, J, Ka, w, mult in levels:
        for K in ({0} if Ka == 0 else {-Ka, Ka}):
            for M in range(-J, J + 1):
                states.append((J, K, M, w / z))
        cum += w * mult / z
        if cum >= cutoff:
            break
    # renormalize the truncated mixture so observables carry no global bias
    states = [(J, K, M, w / cum) for (J, K, M, w) in states]
    return states, 1.0 - cum


def default_J_max(pulses, J0_max: int) -> int:
    # 4x the strongest kick plus a constant margin wide enough that the
    # 1e-10 headroom band stays empty even for weak pulses
    p_max = max((abs(p.P) for p in pulses), default=0.0)
    return 10 + math.ceil(4.0 * p_max) + J0_max


def _check_headroom(basis: SymTopBasis, idx: np.ndarray, psi: np.ndarray):
    band = basis.J[idx] > basis.J_max - HEADROOM_BAND
    if not np.any(band):
        return 0.0
    tail = float((np.abs(psi[band, :]) ** 2).sum(axis=0).max())
    if tail > HEADROOM_TOL:
        raise TruncationError(
            f"population {tail:.2e} within {HEADROOM_BAND} of J_max={basis.J_max}; "
            "increase J_max")
    return tail


def _block_sparse_op(basis: SymTopBasis, key, name: str, omega=None):
    """Local COO triplets of an observable on one block (omega: see alignment_block)."""
    idx = basis.block_indices(*key)
    if name == "cos2theta":
        mat = alignment_block(basis, key, omega)
        rows, cols = np.nonzero(mat)
        return rows, cols, mat[rows, cols].astype(complex)
    if name == "Ly":        # J_z of the propagation frame = classical L_y
        n = np.arange(len(idx))
        return n, n, basis.M[idx].astype(complex)
    if name == "L2":
        n = np.arange(len(idx))
        return n, n, (basis.J[idx] * (basis.J[idx] + 1)).astype(complex)
    raise ParameterError(f"unknown symtop observable {name!r}")


def _fold_keys(basis: SymTopBasis):
    """(key, weight-multiplier) pairs exploiting the K <-> -K symmetry."""
    out = []
    for key in basis.block_keys(K_values=range(0, basis.K_limit + 1)):
        out.append((key, 1.0 if key[0] == 0 else 2.0))
    return out


def _initial_in_block(basis: SymTopBasis, key, states):
    """Local indices and weights of thermal states living in one block."""
    idx = basis.block_indices(*key)
    lookup = {int(g): n for n, g in enumerate(idx)}
    locs, ws = [], []
    for (J, K, M, w) in states:
        if K == key[0] and abs(M) % 2 == key[1]:
            locs.append(lookup[basis.index(J, K, M)])
            ws.append(w)
    return np.array(locs, dtype=int), np.array(ws)


def thermal_expectation(b_blocks: dict, basis: SymTopBasis, observable: str,
                        states, t_grid_trev) -> np.ndarray:
    """Post-pulse-2 expectation trace from composed amplitude blocks.

    b_blocks maps block keys to B(tau) matrices whose rows span the block;
    `states` is the thermal (J, K, M, weight) list.  When only K >= 0 blocks
    are present, K > 0 contributions are doubled (the K <-> -K fold);
    otherwise every block counts once.  Times are absolute (pulse 1 at
    t = 0), in T_rev units, matching compose_two_pulses' phase convention.
    """
    folded = not any(key[0] < 0 for key in b_blocks)
    trace = SpectralTrace()
    for key, B in b_blocks.items():
        mult = 2.0 if (folded and key[0] > 0) else 1.0
        locs, ws = _initial_in_block(basis, key, states)
        if not len(locs):
            continue
        idx = basis.block_indices(*key)
        rows, cols, vals = _block_sparse_op(basis, key, observable)
        psi = B[locs, :].T.copy()
        accumulate_pattern(trace, rows, cols, vals, basis.energies[idx],
                           psi, ws, scale=mult)
    return trace.evaluate(np.asarray(t_grid_trev) * TWO_PI)


def alignment_trace(mol: MoleculeParams, T_K: float, P1: float, times_trev,
                    J_max: int | None = None, g_ns=None) -> TimeSeries:
    """Thermal <cos^2 theta>(t) about the first-pulse axis after one pulse."""
    states, trunc = symtop_thermal_states(mol, T_K, g_ns)
    J0 = max(s[0] for s in states)
    K_lim = max(abs(s[1]) for s in states)
    if J_max is None:
        J_max = default_J_max([PulseSpec.along(P1, (1, 0, 0))], J0)
    basis = SymTopBasis(J_max, mol.i1_over_i3, K_limit=K_lim)
    times = np.asarray(times_trev, dtype=float)
    trace = SpectralTrace()
    tail = 0.0
    for key, mult in _fold_keys(basis):
        locs, ws = _initial_in_block(basis, key, states)
        if not len(locs):
            continue
        idx = basis.block_indices(*key)
        omega = coupling_block(basis, key)
        lam, V = np.linalg.eigh(omega)
        phase = np.exp(1j * (P1 / 3.0) * lam)
        psi1 = V @ (phase[:, None] * V.T[:, locs])
        tail = max(tail, _check_headroom(basis, idx, psi1))
        rows, cols, vals = _block_sparse_op(basis, key, "cos2theta", omega)
        accumulate_pattern(trace, rows, cols, vals, basis.energies[idx],
                           psi1, ws, scale=mult)
    values = trace.evaluate(times * TWO_PI)
    meta = {"J_max": J_max, "K_limit": K_lim, "weight_truncation": trunc,
            "headroom_tail": tail, "n_initial_states": len(states),
            "g_ns": "uniform" if g_ns is None else "custom"}
    return TimeSeries(grid=times, channels={"cos2theta": values}, meta=meta)


def delay_curve(mol: MoleculeParams, T_K: float, P1: float, P2: float,
                dphi: float, taus_trev, J_max: int | None = None,
                g_ns=None) -> TimeSeries:
    """Oriented angular momentum vs pulse delay (stationary after pulse 2).

    Channels: Ly (= <J_z>, the classical-frame L_y), L2 (= <J^2>) and
    Ly_norm = Ly/sqrt(L2); dphi is the tilt of the second pulse about the
    propagation axis in radians (the classical-frame angle of p2 from z).
    """
    states, trunc = symtop_thermal_states(mol, T_K, g_ns)
    J0 = max(s[0] for s in states)
    K_lim = max(abs(s[1]) for s in states)
    if J_max is None:
        J_max = default_J_max([PulseSpec.along(P1, (1, 0, 0)),
                               PulseSpec.along(P2, (1, 0, 0))], J0)
    basis = SymTopBasis(J_max, mol.i1_over_i3, K_limit=K_lim)
    taus = np.asarray(taus_trev, dtype=float) * TWO_PI
    traces = {"Ly": SpectralTrace(), "L2": SpectralTrace()}
    tail = 0.0
    for key, mult in _fold_keys(basis):
        locs, ws = _initial_in_block(basis, key, states)
        if not len(locs):
            continue
        idx = basis.block_indices(*key)
        e = basis.energies[idx]
        M = basis.M[idx]
        omega = coupling_block(basis, key)
        lam, V = np.linalg.eigh(omega)
        ph1 = np.exp(1j * (P1 / 3.0) * lam)
        psi1 = V @ (ph1[:, None] * V.T[:, locs])          # (nb, ni)
        tail = max(tail, _check_headroom(basis, idx, psi1))
        F = (psi1 * ws) @ psi1.conj().T                    # thermal rho after pulse 1
        ph2 = np.exp(1j * (P2 / 3.0) * lam)
        # post-second-kick headroom, sampled at the scan-window extremes
        for t_probe in (taus[0], taus[len(taus) // 2], taus[-1]):
            arrive = np.exp(-1j * e * t_probe + 1j * M * dphi)[:, None] * psi1
            psi2 = V @ (ph2[:, None] * (V.T @ arrive))
            tail = max(tail, _check_headroom(basis, idx, psi2))
        pair_phase = np.conj(ph2)[:, None] * ph2[None, :]
        m_phase = np.exp(-1j * M * dphi)
        tilt = m_phase[:, None] * np.conj(m_phase)[None, :]   # e^{-i(M-M')dphi}
        weight = mult * tilt * F.T
        freqs = (e[:, None] - e[None, :]).ravel()
        for name, a in (("Ly", M), ("L2", basis.J[idx] * (basis.J[idx] + 1))):
            mid = (V.T * a) @ V                            # V^T diag(a) V, real
            # U2^dag diag(a) U2 = V (mid * pair_phase) V^T; V is real, so the
            # real and imaginary parts each take two real products
            s_mat = (V @ (mid * pair_phase.real) @ V.T
                     + 1j * (V @ (mid * pair_phase.imag) @ V.T))
            traces[name].add(freqs, (s_mat * weight).ravel())
    Ly = traces["Ly"].evaluate(taus)
    L2 = traces["L2"].evaluate(taus)
    with np.errstate(invalid="ignore", divide="ignore"):
        norm = np.where(L2 > 0, Ly / np.sqrt(L2), 0.0)
    meta = {"J_max": J_max, "K_limit": K_lim, "weight_truncation": trunc,
            "headroom_tail": tail, "dphi": dphi,
            "g_ns": "uniform" if g_ns is None else "custom"}
    return TimeSeries(grid=np.asarray(taus_trev, dtype=float),
                      channels={"Ly": Ly, "L2": L2, "Ly_norm": norm}, meta=meta)
