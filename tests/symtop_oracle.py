"""Lab-frame block chain for the symmetric top: the tests' oracle.

Impulsive propagators are built directly in the propagation frame (z along
the light, first pulse along x) on the (K, M-parity) blocks of
`quantum_symtop.coupling_block`, by dense eigendecomposition.  A second
pulse tilted by dphi about z composes through the frame transform
|J,K,M> -> e^{i M dphi} |J,K,M>:

    B(tau) = sum_{r'} C_{ri,r'} C'_{r',r} e^{-i(e'-e) tau} e^{i(M'-M) dphi}.

The engine in `quantum_symtop` computes the same traces in the pulse frame;
the two agree to rounding on any truncated basis.  The lab-frame traces are
direct sums over the (frequency, amplitude) pairs of COO triplets of each
block's observable (coo_amplitudes), with no grouping.  The thermal
mixture is `quantum_symtop.thermal_levels` expanded to every state
|J, K, M> (thermal_states).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from propeller_sim.core import ParameterError, PulseSpec, TWO_PI
from propeller_sim.quantum_symtop import SymTopBasis, coupling_block, thermal_levels


def block_keys(basis: SymTopBasis, K_values=None) -> list:
    """The non-empty (K, M-parity) block keys, for all K by default."""
    ks = range(-basis.K_limit, basis.K_limit + 1) if K_values is None else K_values
    return [(k, p) for k in ks for p in (0, 1) if len(basis.block_indices(k, p))]


def state_index(basis: SymTopBasis, J: int, K: int, M: int) -> int:
    """Global index of |J, K, M>."""
    hit = np.flatnonzero((basis.J == J) & (basis.K == K) & (basis.M == M))
    if not len(hit):
        raise ParameterError(f"state |{J},{K},{M}> outside basis")
    return int(hit[0])


def coupling_matrix(basis: SymTopBasis) -> np.ndarray:
    """Full dense Omega matrix (tests and small bases only)."""
    out = np.zeros((basis.size, basis.size))
    for key in block_keys(basis):
        idx = basis.block_indices(*key)
        out[np.ix_(idx, idx)] = coupling_block(basis, key)
    return out


def alignment_block(basis: SymTopBasis, key) -> np.ndarray:
    """cos^2 of the angle to the first-pulse axis: (1 + Omega)/3."""
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
        self.blocks = blocks       # key -> BlockSolution
        self._U: dict = {}

    def block_U(self, key) -> np.ndarray:
        """The kick on one block, formed once (compose_two_pulses asks per delay)."""
        if key not in self._U:
            self._U[key] = self.blocks[key].U()
        return self._U[key]

    def row(self, J: int, K: int, M: int) -> np.ndarray:
        """One amplitude row C_{ri, r} over the full basis."""
        i = state_index(self.basis, J, K, M)
        key = (K, abs(M) % 2)
        idx = self.basis.block_indices(*key)
        local = int(np.flatnonzero(idx == i)[0])
        out = np.zeros(self.basis.size, dtype=complex)
        out[idx] = self.block_U(key)[:, local]
        return out


def solve_pulse(basis: SymTopBasis, pulse: PulseSpec, keys=None) -> PulseSolution:
    """Impulsive propagator of one x-polarized pulse on each (K, M-parity)
    block: the matrix exponential of the coupling block."""
    keys = keys if keys is not None else block_keys(basis)
    blocks = {}
    for key in keys:
        lam, V = np.linalg.eigh(coupling_block(basis, key))
        blocks[key] = BlockSolution(key, basis.block_indices(*key), V, lam, pulse.P)
    return PulseSolution(basis, pulse, blocks)


def embed(sol: PulseSolution, basis: SymTopBasis) -> PulseSolution:
    """sol's kick on a larger basis with the same K_limit: unchanged on sol's
    own states, the identity above its J_max.

    Each block of a smaller basis is the J <= J_max prefix of the same block
    here, so a first pulse truncated like the engine's can be followed by a
    second pulse on a basis padded past the band it would fill.
    """
    blocks = {}
    for key, b in sol.blocks.items():
        idx = basis.block_indices(*key)
        k = len(b.lam)
        V, lam = np.eye(len(idx)), np.zeros(len(idx))
        V[:k, :k], lam[:k] = b.V, b.lam
        blocks[key] = BlockSolution(key, idx, V, lam, b.P)
    return PulseSolution(basis, sol.pulse, blocks)


def compose_two_pulses(sol1: PulseSolution, sol2: PulseSolution | None,
                       tau: float, dphi: float, rows: dict | None = None) -> dict:
    """Two-pulse amplitude blocks B(tau) for a delay tau (dimensionless).

    sol2 = None means the second pulse is a replica of the first.  The tilt
    enters as the diagonal frame-transform phase e^{i(M'-M) dphi} applied per
    intermediate state; amplitudes refer to the convention
    Psi(t) = sum_r B_r exp(-i e_r t)|r>.  rows maps each block key to the
    local rows to compose (thermal_rows: the rows thermal_expectation
    reads); the other rows stay zero.  By default every row is composed.
    """
    sol2 = sol2 or sol1
    basis = sol1.basis
    out = {}
    for key, b1 in sol1.blocks.items():
        e = basis.energies[b1.idx]
        M = basis.M[b1.idx]
        U1 = sol1.block_U(key)
        U2 = sol2.block_U(key)
        d_mid = np.exp(-1j * e * tau + 1j * M * dphi)
        d_out = np.exp(1j * e * tau - 1j * M * dphi)
        sel = slice(None) if rows is None else rows[key]
        out[key] = np.zeros(U1.shape, dtype=complex)
        out[key][sel] = (U1.T[sel] * d_mid) @ U2.T * d_out[None, :]
    return out


def _block_sparse_op(basis: SymTopBasis, key, name: str):
    """Local COO triplets of an observable on one block."""
    idx = basis.block_indices(*key)
    if name == "cos2theta":
        mat = alignment_block(basis, key)
        rows, cols = np.nonzero(mat)
        return rows, cols, mat[rows, cols].astype(complex)
    if name == "Ly":        # J_z of the propagation frame = classical L_y
        n = np.arange(len(idx))
        return n, n, basis.M[idx].astype(complex)
    if name == "L2":
        n = np.arange(len(idx))
        return n, n, (basis.J[idx] * (basis.J[idx] + 1)).astype(complex)
    raise ParameterError(f"unknown symtop observable {name!r}")


def thermal_states(mol, T_K: float) -> list:
    """The thermal (J, K, M, weight) list: every state of each kept level."""
    levels, _ = thermal_levels(mol, T_K)
    return [(J, K, M, w) for J, Ka, w in levels for K in sorted({-Ka, Ka})
            for M in range(-J, J + 1)]


def _initial_in_block(basis: SymTopBasis, key, states):
    """Local indices and weights of thermal states living in one block."""
    idx = basis.block_indices(*key)
    lookup = {int(g): n for n, g in enumerate(idx)}
    locs, ws = [], []
    for (J, K, M, w) in states:
        if K == key[0] and abs(M) % 2 == key[1]:
            locs.append(lookup[state_index(basis, J, K, M)])
            ws.append(w)
    return np.array(locs, dtype=int), np.array(ws)


def thermal_rows(basis: SymTopBasis, states) -> dict:
    """Block key -> local indices of the thermal states living in the block."""
    return {key: _initial_in_block(basis, key, states)[0] for key in block_keys(basis)}


def coo_amplitudes(rows, cols, vals, energies: np.ndarray, psi: np.ndarray,
                   weights: np.ndarray):
    """(frequency, amplitude) pairs of sum_s w_s <psi_s| A |psi_s>(t) for an
    operator given as COO triplets.

    psi is a (dim, n_states) coefficient batch at the segment reference time;
    the amplitude of entry (j, k) at frequency e_j - e_k is
    A_jk sum_s w_s conj(psi_js) psi_ks.
    """
    rho = (np.conj(psi[rows, :]) * psi[cols, :]) @ weights
    return energies[rows] - energies[cols], vals * rho


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
    freqs, amps = [], []
    for key, B in b_blocks.items():
        mult = 2.0 if (folded and key[0] > 0) else 1.0
        locs, ws = _initial_in_block(basis, key, states)
        if not len(locs):
            continue
        idx = basis.block_indices(*key)
        rows, cols, vals = _block_sparse_op(basis, key, observable)
        f, a = coo_amplitudes(rows, cols, vals, basis.energies[idx], B[locs, :].T, ws)
        freqs.append(f)
        amps.append(mult * a)
    t = np.asarray(t_grid_trev, dtype=float) * TWO_PI
    return np.real(np.exp(1j * np.outer(t, np.concatenate(freqs))) @ np.concatenate(amps))
