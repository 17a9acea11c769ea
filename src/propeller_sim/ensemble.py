"""Thermal sampling and the Monte Carlo double-pulse protocol engine.

Sampling follows the transformation method throughout: uniform deviates are
mapped through inverse CDFs (isotropic orientations via
theta = 2 arcsin sqrt(w), Rayleigh via sqrt(2) sigma sqrt(ln 1/(1-w)), normals
via the inverse normal CDF, Wichura's AS241).  Each molecule consumes a
fixed number of uniforms, drawn as one row of a (n_traj, k) matrix from a
counter-based (Philox) generator keyed by the run seed.  Row i therefore
depends only on (seed, i): results are bit-stable when n_traj is extended
and independent of how work is chunked across threads.  delay_scan keeps
its last sample, read-only, so a sweep of scans over the kick strength
shares one draw.

The pulse protocol is one for the classical and quantum engines:
check_pulses holds the pulse-list rules, apply_pulses fires the pulses on
any state with advance, kick, record and cos2theta (this swarm, or
quantum_linear's wave packets), and record_protocol records each segment
between kicks that the output grid reads.  An "auto" second pulse fires at
the first alignment extremum after the first, scanned through cos2theta
alone on a T_rev/2000 grid with parabolic refinement up to t_max.

Every ensemble is carried as axes r and angular momenta L; a linear
molecule is the case L . r = 0, and its sampler maps the thermal velocity v
to L = r x v.  Kicks are classical_symtop.kick_momentum.  Between kicks each
molecule flies on a fixed circle r = a + w (b cos omega t + c sin omega t)
(classical_symtop.SymTopEnsemble, whose L . r = 0 cone is the linear
rotor's great circle), built once per segment.

A swarm records each segment's run of the output grid as a
classical_symtop.UniformGrid (first time t0, step h, n times) and builds no
positions.  Its GridPhases gives cos/sin of an anchor every ANCHOR_STEP grid
indices and a (ANCHOR_STEP x chunk) table; each anchor is folded into two
per-molecule coefficient vectors of the circle, so a grid value is the
centre plus two table products per component and depends only on the
molecule and its grid index.  Blocks of output times are evaluated as (time
x molecule) arrays of about BLOCK elements and reduced along the contiguous
molecule axis, so every row is summed by the same pairwise summation as a
1-D array of those molecules; a molecule at a pole leaves its cos2phi row by
compression, not by adding a zero.  Block boundaries therefore do not change
any value.  The sums run over fixed-size molecule chunks (CHUNK) combined in
index order (_chunk_totals), so values are also invariant under the thread
count used to evaluate the chunks.  The alignment scan sums z^2 alone on
its windows of the T_rev/2000 grid through the same blocks, bit for bit;
only advance, which carries the axes to a pulse time, builds positions
(SymTopEnsemble.positions).

delay_scan evaluates no positions after the first kick.  On its circle,
each molecule's z^2, L_y and |L|^2 right after the second kick are
trigonometric polynomials of degree 2, 2 and 4 in omega tau, whose
coefficients follow from the circle's geometry.  The delays, evenly spaced,
form a UniformGrid, and GridPhases' anchor and table factors turn each
harmonic's sum over a chunk of SCAN_CHUNK molecules into one matrix product;
the chunks, too, are summed in index order.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from . import classical_symtop as csym
from .core import (MoleculeParams, ParameterError, ProtocolError, PulseSpec,
                   TWO_PI, sigma_th)

SCAN_STEP = TWO_PI / 2000.0     # extremum-scan resolution: T_rev/2000
CHUNK = 16384                   # fixed accumulation chunk (thread-count invariant)
BLOCK = 2 ** 14                 # molecule-times evaluated per free-flight block
_TINY = 2.0 ** -54              # guards inverse-CDF transforms at w = 0
SCAN_CHUNK = BLOCK // csym.ANCHOR_STEP   # molecules per delay-scan chunk (thread-count invariant)
SCAN_DEGREE = 4                 # delay_scan's harmonics: |L|^2 after a kick, in omega tau
POLE_SIN2 = 1e-12               # sin^2(theta) below which the azimuth is undefined

# fixed per-molecule uniform draw layouts (columns of the sample matrix)
_LINEAR_DRAWS = 4    # w_theta, w_phi, w_vtheta, w_vphi
_SYMTOP_DRAWS = 5    # w_Lpar, w_L3, w_thetaL, w_phiL, w_cone


# Wichura's AS241 (PPND16) rational approximations, highest power first:
# (numerator, denominator) for |p - 1/2| <= 0.425, and for the tails in
# r = sqrt(-log(min(p, 1 - p))) - 1.6 (r <= 5) and r - 5 (r > 5)
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632045060e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0))
_AS241_TAIL = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0))


def _horner(coeffs, r):
    return functools.reduce(lambda acc, c: acc * r + c, coeffs[1:], coeffs[0])


def ndtri(p) -> np.ndarray:
    """Inverse standard normal CDF for p in (0, 1), by Wichura's AS241.

    Wichura, Appl. Statist. 37, 477 (1988); relative error ~1e-16.  The
    branches and the order of operations are those of the standard
    library's NormalDist.inv_cdf, applied elementwise.
    """
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    central = np.abs(q) <= 0.425
    out = np.empty_like(p)
    qc = q[central]
    r = 0.180625 - qc * qc
    num, den = _AS241_CENTRAL
    out[central] = _horner(num, r) * qc / _horner(den, r)
    qt = q[~central]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, p[~central], 1.0 - p[~central])))
    near = r <= 5.0
    r = np.where(near, r - 1.6, r - 5.0)
    num = np.where(near, _horner(_AS241_NEAR[0], r), _horner(_AS241_TAIL[0], r))
    den = np.where(near, _horner(_AS241_NEAR[1], r), _horner(_AS241_TAIL[1], r))
    out[~central] = np.where(qt < 0.0, -1.0, 1.0) * (num / den)
    return out


def uniform_matrix(seed: int, n: int, k: int) -> np.ndarray:
    """(n, k) uniforms where row i is the (seed, i)-derived molecule substream."""
    gen = Generator(Philox(seed))
    return gen.random((n, k))


def orientation_from_uniforms(w_theta, w_phi):
    """Isotropic sphere point: theta = 2 arcsin sqrt(w), phi = 2 pi w."""
    return 2.0 * np.arcsin(np.sqrt(w_theta)), TWO_PI * np.asarray(w_phi)


def unit_vectors(theta, phi) -> np.ndarray:
    th, ph = np.asarray(theta), np.asarray(phi)
    st = np.sin(th)
    return np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=-1)


def tangent_frame(theta, phi):
    """Spherical unit vectors (e_theta, e_phi) at the given angles."""
    th, ph = np.asarray(theta), np.asarray(phi)
    ct, st, cp, sp = np.cos(th), np.sin(th), np.cos(ph), np.sin(ph)
    e_th = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_ph = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return e_th, e_ph


def linear_ensemble_from_uniforms(u: np.ndarray, sigma: float):
    """Initial (r, L) arrays from a (n, 4) uniform matrix.

    The tangential velocity v has i.i.d. N(0, sigma) components along
    e_theta and e_phi; the rotor is carried as L = r x v.
    """
    theta, phi = orientation_from_uniforms(u[:, 0], u[:, 1])
    r = unit_vectors(theta, phi)
    e_th, e_ph = tangent_frame(theta, phi)
    vt = sigma * ndtri(np.maximum(u[:, 2], _TINY))
    vp = sigma * ndtri(np.maximum(u[:, 3], _TINY))
    return r, np.cross(r, vt[:, None] * e_th + vp[:, None] * e_ph)


def symtop_ensemble_from_uniforms(u: np.ndarray, sigma1: float, sigma3: float):
    """Initial (r, L) arrays from a (n, 5) uniform matrix.

    L_par is Rayleigh(sigma1), L_3 normal(sigma3); the direction of L is
    isotropic and the molecular axis sits on the precession cone at a uniform
    phase.  Degenerate |L| ~ 0 draws are kept frozen (no resampling).
    """
    n = u.shape[0]
    Lpar = math.sqrt(2.0) * sigma1 * np.sqrt(np.log(1.0 / (1.0 - u[:, 0])))
    L3 = sigma3 * ndtri(np.maximum(u[:, 1], _TINY))
    Lmag = np.hypot(Lpar, L3)
    cos_pr = np.where(Lmag > 0, L3 / np.maximum(Lmag, 1e-300), 1.0)
    sin_pr = np.sqrt(np.clip(1.0 - cos_pr**2, 0.0, 1.0))

    theta_L, phi_L = orientation_from_uniforms(u[:, 2], u[:, 3])
    e_L = unit_vectors(theta_L, phi_L)
    # rotate the L-frame axis position into the lab: columns of Rz(phi_L) Ry(theta_L)
    e_x, e_y = tangent_frame(theta_L, phi_L)
    cone_phi = TWO_PI * u[:, 4]
    r = (sin_pr * np.cos(cone_phi))[:, None] * e_x \
        + (sin_pr * np.sin(cone_phi))[:, None] * e_y \
        + cos_pr[:, None] * e_L
    r /= np.linalg.norm(r, axis=-1, keepdims=True)
    L = Lmag[:, None] * e_L
    if n and np.any(Lmag <= csym.REST_MOMENTUM):
        L[Lmag <= csym.REST_MOMENTUM] = 0.0
    return r, L


@dataclass(frozen=True)
class EnsembleConfig:
    """Monte Carlo run configuration (times in T_rev units)."""

    mol: MoleculeParams
    T_K: float
    n_traj: int
    seed: int
    pulses: tuple[PulseSpec, ...]
    t_max: float = 5.0
    dt_out: float = 0.005

    def __post_init__(self):
        if self.n_traj < 1:
            raise ParameterError("n_traj must be >= 1")
        sigma_th(self.mol, self.T_K)        # the temperature rule
        _check_grid(self.t_max, self.dt_out)
        object.__setattr__(self, "pulses", check_pulses(self.pulses))


def _check_grid(t_max: float, dt_out: float):
    """The output-grid rules: finite values, t_max >= 0 and dt_out > 0."""
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ParameterError(f"t_max must be finite and >= 0, got {t_max}")
    if not (math.isfinite(dt_out) and dt_out > 0):
        raise ParameterError(f"dt_out must be finite and positive, got {dt_out}")


def output_grid(t_max: float, dt_out: float) -> np.ndarray:
    """The output times 0, dt_out, 2 dt_out, ... up to t_max (T_rev units)."""
    _check_grid(t_max, dt_out)
    return np.arange(0.0, t_max + 0.5 * dt_out, dt_out)


def check_pulses(pulses) -> tuple[PulseSpec, ...]:
    """The pulse list as a tuple, if it has at least one pulse, "auto" at
    most on the second and its fixed times in order."""
    pulses = tuple(pulses)
    if not pulses:
        raise ParameterError("need at least one pulse")
    if any(p.t_apply == "auto" for i, p in enumerate(pulses) if i != 1):
        raise ParameterError("auto delay is only supported for the second pulse")
    fixed = [p.t_apply for p in pulses if p.t_apply != "auto"]
    if any(b < a for a, b in zip(fixed, fixed[1:])):
        raise ParameterError("pulses must be sorted by application time")
    return pulses


@dataclass
class TimeSeries:
    """Observable-vs-time record: grid in T_rev units plus named channels."""

    grid: np.ndarray
    channels: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.grid)
        for name, arr in self.channels.items():
            if len(arr) != n:
                raise ParameterError(f"channel {name!r} length mismatch with grid")


def resolve_threads(n: int, size: int) -> int:
    """Threads for n molecules in chunks of size: PROPELLER_THREADS (default
    1), at most one per chunk."""
    env = os.environ.get("PROPELLER_THREADS", "")
    try:
        value = int(env) if env else 1
    except ValueError:
        value = 0
    if value < 1:
        raise ParameterError(f"PROPELLER_THREADS must be a positive integer, got {env!r}")
    return min(value, -(-n // size))


@dataclass(frozen=True)
class _Swarm:
    """Ensemble state between kicks: axes r and angular momenta L.

    The free-flight kernel of the segment that starts from this state is
    built on first use and then shared by every time evaluated in the segment.
    """

    r: np.ndarray
    L: np.ndarray

    @functools.cached_property
    def flight(self) -> csym.SymTopEnsemble:
        return csym.SymTopEnsemble(self.r, self.L)

    def advance(self, dt: float) -> "_Swarm":
        if dt == 0.0:
            return self     # no flight: r stays as sampled or kicked
        return _Swarm(self.flight.positions(dt), self.L)

    def kick(self, pulse: PulseSpec) -> "_Swarm":
        return _Swarm(self.r, csym.kick_momentum(self.r, self.L, pulse.P, pulse.p_vec))

    def cos2theta(self, times: np.ndarray, h: float) -> np.ndarray:
        """<cos^2 theta> alone at the free-flight times t0 + i h, as record has it."""
        grid = csym.UniformGrid(times[0], h, len(times))
        z2 = _chunk_totals(functools.partial(_z2_sums, self.flight, grid), len(self.r), CHUNK)
        return z2[0] / len(self.r)

    def record(self, times: np.ndarray, h: float) -> dict:
        """Ensemble means at the free-flight times t0 + i h of this segment:
        cos2theta, cos2phi (pole-excluded), Lx, Ly, Lz and L2."""
        n, grid = len(self.r), csym.UniformGrid(times[0], h, len(times))
        z2, c2p, n_az, Lsum, L2 = _chunk_totals(
            functools.partial(_chunk_sums, self.flight, self.L, grid), n, CHUNK)
        return {"cos2theta": z2 / n,
                "cos2phi": np.divide(c2p, n_az, out=np.full(len(times), np.nan),
                                     where=n_az > 0),
                **dict(zip(("Lx", "Ly", "Lz"), Lsum / n)), "L2": L2 / n}


def _thermal_sample(mol: MoleculeParams, T_K: float, n_traj: int, seed: int) -> tuple:
    """The seeded initial (r, L) arrays."""
    if mol.kind == "linear":
        u = uniform_matrix(seed, n_traj, _LINEAR_DRAWS)
        return linear_ensemble_from_uniforms(u, sigma_th(mol, T_K))
    u = uniform_matrix(seed, n_traj, _SYMTOP_DRAWS)
    return symtop_ensemble_from_uniforms(u, *sigma_th(mol, T_K))


@functools.lru_cache(maxsize=1)
def _scan_sample(mol: MoleculeParams, T_K: float, n_traj: int, seed: int) -> tuple:
    """delay_scan's sample, read-only and kept for the next identical request:
    a preset sweeps its scans over the kick strength on one draw.  A time
    series draws its one sample uncached, so that it does not outlive the run."""
    r, L = _thermal_sample(mol, T_K, n_traj, seed)
    r.flags.writeable = L.flags.writeable = False
    return r, L


def _initial_swarm(cfg: EnsembleConfig) -> _Swarm:
    return _Swarm(*_thermal_sample(cfg.mol, cfg.T_K, cfg.n_traj, cfg.seed))


def _chunk_totals(sums, n: int, size: int) -> list:
    """Totals of each result of sums((a, b)) over the chunks of n molecules,
    added in index order to zeros (a zero total is +0), whatever the threads."""
    workers = resolve_threads(n, size)
    chunks = [(i, min(i + size, n)) for i in range(0, n, size)]
    totals = None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for part in (pool.map if workers > 1 else map)(sums, chunks):
            if totals is None:
                totals = [np.zeros_like(x) for x in part]
            for total, x in zip(totals, part):
                total += x
    return totals


def _block_times(n_molecules: int) -> int:
    """Times per block when each time spans n_molecules molecules."""
    return max(1, BLOCK // n_molecules)


def _flight_diagnostics(n: int, workers: int, block_shape, segments) -> dict:
    return {"n_traj": n, "chunks": -(-n // block_shape[1]), "threads": workers,
            "block_shape": block_shape,
            "segments": [{"t_start_trev": t0 / TWO_PI, "n_times": int(n_t),
                          "n_frozen": int(np.count_nonzero(~sw.flight.live))}
                         for t0, n_t, sw in segments]}


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float array whose data starts on a 64-byte boundary."""
    n = math.prod(shape)
    raw = np.empty(n + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + n].reshape(shape)


def _circle_blocks(flight: csym.SymTopEnsemble, grid: csym.UniformGrid,
                   rows: tuple[int, int], axes: slice):
    """(i, stop, pos) per block: pos[k] is component axes[k] (of x, y, z) of
    molecules rows = (a, b) at grid indices i .. stop - 1, in a reused array.

    At index i = m K + j (K = ANCHOR_STEP) each molecule sits at
    a + P_m cos T_j + Q_m sin T_j, where P_m = w (b cos A_m + c sin A_m) and
    Q_m = w (c cos A_m - b sin A_m) fold the anchor A_m into its circle.
    r is not normalised: |r|^2 is 1 to rounding.
    """
    a, b = rows
    chunk = slice(a, b)
    phases = csym.GridPhases(grid, flight.omega[chunk])
    tab_cos, tab_sin = phases.table
    centre = flight.a[axes, chunk]
    wb, wc = flight.w[chunk] * flight.b[axes, chunk], flight.w[chunk] * flight.c[axes, chunk]
    step = _block_times(b - a)
    pos = _aligned_empty((len(centre), min(step, grid.n), b - a))
    tmp = _aligned_empty(pos.shape[1:])
    for i in range(0, grid.n, step):
        stop = min(i + step, grid.n)
        lo = i
        while lo < stop:                # one anchor group at a time
            m, j = divmod(lo, csym.ANCHOR_STEP)
            hi = min(stop, (m + 1) * csym.ANCHOR_STEP)
            if j == 0:                  # blocks run in order, so i = 0 comes first
                cos_a, sin_a = phases.anchors(m)
                P, Q = wb * cos_a + wc * sin_a, wc * cos_a - wb * sin_a
            tc, ts, t = tab_cos[j:j + hi - lo], tab_sin[j:j + hi - lo], tmp[:hi - lo]
            for k in range(len(pos)):
                out = pos[k, lo - i:hi - i]
                np.multiply(tc, P[k], out=out)
                out += np.multiply(ts, Q[k], out=t)
                out += centre[k]
            lo = hi
        yield i, stop, pos[:, :stop - i]


def _z2_rows(z: np.ndarray) -> np.ndarray:
    """Per-time sums of z^2 over a (times, molecules) block, squared in place."""
    return np.sum(np.multiply(z, z, out=z), axis=-1)


def _z2_sums(flight: csym.SymTopEnsemble, grid: csym.UniformGrid, rows: tuple[int, int]):
    """Per-time sums of z^2 alone over molecules rows = (a, b)."""
    return [np.concatenate([_z2_rows(z) for _, _, (z,) in
                            _circle_blocks(flight, grid, rows, slice(2, 3))])]


def _chunk_sums(flight: csym.SymTopEnsemble, L: np.ndarray, grid: csym.UniformGrid,
                rows: tuple[int, int]):
    """Per-time sums of z^2, of x^2/(x^2+y^2) off the poles and of the
    off-pole count over molecules rows = (a, b) at the grid's times, plus
    the chunk's L sums.  The ratio does not depend on |r|."""
    a, b = rows
    z2, c2p = np.empty(grid.n), np.empty(grid.n)
    n_az = np.full(grid.n, b - a, dtype=np.int64)
    for i, stop, (x, y, z) in _circle_blocks(flight, grid, rows, slice(0, 3)):
        z2[i:stop] = _z2_rows(z)
        np.multiply(x, x, out=x)
        s2 = np.multiply(y, y, out=y)
        s2 += x
        if s2.min() >= POLE_SIN2:       # no pole in the block
            c2p[i:stop] = np.sum(np.divide(x, s2, out=x), axis=-1)
            continue
        # a pole molecule must leave the sum, not add a zero to it, so that
        # the pairwise summation order matches the 1-D sum of the kept terms
        for at, (x2, row) in enumerate(zip(x, s2), start=i):
            ok = row >= POLE_SIN2
            n_az[at] = np.count_nonzero(ok)
            c2p[at] = np.sum(x2[ok] / row[ok])
    Lc = L[a:b]
    return z2, c2p, n_az, Lc.sum(axis=0), float(np.sum(Lc * Lc))


def mean_cos2theta(state, times: np.ndarray) -> np.ndarray:
    """<cos^2 theta> of a protocol state after free flight by each of the
    times (steps of SCAN_STEP): the extremum scan's entry point."""
    return state.cos2theta(times, SCAN_STEP)


def ly_norm(Ly: np.ndarray, L2: np.ndarray) -> np.ndarray:
    """The normalized orientation Ly / sqrt(L2), and 0 where L2 <= 0."""
    out = np.zeros(len(Ly))
    live = L2 > 0
    out[live] = Ly[live] / np.sqrt(L2[live])
    return out


def parabolic_vertex(x, y) -> float:
    """Vertex abscissa of the parabola through three uniformly spaced points."""
    d = y[0] - 2.0 * y[1] + y[2]
    if d == 0.0:
        return float(x[1])
    return float(x[1] + 0.5 * (y[0] - y[2]) / d * (x[1] - x[0]))


def first_local_extremum(values, kind: str) -> int | None:
    """Index of the first strict interior local max/min of a sampled curve."""
    sign = 1.0 if kind == "max" else -1.0
    v = sign * np.asarray(values)
    hits = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))
    return int(hits[0]) + 1 if len(hits) else None


def find_alignment_extremum(state, kind: str, t_limit: float) -> float:
    """Time of the first strict local extremum of <cos^2 theta>(t) after a kick.

    Scans on a T_rev/2000 grid, one block of 256 steps at a time, and
    refines through the three bracketing points; raises ProtocolError if no
    extremum occurs before t_limit.
    """
    n_limit = int(math.floor(t_limit / SCAN_STEP))
    window = 256
    values = np.empty(0)
    for stop in range(window + 1, n_limit + window + 1, window):
        times = np.arange(len(values), min(stop, n_limit + 1)) * SCAN_STEP
        values = np.concatenate([values, mean_cos2theta(state, times)])
        k = first_local_extremum(values, kind)
        if k is not None:
            ts = np.array([k - 1, k, k + 1]) * SCAN_STEP
            return parabolic_vertex(ts, values[k - 1:k + 2])
    raise ProtocolError(
        f"no alignment {kind} of <cos^2 theta> found in scan window "
        f"[0, {t_limit / TWO_PI:.4g}] T_rev (step T_rev/2000)")


def apply_pulses(pulses, t_max: float, state):
    """Fire the pulses in order on a state with advance, kick and record.

    Returns ([(t, state after the kick)], meta) with meta["pulse_times_trev"],
    and meta["auto_delay_trev"] for an "auto" pulse: the first alignment
    extremum after the previous pulse (maximum for P1 >= 0, minimum for
    P1 < 0) before t_max in T_rev units.  Times t are dimensionless.
    """
    meta = {}
    events = []
    t_now = 0.0
    for pulse in pulses:
        if pulse.t_apply == "auto":
            kind = "max" if pulses[0].P >= 0 else "min"
            delay = find_alignment_extremum(state, kind, t_max * TWO_PI - t_now)
            t_pulse = t_now + delay
            meta["auto_delay_trev"] = delay / TWO_PI
        else:
            t_pulse = float(pulse.t_apply) * TWO_PI
            if t_pulse < t_now - 1e-12:
                raise ParameterError("pulse times must be non-decreasing")
        state = state.advance(t_pulse - t_now).kick(pulse)
        t_now = t_pulse
        events.append((t_pulse, state))
    meta["pulse_times_trev"] = [t / TWO_PI for t, _ in events]
    return events, meta


def final_states(cfg: EnsembleConfig):
    """States right after the last kick: dict with r, L and meta."""
    events, meta = apply_pulses(cfg.pulses, cfg.t_max, _initial_swarm(cfg))
    return {"r": events[-1][1].r, "L": events[-1][1].L, "meta": meta}


def segment_of(event_times, t) -> np.ndarray:
    """Pulse segment of each time t: 0 before the first pulse, s from pulse
    s on.  A time joins the last pulse it does not precede (by more than
    1e-12), so a time tied with a pulse sees that pulse's kick."""
    return np.searchsorted(np.asarray(event_times) - 1e-12, t, side="right")


def record_protocol(pulses, t_max: float, dt_out: float, initial):
    """Fire the pulses on the initial state and record the output grid.

    Segment s, the flight after pulse s (0: from the initial state), is
    recorded once if grid times read it: state.record(times, h) gets those
    times since its kick, t0 + i h, and the grid step h.  Returns the
    TimeSeries (Ly_norm added when Ly and L2 are channels, meta from
    apply_pulses), the recorded (t0, n_times, state) and the last state."""
    grid = output_grid(t_max, dt_out)
    events, meta = apply_pulses(pulses, t_max, initial)
    t, h = grid * TWO_PI, dt_out * TWO_PI
    seg_of = segment_of([t0 for t0, _ in events], t)
    channels, recorded = {}, []
    for s, (t0, state) in enumerate([(0.0, initial)] + events):
        sel = np.flatnonzero(seg_of == s)
        if not len(sel):
            continue
        recorded.append((t0, len(sel), state))
        for name, values in state.record(t[sel] - t0, h).items():
            channels.setdefault(name, np.empty(len(grid)))[sel] = values
    if "Ly" in channels and "L2" in channels:
        channels["Ly_norm"] = ly_norm(channels["Ly"], channels["L2"])
    return TimeSeries(grid=grid, channels=channels, meta=meta), recorded, events[-1][1]


def run_protocol(cfg: EnsembleConfig) -> TimeSeries:
    """Execute the pulse sequence and record ensemble averages on the grid.

    Channels: cos2theta, cos2phi (pole-excluded mean), Lx, Ly, Lz, L2 and the
    normalized orientation Ly_norm = <L_y>/sqrt(<L^2>).  The resolved auto
    delay (T_rev units) is stored in meta["auto_delay_trev"] and the
    free-flight layout (chunks, threads, block shape, segments with their
    frozen-molecule counts) in meta["free_flight"].
    """
    n = cfg.n_traj
    workers = resolve_threads(n, CHUNK)     # a bad PROPELLER_THREADS fails before sampling
    ts, recorded, _ = record_protocol(cfg.pulses, cfg.t_max, cfg.dt_out, _initial_swarm(cfg))
    chunk = min(CHUNK, n)
    ts.meta = {"config": describe_config(cfg), "seed": cfg.seed, **ts.meta,
               "free_flight": _flight_diagnostics(n, workers, [_block_times(chunk), chunk],
                                                  recorded)}
    return ts


# 2 SCAN_DEGREE + 1 equispaced phases: (1, cos, sin) at each, and the DFT
# that takes a trigonometric polynomial's values there to its c_k, k >= 0
_SAMPLE_THETA = TWO_PI * np.arange(2 * SCAN_DEGREE + 1) / (2 * SCAN_DEGREE + 1)
_SAMPLE_BASIS = np.stack([np.ones_like(_SAMPLE_THETA), np.cos(_SAMPLE_THETA),
                          np.sin(_SAMPLE_THETA)], axis=1)
_DFT = np.exp(-1j * np.outer(np.arange(SCAN_DEGREE + 1), _SAMPLE_THETA)) / len(_SAMPLE_THETA)


def _scan_coefficients(flight: csym.SymTopEnsemble, L: np.ndarray, rows: slice,
                       P: float, forms: np.ndarray) -> np.ndarray:
    """Fourier coefficients c_k, k = 0 .. SCAN_DEGREE, of z^2 and of the
    changes of L_y and |L|^2 by a kick of strength P, in theta = omega tau on
    each molecule's circle: a (3, SCAN_DEGREE + 1, rows) complex array.

    forms holds the rows e_z, p and e_c x p (c = x, y, z), so forms . r is
    z, p . r and p x r.  The kick adds dL = -2 P (p . r)(p x r), and
    |p x r|^2 = |p|^2 - (p . r)^2, so the channels are polynomials of degree
    2, 2 and 4 in linear forms u . r(theta) = u . a + u . w b cos theta +
    u . w c sin theta; their values at 2 SCAN_DEGREE + 1 equispaced theta fix
    them exactly.
    """
    w = flight.w[rows]
    circle = np.stack([flight.a[:, rows], w * flight.b[:, rows], w * flight.c[:, rows]])
    values = _SAMPLE_BASIS @ (forms @ circle).reshape(3, -1)
    z, s, *pxr = values.reshape(len(_SAMPLE_BASIS), len(forms), -1).transpose(1, 0, 2)
    Lc = L[rows].T
    g = pxr[0] * Lc[0] + pxr[1] * Lc[1] + pxr[2] * Lc[2]      # L . (p x r)
    ss = s * s
    samples = np.stack([z * z, (-2.0 * P) * (s * pxr[1]),
                        (-4.0 * P) * (s * g) + (4.0 * P * P) * ss * (forms[1] @ forms[1] - ss)])
    return _DFT @ samples


def _scan_sums(flight: csym.SymTopEnsemble, L: np.ndarray, P: float, forms: np.ndarray,
               grid: csym.UniformGrid, rows: tuple[int, int]):
    """Sums over molecules rows = (a, b) of z^2, L_y and |L|^2 after a kick
    at each time of the grid, split into the time-independent (3,) part and
    the (grid.n, 3) rest, and the sum of L_y before the kick.

    A channel is c_0 + 2 Re sum_k c_k e^{ik omega t}.  At time i = m K + j
    (K = ANCHOR_STEP) the phase is the anchor factor e^{ik omega (t0 + m K h)}
    times the table factor e^{ik omega j h}.  The anchors are folded into the
    coefficients, and the table factors of the harmonics stand side by side,
    so one product (K x d rows) @ (d rows x M) per channel sums harmonics
    1 .. d over the molecules; z^2 and L_y (d = 2) share theirs.  It runs in
    real arithmetic: Re(T x) is [Re T, -Im T] . [Re x, Im x].
    """
    a, b = rows
    chunk = slice(a, b)
    coef = _scan_coefficients(flight, L, chunk, P, forms)
    phases = csym.GridPhases(grid, flight.omega[chunk])
    n_anchors = -(-grid.n // csym.ANCHOR_STEP)
    anchor = np.empty((n_anchors, SCAN_DEGREE, b - a), dtype=complex)
    table = np.empty((csym.ANCHOR_STEP, SCAN_DEGREE, b - a), dtype=complex)
    anchor[:, 0].real, anchor[:, 0].imag = phases.anchors(np.arange(n_anchors)[:, None])
    cos, sin = phases.table
    table[:, 0].real, table[:, 0].imag = cos, -sin      # conjugated
    for k in range(1, SCAN_DEGREE):             # e^{i(k+1)x} = e^{ikx} e^{ix}
        np.multiply(anchor[:, k - 1], anchor[:, 0], out=anchor[:, k])
        np.multiply(table[:, k - 1], table[:, 0], out=table[:, k])
    osc = []
    for channels, degree in ((slice(0, 2), 2), (slice(2, 3), SCAN_DEGREE)):
        # x[c, m, k, i]: c_{k+1} of channel c and molecule i times its anchor m
        x = coef[channels, None, 1:degree + 1] * anchor[:, :degree]
        terms = table[:, :degree].reshape(csym.ANCHOR_STEP, -1).view(float)
        osc.append(terms @ x.reshape(-1, degree * (b - a)).view(float).T)
    osc = np.concatenate(osc, axis=1).reshape(csym.ANCHOR_STEP, -1, n_anchors)
    osc = 2.0 * osc.transpose(2, 0, 1).reshape(-1, 3)[:grid.n]
    Ly = L[a:b, 1]
    const = [np.sum(coef[0, 0].real), np.sum(Ly + coef[1, 0].real),
             np.sum(np.sum(L[a:b] * L[a:b], axis=1) + coef[2, 0].real)]
    return np.array(const), osc, float(np.sum(Ly))


def _kicked_means(swarm: _Swarm, pulse: PulseSpec, grid: csym.UniformGrid):
    """<z^2>, <L_y> and <|L|^2> right after the pulse hits the swarm at each
    time of its free flight on the grid, as a (3, grid.n) array, and <L_y>
    before the pulse, summed over chunks of SCAN_CHUNK molecules."""
    n = len(swarm.r)
    p = pulse.p_vec
    forms = np.concatenate([[(0.0, 0.0, 1.0), p], np.cross(np.eye(3), p)])
    sums = functools.partial(_scan_sums, swarm.flight, swarm.L, pulse.P, forms, grid)
    const, osc, ly_pre = _chunk_totals(sums, n, SCAN_CHUNK)
    # with P = 0 every oscillating L_y term is zero, and the constant one is
    # the sum that gives <L_y> before the pulse, so the two agree exactly
    return ((const + osc) / n).T, ly_pre / n


def _delay_grid(delays: np.ndarray) -> csym.UniformGrid:
    """Evenly spaced delays (T_rev units) as the UniformGrid of their
    free-flight times; anything else raises ParameterError."""
    n = len(delays)
    if not n:
        raise ParameterError("delay_scan needs at least one delay")
    h = (delays[-1] - delays[0]) / max(n - 1, 1)
    off = np.max(np.abs(delays - (delays[0] + np.arange(n) * h)))
    if not off <= 64.0 * np.spacing(np.max(np.abs(delays))):
        raise ParameterError("delay_scan needs evenly spaced delays")
    return csym.UniformGrid(delays[0] * TWO_PI, h * TWO_PI, n)


def delay_scan(cfg: EnsembleConfig, delays) -> TimeSeries:
    """Post-pulse-2 stationary orientation versus pulse delay.

    Uses common random numbers: one sampled ensemble and one first kick are
    shared by all delays, and the sample by the next scan of the same
    molecule, temperature, size and seed (_scan_sample).  After the first
    kick each molecule flies on a fixed circle, so each channel is, per
    molecule, a trigonometric polynomial of degree <= SCAN_DEGREE in
    omega tau; its coefficients are built once and evaluated on the delays,
    which must be evenly spaced (ParameterError otherwise; one delay is a
    one-point grid), over fixed-size molecule chunks summed in index order,
    so values do not depend on the thread count.  Channels: Ly, L2, Ly_norm
    (all stationary after the last kick), the transferred dLy =
    <L_y(after)> - <L_y(before)>, and the alignment factor cos2theta at the
    kick instant.  meta["Ly_pre"] holds the pre-pulse-2 value and
    meta["free_flight"] the chunks, threads, block shape and harmonic degree
    that ran.
    """
    if len(cfg.pulses) != 2:
        raise ParameterError("delay_scan needs exactly two pulses")
    delays = np.asarray(list(delays), dtype=float)
    grid = _delay_grid(delays)
    p1, p2 = cfg.pulses
    n = cfg.n_traj
    workers = resolve_threads(n, SCAN_CHUNK)
    t1 = float(p1.t_apply) * TWO_PI
    sample = _scan_sample(cfg.mol, cfg.T_K, cfg.n_traj, cfg.seed)
    swarm1 = _Swarm(*sample).advance(t1).kick(p1)
    (cos2, Ly, L2), Ly_pre = _kicked_means(swarm1, p2, grid)
    channels = {"Ly": Ly, "L2": L2,
                "Ly_norm": ly_norm(Ly, L2),
                "dLy": Ly - Ly_pre, "cos2theta": cos2}
    flight = _flight_diagnostics(n, workers, [csym.ANCHOR_STEP, min(SCAN_CHUNK, n)],
                                 [(t1, len(delays), swarm1)])
    flight["harmonic_degree"] = SCAN_DEGREE
    meta = {"config": describe_config(cfg), "seed": cfg.seed, "Ly_pre": Ly_pre,
            "common_random_numbers": True, "free_flight": flight}
    return TimeSeries(grid=delays, channels=channels, meta=meta)


def describe_config(cfg: EnsembleConfig) -> dict:
    """JSON-serializable echo of a run configuration: its fields, mol as "molecule"."""
    return {"molecule" if k == "mol" else k: v for k, v in asdict(cfg).items()}
