"""Thermal sampling and the Monte Carlo double-pulse protocol engine.

Sampling follows the transformation method throughout: uniform deviates are
mapped through inverse CDFs (isotropic orientations via
theta = 2 arcsin sqrt(w), Rayleigh via sqrt(2) sigma sqrt(ln 1/(1-w)), normals
via the inverse normal CDF).  Each molecule consumes a fixed number of
uniforms, drawn as one row of a (n_traj, k) matrix from a counter-based
(Philox) generator keyed by the run seed.  Row i therefore depends only on
(seed, i): results are bit-stable when n_traj is extended and independent of
how work is chunked across threads.

The protocol engine applies the configured pulses in order (an "auto" second
pulse fires at the first alignment extremum after the first pulse, located on
a T_rev/2000 grid with parabolic refinement), and records ensemble-averaged
observables on the output grid.  Ensemble means are accumulated over
fixed-size molecule chunks combined in index order, so values are invariant
under the thread count used to evaluate the chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import classical_linear as clin
from . import classical_symtop as csym
from .core import (MoleculeParams, ParameterError, ProtocolError, PulseSpec,
                   TWO_PI, sigma_th)

SCAN_STEP = TWO_PI / 2000.0     # extremum-scan resolution: T_rev/2000
CHUNK = 16384                   # fixed accumulation chunk (thread-count invariant)
_TINY = 2.0 ** -54              # guards inverse-CDF transforms at w = 0

# fixed per-molecule uniform draw layouts (columns of the sample matrix)
_LINEAR_DRAWS = 4    # w_theta, w_phi, w_vtheta, w_vphi
_SYMTOP_DRAWS = 5    # w_Lpar, w_L3, w_thetaL, w_phiL, w_cone


def uniform_matrix(seed: int, n: int, k: int) -> np.ndarray:
    """(n, k) uniforms where row i is the (seed, i)-derived molecule substream."""
    gen = np.random.Generator(np.random.Philox(seed))
    return gen.random((n, k))


def orientation_from_uniforms(w_theta, w_phi):
    """Isotropic sphere point: theta = 2 arcsin sqrt(w), phi = 2 pi w."""
    return 2.0 * np.arcsin(np.sqrt(w_theta)), TWO_PI * np.asarray(w_phi)


def sample_orientation(rng: np.random.Generator, n: int | None = None):
    """Draw isotropic orientation angles (theta, phi) via the transformation method."""
    size = n if n is not None else 1
    th, ph = orientation_from_uniforms(rng.random(size), rng.random(size))
    return (th[0], ph[0]) if n is None else (th, ph)


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


def sample_linear_velocity(sigma: float, rng: np.random.Generator, n: int | None = None):
    """Thermal tangential velocity components (v_theta, v_phi), i.i.d. N(0, sigma)."""
    if sigma < 0:
        raise ParameterError("thermal width must be >= 0")
    size = n if n is not None else 1
    vt = sigma * ndtri(np.maximum(rng.random(size), _TINY))
    vp = sigma * ndtri(np.maximum(rng.random(size), _TINY))
    return (vt[0], vp[0]) if n is None else (vt, vp)


def linear_ensemble_from_uniforms(u: np.ndarray, sigma: float):
    """Initial (r, v) arrays from a (n, 4) uniform matrix."""
    theta, phi = orientation_from_uniforms(u[:, 0], u[:, 1])
    r = unit_vectors(theta, phi)
    e_th, e_ph = tangent_frame(theta, phi)
    vt = sigma * ndtri(np.maximum(u[:, 2], _TINY))
    vp = sigma * ndtri(np.maximum(u[:, 3], _TINY))
    return r, vt[:, None] * e_th + vp[:, None] * e_ph


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


def sample_symtop_momentum(sigma1: float, sigma3: float, rng: np.random.Generator,
                           n: int | None = None):
    """Draw initial symmetric-top states; returns (r, L) arrays."""
    if sigma1 < 0 or sigma3 < 0:
        raise ParameterError("thermal widths must be >= 0")
    size = n if n is not None else 1
    r, L = symtop_ensemble_from_uniforms(rng.random((size, _SYMTOP_DRAWS)), sigma1, sigma3)
    return (r[0], L[0]) if n is None else (r, L)


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
    n_threads: int = 0     # 0 = respect PROPELLER_THREADS, else 1

    def __post_init__(self):
        if self.n_traj < 1:
            raise ParameterError("n_traj must be >= 1")
        if self.dt_out <= 0:
            raise ParameterError("dt_out must be positive")
        if self.T_K < 0:
            raise ParameterError("temperature must be >= 0")
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if any(p.duration > 0 for p in self.pulses):
            raise ParameterError("the classical engine applies impulsive kicks only; "
                                 "finite pulse durations need a quantum engine")
        times = [p.t_apply for p in self.pulses]
        for i, t in enumerate(times):
            if t == "auto" and i == 0:
                raise ParameterError("the first pulse cannot use an auto delay")
            if isinstance(t, str) and i > 1:
                raise ParameterError("auto delay is only supported for the second pulse")
        fixed = [t for t in times if not isinstance(t, str)]
        if any(b < a for a, b in zip(fixed, fixed[1:])):
            raise ParameterError("pulses must be sorted by application time")


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


def resolve_threads(n_threads: int) -> int:
    if n_threads > 0:
        return n_threads
    env = os.environ.get("PROPELLER_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


class _Swarm:
    """Frozen-geometry view of an ensemble during one free-flight segment."""

    def positions(self, dt: float) -> np.ndarray:
        raise NotImplementedError

    def angmom(self) -> np.ndarray:
        raise NotImplementedError


class _LinearSwarm(_Swarm):
    def __init__(self, r: np.ndarray, v: np.ndarray):
        self.r, self.v = r, v
        self.speed = np.linalg.norm(v, axis=-1)
        self.moving = self.speed > clin.REST_SPEED
        self.vhat = np.where(self.moving[:, None],
                             v / np.maximum(self.speed, 1e-300)[:, None], 0.0)
        self._L = np.cross(r, v)

    def positions(self, dt: float) -> np.ndarray:
        ang = self.speed * dt
        c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
        out = np.where(self.moving[:, None], self.r * c + self.vhat * s, self.r)
        return out / np.linalg.norm(out, axis=-1, keepdims=True)

    def advance(self, dt: float) -> "_LinearSwarm":
        r, v = clin.propagate_arrays(self.r, self.v, dt)
        return _LinearSwarm(r, v)

    def kick(self, pulse: PulseSpec) -> "_LinearSwarm":
        return _LinearSwarm(self.r, clin.kick_velocity(self.r, self.v, pulse.P, pulse.p_vec))

    def angmom(self) -> np.ndarray:
        return self._L


class _SymtopSwarm(_Swarm):
    def __init__(self, r: np.ndarray, L: np.ndarray):
        self.r, self.L = r, L
        self._geom = csym.SymTopEnsemble(r, L)

    def positions(self, dt: float) -> np.ndarray:
        return self._geom.positions(dt)

    def advance(self, dt: float) -> "_SymtopSwarm":
        return _SymtopSwarm(self.positions(dt), self.L)

    def kick(self, pulse: PulseSpec) -> "_SymtopSwarm":
        r = self.r
        return _SymtopSwarm(r, csym.kick_momentum(r, self.L, pulse.P, pulse.p_vec))

    def angmom(self) -> np.ndarray:
        return self.L


def _initial_swarm(cfg: EnsembleConfig) -> _Swarm:
    if cfg.mol.kind == "linear":
        sigma = sigma_th(cfg.mol, cfg.T_K)
        u = uniform_matrix(cfg.seed, cfg.n_traj, _LINEAR_DRAWS)
        return _LinearSwarm(*linear_ensemble_from_uniforms(u, sigma))
    sig1, sig3 = sigma_th(cfg.mol, cfg.T_K)
    u = uniform_matrix(cfg.seed, cfg.n_traj, _SYMTOP_DRAWS)
    return _SymtopSwarm(*symtop_ensemble_from_uniforms(u, sig1, sig3))


def _chunk_ranges(n: int):
    return [(i, min(i + CHUNK, n)) for i in range(0, n, CHUNK)]


def _chunked_channel_sums(swarm: _Swarm, dt: float, n_threads: int):
    """Sums of per-molecule observables at one instant, chunked in fixed order."""
    n = swarm.r.shape[0]
    ranges = _chunk_ranges(n)
    L = swarm.angmom()

    def one(rng_pair):
        a, b = rng_pair
        if isinstance(swarm, _LinearSwarm):
            sub = _LinearSwarm(swarm.r[a:b], swarm.v[a:b])
        else:
            sub = _SymtopSwarm(swarm.r[a:b], swarm.L[a:b])
        pos = sub.positions(dt)
        z2 = pos[:, 2] ** 2
        s2 = pos[:, 0] ** 2 + pos[:, 1] ** 2
        az_ok = s2 >= clin.POLE_SIN2
        cos2phi_sum = float(np.sum(pos[az_ok, 0] ** 2 / s2[az_ok]))
        Lc = L[a:b]
        return (float(z2.sum()), cos2phi_sum, int(az_ok.sum()),
                Lc.sum(axis=0), float(np.sum(Lc * Lc)))

    if n_threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as ex:
            parts = list(ex.map(one, ranges))
    else:
        parts = [one(r) for r in ranges]

    z2 = sum(p[0] for p in parts)
    c2p = sum(p[1] for p in parts)
    n_az = sum(p[2] for p in parts)
    Lsum = sum((p[3] for p in parts), np.zeros(3))
    L2 = sum(p[4] for p in parts)
    return z2, c2p, n_az, Lsum, L2


def mean_cos2theta(swarm: _Swarm, dt: float) -> float:
    pos = swarm.positions(dt)
    return float(np.mean(pos[:, 2] ** 2))


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


def find_alignment_extremum(swarm: _Swarm, kind: str, t_limit: float,
                            step: float = SCAN_STEP):
    """First strict local extremum of <cos^2 theta>(t) after a kick.

    Scans on a uniform grid of the given step (default T_rev/2000 in
    dimensionless units) and refines through the three bracketing points.
    Returns (t_extremum, value); raises ProtocolError if no extremum occurs
    before t_limit.
    """
    n_limit = int(math.floor(t_limit / step))
    window = 256
    values = [mean_cos2theta(swarm, 0.0)]
    i = 1
    while i <= n_limit:
        j_end = min(i + window, n_limit + 1)
        for j in range(i, j_end):
            values.append(mean_cos2theta(swarm, j * step))
        k = first_local_extremum(values, kind)
        if k is not None:
            ts = np.array([k - 1, k, k + 1]) * step
            t_ext = parabolic_vertex(ts, np.array(values[k - 1:k + 2]))
            return t_ext, values[k]
        i = j_end
    raise ProtocolError(
        f"no alignment {kind} of <cos^2 theta> found in scan window "
        f"[0, {t_limit / TWO_PI:.4g}] T_rev (step T_rev/2000)")


def _extremum_kind(first_pulse: PulseSpec) -> str:
    return "max" if first_pulse.P >= 0 else "min"


def apply_pulses(cfg: EnsembleConfig, swarm: _Swarm):
    """Fire the configured pulses in order; returns ([(t, swarm_after)], meta).

    An "auto" pulse time resolves to the first alignment extremum after the
    previous pulse (maximum for P1 >= 0, minimum for P1 < 0), found on a
    T_rev/2000 grid with parabolic refinement; times are dimensionless.
    """
    meta = {}
    events = []
    t_now = 0.0
    for pulse in cfg.pulses:
        if pulse.t_apply == "auto":
            limit = cfg.t_max * TWO_PI - t_now
            kind = _extremum_kind(cfg.pulses[0])
            delay, _ = find_alignment_extremum(swarm, kind, limit)
            t_pulse = t_now + delay
            meta["auto_delay_trev"] = delay / TWO_PI
        else:
            t_pulse = float(pulse.t_apply) * TWO_PI
            if t_pulse < t_now - 1e-12:
                raise ParameterError("pulse times must be non-decreasing")
        swarm = swarm.advance(t_pulse - t_now).kick(pulse)
        t_now = t_pulse
        events.append((t_pulse, swarm))
    return events, meta


def final_states(cfg: EnsembleConfig):
    """States right after the last kick: dict with kind, r, v or L, and meta."""
    swarm = _initial_swarm(cfg)
    events, meta = apply_pulses(cfg, swarm)
    last = events[-1][1] if events else swarm
    out = {"kind": "linear" if cfg.mol.kind == "linear" else "symtop",
           "r": last.r, "meta": meta,
           "pulse_times_trev": [t / TWO_PI for t, _ in events]}
    if isinstance(last, _LinearSwarm):
        out["v"] = last.v
    else:
        out["L"] = last.L
    return out


def run_protocol(cfg: EnsembleConfig) -> TimeSeries:
    """Execute the pulse sequence and record ensemble averages on the grid.

    Channels: cos2theta, cos2phi (pole-excluded mean), Lx, Ly, Lz, L2 and the
    normalized orientation Ly_norm = <L_y>/sqrt(<L^2>).  The resolved auto
    delay (T_rev units) is stored in meta["auto_delay_trev"].
    """
    n_threads = resolve_threads(cfg.n_threads)
    swarm = _initial_swarm(cfg)
    meta = {"config": describe_config(cfg), "seed": cfg.seed}
    events, pulse_meta = apply_pulses(cfg, swarm)
    meta.update(pulse_meta)

    grid = np.arange(0.0, cfg.t_max + 0.5 * cfg.dt_out, cfg.dt_out)
    n_t = len(grid)
    names = ("cos2theta", "cos2phi", "Lx", "Ly", "Lz", "L2", "Ly_norm")
    out = {k: np.empty(n_t) for k in names}

    initial = _initial_swarm(cfg) if events and events[0][0] > 0 else None
    n = cfg.n_traj
    for it, t_trev in enumerate(grid):
        t = t_trev * TWO_PI
        seg_t0, seg = 0.0, initial
        for t_p, sw in events:
            if t >= t_p - 1e-12:
                seg_t0, seg = t_p, sw
        if seg is None:     # grid point before any pulse and initial not built
            seg_t0, seg = 0.0, _initial_swarm(cfg)
            initial = seg
        z2, c2p, n_az, Lsum, L2 = _chunked_channel_sums(seg, t - seg_t0, n_threads)
        out["cos2theta"][it] = z2 / n
        out["cos2phi"][it] = c2p / n_az if n_az else np.nan
        out["Lx"][it], out["Ly"][it], out["Lz"][it] = Lsum / n
        out["L2"][it] = L2 / n
        out["Ly_norm"][it] = (Lsum[1] / n) / math.sqrt(L2 / n) if L2 > 0 else 0.0

    meta["pulse_times_trev"] = [t / TWO_PI for t, _ in events]
    return TimeSeries(grid=grid, channels=out, meta=meta)


def delay_scan(cfg: EnsembleConfig, delays) -> TimeSeries:
    """Post-pulse-2 stationary orientation versus pulse delay.

    Uses common random numbers: one sampled ensemble and one first kick are
    shared by all delays.  Channels: Ly, L2, Ly_norm (all stationary after the
    last kick), the transferred dLy = <L_y(after)> - <L_y(before)>, and the
    alignment factor cos2theta at the kick instant.  meta["Ly_pre"] holds the
    pre-pulse-2 value.
    """
    if len(cfg.pulses) != 2:
        raise ParameterError("delay_scan needs exactly two pulses")
    delays = np.asarray(list(delays), dtype=float)
    p1, p2 = cfg.pulses
    t1 = 0.0 if p1.t_apply == "auto" else float(p1.t_apply) * TWO_PI
    swarm1 = _initial_swarm(cfg).advance(t1).kick(p1)
    Ly_pre = float(swarm1.angmom()[:, 1].mean())

    n = cfg.n_traj
    out = {k: np.empty(len(delays)) for k in
           ("Ly", "L2", "Ly_norm", "dLy", "cos2theta")}
    for i, d in enumerate(delays):
        pos = swarm1.positions(d * TWO_PI)
        out["cos2theta"][i] = float(np.mean(pos[:, 2] ** 2))
        if cfg.mol.kind == "linear":
            v_at = clin.propagate_arrays(swarm1.r, swarm1.v, d * TWO_PI)[1]
            kicked = _LinearSwarm(pos, clin.kick_velocity(pos, v_at, p2.P, p2.p_vec))
        else:
            kicked = _SymtopSwarm(pos, csym.kick_momentum(pos, swarm1.L, p2.P, p2.p_vec))
        L = kicked.angmom()
        Ly = float(L[:, 1].mean())
        L2 = float(np.mean(np.sum(L * L, axis=-1)))
        out["Ly"][i] = Ly
        out["L2"][i] = L2
        out["Ly_norm"][i] = Ly / math.sqrt(L2) if L2 > 0 else 0.0
        out["dLy"][i] = Ly - Ly_pre
    meta = {"config": describe_config(cfg), "seed": cfg.seed, "Ly_pre": Ly_pre,
            "common_random_numbers": True}
    return TimeSeries(grid=delays, channels=out, meta=meta)


def describe_config(cfg: EnsembleConfig) -> dict:
    """JSON-serializable echo of a run configuration."""
    return {
        "molecule": {"kind": cfg.mol.kind, "B_cm1": cfg.mol.B_cm1,
                     "C_cm1": cfg.mol.C_cm1, "delta_alpha_sign": cfg.mol.delta_alpha_sign,
                     "name": cfg.mol.name},
        "T_K": cfg.T_K,
        "n_traj": cfg.n_traj,
        "seed": cfg.seed,
        "pulses": [{"P": p.P, "p": list(p.p), "t_apply": p.t_apply,
                    "duration": p.duration} for p in cfg.pulses],
        "t_max": cfg.t_max,
        "dt_out": cfg.dt_out,
    }
