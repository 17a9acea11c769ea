"""Deterministic dynamics of a kicked linear rigid rotor on the unit sphere.

The molecule is a unit orientation vector r with a tangential dimensionless
velocity v (units hbar/I).  An impulsive pulse leaves r unchanged and adds

    dv = 2 P cos(beta0) (p - cos(beta0) r),      cos(beta0) = p . r,

which is always perpendicular to r with |dv| = |P sin(2 beta0)|.  Free motion
traces a circle on the sphere:

    r(t) = r0 cos(v0 t) + (v0_vec/v0) sin(v0 t),
    v(t) = -v0 r0 sin(v0 t) + v0_vec cos(v0 t).

All functions exist in two forms: single-state (UnitSphereState) and
vectorized over (N, 3) arrays, which the ensemble engine uses.  Cartesian
vectors are canonical; spherical components are derived on demand so the
poles carry no coordinate singularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, PulseSpec

REST_SPEED = 1e-14        # below this the molecule is treated as at rest
POLE_SIN2 = 1e-12         # sin^2(theta) below which the azimuth is undefined


@dataclass(frozen=True)
class UnitSphereState:
    """Orientation r (unit vector) and tangential velocity v of one molecule."""

    r: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if r.shape != (3,) or v.shape != (3,):
            raise ParameterError("r and v must be 3-vectors")
        if abs(np.linalg.norm(r) - 1.0) > 1e-10:
            raise ParameterError(f"|r| must be 1, got {np.linalg.norm(r)}")
        if abs(float(r @ v)) > 1e-10:
            raise ParameterError("v must be tangential (r.v = 0)")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", v)


def kick_velocity(r: np.ndarray, v: np.ndarray, P: float, p: np.ndarray) -> np.ndarray:
    """Vectorized velocity change of the impulsive kick; r unchanged.

    p . r is taken as BLAS row products of a C-ordered r, whatever the
    memory layout of r, so a block of kicks matches one (N, 3) kick bit for bit.
    """
    cb = np.ascontiguousarray(r) @ p
    return v + 2.0 * P * cb[..., None] * (p - cb[..., None] * r)


def propagate_arrays(r: np.ndarray, v: np.ndarray, dt: float):
    """Vectorized free rotation of (N, 3) ensembles by dimensionless time dt."""
    vn = np.linalg.norm(v, axis=-1)
    moving = vn > REST_SPEED
    r_out, v_out = r.copy(), v.copy()
    if np.any(moving):
        rm, vm, vnm = r[moving], v[moving], vn[moving]
        ang = vnm * dt
        c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
        vhat = vm / vnm[:, None]
        r_new = rm * c + vhat * s
        v_out[moving] = -vnm[:, None] * rm * s + vm * c
        r_out[moving] = r_new / np.linalg.norm(r_new, axis=-1, keepdims=True)
    return r_out, v_out


def kick_linear(state: UnitSphereState, pulse: PulseSpec) -> UnitSphereState:
    """Impulsive kick: instantaneous velocity jump at frozen orientation."""
    v_new = kick_velocity(state.r, state.v, pulse.P, pulse.p_vec)
    return UnitSphereState(r=state.r, v=v_new)


def propagate_linear(state: UnitSphereState, dt: float) -> UnitSphereState:
    """Free rotation for a dimensionless time dt (identity for a rotor at rest)."""
    r, v = propagate_arrays(state.r[None, :], state.v[None, :], dt)
    return UnitSphereState(r=r[0], v=v[0])


def observables_linear(state: UnitSphereState) -> dict:
    """Per-molecule observables about the classical-frame axes.

    cos2phi is x^2/(x^2+y^2) and is reported as None at the poles
    (sin^2 theta < 1e-12), where the azimuth is undefined.
    """
    x, y, z = state.r
    s2 = x * x + y * y
    L = np.cross(state.r, state.v)
    return {
        "cos2theta": z * z,
        "cos2phi": (x * x / s2) if s2 >= POLE_SIN2 else None,
        "L": L,
        "energy": 0.5 * float(state.v @ state.v),
    }
