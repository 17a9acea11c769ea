"""Closed-form dynamics of a kicked linear rigid rotor in (r, v) form.

The molecule is a unit orientation vector r with a tangential dimensionless
velocity v (units hbar/I).  An impulsive pulse leaves r unchanged and adds

    dv = 2 P cos(beta0) (p - cos(beta0) r),      cos(beta0) = p . r,

which is always perpendicular to r with |dv| = |P sin(2 beta0)|.  Free motion
traces a circle on the sphere:

    r(t) = r0 cos(v0 t) + (v0_vec/v0) sin(v0 t),
    v(t) = -v0 r0 sin(v0 t) + v0_vec cos(v0 t).

The engines carry every ensemble as (r, L) with L = r x v, through
classical_symtop; these (N, 3) functions are the independent closed form
that the tests hold the (r, L) kernel and kick against.
"""

from __future__ import annotations

import numpy as np

REST_SPEED = 1e-14        # below this the molecule is treated as at rest


def kick_velocity(r: np.ndarray, v: np.ndarray, P: float, p: np.ndarray) -> np.ndarray:
    """Vectorized velocity change of the impulsive kick; r unchanged.

    p . r is taken as BLAS row products of a C-ordered r, whatever the
    memory layout of r, so a block of kicks matches one (N, 3) kick bit for bit.
    """
    cb = np.ascontiguousarray(r) @ p
    return v + 2.0 * P * cb[..., None] * (p - cb[..., None] * r)


def propagate_arrays(r: np.ndarray, v: np.ndarray, dt: float):
    """Vectorized free rotation of (N, 3) ensembles by dimensionless time dt.

    Every returned axis is normalised, a rotor at rest included.
    """
    vn = np.linalg.norm(v, axis=-1)
    moving = vn > REST_SPEED
    r_out, v_out = r.copy(), v.copy()
    if np.any(moving):
        rm, vm, vnm = r[moving], v[moving], vn[moving]
        ang = vnm * dt
        c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
        r_out[moving] = rm * c + (vm / vnm[:, None]) * s
        v_out[moving] = -vnm[:, None] * rm * s + vm * c
    return r_out / np.linalg.norm(r_out, axis=-1, keepdims=True), v_out
