"""Deterministic dynamics of a kicked rigid rotor: symmetric top or linear.

State is the molecular symmetry axis r (unit vector) and the dimensionless
angular momentum L (units hbar, time unit I_1/hbar).  The body-frame spin
about the symmetry axis is not tracked: it neither moves the axis nor couples
to a linearly polarized pulse.  A linear molecule is the case L . r = 0.

Free motion is precession of r about L on a cone of half-angle theta_pr
(cos theta_pr = e_L . r) at rate Omega_pr = |L|:

    r(t) = cos(th) e_L + sin(th) (r0par cos(Om t) + vhat sin(Om t)),

with r0par = (r0 - cos(th) e_L)/sin(th) and v = L x r; a linear rotor flies
the great circle th = pi/2.  An impulsive kick leaves r unchanged and adds

    dL = -P sin(2 beta0) e_{p x r} = -2 P (p . r) (p x r),

which has no component along r, so L3 = L . r is conserved by kicks as well
as by free motion.
"""

from __future__ import annotations

import numpy as np

REST_MOMENTUM = 1e-14     # |L| below this freezes the molecule
CONE_SIN = 1e-12          # sin(theta_pr) below which the axis is parallel to L


class SymTopEnsemble:
    """Free-flight kernel for (N, 3) ensembles, evaluated on blocks of times.

    Each molecule moves on a circle of the unit sphere,

        r(t) = a + w (b cos(omega t) + c sin(omega t)),   then normalised,

    with the geometry (a, w, b, c, omega) computed once at construction:

    * a rotating molecule: the precession cone, a = cos(th) e_L,
      w = sin(th), b = r0par, c = vhat, omega = |L| (a linear rotor, with
      L . r = 0, has the great circle w = 1 up to rounding);
    * frozen molecules (at rest, or r parallel to L): a = r, w = 0,
      b = c = 0, omega = 0.

    a, b and c are stored component-major, (3, N), so that a block of n_t
    times yields each component as one contiguous (n_t, N) array.
    """

    def __init__(self, r: np.ndarray, L: np.ndarray):
        a, b, c, w = r.copy(), np.zeros_like(r), np.zeros_like(r), np.zeros(r.shape[0])
        rate = np.linalg.norm(L, axis=-1)
        eL = L / np.maximum(rate, REST_MOMENTUM)[:, None]
        cth = np.clip(np.einsum("ij,ij->i", eL, r), -1.0, 1.0)
        sth = np.sqrt(np.clip(1.0 - cth * cth, 0.0, 1.0))
        live = (rate > REST_MOMENTUM) & (sth > CONE_SIN)
        axis = cth[live, None] * eL[live]
        a[live] = axis
        w[live] = sth[live]
        b[live] = (r[live] - axis) / sth[live, None]
        vel = np.cross(L[live], r[live])
        c[live] = vel / np.linalg.norm(vel, axis=-1, keepdims=True)
        self.live = live
        self.omega = np.where(live, rate, 0.0)
        self.w = w
        self.a, self.b, self.c = a.T.copy(), b.T.copy(), c.T.copy()

    def positions(self, dt, rows: slice = slice(None)) -> np.ndarray:
        """Axis vectors after free flight by dt (dimensionless).

        A scalar dt gives a C-ordered (N, 3) array.  A 1-D array of n_t
        times gives (n_t, N, 3), a view of component-major data in which
        each pos[..., k] is a contiguous (n_t, N) array.  rows restricts the
        evaluation to a range of molecules.
        """
        times = np.asarray(dt, dtype=float)
        w = self.w[rows]
        ang = np.multiply.outer(np.atleast_1d(times), self.omega[rows])
        cos = np.cos(ang)
        sin = np.sin(ang, out=ang)
        out = np.empty((3,) + ang.shape)
        tmp = np.empty_like(ang)
        for k in range(3):
            np.multiply(self.b[k, rows], cos, out=out[k])
            out[k] += np.multiply(self.c[k, rows], sin, out=tmp)
            out[k] *= w
            out[k] += self.a[k, rows]
        norm = np.multiply(out[0], out[0], out=cos)
        norm += np.multiply(out[1], out[1], out=tmp)
        norm += np.multiply(out[2], out[2], out=tmp)
        out /= np.sqrt(norm, out=norm)
        if times.ndim == 0:
            return np.ascontiguousarray(out[:, 0].T)
        return np.moveaxis(out, 0, -1)

    def time_average_squares(self) -> np.ndarray:
        """(N, 3) averages of x^2, y^2, z^2 over each molecule's closed orbit."""
        avg = self.a ** 2 + 0.5 * self.w ** 2 * (self.b ** 2 + self.c ** 2)
        return np.ascontiguousarray(avg.T)


def kick_momentum(r: np.ndarray, L: np.ndarray, P: float, p: np.ndarray) -> np.ndarray:
    """Vectorized angular-momentum change; dL = 0 when p is (anti)parallel to r.

    r is (..., 3) in any memory layout and L broadcasts against it.  p . r
    is taken as BLAS row products of a C-ordered r, so a block of kicks
    reproduces the products of one (N, 3) kick bit for bit.
    """
    cb = np.ascontiguousarray(r) @ p
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    pxr = (p[1] * z - p[2] * y, p[2] * x - p[0] * z, p[0] * y - p[1] * x)
    scale = -2.0 * P * cb
    degenerate = np.sqrt(pxr[0] * pxr[0] + pxr[1] * pxr[1] + pxr[2] * pxr[2]) < 1e-12
    any_degenerate = np.any(degenerate)
    out = np.empty(np.broadcast_shapes(r.shape, L.shape))
    for k in range(3):
        dL = scale * pxr[k]
        if any_degenerate:
            dL[degenerate] = 0.0
        np.add(L[..., k], dL, out=out[..., k])
    return out
