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

from dataclasses import dataclass

import numpy as np

REST_MOMENTUM = 1e-14     # |L| below this freezes the molecule
CONE_SIN = 1e-12          # sin(theta_pr) below which the axis is parallel to L
ANCHOR_STEP = 32          # K: grid indices between exact cos/sin anchors
_VELTKAMP = 2.0 ** 27 + 1.0


def _split(x):
    """x = hi + lo with halves of 26 bits, whose products are exact (Veltkamp)."""
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a, b):
    """p = fl(a b) and the exact error a b - p (Dekker)."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    """s = fl(a + b) and the exact error a + b - s (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


@dataclass(frozen=True)
class UniformGrid:
    """The free-flight times t0 + i h, i = 0 .. n - 1, of one segment."""

    t0: float
    h: float
    n: int


class GridPhases:
    """cos/sin(omega t) on a UniformGrid for one range of molecules, as
    anchor and table factors.

    Index i = m K + j (K = ANCHOR_STEP) splits the angle omega (t0 + i h)
    into the anchor A_m = omega (t0 + m K h) and the table entry T_j =
    omega j h, to be joined by angle addition, e.g. cos(A_m + T_j) =
    cos A_m cos T_j - sin A_m sin T_j.  Callers fold the anchor into
    per-molecule coefficients (a free-flight circle, a delay scan's
    harmonics), so each element costs a product with the table.  No value
    is a running recurrence, so the error stays at a few ulps whatever the
    segment length and depends only on the molecule and i.  The anchor
    angle is carried as a double-double, so the phase does not inherit the
    rounding of omega t (up to 1e-13 rad after a few revivals).
    """

    def __init__(self, grid: UniformGrid, omega: np.ndarray):
        self.grid, self.omega = grid, omega
        ang = np.multiply.outer(np.arange(ANCHOR_STEP) * grid.h, omega)
        self.table = (np.cos(ang), np.sin(ang))     # (K, rows): cos, sin of T_j

    def anchors(self, m):
        """cos and sin of A_m for an anchor index m, or for an array of
        them that broadcasts against omega."""
        # t0 + m K h = t_hi + e_mk + e_sum and omega t_hi = p + err, exactly
        p_mk, e_mk = _two_product(np.multiply(m, ANCHOR_STEP, dtype=float), self.grid.h)
        t_hi, e_sum = _two_sum(self.grid.t0, p_mk)
        p, err = _two_product(self.omega, t_hi)
        lo = err + self.omega * (e_mk + e_sum)       # the angle is p + lo
        cos, sin = np.cos(p), np.sin(p)
        return cos - lo * sin, sin + lo * cos


class SymTopEnsemble:
    """Free-flight kernel for an (N, 3) ensemble.

    Each molecule moves on a circle of the unit sphere,

        r(t) = a + w (b cos(omega t) + c sin(omega t)),   then normalised,

    with the geometry (a, w, b, c, omega) computed once at construction:

    * a rotating molecule (live): the precession cone, a = cos(th) e_L,
      w = sin(th), b = r0par, c = vhat, omega = |L|; a linear rotor, with
      L . r = 0 up to rounding, has the great circle w = 1, and cos_pr, the
      cos(th) kept with eL for the belt density, is 0 within CONE_SIN;
    * frozen molecules (at rest, or r parallel to L): a = r, w = 0,
      b = c = 0, omega = 0.

    a, b and c are stored component-major, (3, N), so that each component
    of a range of molecules is one contiguous row.  positions evaluates one
    time through np.cos/np.sin.  Sums on a UniformGrid read the geometry
    directly, with a GridPhases' anchors folded into it
    (ensemble._circle_blocks, ensemble._scan_sums).
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
        self.live, self.eL = live, eL
        self.cos_pr = np.where(np.abs(cth) <= CONE_SIN, 0.0, cth)
        self.omega = np.where(live, rate, 0.0)
        self.w = w
        self.a, self.b, self.c = a.T.copy(), b.T.copy(), c.T.copy()

    def positions(self, dt: float) -> np.ndarray:
        """C-ordered (N, 3) axis vectors after free flight by dt (dimensionless)."""
        ang = float(dt) * self.omega
        pos = (self.b * np.cos(ang) + self.c * np.sin(ang)) * self.w + self.a
        pos /= np.sqrt(pos[0] * pos[0] + pos[1] * pos[1] + pos[2] * pos[2])
        return np.ascontiguousarray(pos.T)

    def time_average_squares(self) -> np.ndarray:
        """(N, 3) averages of x^2, y^2, z^2 over each molecule's closed orbit."""
        avg = self.a ** 2 + 0.5 * self.w ** 2 * (self.b ** 2 + self.c ** 2)
        return np.ascontiguousarray(avg.T)


def kick_momentum(r: np.ndarray, L: np.ndarray, P: float, p: np.ndarray) -> np.ndarray:
    """(N, 3) angular momenta L after a kick of axes r (N, 3); dL = 0 where
    p is (anti)parallel to r."""
    pxr = np.cross(p, r)
    dL = (-2.0 * P * (r @ p))[:, None] * pxr
    dL[np.sqrt(np.sum(pxr * pxr, axis=1)) < 1e-12] = 0.0
    return L + dL
