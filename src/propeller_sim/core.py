"""Shared domain types, unit conventions and molecule presets.

Working units
-------------
Internally everything is dimensionless:

* time        t' = hbar t / I   (I = I_1 for symmetric tops),
* velocity    v' = I v / hbar,
* angular momentum L' = L / hbar.

One quantum revival period T_rev = 2 pi I / hbar corresponds to t' = 2 pi.
All user-facing times (CLI flags, output files) are expressed in units of
T_rev; the conversion factor between the two is exactly 2 pi.

Frames
------
Two lab frames are used and related by a fixed axis permutation:

* classical frame: first pulse along z, second pulse in the x-z plane,
  light propagates along y; oriented angular momentum is L_y.
* propagation frame, now used only by the symmetric-top lab-frame oracle
  (quantum_symtop.SymTopBasis, coupling_block): z along the light, first
  pulse along x, second pulse at azimuth dphi in the x-y plane; oriented
  angular momentum is J_z.

classical (x, y, z) = propagation (y', z', x').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN_K, PLANCK_H, SPEED_OF_LIGHT_CM

TWO_PI = 2.0 * math.pi


class ParameterError(ValueError):
    """Invalid physical or configuration parameter."""


class ProtocolError(RuntimeError):
    """A simulation protocol could not be completed (e.g. extremum not found)."""


class TruncationError(RuntimeError):
    """A truncated basis is too small for the requested dynamics."""


class IntegrationError(RuntimeError):
    """A numerical result fell outside its own error bound."""


@dataclass(frozen=True)
class MoleculeParams:
    """Rigid-rotor parameters of one molecular species.

    kind is "linear" (one rotational constant B) or "oblate-symtop"
    (B = h/(8 pi^2 I_1 c) and C = h/(8 pi^2 I_3 c), with C in [B/2, B) for an
    oblate top; a planar ring has C = B/2 exactly).  delta_alpha_sign is the
    sign of the polarizability anisotropy; magnitudes enter only through the
    dimensionless kick strength P.
    """

    kind: str
    B_cm1: float
    C_cm1: float | None = None
    delta_alpha_sign: int = 1
    name: str = "custom"

    def __post_init__(self):
        if self.kind not in ("linear", "oblate-symtop"):
            raise ParameterError(f"unknown molecule kind {self.kind!r}")
        if not self.B_cm1 > 0:
            raise ParameterError(f"rotational constant B must be positive, got {self.B_cm1}")
        if self.kind == "oblate-symtop":
            if self.C_cm1 is None:
                raise ParameterError("oblate-symtop requires the second rotational constant C")
            ratio = self.B_cm1 / self.C_cm1  # = I_3/I_1
            if not (1.0 < ratio <= 2.0 + 1e-12):
                raise ParameterError(
                    f"oblate top needs I_3/I_1 = B/C in (1, 2], got {ratio}")
        elif self.C_cm1 is not None:
            raise ParameterError("linear molecules take no C constant")
        if self.delta_alpha_sign not in (-1, 1):
            raise ParameterError("delta_alpha_sign must be +1 or -1")

    @property
    def i1_over_i3(self) -> float:
        """Moment-of-inertia ratio I_1/I_3 (rotational constants are ~ 1/I)."""
        if self.kind == "linear":
            raise ParameterError("I_1/I_3 is undefined for a linear molecule")
        return self.C_cm1 / self.B_cm1


def nitrogen() -> MoleculeParams:
    """N2 preset: linear, B = 2.00 cm^-1, positive polarizability anisotropy."""
    return MoleculeParams(kind="linear", B_cm1=2.00, delta_alpha_sign=1, name="n2")


def benzene() -> MoleculeParams:
    """Benzene preset: planar-ring oblate top, B = 0.190 cm^-1, C = B/2, negative anisotropy."""
    return MoleculeParams(kind="oblate-symtop", B_cm1=0.190, C_cm1=0.095,
                          delta_alpha_sign=-1, name="benzene")


@dataclass(frozen=True)
class PulseSpec:
    """One impulsive laser pulse.

    P is the signed dimensionless kick strength (sign of the polarizability
    anisotropy included), p the unit polarization vector in the active frame,
    t_apply the application time in T_rev units ("auto" fires the pulse at the
    first alignment extremum found after the previous pulse).
    """

    P: float
    p: tuple[float, float, float]
    t_apply: float | str = 0.0

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (3,):
            raise ParameterError("polarization must be a 3-vector")
        if not abs(np.linalg.norm(p) - 1.0) <= 1e-12:     # NaN fails it too
            raise ParameterError(f"polarization must be a unit vector, |p| = {np.linalg.norm(p)}")
        object.__setattr__(self, "p", tuple(float(x) for x in p))
        if isinstance(self.t_apply, str) and self.t_apply != "auto":
            raise ParameterError(f"t_apply must be a time in T_rev units or 'auto', got {self.t_apply!r}")
        if not math.isfinite(self.P):
            raise ParameterError(f"kick strength P must be finite, got {self.P}")
        if not isinstance(self.t_apply, str) and not math.isfinite(self.t_apply):
            raise ParameterError(f"t_apply must be finite, got {self.t_apply}")

    @classmethod
    def along(cls, P: float, direction, t_apply: float | str = 0.0) -> "PulseSpec":
        """Build a pulse, normalizing the given polarization direction."""
        d = np.asarray(direction, dtype=float)
        n = np.linalg.norm(d)
        if not 0.0 < n < math.inf:
            raise ParameterError(f"polarization direction must be nonzero and finite, |d| = {n}")
        return cls(P=P, p=tuple(d / n), t_apply=t_apply)

    @property
    def p_vec(self) -> np.ndarray:
        return np.asarray(self.p, dtype=float)


def revival_time(mol: MoleculeParams) -> float:
    """Revival period T_rev = 2 pi I / hbar = 1/(2 B c) in seconds, with I = I_1 for tops."""
    return 1.0 / (2.0 * mol.B_cm1 * SPEED_OF_LIGHT_CM)


def sigma_th(mol: MoleculeParams, T_K: float):
    """Dimensionless thermal width(s) of the rotational velocity distribution.

    Linear molecules: a single sigma with sigma^2 = I k_B T / hbar^2
    = k_B T / (2 h B c).  Symmetric tops: (sigma_1, sigma_3) built from
    I_1 and I_3; for a planar ring sigma_3 = sqrt(2) sigma_1.  Every engine's
    temperature rule: T_K must be finite and >= 0.
    """
    if not (math.isfinite(T_K) and T_K >= 0):
        raise ParameterError(f"T_K must be finite and >= 0, got {T_K}")
    sig1 = math.sqrt(BOLTZMANN_K * T_K /
                     (2 * PLANCK_H * mol.B_cm1 * SPEED_OF_LIGHT_CM))
    if mol.kind == "linear":
        return sig1
    sig3 = math.sqrt(BOLTZMANN_K * T_K /
                     (2 * PLANCK_H * mol.C_cm1 * SPEED_OF_LIGHT_CM))
    return sig1, sig3
