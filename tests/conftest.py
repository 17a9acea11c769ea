"""Shared fixtures.

The heavy simulation runs used by several acceptance criteria are cached at
session scope so each expensive configuration is computed once.
"""

import math

import numpy as np
import pytest

from propeller_sim import EnsembleConfig, PulseSpec, benzene, nitrogen
from propeller_sim.ensemble import delay_scan, run_protocol
from propeller_sim import quantum_symtop

SCAN_TREV = 1.0 / 2000.0
FINE_TAUS = np.arange(0.0, 0.15 + 0.5 * SCAN_TREV, SCAN_TREV)
BENZENE_P_VALUES = (-1.0, -3.0, -10.0)


@pytest.fixture(scope="session")
def nitrogen_fig2_classical():
    """N2, 50 K, P = 5 + 5 at +45 deg, auto delay, 10^4 molecules."""
    cfg = EnsembleConfig(
        mol=nitrogen(), T_K=50.0, n_traj=10_000, seed=2026,
        pulses=(PulseSpec(P=5.0, p=(0.0, 0.0, 1.0)),
                PulseSpec.along(5.0, (1.0, 0.0, 1.0), t_apply="auto")),
        t_max=0.5, dt_out=0.01)
    return run_protocol(cfg)


@pytest.fixture(scope="session")
def benzene_classical_scans():
    """Common-random-number delay scans for P = -1, -3, -10 (10^5 molecules)."""
    out = {}
    for P in BENZENE_P_VALUES:
        cfg = EnsembleConfig(
            mol=benzene(), T_K=0.9, n_traj=100_000, seed=77,
            pulses=(PulseSpec(P=P, p=(0.0, 0.0, 1.0)),
                    PulseSpec.along(P, (-1.0, 0.0, 1.0), t_apply="auto")),
            t_max=0.5, dt_out=0.005)
        out[P] = delay_scan(cfg, FINE_TAUS)
    return out


@pytest.fixture(scope="session")
def benzene_quantum_scans():
    """Delay curves for P1 = P2 = -1, -3, -10 at -45 deg; their cos2theta is
    the alignment after pulse 1 at each delay (test_quantum_symtop.TestOnePass)."""
    return {P: quantum_symtop.delay_curve(benzene(), 0.9, P, P, -math.pi / 4.0,
                                          FINE_TAUS)
            for P in BENZENE_P_VALUES}
