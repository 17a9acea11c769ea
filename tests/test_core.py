import math

import numpy as np
import pytest

from oracles import moment_of_inertia
from propeller_sim.constants import PLANCK_H
from propeller_sim.core import (MoleculeParams, ParameterError,
                                PulseSpec, benzene, nitrogen,
                                revival_time, sigma_th)

HBAR = PLANCK_H / (2 * math.pi)


class TestMoleculeParams:
    def test_presets(self):
        n2 = nitrogen()
        assert n2.kind == "linear" and n2.B_cm1 == 2.00 and n2.delta_alpha_sign == 1
        bz = benzene()
        assert bz.kind == "oblate-symtop"
        assert bz.B_cm1 == 0.190
        assert bz.C_cm1 == pytest.approx(bz.B_cm1 / 2)
        assert bz.delta_alpha_sign == -1

    def test_validation(self):
        with pytest.raises(ParameterError):
            MoleculeParams(kind="linear", B_cm1=-1.0)
        with pytest.raises(ParameterError):
            MoleculeParams(kind="oblate-symtop", B_cm1=1.0)          # missing C
        with pytest.raises(ParameterError):
            MoleculeParams(kind="oblate-symtop", B_cm1=1.0, C_cm1=0.3)  # prolate ratio
        with pytest.raises(ParameterError):
            MoleculeParams(kind="linear", B_cm1=1.0, C_cm1=0.5)


class TestRevivalTime:
    def test_nitrogen_value(self):
        # oracle: T_rev = 2 pi I / hbar with I = h/(8 pi^2 B c), reduced by hand
        rt = revival_time(nitrogen())
        direct = 2 * math.pi * moment_of_inertia(2.00) / HBAR
        assert rt == pytest.approx(direct, rel=1e-12)
        assert rt == pytest.approx(8.3391023799538e-12, rel=1e-10)
        assert rt == pytest.approx(8.34e-12, abs=0.01e-12)

    def test_benzene_value(self):
        rt = revival_time(benzene())
        assert rt == pytest.approx(8.778002505214527e-11, rel=1e-10)
        assert rt == pytest.approx(87.8e-12, abs=0.1e-12)

    def test_inverse_scaling(self):
        a = revival_time(MoleculeParams(kind="linear", B_cm1=1.0))
        b = revival_time(MoleculeParams(kind="linear", B_cm1=2.0))
        assert a == pytest.approx(2 * b, rel=1e-14)

    def test_bad_b(self):
        with pytest.raises(ParameterError):
            moment_of_inertia(0.0)


class TestSigmaTh:
    def test_nitrogen_50k(self):
        assert sigma_th(nitrogen(), 50.0) == pytest.approx(2.94, abs=0.01)

    def test_benzene_09k(self):
        s1, s3 = sigma_th(benzene(), 0.9)
        assert s1 == pytest.approx(1.29, abs=0.01)
        assert s3 == pytest.approx(1.82, abs=0.01)
        assert s3 == pytest.approx(math.sqrt(2) * s1, rel=1e-12)

    def test_zero_temperature(self):
        assert sigma_th(nitrogen(), 0.0) == 0.0
        assert sigma_th(benzene(), 0.0) == (0.0, 0.0)

    def test_sqrt_t_scaling(self):
        for T in (1.0, 7.3, 80.0):
            assert sigma_th(nitrogen(), 4 * T) == pytest.approx(
                2 * sigma_th(nitrogen(), T), rel=1e-12)

    def test_negative_temperature(self):
        # and the non-finite ones, which would never end a thermal level sum
        for T in (-1.0, math.inf, math.nan):
            for mol in (nitrogen(), benzene()):
                with pytest.raises(ParameterError, match="T_K"):
                    sigma_th(mol, T)


class TestPulseSpec:
    def test_unit_polarization_enforced(self):
        with pytest.raises(ParameterError):
            PulseSpec(P=1.0, p=(1.0, 0.0, 1.0))
        p = PulseSpec.along(1.0, (1.0, 0.0, 1.0))
        assert np.linalg.norm(p.p_vec) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_polarization_rejected(self, bad):
        # a NaN norm fails the unit-vector check instead of slipping past it
        with pytest.raises(ParameterError, match="unit vector"):
            PulseSpec(P=1.0, p=(bad, 0.0, 0.0))
        with pytest.raises(ParameterError, match="nonzero and finite"):
            PulseSpec.along(1.0, (bad, 0.0, 1.0))

    def test_auto_tag(self):
        assert PulseSpec(P=1.0, p=(0.0, 0.0, 1.0), t_apply="auto").t_apply == "auto"
        with pytest.raises(ParameterError):
            PulseSpec(P=1.0, p=(0.0, 0.0, 1.0), t_apply="later")
