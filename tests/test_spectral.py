import numpy as np
import pytest

from propeller_sim.spectral import group_amplitudes


def _unique_reference(freqs, amps):
    key = np.round(4 * np.asarray(freqs, dtype=float)).astype(np.int64)
    uniq, inv = np.unique(key, return_inverse=True)
    g = np.zeros(len(uniq), dtype=complex)
    np.add.at(g, inv, amps)
    return uniq / 4, g


class TestGroupAmplitudes:
    @pytest.mark.parametrize("freqs", [
        [-3.0, 2.0, -3.0, 0.0, 2.0, -7.0],          # negative integers
        [0.25, -0.75, 0.25, 1.5, -0.75, 12.0],       # quarter-integers
        [5.0, 5.0, 5.0],                             # one frequency
    ])
    def test_matches_unique_reference(self, freqs):
        rng = np.random.default_rng(len(freqs))
        amps = rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
        f, g = group_amplitudes(np.array(freqs), amps)
        f_ref, g_ref = _unique_reference(freqs, amps)
        assert np.array_equal(f, f_ref)
        assert np.allclose(g, g_ref, rtol=0.0, atol=1e-15)

    def test_cancelling_amplitudes_keep_their_frequency(self):
        f, g = group_amplitudes(np.array([1.0, 1.0, -2.0]), np.array([1.0, -1.0, 2.0]))
        assert np.array_equal(f, [-2.0, 1.0]) and np.array_equal(g, [2.0, 0.0])

    def test_empty(self):
        f, g = group_amplitudes(np.zeros(0), np.zeros(0, dtype=complex))
        assert f.shape == g.shape == (0,)
        assert g.dtype == complex

    def test_off_lattice_frequency_raises(self):
        with pytest.raises(ValueError, match=r"0\.3075 .* = 2\.300e-01"):
            group_amplitudes(np.array([1.0, 0.3075, -2.25]), np.ones(3))

    def test_round_off_is_tolerated(self):
        f, g = group_amplitudes(np.array([0.5 + 1e-12, 0.5 - 1e-12]), np.ones(2))
        assert f.tolist() == [0.5] and g.tolist() == [2.0]
