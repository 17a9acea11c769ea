import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from propeller_sim.spectral import TIME_BLOCK, SpectralTrace, beat_freqs, group_amplitudes


def _unique_reference(freqs, amps):
    key = np.round(4 * np.asarray(freqs, dtype=float)).astype(np.int64)
    uniq, inv = np.unique(key, return_inverse=True)
    g = np.zeros(len(uniq), dtype=complex)
    np.add.at(g, inv, amps)
    return uniq / 4, g


def _random_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _exact_trace(g, times):
    """Re sum_{J J'} g_{J J'} exp(i (e_J - e_J') t) over every entry, each
    phase from its 40-digit angle rounded once to double precision."""
    freqs = beat_freqs(g.shape[-1]).astype(np.int64)
    with mpmath.workdps(40):
        table = {(f, t): complex(mpmath.expj(f * mpmath.mpf(float(t))))
                 for f in set(np.abs(freqs).ravel().tolist()) for t in times}
    phases = np.array([[table[abs(f), t] for f in freqs.ravel()] for t in times])
    phases = np.where(freqs.ravel() < 0, np.conj(phases), phases).reshape(len(times), *freqs.shape)
    return np.real(np.einsum("tij,...ij->...t", phases, g))


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

    def test_stack_groups_each_row(self):
        freqs = np.array([3.0, 1.0, 3.0, 6.0, 1.0, 3.0])
        amps = _random_stack(np.random.default_rng(5), (2, 3, len(freqs)))
        f, g = group_amplitudes(freqs, amps)
        assert g.shape == (2, 3, 3)
        for i in range(2):
            for j in range(3):
                f_ref, g_ref = _unique_reference(freqs, amps[i, j])
                assert np.array_equal(f, f_ref)
                assert np.allclose(g[i, j], g_ref, rtol=0.0, atol=1e-15)

    def test_cancelling_amplitudes_keep_their_frequency(self):
        f, g = group_amplitudes(np.array([1.0, 1.0, -2.0]), np.array([1.0, -1.0, 2.0]))
        assert np.array_equal(f, [-2.0, 1.0]) and np.array_equal(g, [2.0, 0.0])

    def test_empty(self):
        f, g = group_amplitudes(np.zeros(0), np.zeros(0, dtype=complex))
        assert f.shape == g.shape == (0,)
        assert g.dtype == complex


class TestSpectralTrace:
    def test_beats_are_integers(self):
        f = beat_freqs(9)
        assert np.array_equal(f, np.round(f)) and np.array_equal(f, -f.T)
        assert f[3, 1] == 6.0 - 1.0

    def test_matches_direct_sum_over_all_beats(self):
        # Re sum_{J J'} g_{J J'} exp(i (e_J - e_J') t) for every matrix of a
        # random stack, including the negative and zero beats the trace folds
        n = 7
        rng = np.random.default_rng(3)
        g = _random_stack(rng, (2, 3, n, n))
        g[0, 1, 4, 2] = g[0, 1, 2, 4] = 0.0
        freqs = beat_freqs(n)
        times = np.concatenate([[0.0], rng.uniform(-5.0, 40.0, size=30)])
        phases = np.exp(1j * times[:, None, None] * freqs)
        ref = np.real(np.einsum("tij,abij->abt", phases, g))
        got = SpectralTrace(g).evaluate(times)
        assert got.shape == (2, 3, len(times))
        assert np.max(np.abs(got - ref)) <= 1e-12
        single = SpectralTrace(g[1, 2])
        assert np.max(np.abs(single.evaluate(times) - ref[1, 2])) <= 1e-12

    @pytest.mark.parametrize("shape", [(2, 3, 61, 61), (61, 61)])
    def test_matches_exact_phases_over_ten_revivals(self, shape):
        # beats up to e_60 = 1,830 at times up to 10 revivals: angles up to
        # 1.2e5, whose rounding alone would cost 1e-11 per term and about
        # 1e-13 of sum |g| in all; split at the high half of t they are exact
        rng = np.random.default_rng(sum(shape))
        g = _random_stack(rng, shape)
        times = np.concatenate([[0.0, 20 * math.pi], rng.uniform(0.0, 20 * math.pi, 10)])
        got = SpectralTrace(g).evaluate(times)
        bound = 1e-15 * np.abs(g).sum(axis=(-2, -1))
        assert np.all(np.max(np.abs(got - _exact_trace(g, times)), axis=-1) <= bound)

    def test_no_times_by_beats_table(self):
        # 2,500 times x beat_freqs(45) (564 live beats) as a phase table would
        # take 22.6 MB; the split needs (times x sqrt(beats)) tables
        n, times = 45, np.linspace(0.0, 60.0, 2500)
        trace = SpectralTrace(_random_stack(np.random.default_rng(45), (n, n)))
        table = len(times) * trace.distinct_freqs * 16
        tracemalloc.start()
        try:
            trace.evaluate(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.distinct_freqs >= 400 and peak < table / 4

    def test_phase_tables_do_not_grow_with_the_times(self):
        # beat_freqs(45), fig2's basis, over 20,000 times: the phase tables
        # and their product for all times at once took 29.9 MiB; in blocks of
        # TIME_BLOCK times they stay the same size.  Values on both sides of
        # the block boundaries match the sum over every beat
        n, times = 45, np.linspace(0.0, 2 * math.pi, 20_000)
        g = _random_stack(np.random.default_rng(20), (2, n, n))
        trace = SpectralTrace(g)
        tracemalloc.start()
        try:
            got = trace.evaluate(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20 and got.shape == (2, len(times))
        k = np.array([0, TIME_BLOCK - 1, TIME_BLOCK, 5 * TIME_BLOCK + 7, len(times) - 1])
        phases = np.exp(1j * times[k, None, None] * beat_freqs(n))
        ref = np.real(np.einsum("tij,aij->at", phases, g))
        assert np.max(np.abs(got[:, k] - ref)) <= 1e-12 * np.abs(g).sum()

    def test_time_average_is_the_zero_beat(self):
        # integer beats below 64 average out over 64 uniform times of one period
        n = 8
        g = _random_stack(np.random.default_rng(8), (n, n))
        trace = SpectralTrace(g)
        times = np.arange(64) * (2 * math.pi / 64)
        assert trace.time_average == pytest.approx(trace.evaluate(times).mean(), abs=1e-12)
        assert trace.time_average == pytest.approx(np.trace(g).real, abs=1e-15)

    def test_beats_zero_across_the_stack_are_dropped(self):
        n = 5
        g = np.zeros((2, n, n), dtype=complex)
        g[0, 3, 1] = 1.0            # beat e_3 - e_1 = 5
        g[1, 0, 2] = 2.0j           # beat -(e_2 - e_0) = -3, folded onto +3
        g[1, 4, 4] = 7.0            # zero beat
        trace = SpectralTrace(g)
        assert sorted(trace.freqs) == [3.0, 5.0]
        assert np.array_equal(trace.time_average, [0.0, 7.0])
