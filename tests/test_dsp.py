"""Short-time DSP primitives against scalar-loop and naive-DFT oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdckws.dsp import (
    Waveform,
    apply_hamming,
    frame_signal,
    hamming_window,
    power_spectrum,
    pre_emphasize,
)
from sdckws.errors import BadFftSize, EmptySignal, InsufficientSamples


def rand_wave(rng, n, sr=16000):
    return Waveform(rng.normal(size=n), sr)


signals = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=200
)


class TestWaveform:
    def test_duration(self):
        wave = Waveform(np.zeros(8000), 16000)
        assert wave.num_samples == 8000
        assert wave.duration == pytest.approx(0.5)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(10), 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros((4, 2)), 16000)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, value):
        # Front-ends would otherwise disagree on such input: PLP swaps in
        # its silence fallback while the mel family raises.
        samples = np.zeros(800)
        samples[[3, 500]] = value
        with pytest.raises(ValueError, match="2 non-finite"):
            Waveform(samples, 16000)


class TestPreEmphasize:
    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        out = pre_emphasize(Waveform(x, 16000), 0.97).samples
        expect = np.empty(50)
        expect[0] = x[0]
        for t in range(1, 50):
            expect[t] = x[t] - 0.97 * x[t - 1]
        np.testing.assert_allclose(out, expect, rtol=0, atol=0)

    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=30)
        out = pre_emphasize(Waveform(x, 16000), 0.0).samples
        np.testing.assert_array_equal(out, x)

    def test_first_sample_kept(self):
        out = pre_emphasize(Waveform(np.array([0.5, 0.5, 0.5]), 16000), 0.97)
        assert out.samples[0] == 0.5

    def test_empty_raises(self):
        with pytest.raises(EmptySignal):
            pre_emphasize(Waveform(np.zeros(0), 16000), 0.97)

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            pre_emphasize(Waveform(np.zeros(4), 16000), alpha)

    @given(signals, st.floats(min_value=0.0, max_value=0.99))
    def test_constant_signal_decays_to_residual(self, values, alpha):
        x = np.asarray(values)
        out = pre_emphasize(Waveform(x, 16000), alpha).samples
        assert out.shape == x.shape
        # Each output sample depends on at most two inputs.
        for t in range(1, len(x)):
            assert out[t] == x[t] - alpha * x[t - 1]


class TestFrameSignal:
    def test_frame_count_formula(self):
        rng = np.random.default_rng(2)
        for n, length, hop in [(400, 400, 160), (401, 400, 160), (960, 400, 160),
                               (16000, 400, 160), (100, 25, 10)]:
            frames = frame_signal(rand_wave(rng, n), length, hop)
            assert frames.shape[0] == (n - length) // hop + 1

    def test_one_second_at_16k_gives_98_frames(self):
        frames = frame_signal(rand_wave(np.random.default_rng(3), 16000), 400, 160)
        assert frames.shape[0] == 98

    def test_contents_match_indexing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=120)
        frames = frame_signal(Waveform(x, 16000), 30, 11)
        for t in range(frames.shape[0]):
            np.testing.assert_array_equal(frames[t], x[t * 11 : t * 11 + 30])

    def test_exact_fit_single_frame(self):
        frames = frame_signal(rand_wave(np.random.default_rng(5), 25), 25, 10)
        assert frames.shape[0] == 1

    def test_too_short_raises(self):
        with pytest.raises(InsufficientSamples):
            frame_signal(rand_wave(np.random.default_rng(6), 24), 25, 10)

    def test_non_overlapping_reconstruction(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=100)
        frames = frame_signal(Waveform(x, 16000), 20, 20)
        np.testing.assert_array_equal(frames.reshape(-1), x)

    def test_hop_bounds(self):
        wave = rand_wave(np.random.default_rng(8), 100)
        with pytest.raises(ValueError):
            frame_signal(wave, 20, 0)
        with pytest.raises(ValueError):
            frame_signal(wave, 20, 21)

    @given(st.integers(min_value=25, max_value=400),
           st.integers(min_value=1, max_value=25))
    def test_every_frame_in_bounds(self, n, hop):
        x = np.arange(n, dtype=float)
        frames = frame_signal(Waveform(x, 16000), 25, hop)
        # Last frame must end inside the signal: no zero padding, no wrap.
        last = frames[-1]
        assert last[-1] <= n - 1
        assert last[0] == (frames.shape[0] - 1) * hop


class TestHammingWindow:
    def test_matches_cosine_formula(self):
        for length in (2, 25, 400):
            window = hamming_window(length)
            expect = np.array(
                [0.54 - 0.46 * np.cos(2 * np.pi * i / (length - 1))
                 for i in range(length)]
            )
            np.testing.assert_allclose(window, expect, rtol=0, atol=0)

    def test_symmetry(self):
        window = hamming_window(400)
        np.testing.assert_allclose(window, window[::-1], atol=1e-15)

    def test_endpoints(self):
        window = hamming_window(100)
        assert window[0] == pytest.approx(0.08)
        assert window[-1] == pytest.approx(0.08)

    def test_length_one(self):
        np.testing.assert_array_equal(hamming_window(1), np.ones(1))

    def test_apply_is_elementwise(self):
        rng = np.random.default_rng(9)
        frames = frame_signal(rand_wave(rng, 200), 40, 17)
        window = hamming_window(40)
        out = apply_hamming(frames)
        for t in range(frames.shape[0]):
            np.testing.assert_array_equal(out[t], frames[t] * window)


def naive_dft_power(frame, nfft):
    """O(n^2) reference: one-sided |DFT|^2 from the textbook sum."""
    padded = np.zeros(nfft)
    padded[: len(frame)] = frame
    bins = nfft // 2 + 1
    power = np.zeros(bins)
    for k in range(bins):
        acc = 0.0 + 0.0j
        for n in range(nfft):
            acc += padded[n] * np.exp(-2j * np.pi * k * n / nfft)
        power[k] = abs(acc) ** 2
    return power


class TestPowerSpectrum:
    def test_matches_naive_dft(self):
        rng = np.random.default_rng(10)
        frames = frame_signal(rand_wave(rng, 100), 24, 10)
        spec = power_spectrum(frames, 32)
        for t in range(frames.shape[0]):
            np.testing.assert_allclose(
                spec[t], naive_dft_power(frames[t], 32), atol=1e-9
            )

    def test_parseval(self):
        rng = np.random.default_rng(11)
        frames = frame_signal(rand_wave(rng, 64), 64, 64)
        spec = power_spectrum(frames, 64)
        p = spec[0]
        # Real input: interior bins appear twice in the two-sided spectrum.
        total = p[0] + 2.0 * p[1:-1].sum() + p[-1]
        assert total / 64 == pytest.approx(np.sum(frames[0] ** 2), rel=1e-12)

    def test_pure_tone_hits_single_bin(self):
        sr, nfft = 16000, 512
        k = 20
        t = np.arange(nfft) / sr
        x = np.sin(2 * np.pi * (k * sr / nfft) * t)
        spec = power_spectrum(x[None, :], nfft)
        assert np.argmax(spec[0]) == k
        others = np.delete(spec[0], k)
        assert others.max() < 1e-18 * spec[0][k] + 1e-12

    def test_zero_padding_preserved(self):
        frames = frame_signal(rand_wave(np.random.default_rng(12), 400), 400, 160)
        spec = power_spectrum(frames, 512)
        assert spec.shape == (1, 257)

    def test_rejects_non_power_of_two(self):
        frames = frame_signal(rand_wave(np.random.default_rng(13), 100), 25, 10)
        with pytest.raises(BadFftSize):
            power_spectrum(frames, 500)

    def test_rejects_nfft_below_frame(self):
        frames = frame_signal(rand_wave(np.random.default_rng(14), 100), 40, 10)
        with pytest.raises(BadFftSize):
            power_spectrum(frames, 32)

    def test_power_is_nonnegative(self):
        frames = frame_signal(rand_wave(np.random.default_rng(15), 300), 25, 10)
        assert (power_spectrum(frames, 32) >= 0).all()
