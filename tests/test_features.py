"""Feature front-ends against independent closed-form and O(n^2) oracles."""

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sdckws.dsp import Waveform
from sdckws.errors import (
    BadFrequency,
    ConfigMismatch,
    DegenerateFilter,
    FormatError,
    NonFiniteValue,
)
from sdckws.features import (
    FEATURE_NAMES,
    RASTA_POLE,
    FeatureKind,
    FeatureMatrix,
    FrontEndConfig,
    SdcConfig,
    _RASTA_DEN,
    _RASTA_NUM,
    _RASTA_NUMERATOR_SHAPE,
    _bands_to_autocorr,
    _bands_to_cepstra,
    _critical_bands,
    bark_filterbank,
    bark_scale,
    bark_to_hz,
    dct_matrix,
    delta,
    equal_loudness,
    feature_dim,
    levinson_durbin,
    lpc_to_cepstra,
    make_front_end,
    mel_filterbank,
    mel_scale,
    mel_spectrogram,
    mel_to_hz,
    mfcc,
    plp,
    plp_lags,
    rasta_filter,
    rasta_plp,
    read_features,
    sdc,
    write_features,
)

SR = 16000


def noise_wave(seed, seconds=1.0, amp=0.3):
    rng = np.random.default_rng(seed)
    return Waveform(amp * rng.normal(size=int(SR * seconds)), SR)


class TestMelScale:
    def test_round_trip(self):
        f = np.linspace(0.0, 8000.0, 200)
        np.testing.assert_allclose(mel_to_hz(mel_scale(f)), f, atol=1e-9)

    def test_1000_hz_is_about_1000_mel(self):
        assert mel_scale(1000.0) == pytest.approx(1000.0, abs=1.0)

    def test_monotone(self):
        m = mel_scale(np.linspace(0.0, 8000.0, 500))
        assert (np.diff(m) > 0).all()

    def test_zero(self):
        assert mel_scale(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(BadFrequency):
            mel_scale(-1.0)
        with pytest.raises(BadFrequency):
            mel_to_hz(-5.0)


class TestMelFilterbank:
    def test_shape(self):
        assert mel_filterbank(40, 512, SR).shape == (40, 257)

    def test_nonnegative_peak_one(self):
        fbank = mel_filterbank(40, 512, SR)
        assert (fbank >= 0).all()
        np.testing.assert_allclose(fbank.max(axis=1), 1.0)

    def test_unimodal_rows(self):
        fbank = mel_filterbank(40, 512, SR)
        for row in fbank:
            support = np.flatnonzero(row)
            lo, hi = support[0], support[-1]
            segment = row[lo : hi + 1]
            peak = segment.argmax()
            assert (np.diff(segment[: peak + 1]) >= 0).all()
            assert (np.diff(segment[peak:]) <= 0).all()

    def test_centers_follow_mel_grid(self):
        # Snapping to FFT bins moves each center by less than one bin.
        fbank = mel_filterbank(40, 512, SR)
        centers_bin = fbank.argmax(axis=1)
        centers_mel = mel_scale(centers_bin * SR / 512)
        ideal = np.linspace(0.0, mel_scale(SR / 2), 42)[1:-1]
        for bin_idx, got, want in zip(centers_bin, centers_mel, ideal):
            local_width = mel_scale((bin_idx + 1) * SR / 512) - mel_scale(
                bin_idx * SR / 512
            )
            assert abs(got - want) <= 1.05 * local_width

    def test_too_many_filters_degenerate(self):
        with pytest.raises(DegenerateFilter):
            mel_filterbank(200, 64, SR)


class TestFilterbankCache:
    @pytest.mark.parametrize("build,args", [(mel_filterbank, (40, 512, SR)),
                                            (bark_filterbank, (512, SR))])
    def test_built_once_and_read_only(self, build, args):
        fbank = build(*args)
        assert build(*args) is fbank
        with pytest.raises(ValueError):
            fbank[0, 0] = 2.0
        with pytest.raises(ValueError):
            fbank *= 2.0


class TestMelSpectrogram:
    def test_one_second_shape(self):
        feat = mel_spectrogram(noise_wave(0), FrontEndConfig())
        assert feat.data.shape == (98, 40)
        assert feat.kind == FeatureKind.MEL_SPEC

    def test_silence_hits_log_floor(self):
        cfg = FrontEndConfig()
        feat = mel_spectrogram(Waveform(np.zeros(SR), SR), cfg)
        np.testing.assert_allclose(feat.data, np.log(cfg.log_floor))

    def test_doubling_amplitude_adds_log_four(self):
        cfg = FrontEndConfig()
        rng = np.random.default_rng(1)
        x = 0.3 * rng.normal(size=SR)
        base = mel_spectrogram(Waveform(x, SR), cfg).data
        loud = mel_spectrogram(Waveform(2.0 * x, SR), cfg).data
        np.testing.assert_allclose(loud - base, np.log(4.0), atol=1e-9)


class TestDctMatrix:
    def test_rows_orthonormal(self):
        dct = dct_matrix(13, 40)
        np.testing.assert_allclose(dct @ dct.T, np.eye(13), atol=1e-12)

    def test_square_orthogonal(self):
        dct = dct_matrix(8, 8)
        np.testing.assert_allclose(dct @ dct.T, np.eye(8), atol=1e-12)

    def test_constant_vector_maps_to_first_basis(self):
        dct = dct_matrix(13, 40)
        out = dct @ np.full(40, 2.5)
        assert out[0] == pytest.approx(2.5 * np.sqrt(40.0))
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)


class TestMfcc:
    def test_shapes(self):
        wave = noise_wave(3)
        assert mfcc(wave, FrontEndConfig()).data.shape == (98, 13)
        feat = mfcc(wave, FrontEndConfig(), with_deltas=True)
        assert feat.data.shape == (98, 39)
        assert feat.kind == FeatureKind.MFCC_DELTAS

    def test_matches_direct_cosine_sum(self):
        # Independent oracle: the DCT-II written out as an explicit sum.
        wave = noise_wave(4)
        cfg = FrontEndConfig()
        log_mel = mel_spectrogram(wave, cfg).data
        got = mfcc(wave, cfg).data
        n = cfg.num_mel
        for t in (0, 17, 97):
            for j in range(13):
                acc = sum(
                    log_mel[t, i] * np.cos(np.pi * (2 * i + 1) * j / (2 * n))
                    for i in range(n)
                )
                scale = np.sqrt(1.0 / n) if j == 0 else np.sqrt(2.0 / n)
                assert got[t, j] == pytest.approx(scale * acc, abs=1e-9)

    def test_delta_blocks_are_deltas_of_static(self):
        wave = noise_wave(5)
        cfg = FrontEndConfig()
        static = mfcc(wave, cfg).data
        full = mfcc(wave, cfg, with_deltas=True).data
        np.testing.assert_array_equal(full[:, :13], static)
        np.testing.assert_allclose(full[:, 13:26], delta(static, 2), atol=1e-12)
        np.testing.assert_allclose(full[:, 26:], delta(static, 2, order=2), atol=1e-12)


class TestDelta:
    def test_matches_clamped_scalar_loop(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 3))
        for half_width in (1, 2, 3):
            got = delta(x, half_width)
            denom = 2.0 * sum(j * j for j in range(1, half_width + 1))
            for t in range(12):
                for c in range(3):
                    acc = 0.0
                    for j in range(1, half_width + 1):
                        hi = min(t + j, 11)
                        lo = max(t - j, 0)
                        acc += j * (x[hi, c] - x[lo, c])
                    assert got[t, c] == pytest.approx(acc / denom, abs=1e-12)

    def test_constant_is_zero(self):
        np.testing.assert_array_equal(delta(np.full((9, 4), 3.3), 2), 0.0)

    def test_ramp_recovers_slope(self):
        g = 0.75
        x = (g * np.arange(20))[:, None] * np.ones((1, 2))
        out = delta(x, 2)
        np.testing.assert_allclose(out[2:-2], g, atol=1e-12)

    def test_time_reversal_antisymmetry(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(15, 2))
        np.testing.assert_allclose(
            delta(x[::-1], 2), -delta(x, 2)[::-1], atol=1e-12
        )

    def test_order_two_is_double_application(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(10, 2))
        np.testing.assert_allclose(
            delta(x, 2, order=2), delta(delta(x, 2), 2), atol=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            delta(np.zeros((5, 2)), 0)
        with pytest.raises(ValueError):
            delta(np.zeros((5, 2)), 2, order=3)


def sdc_oracle(base, d, p, k):
    """Literal triple loop over (frame, block, coefficient) with clamping."""
    num_frames, n = base.shape
    out = np.zeros((num_frames, n * (k + 1)))
    for t in range(num_frames):
        out[t, :n] = base[t]
        for i in range(k):
            hi = min(max(t + i * p + d, 0), num_frames - 1)
            lo = min(max(t + i * p - d, 0), num_frames - 1)
            for c in range(n):
                out[t, n * (i + 1) + c] = base[hi, c] - base[lo, c]
    return out


class TestSdc:
    def test_matches_triple_loop(self):
        rng = np.random.default_rng(9)
        for d, p, k in [(1, 3, 8), (2, 1, 5), (3, 4, 2), (1, 1, 1)]:
            base = rng.normal(size=(25, 6))
            got = sdc(base, SdcConfig(6, d, p, k)).data
            np.testing.assert_array_equal(got, sdc_oracle(base, d, p, k))

    def test_default_width_360(self):
        feat = sdc(np.zeros((98, 40)), SdcConfig())
        assert feat.data.shape == (98, 360)
        assert SdcConfig().out_dim == 360

    def test_interior_ramp_blocks_equal_2dg(self):
        g = 0.4
        base = (g * np.arange(60))[:, None] * np.ones((1, 3))
        cfg = SdcConfig(3, 2, 3, 4)
        out = sdc(base, cfg).data
        # Frames whose every sampled index stays in range see slope 2*d*g.
        lo = cfg.d
        hi = 60 - ((cfg.k - 1) * cfg.p + cfg.d) - 1
        np.testing.assert_allclose(out[lo:hi, 3:], 2 * cfg.d * g, atol=1e-12)

    def test_column_mismatch_rejected(self):
        with pytest.raises(ConfigMismatch):
            sdc(np.zeros((10, 39)), SdcConfig(40, 1, 3, 8))

    def test_accepts_feature_matrix(self):
        base = FeatureMatrix(np.zeros((30, 40)), FeatureKind.MEL_SPEC)
        feat = sdc(base, SdcConfig())
        assert feat.kind == FeatureKind.SDC

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_configs_match_oracle(self, d, p, k, num_frames):
        rng = np.random.default_rng(d * 1000 + p * 100 + k * 10 + num_frames)
        base = rng.normal(size=(num_frames, 4))
        got = sdc(base, SdcConfig(4, d, p, k)).data
        np.testing.assert_array_equal(got, sdc_oracle(base, d, p, k))


class TestSdcConfig:
    def test_parse_round_trip(self):
        cfg = SdcConfig.parse("40-1-3-8")
        assert (cfg.n, cfg.d, cfg.p, cfg.k) == (40, 1, 3, 8)
        assert str(cfg) == "40-1-3-8"

    @pytest.mark.parametrize("text", ["40-1-3", "40-1-3-8-2", "a-1-3-8", "40"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            SdcConfig.parse(text)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SdcConfig(40, 0, 3, 8)


class TestBark:
    def test_round_trip(self):
        z = bark_scale(np.linspace(0.0, 8000.0, 100))
        np.testing.assert_allclose(bark_to_hz(z), np.linspace(0.0, 8000.0, 100),
                                   atol=1e-8)

    def test_twenty_bands_at_16k(self):
        assert bark_filterbank(512, SR).shape == (20, 257)

    def test_flat_top_and_truncation(self):
        fbank = bark_filterbank(512, SR)
        bin_bark = bark_scale(np.arange(257) * SR / 512)
        for c in range(20):
            dz = bin_bark - c
            flat = np.abs(dz) <= 0.5
            np.testing.assert_allclose(fbank[c][flat], 1.0)
            outside = (dz < -1.3) | (dz > 2.5)
            np.testing.assert_array_equal(fbank[c][outside], 0.0)

    def test_slopes(self):
        # 25 dB/bark rise below center, 10 dB/bark fall above.
        fbank = bark_filterbank(4096, SR)
        bin_bark = bark_scale(np.arange(2049) * SR / 4096)
        c = 10
        dz = bin_bark - c
        below = np.argmin(np.abs(dz + 1.0))
        above = np.argmin(np.abs(dz - 1.0))
        assert fbank[c, below] == pytest.approx(10.0 ** (2.5 * (dz[below] + 0.5)))
        assert fbank[c, above] == pytest.approx(10.0 ** (-(dz[above] - 0.5)))

    def test_values_in_unit_interval(self):
        fbank = bark_filterbank(512, SR)
        assert (fbank >= 0.0).all() and (fbank <= 1.0).all()


class TestEqualLoudness:
    def test_known_value_at_1khz(self):
        # (1e6 / 1.16e6)^2 * (2.44e6 / 10.61e6) evaluated by hand.
        assert equal_loudness(1000.0) == pytest.approx(0.170915, abs=1e-5)

    def test_zero_at_dc(self):
        assert equal_loudness(0.0) == 0.0

    def test_rises_through_speech_band(self):
        e = equal_loudness(np.array([100.0, 400.0, 1000.0, 2000.0]))
        assert (np.diff(e) > 0).all()


def levinson_durbin_loop(r, order):
    """Scalar Levinson-Durbin recursion on one autocorrelation row."""
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    for m in range(1, order + 1):
        acc = r[m] + a[1:m] @ r[m - 1 : 0 : -1]
        reflection = -acc / err
        a[1:m] += reflection * a[m - 1 : 0 : -1]
        a[m] = reflection
        err *= 1.0 - reflection * reflection
    return a, err


def lpc_to_cepstra_loop(a, err, num_cepstra):
    """Scalar LPC-to-cepstrum recursion on one model."""
    order = a.shape[0] - 1
    cep = np.zeros(num_cepstra)
    cep[0] = np.log(err)
    for n in range(1, num_cepstra):
        acc = 0.0
        for m in range(1, min(n, order + 1)):
            acc += (n - m) * a[m] * cep[n - m]
        direct = a[n] if n <= order else 0.0
        cep[n] = -(direct + acc / n)
    return cep


def bands_to_cepstra_loop(bands, centers_hz, num_cepstra, log_floor):
    """One frame at a time, the silence fallback for degenerate frames."""
    order = num_cepstra - 1
    autocorr = _bands_to_autocorr(bands, centers_hz, order)
    floor_bands = np.full((1, bands.shape[1]), log_floor)
    fallback = _bands_to_autocorr(floor_bands, centers_hz, order)[0]
    out = np.zeros((bands.shape[0], num_cepstra))
    for t, r in enumerate(autocorr):
        if not np.isfinite(r).all() or r[0] <= 0:
            r = fallback
        out[t] = lpc_to_cepstra_loop(*levinson_durbin_loop(r, order), num_cepstra)
    return out


def random_bands(seed, num_frames, num_bands, degenerate):
    """Log-uniform band powers; rows flagged degenerate get inf, nan or zeros."""
    rng = np.random.default_rng(seed)
    bands = 10.0 ** rng.uniform(-10.0, 6.0, size=(num_frames, num_bands))
    for t in np.flatnonzero(degenerate):
        kind = rng.integers(3)
        if kind == 2:
            bands[t] = 0.0
        else:
            bands[t, rng.integers(num_bands)] = np.inf if kind == 0 else np.nan
    return bands


class TestBatchedRecursions:
    @given(seed=st.integers(0, 2**32 - 1),
           degenerate=st.lists(st.booleans(), min_size=1, max_size=12),
           num_bands=st.integers(8, 24), num_cepstra=st.integers(1, 13))
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_row_matches_scalar_oracle(self, seed, degenerate, num_bands,
                                             num_cepstra):
        bands = random_bands(seed, len(degenerate), num_bands, np.array(degenerate))
        centers = bark_to_hz(np.arange(num_bands))
        got = _bands_to_cepstra(bands, centers, num_cepstra, 1e-10)
        want = bands_to_cepstra_loop(bands, centers, num_cepstra, 1e-10)
        # The arithmetic is the oracle's, each dot product summed in lag
        # order, so every row agrees bit for bit.
        np.testing.assert_array_equal(got, want)

    @given(seed=st.integers(0, 2**32 - 1),
           batch=st.lists(st.integers(1, 4), min_size=0, max_size=2),
           order=st.integers(0, 12), num_cepstra=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_any_batch_shape_matches_scalar_oracle(self, seed, batch, order,
                                                   num_cepstra):
        # Positive spectra give positive-definite autocorrelations.
        spectrum = np.random.default_rng(seed).uniform(0.05, 2.0, (*batch, 32))
        full = np.concatenate([spectrum, spectrum[..., -2:0:-1]], axis=-1)
        r = np.real(np.fft.ifft(full, axis=-1))[..., : order + 1]
        a, err = levinson_durbin(r, order)
        cep = lpc_to_cepstra(a, err, num_cepstra)
        assert a.shape == r.shape and np.shape(err) == tuple(batch)
        assert cep.shape == (*batch, num_cepstra)
        for idx in np.ndindex(*batch):
            a_row, err_row = levinson_durbin_loop(r[idx], order)
            np.testing.assert_array_equal(a[idx], a_row)
            assert err[idx] == err_row
            np.testing.assert_array_equal(
                cep[idx], lpc_to_cepstra_loop(a_row, err_row, num_cepstra))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_frame_does_not_depend_on_its_batch(self):
        bands = random_bands(3, 9, 20, np.arange(9) % 4 == 1)
        centers = bark_to_hz(np.arange(20))
        whole = _bands_to_cepstra(bands, centers, 13, 1e-10)
        perm = np.random.default_rng(4).permutation(9)
        shuffled = _bands_to_cepstra(bands[perm], centers, 13, 1e-10)
        np.testing.assert_array_equal(shuffled, whole[perm])
        for t in range(9):
            alone = _bands_to_cepstra(bands[t : t + 1], centers, 13, 1e-10)
            np.testing.assert_array_equal(alone[0], whole[t])

    def test_rejects_any_nonpositive_leading_lag(self):
        r = np.array([[1.0, 0.5], [0.0, 0.0], [2.0, 0.1]])
        with pytest.raises(ValueError):
            levinson_durbin(r, 1)


class TestLevinsonDurbin:
    def test_matches_normal_equation_solve(self):
        rng = np.random.default_rng(10)
        # Positive-definite autocorrelation from a random spectrum.
        spectrum = rng.uniform(0.5, 2.0, size=64)
        full = np.concatenate([spectrum, spectrum[-2:0:-1]])
        r = np.real(np.fft.ifft(full))[:13]
        a, err = levinson_durbin(r, 12)
        toeplitz = np.array([[r[abs(i - j)] for j in range(12)] for i in range(12)])
        direct = np.linalg.solve(toeplitz, -r[1:13])
        np.testing.assert_allclose(a[1:], direct, atol=1e-9)
        assert err == pytest.approx(r[0] + direct @ r[1:13], abs=1e-9)

    def test_white_noise(self):
        a, err = levinson_durbin(np.array([2.0, 0.0, 0.0, 0.0]), 3)
        np.testing.assert_allclose(a, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
        assert err == pytest.approx(2.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            levinson_durbin(np.array([0.0, 0.0]), 1)
        with pytest.raises(ValueError):
            levinson_durbin(np.array([1.0, 0.5]), 2)


class TestLpcToCepstra:
    def test_matches_dense_spectrum_cepstrum(self):
        # Oracle: sample ln(err / |A|^2) densely; its inverse DFT is the
        # real cepstrum, whose nonnegative lags the recursion reproduces.
        r = np.array([1.0, 0.5, 0.2, 0.05])
        a, err = levinson_durbin(r, 3)
        cep = lpc_to_cepstra(a, err, 13)
        n = 8192
        z = np.exp(-2j * np.pi * np.arange(n) / n)
        response = np.polyval(a[::-1], z)
        c_hat = np.real(np.fft.ifft(np.log(err / np.abs(response) ** 2)))
        assert cep[0] == pytest.approx(c_hat[0], abs=1e-9)
        np.testing.assert_allclose(cep[1:], c_hat[1:13], atol=1e-9)

    def test_gain_only_model(self):
        cep = lpc_to_cepstra(np.array([1.0]), np.e, 5)
        np.testing.assert_allclose(cep, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)


class TestPlp:
    def test_shape(self):
        feat = plp(noise_wave(11), FrontEndConfig())
        assert feat.data.shape == (98, 13)
        assert feat.kind == FeatureKind.PLP

    def test_gain_moves_only_c0(self):
        # Cube-root compression turns an 8x power gain into a clean
        # (1/3) ln 64 shift of c0, leaving the envelope untouched.
        cfg = FrontEndConfig()
        rng = np.random.default_rng(12)
        x = 0.1 * rng.normal(size=SR)
        base = plp(Waveform(x, SR), cfg).data
        loud = plp(Waveform(2.0 * x, SR), cfg).data
        np.testing.assert_allclose(loud[:, 0] - base[:, 0], np.log(4.0) / 3.0,
                                   atol=1e-9)
        np.testing.assert_allclose(loud[:, 1:], base[:, 1:], atol=1e-9)

    def test_matches_independent_chain(self):
        # Full dual route: bark bands -> equal loudness -> cube root ->
        # edge duplication -> symmetric inverse DFT -> Toeplitz solve ->
        # dense-spectrum cepstrum, all without the production AR code.
        cfg = FrontEndConfig()
        wave = noise_wave(13)
        feat = plp(wave, cfg).data
        from sdckws.features import _critical_bands

        bands, centers = _critical_bands(wave, cfg)
        for t in (0, 41, 97):
            comp = (equal_loudness(centers) * bands[t]) ** (1.0 / 3.0)
            comp[0] = comp[1]
            comp[-1] = comp[-2]
            full = np.concatenate([comp, comp[-2:0:-1]])
            r = np.real(np.fft.ifft(full))[:13]
            toeplitz = np.array(
                [[r[abs(i - j)] for j in range(12)] for i in range(12)]
            )
            coefs = np.linalg.solve(toeplitz, -r[1:13])
            a = np.concatenate(([1.0], coefs))
            err = r[0] + coefs @ r[1:13]
            z = np.exp(-2j * np.pi * np.arange(8192) / 8192)
            response = np.polyval(a[::-1], z)
            c_hat = np.real(np.fft.ifft(np.log(err / np.abs(response) ** 2)))
            oracle = np.concatenate(([c_hat[0]], c_hat[1:13]))
            np.testing.assert_allclose(feat[t], oracle, atol=1e-6)


    def test_plp_lags_bound_the_cepstra(self):
        wave = noise_wave(14)
        lags = plp_lags(SR)
        assert plp(wave, FrontEndConfig(num_cepstra=lags)).dim == lags
        with pytest.raises(ValueError, match="autocorrelation lags"):
            plp(wave, FrontEndConfig(num_cepstra=lags + 1))


class TestRastaFilter:
    def test_constant_input_zero_after_warmup(self):
        out = rasta_filter(np.full((60, 5), 2.7))
        np.testing.assert_array_equal(out[:4], 0.0)
        assert np.abs(out[4:]).max() < 1e-12

    def test_acceptance_scale_dc_rejection(self):
        out = rasta_filter(np.full((60, 20), -3.1))
        assert np.abs(out[50:]).max() < 1e-3

    def test_offset_invariance_after_warmup(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(50, 4))
        np.testing.assert_allclose(
            rasta_filter(x + 5.0)[4:], rasta_filter(x)[4:], atol=1e-10
        )

    def test_shape_preserved_and_1d(self):
        assert rasta_filter(np.zeros((30, 7))).shape == (30, 7)
        assert rasta_filter(np.zeros(30)).shape == (30,)

    def test_unit_peak_gain(self):
        # Drive with the filter's own peak frequency; steady-state
        # amplitude must approach one.
        from sdckws.features import _RASTA_NUM, _RASTA_DEN

        w, h = scipy.signal.freqz(_RASTA_NUM, _RASTA_DEN, worN=8192)
        assert np.abs(h).max() == pytest.approx(1.0, abs=1e-9)


def lfilter_rasta(trajectories):
    """rasta_filter as two scipy.signal.lfilter calls: FIR warm-up, then IIR."""
    x = np.asarray(trajectories, dtype=np.float64)
    out = np.zeros_like(x)
    warm = min(4, x.shape[0])
    _, state = scipy.signal.lfilter(
        _RASTA_NUM, [1.0], x[:warm], axis=0,
        zi=np.zeros((len(_RASTA_NUM) - 1,) + x.shape[1:]),
    )
    if x.shape[0] > warm:
        out[warm:], _ = scipy.signal.lfilter(
            _RASTA_NUM, _RASTA_DEN, x[warm:], axis=0, zi=state
        )
    return out


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRastaAgainstScipy:
    """The numpy filter and its gain equal scipy's, byte for byte."""

    def test_coefficients_match_freqz(self):
        denominator = np.array([1.0, -RASTA_POLE])
        _, h = scipy.signal.freqz(_RASTA_NUMERATOR_SHAPE, denominator, worN=8192)
        assert _RASTA_NUM.tobytes() == (
            _RASTA_NUMERATOR_SHAPE / np.abs(h).max()).tobytes()
        assert _RASTA_DEN.tobytes() == denominator.tobytes()

    @pytest.mark.parametrize("frames", [*range(1, 12), 50, 98, 300])
    def test_matches_lfilter(self, frames):
        rng = np.random.default_rng(frames)
        inputs = [np.full((frames, 5), value) for value in (0.0, -0.0, 2.7, -3.1)]
        for scale in (1e-3, 1.0, 1e3):
            inputs += [scale * rng.normal(size=(frames, 17)),
                       scale * rng.normal(size=frames)]
        inputs.append(np.asfortranarray(inputs[-2]))
        for x in inputs:
            assert same_bits(rasta_filter(x), lfilter_rasta(x))

    @pytest.mark.parametrize("values,frames", [
        ((0.0, -0.0, 1.0, -1.0), 9),
        ((0.0, -0.0, 5e-324, -1.0, 1e-300), 7),
    ])
    def test_every_sign_pattern_of_short_inputs(self, values, frames):
        # Each column is one sequence: every way to place signed zeros,
        # subnormals and ones in the warm-up and the first IIR frames.
        grid = np.indices((len(values),) * frames).reshape(frames, -1)
        x = np.array(values)[grid]
        assert same_bits(rasta_filter(x), lfilter_rasta(x))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40),
        # Finite and far from overflow, as log band energies are.
        elements=st.sampled_from([0.0, -0.0, 1.0])
        | st.floats(min_value=-1e6, max_value=1e6),
    ))
    def test_property_matches_lfilter(self, x):
        assert same_bits(rasta_filter(x), lfilter_rasta(x))

    def test_rasta_plp_unchanged_on_noise(self):
        cfg = FrontEndConfig()
        for seed in range(20):
            feat = rasta_plp(noise_wave(100 + seed), cfg)
            bands, centers_hz = _critical_bands(noise_wave(100 + seed), cfg)
            filtered = np.exp(lfilter_rasta(np.log(bands)))
            want = _bands_to_cepstra(filtered, centers_hz, cfg.num_cepstra,
                                     cfg.log_floor)
            assert same_bits(feat.data, want)


class TestRastaPlp:
    def test_shape(self):
        feat = rasta_plp(noise_wave(15), FrontEndConfig())
        assert feat.data.shape == (98, 13)
        assert feat.kind == FeatureKind.RASTA_PLP

    def test_more_channel_robust_than_plp(self):
        # A fixed LTI channel shifts log band energies; the band-pass
        # trajectory filter strips that component.
        cfg = FrontEndConfig()
        rng = np.random.default_rng(16)
        x = 0.3 * rng.normal(size=SR)
        y = scipy.signal.lfilter([1.0, 0.6], [1.0], x)
        d_plp = np.abs(
            plp(Waveform(x, SR), cfg).data[20:] - plp(Waveform(y, SR), cfg).data[20:]
        ).mean()
        d_rasta = np.abs(
            rasta_plp(Waveform(x, SR), cfg).data[20:]
            - rasta_plp(Waveform(y, SR), cfg).data[20:]
        ).mean()
        assert d_rasta < 0.2 * d_plp


class TestFrontEndDims:
    @pytest.mark.parametrize(
        "name,dim",
        [("mel", 40), ("mfcc", 13), ("mfcc-dd", 39), ("plp", 13),
         ("rasta-plp", 13), ("sdc", 360)],
    )
    def test_one_second_dims(self, name, dim):
        kind = FEATURE_NAMES[name]
        cfg = FrontEndConfig()
        front = make_front_end(kind, cfg)
        feat = front(noise_wave(17))
        assert feat.data.shape == (98, dim)
        assert feature_dim(kind, cfg) == dim

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("name", list(FEATURE_NAMES))
    def test_overflowing_power_is_non_finite_value(self, name):
        wave = Waveform(1e200 * np.random.default_rng(19).normal(size=SR), SR)
        front = make_front_end(FEATURE_NAMES[name], FrontEndConfig())
        with pytest.raises(NonFiniteValue, match="power spectrum overflows"):
            front(wave)

    def test_sdc_base_must_match_num_mel(self):
        with pytest.raises(ConfigMismatch):
            make_front_end(FeatureKind.SDC, FrontEndConfig(), SdcConfig(39, 1, 3, 8))

    def test_frame_geometry(self):
        cfg = FrontEndConfig()
        assert cfg.frame_len(SR) == 400
        assert cfg.hop(SR) == 160

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FrontEndConfig(frame_ms=10.0, hop_ms=10.0)
        with pytest.raises(ValueError):
            FrontEndConfig(num_mel=0)
        with pytest.raises(ValueError, match="frame_ms"):
            FrontEndConfig(frame_ms=float("nan"))
        with pytest.raises(ValueError, match="log_floor"):
            FrontEndConfig(log_floor=float("inf"))
        with pytest.raises(ValueError, match="pre_emphasis"):
            FrontEndConfig(pre_emphasis=1.0)

    def test_determinism(self):
        wave = noise_wave(18)
        front = make_front_end(FeatureKind.SDC, FrontEndConfig())
        np.testing.assert_array_equal(front(wave).data, front(wave).data)


class TestFeatureMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[1.0, np.nan]]), FeatureKind.MFCC)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros(5), FeatureKind.MFCC)


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        feat = FeatureMatrix(rng.normal(size=(17, 9)), FeatureKind.PLP)
        path = tmp_path / "f.kwsf"
        write_features(path, feat)
        back = read_features(path)
        assert back.kind == FeatureKind.PLP
        np.testing.assert_array_equal(
            back.data, feat.data.astype(np.float32).astype(np.float64)
        )

    def test_bytes_are_header_then_c_order_float32(self, tmp_path):
        import struct

        data = np.random.default_rng(20).normal(size=(9, 5))
        want = (struct.pack("<4sHHII", b"KWSF", 1, int(FeatureKind.MFCC), 9, 5)
                + data.astype("<f4").tobytes())
        for source in (data, np.asfortranarray(data)):
            path = tmp_path / "f.kwsf"
            write_features(path, FeatureMatrix(source, FeatureKind.MFCC))
            assert path.read_bytes() == want

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "f.kwsf"
        path.write_bytes(b"KWS")
        with pytest.raises(FormatError):
            read_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.kwsf"
        write_features(path, FeatureMatrix(np.zeros((2, 2)), FeatureKind.MFCC))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.kwsf"
        write_features(path, FeatureMatrix(np.ones((3, 4)), FeatureKind.MFCC))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError):
            read_features(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "f.kwsf"
        write_features(path, FeatureMatrix(np.ones((3, 4)), FeatureKind.MFCC))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_features(path)

    def test_unknown_kind(self, tmp_path):
        import struct

        path = tmp_path / "f.kwsf"
        path.write_bytes(struct.pack("<4sHHII", b"KWSF", 1, 99, 0, 0))
        with pytest.raises(FormatError):
            read_features(path)

    def test_unsupported_version(self, tmp_path):
        import struct

        path = tmp_path / "f.kwsf"
        path.write_bytes(struct.pack("<4sHHII", b"KWSF", 2, 1, 0, 0))
        with pytest.raises(FormatError):
            read_features(path)

    def test_non_finite_payload_names_the_file(self, tmp_path):
        path = tmp_path / "f.kwsf"
        write_features(path, FeatureMatrix(np.ones((3, 4)), FeatureKind.MFCC))
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="f.kwsf"):
            read_features(path)
