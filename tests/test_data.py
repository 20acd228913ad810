"""Audio IO, tokenization, manifests, batching, and the tone synthesizer."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sdckws.data import (
    ALPHABET,
    SAMPLE_RATE,
    char_tones,
    load_manifest,
    make_batches,
    read_wav,
    render_keyword,
    synth_dataset,
    tokenize,
    write_wav,
)
from sdckws.dsp import Waveform
from sdckws.errors import (
    EmptyDataset,
    FormatError,
    KwsError,
    ManifestError,
    TokenizeError,
    UnsupportedFormat,
)
from sdckws.features import FeatureKind, FeatureMatrix


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Hey") == [7, 4, 24]

    def test_single_char(self):
        assert tokenize("a") == [0]

    def test_space_and_apostrophe(self):
        assert tokenize("don't go") == [3, 14, 13, 27, 19, 26, 6, 14]

    def test_alphabet_order(self):
        assert len(ALPHABET) == 28
        assert ALPHABET[0] == "a"
        assert ALPHABET[25] == "z"
        assert ALPHABET[26] == " "
        assert ALPHABET[27] == "'"

    def test_unknown_char(self):
        with pytest.raises(TokenizeError):
            tokenize("a#b")

    def test_empty(self):
        with pytest.raises(TokenizeError):
            tokenize("")

    def test_case_insensitive(self):
        assert tokenize("ABC") == tokenize("abc")


def raw_riff(path, channels, rate, bits, payload):
    """Hand-packed RIFF/WAVE writer, independent of the wave module."""
    block_align = channels * bits // 8
    fmt = struct.pack(
        "<4sIHHIIHH", b"fmt ", 16, 1, channels, rate,
        rate * block_align, block_align, bits,
    )
    data = struct.pack("<4sI", b"data", len(payload)) + payload
    body = b"WAVE" + fmt + data
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4sI", b"RIFF", len(body)) + body)


class TestWavIo:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=500)
        wave = Waveform(ints / 32768.0, SAMPLE_RATE)
        path = tmp_path / "a.wav"
        write_wav(path, wave)
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, wave.samples)
        assert back.sample_rate == SAMPLE_RATE

    def test_known_scaling(self, tmp_path):
        path = tmp_path / "b.wav"
        write_wav(path, Waveform(np.array([0.0, 0.5, -1.0]), SAMPLE_RATE))
        np.testing.assert_array_equal(read_wav(path).samples, [0.0, 0.5, -1.0])

    def test_out_of_range_clipped(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(path, Waveform(np.array([1.5, -1.5]), SAMPLE_RATE))
        np.testing.assert_array_equal(
            read_wav(path).samples, [32767.0 / 32768.0, -1.0]
        )

    def test_payload_bytes_match_struct_oracle(self, tmp_path):
        # The file must literally contain the little-endian int16 payload.
        samples = np.array([0, 16384, -32768, 1], dtype=np.int16)
        path = tmp_path / "d.wav"
        write_wav(path, Waveform(samples / 32768.0, SAMPLE_RATE))
        blob = path.read_bytes()
        assert blob[:4] == b"RIFF"
        assert blob[8:12] == b"WAVE"
        assert samples.astype("<i2").tobytes() in blob

    def test_reads_hand_packed_riff(self, tmp_path):
        path = tmp_path / "e.wav"
        payload = np.array([100, -200, 300], dtype="<i2").tobytes()
        raw_riff(path, channels=1, rate=SAMPLE_RATE, bits=16, payload=payload)
        wave = read_wav(path)
        np.testing.assert_allclose(
            wave.samples, np.array([100, -200, 300]) / 32768.0
        )

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "f.wav"
        payload = np.zeros(8, dtype="<i2").tobytes()
        raw_riff(path, channels=2, rate=SAMPLE_RATE, bits=16, payload=payload)
        with pytest.raises(UnsupportedFormat, match="channels"):
            read_wav(path)

    def test_wrong_rate_rejected(self, tmp_path):
        path = tmp_path / "g.wav"
        raw_riff(path, channels=1, rate=8000, bits=16,
                 payload=np.zeros(4, dtype="<i2").tobytes())
        with pytest.raises(UnsupportedFormat, match="rate"):
            read_wav(path)

    def test_eight_bit_rejected(self, tmp_path):
        path = tmp_path / "h.wav"
        raw_riff(path, channels=1, rate=SAMPLE_RATE, bits=8,
                 payload=b"\x80" * 16)
        with pytest.raises(UnsupportedFormat, match="width"):
            read_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "i.wav"
        path.write_bytes(b"this is not audio at all")
        with pytest.raises(FormatError):
            read_wav(path)


    @pytest.mark.parametrize("cut", [False, True],
                             ids=["size-past-end", "file-cut-short"])
    def test_fewer_samples_than_declared_rejected(self, tmp_path, cut):
        path = tmp_path / "short.wav"
        write_wav(path, Waveform(np.linspace(-0.5, 0.5, 400), SAMPLE_RATE))
        blob = bytearray(path.read_bytes())
        assert blob[36:40] == b"data"
        if cut:
            blob = blob[:44 + 500]  # 250 of the 400 declared samples
        else:
            blob[40:44] = struct.pack("<I", 100000)
        path.write_bytes(bytes(blob))
        held = 250 if cut else 400
        declared = 400 if cut else 50000
        with pytest.raises(FormatError,
                           match=f"short.wav: header declares {declared}"
                                 f" samples, file holds {held}"):
            read_wav(path)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)),
                          min_size=1, max_size=3))
    @example(edits=[(18, 1)])  # fmt chunk size past the end of the file
    def test_header_edits_raise_only_typed_errors(self, tmp_path, edits):
        path = tmp_path / "edited.wav"
        write_wav(path, Waveform(np.linspace(-0.5, 0.5, 400), SAMPLE_RATE))
        blob = bytearray(path.read_bytes())
        for offset, value in edits:
            blob[offset] = value
        path.write_bytes(bytes(blob))
        try:
            read_wav(path)
        except KwsError as exc:
            assert "edited.wav" in str(exc)


def write_manifest(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


@pytest.fixture
def wav_dir(tmp_path):
    rng = np.random.default_rng(1)
    for name in ("x.wav", "y.wav"):
        write_wav(tmp_path / name,
                  Waveform(0.1 * rng.normal(size=SAMPLE_RATE), SAMPLE_RATE))
    return tmp_path


class TestLoadManifest:
    def test_valid(self, wav_dir):
        path = wav_dir / "m.jsonl"
        write_manifest(path, [
            {"audio": "x.wav", "text": "hello", "label": 1},
            {"audio": "y.wav", "text": "world", "label": 0},
        ])
        examples = load_manifest(path)
        assert len(examples) == 2
        assert examples[0].text == "hello"
        assert examples[0].label == 1
        assert os.path.isabs(examples[0].audio_ref)

    def test_relative_paths_resolve_against_manifest(self, wav_dir, monkeypatch):
        path = wav_dir / "m.jsonl"
        write_manifest(path, [{"audio": "x.wav", "text": "a", "label": 1}])
        monkeypatch.chdir("/")
        examples = load_manifest(path)
        assert os.path.isfile(examples[0].audio_ref)

    def test_bad_label_reports_line(self, wav_dir):
        path = wav_dir / "m.jsonl"
        write_manifest(path, [
            {"audio": "x.wav", "text": "a", "label": 1},
            {"audio": "y.wav", "text": "b", "label": 2},
        ])
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(path)

    def test_bool_label_rejected(self, wav_dir):
        path = wav_dir / "m.jsonl"
        write_manifest(path, [{"audio": "x.wav", "text": "a", "label": True}])
        with pytest.raises(ManifestError, match="label"):
            load_manifest(path)

    def test_missing_field(self, wav_dir):
        path = wav_dir / "m.jsonl"
        write_manifest(path, [{"audio": "x.wav", "label": 1}])
        with pytest.raises(ManifestError, match="text"):
            load_manifest(path)

    def test_invalid_json_reports_line(self, wav_dir):
        path = wav_dir / "m.jsonl"
        path.write_text('{"audio": "x.wav", "text": "a", "label": 1}\nnot json\n')
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(path)

    def test_non_object_line(self, wav_dir):
        path = wav_dir / "m.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ManifestError, match="object"):
            load_manifest(path)

    def test_missing_audio_file(self, wav_dir):
        path = wav_dir / "m.jsonl"
        write_manifest(path, [{"audio": "gone.wav", "text": "a", "label": 1}])
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(path)

    def test_non_string_audio_reports_line(self, wav_dir):
        path = wav_dir / "m.jsonl"
        write_manifest(path, [
            {"audio": "x.wav", "text": "a", "label": 1},
            {"audio": 5, "text": "b", "label": 0},
        ])
        with pytest.raises(ManifestError, match="line 2: audio"):
            load_manifest(path)

    def test_text_outside_alphabet_reports_line(self, wav_dir):
        path = wav_dir / "m.jsonl"
        write_manifest(path, [
            {"audio": "x.wav", "text": "ab", "label": 1},
            {"audio": "y.wav", "text": "ab1", "label": 0},
        ])
        with pytest.raises(ManifestError,
                           match=r"m\.jsonl line 2: text 'ab1': character '1'"):
            load_manifest(path)

    def test_non_utf8_manifest_names_the_file(self, wav_dir):
        path = wav_dir / "m.jsonl"
        path.write_bytes(b'{"audio": "x.wav", "text": "a\xff", "label": 1}\n')
        with pytest.raises(ManifestError, match=r"m\.jsonl: not UTF-8"):
            load_manifest(path)

    def test_empty_text_rejected(self, wav_dir):
        path = wav_dir / "m.jsonl"
        write_manifest(path, [{"audio": "x.wav", "text": "", "label": 1}])
        with pytest.raises(ManifestError, match="text"):
            load_manifest(path)

    def test_empty_manifest(self, wav_dir):
        path = wav_dir / "m.jsonl"
        path.write_text("")
        with pytest.raises(EmptyDataset):
            load_manifest(path)

    def test_blank_lines_skipped(self, wav_dir):
        path = wav_dir / "m.jsonl"
        path.write_text(
            '\n{"audio": "x.wav", "text": "a", "label": 1}\n\n'
        )
        assert len(load_manifest(path)) == 1


def fake_front_end(counter=None):
    """Deterministic stand-in front-end: frame count from file size."""

    def front(wave):
        if counter is not None:
            counter.append(1)
        frames = 3 + wave.num_samples % 5
        data = np.outer(np.arange(frames) + 1.0, np.ones(4)) * wave.samples[0]
        return FeatureMatrix(data, FeatureKind.MEL_SPEC)

    return front


@pytest.fixture
def small_manifest(tmp_path):
    rng = np.random.default_rng(2)
    records = []
    for i in range(7):
        name = f"u{i}.wav"
        samples = 0.05 * rng.normal(size=1000 + 7 * i)
        samples[0] = 0.5 + i  # marks which file a feature row came from
        write_wav(tmp_path / name, Waveform(samples, SAMPLE_RATE))
        records.append({"audio": name, "text": "ab"[i % 2] * (1 + i % 3),
                        "label": i % 2})
    path = tmp_path / "m.jsonl"
    write_manifest(path, records)
    return load_manifest(path)


class TestMakeBatches:
    def test_batch_count_and_sizes(self, small_manifest):
        batches = list(make_batches(small_manifest, fake_front_end(), 3, seed=0))
        assert [b.size for b in batches] == [3, 3, 1]

    def test_eval_preserves_order(self, small_manifest):
        batches = list(
            make_batches(small_manifest, fake_front_end(), 4, seed=0, mode="eval")
        )
        labels = np.concatenate([b.labels for b in batches])
        np.testing.assert_array_equal(
            labels, [ex.label for ex in small_manifest]
        )

    def test_train_order_is_seeded_permutation(self, small_manifest):
        def order(seed):
            batches = make_batches(small_manifest, fake_front_end(), 7, seed=seed)
            return next(iter(batches)).labels

    # same seed reproduces, different seed (eventually) differs
        np.testing.assert_array_equal(order(5), order(5))
        assert any(
            not np.array_equal(order(5), order(other)) for other in (6, 7, 8)
        )

    def test_padding_is_exactly_zero(self, small_manifest):
        for batch in make_batches(small_manifest, fake_front_end(), 4, seed=1):
            for i in range(batch.size):
                t = batch.feature_lengths[i]
                np.testing.assert_array_equal(batch.features[i, t:], 0.0)
                n = batch.token_lengths[i]
                np.testing.assert_array_equal(batch.tokens[i, n:], 0)

    def test_features_survive_padding(self, small_manifest):
        front = fake_front_end()
        cache = {}
        batches = list(make_batches(small_manifest, front, 2, seed=2,
                                    mode="eval", feature_cache=cache))
        flat = [(b.features[i], b.feature_lengths[i])
                for b in batches for i in range(b.size)]
        for example, (padded, length) in zip(small_manifest, flat):
            expect = cache[example.audio_ref].data
            assert length == expect.shape[0]
            np.testing.assert_allclose(padded[:length], expect, atol=1e-6)

    def test_masks_match_lengths(self, small_manifest):
        batch = next(iter(make_batches(small_manifest, fake_front_end(), 7,
                                       seed=3)))
        np.testing.assert_array_equal(
            batch.token_mask().sum(axis=1), batch.token_lengths
        )

    def test_cache_reads_each_file_once(self, small_manifest):
        calls = []
        cache = {}
        for _ in range(3):  # three epochs
            for _ in make_batches(small_manifest, fake_front_end(calls), 3,
                                  seed=4, feature_cache=cache):
                pass
        assert len(calls) == len(small_manifest)

    def test_dtypes(self, small_manifest):
        batch = next(iter(make_batches(small_manifest, fake_front_end(), 7,
                                       seed=5)))
        assert batch.features.dtype == np.float32
        assert batch.tokens.dtype == np.int64
        assert batch.labels.dtype == np.float32

    def test_validation(self, small_manifest):
        with pytest.raises(ValueError):
            list(make_batches(small_manifest, fake_front_end(), 0, seed=0))
        with pytest.raises(ValueError):
            list(make_batches(small_manifest, fake_front_end(), 2, seed=0,
                              mode="test"))


def dominant_freqs(samples, num_chars, sample_rate=SAMPLE_RATE):
    """Per-character dominant tones in each family band via the DFT."""
    # Low tones span 300-1380 Hz, high tones 1600-3760 Hz; split between.
    seg_len = samples.shape[0] // num_chars
    out = []
    for c in range(num_chars):
        seg = samples[c * seg_len : (c + 1) * seg_len]
        spectrum = np.abs(np.fft.rfft(seg, n=1 << 16))
        freqs = np.arange(spectrum.shape[0]) * sample_rate / (1 << 16)
        low = freqs < 1500.0
        out.append((freqs[low][spectrum[low].argmax()],
                    freqs[~low][spectrum[~low].argmax()]))
    return out


class TestRenderKeyword:
    def test_length_scales_with_text(self):
        rng = np.random.default_rng(3)
        short = render_keyword("ab", np.random.default_rng(4))
        long = render_keyword("abcd", np.random.default_rng(4))
        assert long.num_samples == 2 * short.num_samples

    def test_tempo_jitter_bounds(self):
        lengths = {
            render_keyword("abc", np.random.default_rng(seed)).num_samples
            for seed in range(30)
        }
        nominal = 3 * int(round(0.06 * SAMPLE_RATE))
        assert min(lengths) >= int(nominal * 0.9) - 3
        assert max(lengths) <= int(nominal * 1.1) + 3
        assert len(lengths) > 1  # jitter actually varies

    def test_characters_sound_as_their_tone_pairs(self):
        wave = render_keyword("adz", np.random.default_rng(5))
        got = dominant_freqs(wave.samples, 3)
        for (low, high), index in zip(got, tokenize("adz")):
            want_low, want_high = char_tones(index)
            assert abs(low - want_low) < 20.0
            assert abs(high - want_high) < 30.0

    def test_different_keywords_sound_different(self):
        a = render_keyword("ab", np.random.default_rng(6))
        b = render_keyword("zy", np.random.default_rng(6))
        fa = dominant_freqs(a.samples, 2)
        fb = dominant_freqs(b.samples, 2)
        assert all(abs(x[0] - y[0]) > 100.0 for x, y in zip(fa, fb))

    def test_samples_in_range(self):
        wave = render_keyword("hello world", np.random.default_rng(7))
        assert wave.samples.max() < 1.0
        assert wave.samples.min() >= -1.0


class TestSynthDataset:
    def test_counts(self, tmp_path):
        manifest = load_manifest(
            synth_dataset(["ab", "cd", "ef", "gh"], 25, 1.0, 9, tmp_path / "d")
        )
        assert len(manifest) == 200
        assert sum(ex.label for ex in manifest) == 100

    def test_negatives_reuse_positive_audio_with_wrong_text(self, tmp_path):
        manifest = load_manifest(
            synth_dataset(["abc", "xyz"], 3, 1.0, 10, tmp_path / "d")
        )
        positives = {ex.audio_ref: ex.text for ex in manifest if ex.label == 1}
        negatives = [ex for ex in manifest if ex.label == 0]
        assert negatives
        for ex in negatives:
            assert ex.audio_ref in positives
            assert ex.text != positives[ex.audio_ref]

    def test_same_seed_byte_identical(self, tmp_path):
        first = synth_dataset(["ab", "cd"], 4, 1.0, 11, tmp_path / "one")
        second = synth_dataset(["ab", "cd"], 4, 1.0, 11, tmp_path / "two")
        assert (
            open(first, "rb").read() == open(second, "rb").read()
        )
        for name in sorted(os.listdir(tmp_path / "one" / "wavs")):
            a = (tmp_path / "one" / "wavs" / name).read_bytes()
            b = (tmp_path / "two" / "wavs" / name).read_bytes()
            assert a == b, name

    def test_different_seed_differs(self, tmp_path):
        first = synth_dataset(["ab", "cd"], 2, 0.0, 12, tmp_path / "one")
        second = synth_dataset(["ab", "cd"], 2, 0.0, 13, tmp_path / "two")
        names = sorted(os.listdir(tmp_path / "one" / "wavs"))
        assert any(
            (tmp_path / "one" / "wavs" / n).read_bytes()
            != (tmp_path / "two" / "wavs" / n).read_bytes()
            for n in names
        )

    def test_fractional_negative_ratio(self, tmp_path):
        manifest = load_manifest(
            synth_dataset(["ab", "cd"], 4, 0.5, 14, tmp_path / "d")
        )
        assert sum(1 - ex.label for ex in manifest) == 4

    def test_tone_table_written(self, tmp_path):
        synth_dataset(["ab", "cd"], 1, 0.0, 15, tmp_path / "d")
        table = (tmp_path / "d" / "tones.txt").read_text()
        assert "f_low_hz" in table
        assert "<space>" in table

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            synth_dataset(["solo"], 2, 1.0, 0, tmp_path / "d")
        with pytest.raises(ValueError):
            synth_dataset(["same", "same"], 2, 1.0, 0, tmp_path / "d")
        with pytest.raises(ValueError):
            synth_dataset(["ab", "cd"], 0, 1.0, 0, tmp_path / "d")
        with pytest.raises(ValueError):
            synth_dataset(["ab", "cd"], 2, -0.5, 0, tmp_path / "d")
