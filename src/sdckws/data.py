"""Audio ingestion, tokenization, manifests, batching, and synthesis.

Audio is RIFF PCM 16-bit mono at 16 kHz. Manifests are JSONL with one
{"audio", "text", "label"} object per line; audio paths resolve
relative to the manifest file. The synthetic generator renders each
character as a fixed two-tone segment so that audio-text agreement is
genuinely learnable at desk scale.
"""

from __future__ import annotations

import json
import os
import string
import wave as wave_module
from dataclasses import dataclass

import numpy as np

from .dsp import Waveform
from .errors import (
    EmptyDataset,
    FormatError,
    IoError,
    ManifestError,
    TokenizeError,
    UnsupportedFormat,
)

SAMPLE_RATE = 16000

# Index order is fixed: a-z take 0-25, then space, then apostrophe.
ALPHABET = string.ascii_lowercase + " '"
_CHAR_TO_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}


def tokenize(text: str) -> list[int]:
    """Map text to alphabet indices after lowercasing."""
    if not text:
        raise TokenizeError("cannot tokenize empty text")
    indices = []
    for ch in text.lower():
        if ch not in _CHAR_TO_INDEX:
            raise TokenizeError(f"character {ch!r} is not in the alphabet")
        indices.append(_CHAR_TO_INDEX[ch])
    return indices


def read_wav(path, expected_rate: int = SAMPLE_RATE) -> Waveform:
    """Read RIFF PCM 16-bit mono audio, scaling samples by 1/32768."""
    try:
        with wave_module.open(str(path), "rb") as handle:
            if handle.getcomptype() != "NONE":
                raise UnsupportedFormat(
                    f"{path}: compression type {handle.getcomptype()!r}, need PCM"
                )
            if handle.getsampwidth() != 2:
                raise UnsupportedFormat(
                    f"{path}: sample width {handle.getsampwidth()} bytes, need 2"
                )
            if handle.getnchannels() != 1:
                raise UnsupportedFormat(
                    f"{path}: {handle.getnchannels()} channels, need mono"
                )
            if handle.getframerate() != expected_rate:
                raise UnsupportedFormat(
                    f"{path}: sample rate {handle.getframerate()},"
                    f" need {expected_rate}"
                )
            raw = handle.readframes(handle.getnframes())
    except (wave_module.Error, EOFError) as exc:
        raise FormatError(
            f"{path}: {str(exc) or 'file ends inside the RIFF header'}") from None
    except RuntimeError:  # wave's seek past the size a chunk declares
        raise FormatError(f"{path}: corrupt chunk size") from None
    if len(raw) % 2:
        raise FormatError(f"{path}: file ends inside a sample")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, expected_rate)


def write_wav(path, wave: Waveform) -> None:
    """Write mono PCM 16-bit audio; samples are clipped to the int16 range."""
    scaled = np.rint(wave.samples * 32768.0)
    samples = np.clip(scaled, -32768, 32767).astype("<i2")
    with wave_module.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(wave.sample_rate)
        handle.writeframes(samples.tobytes())


@dataclass(frozen=True)
class Example:
    """One (audio file, keyword text, label) pair."""

    audio_ref: str
    text: str
    label: int


def load_manifest(path) -> list[Example]:
    """Read a JSONL manifest, validating fields, text and file existence."""
    base = os.path.dirname(os.path.abspath(str(path)))
    examples = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path} line {lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{where}: invalid JSON ({exc})") from None
        if not isinstance(record, dict):
            raise ManifestError(f"{where}: expected an object")
        for key in ("audio", "text", "label"):
            if key not in record:
                raise ManifestError(f"{where}: missing field {key!r}")
        label = record["label"]
        if isinstance(label, bool) or label not in (0, 1):
            raise ManifestError(f"{where}: label must be 0 or 1, got {label!r}")
        text = record["text"]
        if not isinstance(text, str) or not text:
            raise ManifestError(f"{where}: text must be a non-empty string")
        try:
            tokenize(text)
        except TokenizeError as exc:
            raise ManifestError(f"{where}: text {text!r}: {exc}") from None
        audio = record["audio"]
        if not isinstance(audio, str) or not audio:
            raise ManifestError(f"{where}: audio must be a non-empty string")
        resolved = audio if os.path.isabs(audio) else os.path.join(base, audio)
        if not os.path.isfile(resolved):
            raise ManifestError(f"{where}: audio file {audio!r} not found")
        examples.append(Example(resolved, text, int(label)))
    if not examples:
        raise EmptyDataset(f"{path} holds no examples")
    return examples


@dataclass
class Batch:
    """Zero-padded feature and token blocks with their true lengths."""

    features: np.ndarray      # [B, T_max, D] float32, zero beyond each length
    feature_lengths: np.ndarray
    tokens: np.ndarray        # [B, n_max] int64, zero beyond each length
    token_lengths: np.ndarray
    labels: np.ndarray        # [B] float32

    @property
    def size(self) -> int:
        return self.features.shape[0]

    def token_mask(self) -> np.ndarray:
        n = np.arange(self.tokens.shape[1])
        return (n[None, :] < self.token_lengths[:, None]).astype(np.float32)


def _pad_block(items, width, dtype):
    longest = max(item.shape[0] for item in items)
    shape = (len(items), longest) if width is None else (len(items), longest, width)
    block = np.zeros(shape, dtype=dtype)
    for i, item in enumerate(items):
        block[i, : item.shape[0]] = item
    return block


def collate(feats, texts, labels) -> Batch:
    """Zero-pad [T_i, D] feature arrays and tokenized texts into one Batch."""
    tokens = [np.asarray(tokenize(text), dtype=np.int64) for text in texts]
    return Batch(
        features=_pad_block(feats, feats[0].shape[1], np.float32),
        feature_lengths=np.array([f.shape[0] for f in feats], dtype=np.int64),
        tokens=_pad_block(tokens, None, np.int64),
        token_lengths=np.array([t.shape[0] for t in tokens], dtype=np.int64),
        labels=np.array(labels, dtype=np.float32),
    )


def make_batches(manifest, front_end, batch_size: int, seed, mode: str = "train",
                 feature_cache: dict | None = None):
    """Yield Batches; train mode shuffles with a seeded permutation.

    feature_cache maps audio path to FeatureMatrix and is filled on
    first use, so repeated epochs over the same manifest extract each
    file once.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    cache = feature_cache if feature_cache is not None else {}
    order = np.arange(len(manifest))
    if mode == "train":
        order = np.random.default_rng(seed).permutation(len(manifest))
    for start in range(0, len(manifest), batch_size):
        chosen = [manifest[i] for i in order[start : start + batch_size]]
        for example in chosen:
            if example.audio_ref not in cache:
                cache[example.audio_ref] = front_end(read_wav(example.audio_ref))
        yield collate([cache[ex.audio_ref].data for ex in chosen],
                      [ex.text for ex in chosen], [ex.label for ex in chosen])


# Synthetic keyword audio: character index i sounds as a fixed pair of
# tones, 60 ms nominal per character, documented in tones.txt.
SEGMENT_MS = 60.0
TONE_BASE_LOW = 300.0
TONE_STEP_LOW = 40.0
TONE_BASE_HIGH = 1600.0
TONE_STEP_HIGH = 80.0
SNR_DB = 20.0
TEMPO_JITTER = 0.10


def char_tones(index: int) -> tuple[float, float]:
    """Frequency pair for one alphabet index."""
    return (TONE_BASE_LOW + TONE_STEP_LOW * index,
            TONE_BASE_HIGH + TONE_STEP_HIGH * index)


def render_keyword(text: str, rng: np.random.Generator,
                   sample_rate: int = SAMPLE_RATE) -> Waveform:
    """Render one utterance: per-character tone pairs, tempo jitter, noise."""
    indices = tokenize(text)
    tempo = 1.0 + TEMPO_JITTER * (2.0 * rng.random() - 1.0)
    seg_len = int(round(SEGMENT_MS / 1000.0 * sample_rate * tempo))
    ramp_len = max(1, int(0.005 * sample_rate))
    envelope = np.ones(seg_len)
    fade = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, ramp_len)))
    envelope[:ramp_len] = fade
    envelope[-ramp_len:] = fade[::-1]
    t = np.arange(seg_len) / sample_rate
    segments = []
    for index in indices:
        f_low, f_high = char_tones(index)
        tone = 0.25 * np.sin(2.0 * np.pi * f_low * t)
        tone += 0.25 * np.sin(2.0 * np.pi * f_high * t)
        segments.append(tone * envelope)
    clean = np.concatenate(segments)
    noise_rms = np.sqrt(np.mean(clean**2)) / (10.0 ** (SNR_DB / 20.0))
    noisy = clean + noise_rms * rng.standard_normal(clean.shape[0])
    return Waveform(np.clip(noisy, -1.0, 1.0 - 1.0 / 32768.0), sample_rate)


def _write_tone_table(path) -> None:
    lines = [
        "Synthetic keyword audio: character to tone-pair mapping.",
        f"Each character lasts {SEGMENT_MS:.0f} ms nominal; a whole utterance",
        f"is sped up or slowed down by up to {TEMPO_JITTER:.0%}, and Gaussian",
        f"noise is added at {SNR_DB:.0f} dB SNR.",
        "",
        "char index f_low_hz f_high_hz",
    ]
    for i, ch in enumerate(ALPHABET):
        f_low, f_high = char_tones(i)
        shown = "<space>" if ch == " " else ch
        lines.append(f"{shown} {i} {f_low:.0f} {f_high:.0f}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def synth_dataset(keywords, per_keyword: int, negative_ratio: float, seed,
                  out_dir) -> str:
    """Generate keyword audio plus a JSONL manifest; returns the manifest path.

    Each keyword gets per_keyword positive utterances. Negatives reuse
    the same audio paired with a different keyword's text, so label 0
    is a genuine text mismatch rather than different noise. Everything
    derives from the seed, making reruns byte-identical.
    """
    keywords = list(keywords)
    if len(set(keywords)) < 2:
        raise ValueError("need at least 2 distinct keywords")
    if per_keyword < 1:
        raise ValueError(f"per_keyword must be >= 1, got {per_keyword}")
    if negative_ratio < 0:
        raise ValueError(f"negative_ratio must be >= 0, got {negative_ratio}")
    try:
        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "wavs"), exist_ok=True)
        _write_tone_table(os.path.join(out_dir, "tones.txt"))
    except OSError as exc:
        raise IoError(f"cannot prepare {out_dir}: {exc}") from None
    records = []
    utterance = 0
    for kw_index, keyword in enumerate(keywords):
        for rep in range(per_keyword):
            rng = np.random.default_rng([seed, utterance])
            rel_path = os.path.join("wavs", f"kw{kw_index}_{rep:03d}.wav")
            try:
                write_wav(os.path.join(out_dir, rel_path),
                          render_keyword(keyword, rng))
            except OSError as exc:
                raise IoError(f"cannot write {rel_path}: {exc}") from None
            records.append({"audio": rel_path, "text": keyword, "label": 1})
            utterance += 1
    negatives_per_kw = int(round(per_keyword * negative_ratio))
    others = lambda i: [k for j, k in enumerate(keywords) if j != i]
    for kw_index in range(len(keywords)):
        pool = others(kw_index)
        for rep in range(negatives_per_kw):
            rel_path = os.path.join("wavs", f"kw{kw_index}_{rep % per_keyword:03d}.wav")
            wrong_text = pool[rep % len(pool)]
            records.append({"audio": rel_path, "text": wrong_text, "label": 0})
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    try:
        with open(manifest_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write manifest: {exc}") from None
    return manifest_path
