"""Short-time signal processing shared by every feature front-end.

All operations are pure functions: pre-emphasis, framing, Hamming
windowing and the one-sided power spectrum. They are safe to call
concurrently and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadFftSize, EmptySignal, InsufficientSamples


@dataclass(frozen=True)
class Waveform:
    """Mono audio: float samples in [-1, 1) plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        bad = np.count_nonzero(~np.isfinite(samples))
        if bad:
            raise ValueError(f"samples hold {bad} non-finite values")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate


def pre_emphasize(wave: Waveform, alpha: float) -> Waveform:
    """High-frequency boost y[t] = x[t] - alpha * x[t-1], y[0] = x[0]."""
    if wave.num_samples == 0:
        raise EmptySignal("cannot pre-emphasize an empty waveform")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    x = wave.samples
    out = np.concatenate(([x[0]], x[1:] - alpha * x[:-1]))
    return Waveform(out, wave.sample_rate)


def frame_signal(wave: Waveform, frame_len: int, hop: int) -> np.ndarray:
    """T x frame_len overlapping frames; the trailing remainder is dropped."""
    if frame_len < 1:
        raise ValueError(f"frame_len must be >= 1, got {frame_len}")
    if not 1 <= hop <= frame_len:
        raise ValueError(f"hop must be in [1, frame_len], got {hop}")
    n = wave.num_samples
    if n < frame_len:
        raise InsufficientSamples(
            f"need at least {frame_len} samples for one frame, got {n}"
        )
    num_frames = (n - frame_len) // hop + 1
    idx = np.arange(frame_len)[None, :] + hop * np.arange(num_frames)[:, None]
    return wave.samples[idx]


def hamming_window(length: int) -> np.ndarray:
    """Hamming coefficients w[n] = 0.54 - 0.46 cos(2 pi n / (L - 1))."""
    if length == 1:
        return np.ones(1)
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def apply_hamming(frames: np.ndarray) -> np.ndarray:
    """Multiply every row of a T x L frame matrix by the Hamming window."""
    return frames * hamming_window(frames.shape[1])[None, :]


def power_spectrum(frames: np.ndarray, nfft: int) -> np.ndarray:
    """T x (nfft/2 + 1) one-sided power |DFT_nfft(frame)|^2, frames zero-padded."""
    if nfft < 1 or nfft & (nfft - 1) != 0:
        raise BadFftSize(f"nfft must be a power of two, got {nfft}")
    if nfft < frames.shape[1]:
        raise BadFftSize(
            f"nfft ({nfft}) must be >= frame length ({frames.shape[1]})"
        )
    return np.abs(np.fft.rfft(frames, n=nfft, axis=1)) ** 2
