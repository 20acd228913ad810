"""Five spectral front-ends plus the shifted-delta stacker.

Front-ends: log-mel spectrogram, MFCC, MFCC with first and second
derivatives, perceptual linear prediction (PLP), and RASTA-filtered
PLP. The shifted-delta stacker consumes a log-mel matrix and emits
the long-temporal feature used by the matcher. All functions are
pure and deterministic.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np
import scipy.signal

from .dsp import (
    Waveform,
    apply_hamming,
    frame_signal,
    power_spectrum,
    pre_emphasize,
)
from .errors import (
    BadFrequency,
    ConfigMismatch,
    DegenerateFilter,
    FormatError,
    NonFiniteValue,
)


class FeatureKind(IntEnum):
    """Identifies which front-end produced a FeatureMatrix."""

    MEL_SPEC = 1
    MFCC = 2
    MFCC_DELTAS = 3
    PLP = 4
    RASTA_PLP = 5
    SDC = 6


# CLI-facing names, in the order of the enum above.
FEATURE_NAMES = {
    "mel": FeatureKind.MEL_SPEC,
    "mfcc": FeatureKind.MFCC,
    "mfcc-dd": FeatureKind.MFCC_DELTAS,
    "plp": FeatureKind.PLP,
    "rasta-plp": FeatureKind.RASTA_PLP,
    "sdc": FeatureKind.SDC,
}


@dataclass(frozen=True)
class FeatureMatrix:
    """T x D matrix of per-frame feature vectors tagged with its origin."""

    data: np.ndarray
    kind: FeatureKind

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"feature data must be 2-D, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("feature data contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SdcConfig:
    """N-d-p-k quadruple: base dim, delta shift, block spacing, block count."""

    n: int = 40
    d: int = 1
    p: int = 3
    k: int = 8

    def __post_init__(self):
        for name in ("n", "d", "p", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @classmethod
    def parse(cls, text: str) -> "SdcConfig":
        """Parse the dashed notation, e.g. '40-1-3-8'."""
        parts = text.split("-")
        if len(parts) != 4:
            raise ValueError(f"expected N-d-p-k with four fields, got {text!r}")
        try:
            n, d, p, k = (int(part) for part in parts)
        except ValueError:
            raise ValueError(f"non-integer field in {text!r}") from None
        return cls(n, d, p, k)

    def __str__(self) -> str:
        return f"{self.n}-{self.d}-{self.p}-{self.k}"

    @property
    def out_dim(self) -> int:
        return self.n * (self.k + 1)


@dataclass(frozen=True)
class FrontEndConfig:
    """Shared analysis parameters for every front-end."""

    frame_ms: float = 25.0
    hop_ms: float = 10.0
    pre_emphasis: float = 0.97
    nfft: int = 512
    num_mel: int = 40
    num_cepstra: int = 13
    log_floor: float = 1e-10
    delta_window: int = 2

    def __post_init__(self):
        for field_def in fields(self):
            value = getattr(self, field_def.name)
            if not 0 < value < np.inf:
                raise ValueError(
                    f"{field_def.name} must be positive and finite, got {value}")
        if self.pre_emphasis >= 1:
            raise ValueError(
                f"pre_emphasis must be below 1, got {self.pre_emphasis}")
        if self.frame_ms <= self.hop_ms:
            raise ValueError("frame_ms must exceed hop_ms")

    def frame_len(self, sample_rate: int) -> int:
        return int(round(self.frame_ms * sample_rate / 1000.0))

    def hop(self, sample_rate: int) -> int:
        return int(round(self.hop_ms * sample_rate / 1000.0))


def mel_scale(f_hz):
    """Hz to mel, 2595 * log10(1 + f / 700); accepts scalars or arrays."""
    f = np.asarray(f_hz, dtype=np.float64)
    if np.any(f < 0):
        raise BadFrequency(f"frequency must be nonnegative, got {f_hz}")
    out = 2595.0 * np.log10(1.0 + f / 700.0)
    return float(out) if np.isscalar(f_hz) else out


def mel_to_hz(mel):
    """Inverse of mel_scale."""
    m = np.asarray(mel, dtype=np.float64)
    if np.any(m < 0):
        raise BadFrequency(f"mel value must be nonnegative, got {mel}")
    out = 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    return float(out) if np.isscalar(mel) else out


@functools.lru_cache(maxsize=None)
def mel_filterbank(num_mel: int, nfft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank, num_mel x (nfft/2 + 1); cached, read-only.

    Centers are equally spaced in mel between 0 and sample_rate / 2 and
    snapped to FFT bins; each row is nonnegative and unimodal.
    """
    if num_mel < 1:
        raise ValueError(f"num_mel must be >= 1, got {num_mel}")
    num_bins = nfft // 2 + 1
    edges_mel = np.linspace(0.0, mel_scale(sample_rate / 2.0), num_mel + 2)
    edges_hz = mel_to_hz(edges_mel)
    edges_bin = np.floor((nfft + 1) * edges_hz / sample_rate).astype(int)
    fbank = np.zeros((num_mel, num_bins))
    for m in range(num_mel):
        left, center, right = edges_bin[m], edges_bin[m + 1], edges_bin[m + 2]
        for b in range(left, center):
            fbank[m, b] = (b - left) / (center - left)
        for b in range(center, right):
            fbank[m, b] = (right - b) / (right - center)
    if np.any(fbank.max(axis=1) <= 0.0):
        raise DegenerateFilter(
            f"{num_mel} mel filters cannot all be resolved at nfft={nfft}"
        )
    fbank.flags.writeable = False
    return fbank


def _windowed_power(wave: Waveform, cfg: FrontEndConfig) -> np.ndarray:
    """Shared head of every front-end: pre-emphasis, framing, window, power."""
    emphasized = pre_emphasize(wave, cfg.pre_emphasis)
    frames = frame_signal(
        emphasized, cfg.frame_len(wave.sample_rate), cfg.hop(wave.sample_rate)
    )
    power = power_spectrum(apply_hamming(frames), cfg.nfft)
    if not np.isfinite(power).all():
        raise NonFiniteValue("the waveform's power spectrum overflows float64")
    return power


def _log_mel_matrix(wave: Waveform, cfg: FrontEndConfig) -> np.ndarray:
    fbank = mel_filterbank(cfg.num_mel, cfg.nfft, wave.sample_rate)
    energies = _windowed_power(wave, cfg) @ fbank.T
    return np.log(np.maximum(energies, cfg.log_floor))


def mel_spectrogram(wave: Waveform, cfg: FrontEndConfig) -> FeatureMatrix:
    """Log-energy mel spectrogram, T x num_mel."""
    return FeatureMatrix(_log_mel_matrix(wave, cfg), FeatureKind.MEL_SPEC)


def dct_matrix(num_out: int, num_in: int) -> np.ndarray:
    """Orthonormal type-II DCT matrix, num_out x num_in."""
    j = np.arange(num_out)[:, None]
    i = np.arange(num_in)[None, :]
    mat = np.cos(np.pi * (2 * i + 1) * j / (2 * num_in))
    mat *= np.sqrt(2.0 / num_in)
    mat[0, :] = np.sqrt(1.0 / num_in)
    return mat


def mfcc(
    wave: Waveform, cfg: FrontEndConfig, with_deltas: bool = False
) -> FeatureMatrix:
    """Cepstra from the log-mel spectrogram; deltas appended on request."""
    log_mel = _log_mel_matrix(wave, cfg)
    dct = dct_matrix(cfg.num_cepstra, cfg.num_mel)
    static = log_mel @ dct.T
    if not with_deltas:
        return FeatureMatrix(static, FeatureKind.MFCC)
    d1 = delta(static, cfg.delta_window, order=1)
    d2 = delta(static, cfg.delta_window, order=2)
    return FeatureMatrix(
        np.concatenate([static, d1, d2], axis=1), FeatureKind.MFCC_DELTAS
    )


def delta(feat: np.ndarray, half_width: int, order: int = 1) -> np.ndarray:
    """Regression delta with replicate-edge index clamping.

    delta(t) = sum_j j * (x[t+j] - x[t-j]) / (2 * sum_j j^2), j in 1..W;
    order 2 applies the operator twice.
    """
    if half_width < 1:
        raise ValueError(f"half_width must be >= 1, got {half_width}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    x = np.asarray(feat, dtype=np.float64)
    num_frames = x.shape[0]
    t = np.arange(num_frames)
    denom = 2.0 * sum(j * j for j in range(1, half_width + 1))
    out = np.zeros_like(x)
    for j in range(1, half_width + 1):
        ahead = np.clip(t + j, 0, num_frames - 1)
        behind = np.clip(t - j, 0, num_frames - 1)
        out += j * (x[ahead] - x[behind])
    out /= denom
    if order == 2:
        return delta(out, half_width, order=1)
    return out


def sdc(base, cfg: SdcConfig) -> FeatureMatrix:
    """Stack k shifted deltas over the static rows.

    Output row t is [c(t), dc(t,0), ..., dc(t,k-1)] where
    dc(t,i) = c(t + i*p + d) - c(t + i*p - d) and frame indices outside
    [0, T-1] are clamped to the nearest valid frame.
    """
    data = base.data if isinstance(base, FeatureMatrix) else np.asarray(base, float)
    if data.ndim != 2:
        raise ConfigMismatch(f"base must be 2-D, got shape {data.shape}")
    if data.shape[1] != cfg.n:
        raise ConfigMismatch(
            f"base has {data.shape[1]} columns but the configuration says n={cfg.n}"
        )
    num_frames = data.shape[0]
    t = np.arange(num_frames)
    blocks = [data]
    for i in range(cfg.k):
        ahead = np.clip(t + i * cfg.p + cfg.d, 0, num_frames - 1)
        behind = np.clip(t + i * cfg.p - cfg.d, 0, num_frames - 1)
        blocks.append(data[ahead] - data[behind])
    return FeatureMatrix(np.concatenate(blocks, axis=1), FeatureKind.SDC)


def bark_scale(f_hz):
    """Hz to critical-band rate, z(f) = 6 * asinh(f / 600)."""
    return 6.0 * np.arcsinh(np.asarray(f_hz, dtype=np.float64) / 600.0)


def bark_to_hz(z):
    """Inverse of bark_scale."""
    return 600.0 * np.sinh(np.asarray(z, dtype=np.float64) / 6.0)


def plp_lags(sample_rate: int) -> int:
    """Most cepstra PLP gives at a rate: the symmetrized bark bands' length."""
    return 2 * int(np.floor(bark_scale(sample_rate / 2.0)))


@functools.lru_cache(maxsize=None)
def bark_filterbank(nfft: int, sample_rate: int) -> np.ndarray:
    """Trapezoidal critical-band filters at 1-bark spacing; cached, read-only.

    Filter c is centered at c bark; its response to a bin at z bark is
    flat within +-0.5 bark of the center and falls off at 10 dB per bark
    below and 25 dB per bark above, truncated at -1.3 and +2.5 bark.
    """
    num_bands = int(np.floor(bark_scale(sample_rate / 2.0))) + 1
    bin_bark = bark_scale(np.arange(nfft // 2 + 1) * sample_rate / nfft)
    fbank = np.zeros((num_bands, nfft // 2 + 1))
    for c in range(num_bands):
        dz = bin_bark - c
        lower = 10.0 ** (2.5 * (dz + 0.5))
        upper = 10.0 ** (-1.0 * (dz - 0.5))
        fbank[c] = np.where(
            (dz >= -1.3) & (dz <= 2.5), np.minimum(1.0, np.minimum(lower, upper)), 0.0
        )
    fbank.flags.writeable = False
    return fbank


def equal_loudness(f_hz) -> np.ndarray:
    """Equal-loudness weight E(f) approximating 40 dB hearing sensitivity."""
    fsq = np.asarray(f_hz, dtype=np.float64) ** 2
    return ((fsq / (fsq + 1.6e5)) ** 2) * ((fsq + 1.44e6) / (fsq + 9.61e6))


def levinson_durbin(autocorr: np.ndarray, order: int):
    """Solve the Toeplitz normal equations for AR coefficients.

    Returns (a, err) where a = [1, a1, ..., a_order] satisfies
    sum_m a[m] * r[|n - m|] = 0 for n in 1..order and err is the final
    prediction error power. Leading axes of autocorr are a batch: the
    recursion runs over model order for every row at once, summing each
    dot product in lag order, so no row depends on another.
    """
    r = np.asarray(autocorr, dtype=np.float64)
    if r.shape[-1] < order + 1:
        raise ValueError(f"need {order + 1} autocorrelation lags, got {r.shape[-1]}")
    if (r[..., 0] <= 0).any():
        raise ValueError(
            f"leading autocorrelation must be positive, got {r[..., 0].min()}")
    a = np.zeros(r.shape[:-1] + (order + 1,))
    a[..., 0] = 1.0
    err = r[..., 0].copy()
    for m in range(1, order + 1):
        acc = np.zeros_like(err)
        for k in range(1, m):
            acc += a[..., k] * r[..., m - k]
        reflection = -(r[..., m] + acc) / err
        a[..., 1:m] += reflection[..., None] * a[..., m - 1 : 0 : -1]
        a[..., m] = reflection
        err *= 1.0 - reflection * reflection
    return a, err[()]


def lpc_to_cepstra(a: np.ndarray, err, num_cepstra: int) -> np.ndarray:
    """Cepstra of err / |A(z)|^2 (c[0] = ln err) over any leading batch axes."""
    err = np.asarray(err, dtype=np.float64)
    order = a.shape[-1] - 1
    cep = np.zeros(err.shape + (num_cepstra,))
    cep[..., 0] = np.log(err)
    for n in range(1, num_cepstra):
        acc = np.zeros_like(err)
        for m in range(1, min(n, order + 1)):
            acc += (n - m) * a[..., m] * cep[..., n - m]
        direct = a[..., n] if n <= order else 0.0
        cep[..., n] = -(direct + acc / n)
    return cep


def _bands_to_autocorr(bands: np.ndarray, centers_hz: np.ndarray,
                       order: int) -> np.ndarray:
    """Equal loudness, cube root, edge duplication, then autocorrelation."""
    compressed = (equal_loudness(centers_hz)[None, :] * bands) ** (1.0 / 3.0)
    # End bands sit against the analysis edges; reuse their neighbors.
    compressed[:, 0] = compressed[:, 1]
    compressed[:, -1] = compressed[:, -2]
    # Even symmetrization turns band values into a real power spectrum
    # whose inverse transform is the autocorrelation sequence.
    full = np.concatenate([compressed, compressed[:, -2:0:-1]], axis=1)
    return np.real(np.fft.ifft(full, axis=1))[:, : order + 1]


def _bands_to_cepstra(bands: np.ndarray, centers_hz: np.ndarray,
                      num_cepstra: int, log_floor: float) -> np.ndarray:
    """AR fit of every frame at once, silence substituted for degenerate frames."""
    order = num_cepstra - 1
    autocorr = _bands_to_autocorr(bands, centers_hz, order)
    degenerate = ~np.isfinite(autocorr).all(axis=1) | (autocorr[:, 0] <= 0)
    if degenerate.any():
        floor_bands = np.full((1, bands.shape[1]), log_floor)
        autocorr[degenerate] = _bands_to_autocorr(floor_bands, centers_hz, order)[0]
    a, err = levinson_durbin(autocorr, order)
    return lpc_to_cepstra(a, err, num_cepstra)


def _critical_bands(wave: Waveform, cfg: FrontEndConfig):
    fbank = bark_filterbank(cfg.nfft, wave.sample_rate)
    centers_hz = bark_to_hz(np.arange(fbank.shape[0]))
    bands = np.maximum(_windowed_power(wave, cfg) @ fbank.T, cfg.log_floor)
    return bands, centers_hz


def plp(wave: Waveform, cfg: FrontEndConfig) -> FeatureMatrix:
    """Perceptual linear prediction cepstra, T x num_cepstra."""
    bands, centers_hz = _critical_bands(wave, cfg)
    cep = _bands_to_cepstra(bands, centers_hz, cfg.num_cepstra, cfg.log_floor)
    return FeatureMatrix(cep, FeatureKind.PLP)


RASTA_POLE = 0.94
_RASTA_NUMERATOR_SHAPE = np.array([2.0, 1.0, 0.0, -1.0, -2.0])


def _rasta_coefficients():
    """Band-pass coefficients with the peak gain normalized to one."""
    denominator = np.array([1.0, -RASTA_POLE])
    _, response = scipy.signal.freqz(
        _RASTA_NUMERATOR_SHAPE, denominator, worN=8192
    )
    return _RASTA_NUMERATOR_SHAPE / np.abs(response).max(), denominator


_RASTA_NUM, _RASTA_DEN = _rasta_coefficients()


def rasta_filter(trajectories: np.ndarray) -> np.ndarray:
    """Band-pass each column's time trajectory; zero gain at DC.

    The numerator is proportional to [2, 1, 0, -1, -2] with a single
    real pole at 0.94, scaled for unit peak gain. The first four frames
    prime the filter state FIR-only and emit zeros, which pins the
    steady-state response to a constant input at exactly zero.
    """
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


def rasta_plp(wave: Waveform, cfg: FrontEndConfig) -> FeatureMatrix:
    """PLP with band-pass filtering of each band's log-energy trajectory."""
    bands, centers_hz = _critical_bands(wave, cfg)
    filtered = np.exp(rasta_filter(np.log(bands)))
    cep = _bands_to_cepstra(filtered, centers_hz, cfg.num_cepstra, cfg.log_floor)
    return FeatureMatrix(cep, FeatureKind.RASTA_PLP)


def feature_dim(kind: FeatureKind, cfg: FrontEndConfig,
                sdc_cfg: SdcConfig | None = None) -> int:
    """Output width of a front-end under a given configuration."""
    if kind == FeatureKind.MEL_SPEC:
        return cfg.num_mel
    if kind in (FeatureKind.MFCC, FeatureKind.PLP, FeatureKind.RASTA_PLP):
        return cfg.num_cepstra
    if kind == FeatureKind.MFCC_DELTAS:
        return 3 * cfg.num_cepstra
    if kind == FeatureKind.SDC:
        return (sdc_cfg or SdcConfig()).out_dim
    raise ValueError(f"unknown feature kind {kind}")


def make_front_end(kind: FeatureKind, cfg: FrontEndConfig,
                   sdc_cfg: SdcConfig | None = None):
    """Bind a feature kind and configuration into a Waveform -> FeatureMatrix map."""
    if kind == FeatureKind.SDC:
        sdc_cfg = sdc_cfg or SdcConfig()
        if sdc_cfg.n != cfg.num_mel:
            raise ConfigMismatch(
                f"sdc base width {sdc_cfg.n} must equal num_mel {cfg.num_mel}"
            )
        return lambda wave: sdc(mel_spectrogram(wave, cfg), sdc_cfg)
    fronts = {FeatureKind.MEL_SPEC: mel_spectrogram, FeatureKind.MFCC: mfcc,
              FeatureKind.MFCC_DELTAS: functools.partial(mfcc, with_deltas=True),
              FeatureKind.PLP: plp, FeatureKind.RASTA_PLP: rasta_plp}
    if kind not in fronts:
        raise ValueError(f"unknown feature kind {kind}")
    return functools.partial(fronts[kind], cfg=cfg)


KWSF_MAGIC = b"KWSF"
KWSF_VERSION = 1
_KWSF_HEADER = struct.Struct("<4sHHII")


def write_features(path, feat: FeatureMatrix) -> None:
    """Serialize a FeatureMatrix as little-endian float32, row-major."""
    rows, cols = feat.data.shape
    header = _KWSF_HEADER.pack(KWSF_MAGIC, KWSF_VERSION, int(feat.kind), rows, cols)
    payload = feat.data.astype("<f4").tobytes(order="C")
    with open(path, "wb") as handle:
        handle.write(header + payload)


def read_features(path) -> FeatureMatrix:
    """Read a feature file written by write_features."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _KWSF_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, kind_code, rows, cols = _KWSF_HEADER.unpack_from(blob)
    if magic != KWSF_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != KWSF_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    try:
        kind = FeatureKind(kind_code)
    except ValueError:
        raise FormatError(f"{path}: unknown feature kind {kind_code}") from None
    expected = _KWSF_HEADER.size + 4 * rows * cols
    if len(blob) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {rows}x{cols}, got {len(blob)}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=_KWSF_HEADER.size)
    try:
        return FeatureMatrix(data.reshape(rows, cols).astype(np.float64), kind)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
