"""Audio-text keyword matcher assembled from the layer set.

The audio encoder runs two convolution blocks (the first strided along
time), flattens channels x feature per frame, and applies two
bidirectional GRU layers and a dense projection to a 128-dim frame
embedding. The text encoder maps characters through a 512-dim learned
embedding, one bidirectional GRU, and a dense projection.
Cross-attention with the text as query produces a context that a
bidirectional GRU discriminator reads out into a single sigmoid match
score. Every path, single-pair `score` included, runs `forward` on a
padded batch. The config schema (one table of INI keys), training,
evaluation and the ablation sweep over any one config key are defined
here too.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Tensor, no_grad
from .data import ALPHABET, SAMPLE_RATE, Batch, collate, make_batches
from .errors import (
    ConfigMismatch,
    DegenerateDataset,
    EmptyDataset,
    FormatError,
    InsufficientMemory,
    NonFiniteValue,
    ShapeError,
)
from .features import (
    FEATURE_NAMES,
    FeatureKind,
    FrontEndConfig,
    SdcConfig,
    feature_dim,
    make_front_end,
    plp_lags,
)
from .layers import (
    Adam,
    BatchNorm,
    BiGru,
    Conv2d,
    CrossAttention,
    Dense,
    glorot_uniform,
    named_tensors,
    parameter,
)

KIND_NAMES = {kind: name for name, kind in FEATURE_NAMES.items()}
VAL_FRACTION = 0.1  # share of each class that train() holds out
# Float32 copies of each per-example activation a training step holds at
# its peak, counted per frame after the strided conv (the conv activation,
# conv_filters x feature_width, plus the recurrent stack's 4 x gru_hidden:
# a gru_scan direction keeps z, r, c and its state) and per token
# (char_embed_dim). With two copies of the parameters, the estimate is
# 1.55, 1.63 and 1.47 times the measured peak of mfcc, mel and sdc on
# 1 s clips at batch 8, and 1.13 for mfcc at batch 64; a test holds the
# step under it.
STEP_PEAK_COPIES = 6
# Rows of gru_a1's input eval projects per GEMM (a 1 s clip is 49): about
# as fast as one batch-wide GEMM; one GEMM per clip repacks w, 2x slower.
GRU_CHUNK_ROWS = 512
MEMINFO_PATH = "/proc/meminfo"  # read for MemAvailable only


def encode_value(value) -> str:
    """Spell one config value as the .kwsm block does."""
    if isinstance(value, FeatureKind):
        return KIND_NAMES[value]
    if isinstance(value, SdcConfig):
        return str(value)
    return repr(value)


def decode_value(type_name: str, text: str):
    """Parse one config value given its field's annotation string."""
    if type_name == "FeatureKind":
        if text not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {text!r}; expected one of"
                             f" {', '.join(FEATURE_NAMES)}")
        return FEATURE_NAMES[text]
    if type_name == "float":
        value = float(text)
        if not np.isfinite(value):
            raise ValueError(f"expected a finite number, got {text!r}")
        return value
    return int(text)


# Marks the fields that only steer training; every other field is
# architecture and must match for a checkpoint to load.
_TRAINING_ONLY = {"training_only": True}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and training knobs; defaults follow the matcher recipe.

    Field order is the .kwsm config block order (see `to_dict`).
    """

    feature: FeatureKind = FeatureKind.SDC
    sdc: SdcConfig = field(default_factory=SdcConfig)
    front_end: FrontEndConfig = field(default_factory=FrontEndConfig)
    conv_filters: int = 32
    kernel: int = 3
    stride_t: int = 2
    gru_hidden: int = 64
    embed_dim: int = 128
    char_embed_dim: int = 512
    disc_hidden: int = 128
    dropout: float = field(default=0.2, metadata=_TRAINING_ONLY)
    lr: float = field(default=1e-4, metadata=_TRAINING_ONLY)
    batch_size: int = field(default=128, metadata=_TRAINING_ONLY)
    seed: int = field(default=0, metadata=_TRAINING_ONLY)

    def __post_init__(self):
        positive = ("conv_filters", "kernel", "stride_t", "gru_hidden",
                    "embed_dim", "char_embed_dim", "disc_hidden", "batch_size")
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Audio is read at SAMPLE_RATE, so the front-end must run there,
        # and a frame (hence the shorter hop) must be countable in samples.
        if not math.isfinite(self.front_end.frame_ms * SAMPLE_RATE):
            raise ValueError(
                f"frame_ms {self.front_end.frame_ms} is too long to count in"
                f" samples at {SAMPLE_RATE} Hz")
        if self.front_end.hop(SAMPLE_RATE) < 1:
            raise ValueError(f"hop_ms {self.front_end.hop_ms} is under a sample")
        if (self.feature in (FeatureKind.PLP, FeatureKind.RASTA_PLP)
                and self.front_end.num_cepstra > plp_lags(SAMPLE_RATE)):
            raise ValueError(f"plp gives at most {plp_lags(SAMPLE_RATE)} cepstra")
        if self.feature == FeatureKind.SDC and self.sdc.n != self.front_end.num_mel:
            raise ValueError(
                f"sdc base width {self.sdc.n} must equal num_mel"
                f" {self.front_end.num_mel}"
            )

    @property
    def feature_width(self) -> int:
        return feature_dim(self.feature, self.front_end, self.sdc)

    def to_dict(self) -> dict:
        """The .kwsm config block: every field as text, front_end's inline."""
        flat = {}
        for f in fields(self):
            value = getattr(self, f.name)
            flat.update(asdict(value) if isinstance(value, FrontEndConfig)
                        else {f.name: value})
        return {key: encode_value(value) for key, value in flat.items()}

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        """Rebuild a config from a .kwsm block; absent keys take defaults."""
        default = cls()
        values = {}
        for key in (key for key in default.to_dict() if key in raw):
            try:
                if key == "sdc":
                    values.update(asdict(SdcConfig.parse(raw[key])))
                else:
                    values[key] = decode_value(CONFIG_KEYS[key].type, raw[key])
            except ValueError as exc:
                raise FormatError(f"config {key}={raw[key]!r}: {exc}") from None
        try:
            return config_with(default, values)
        except ValueError as exc:
            raise FormatError(f"config block: {exc}") from None


# INI section of each nested config's keys; the others are [model] keys.
_NESTED = {"front_end": "frontend", "sdc": "sdc"}

ConfigKey = namedtuple("ConfigKey", "section type")

# Every key of the INI file, the flags and `ablate --sweep`, in .kwsm
# block order (which packs [sdc] into one `sdc=N-d-p-k` key): the one
# map from a key to its section and its type for decode_value.
CONFIG_KEYS = {
    sub.name: ConfigKey(_NESTED.get(f.name, "model"), sub.type)
    for f in fields(ModelConfig)
    for sub in (fields(f.default_factory) if f.name in _NESTED else [f])
}

# Keys that must agree for a checkpoint to load into a model.
ARCH_KEYS = tuple(key for key in ModelConfig().to_dict() if key not in {
    f.name for f in fields(ModelConfig) if f.metadata.get("training_only")})


def config_with(cfg: ModelConfig, values: dict) -> ModelConfig:
    """`cfg` with some keys set to decoded values; ValueError if invalid."""
    by_section = {"model": {}, **{section: {} for section in _NESTED.values()}}
    for key, value in values.items():
        by_section[CONFIG_KEYS[key].section][key] = value
    nested = {name: replace(getattr(cfg, name), **by_section[section])
              for name, section in _NESTED.items()}
    return replace(cfg, **nested, **by_section["model"])


# Checkpoint name prefix of each tensor-holding KwsModel attribute, in order.
CHECKPOINT_PREFIXES = {
    "conv1": "audio.conv1",
    "bn1": "audio.bn1",
    "conv2": "audio.conv2",
    "bn2": "audio.bn2",
    "gru_a1": "audio.gru1",
    "gru_a2": "audio.gru2",
    "dense_a": "audio.dense",
    "char_table": "text.embed.table",
    "gru_t": "text.gru",
    "dense_t": "text.dense",
    "attn": "extract.attn",
    "gru_d": "disc.gru",
    "dense_out": "disc.dense",
}


def strided_length(length: int, stride_t: int) -> int:
    """Post-convolution frame count: ceil(length / stride_t)."""
    return (length - 1) // stride_t + 1


class KwsModel:
    """The end-to-end matcher; all parameters are float32."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        undrawn = self.__dict__.pop("_undrawn", False)  # see from_checkpoint
        rng = None if undrawn else np.random.default_rng(cfg.seed)
        width = cfg.feature_width
        ch = cfg.conv_filters
        hidden = cfg.gru_hidden
        self.conv1 = Conv2d(1, ch, rng, cfg.kernel, cfg.stride_t)
        self.bn1 = BatchNorm(ch)
        self.conv2 = Conv2d(ch, ch, rng, cfg.kernel, 1)
        self.bn2 = BatchNorm(ch)
        self.gru_a1 = BiGru(ch * width, hidden, rng)
        self.gru_a2 = BiGru(2 * hidden, hidden, rng)
        self.dense_a = Dense(2 * hidden, cfg.embed_dim, rng)
        self.char_table = parameter(glorot_uniform(
            rng, (len(ALPHABET), cfg.char_embed_dim),
            len(ALPHABET), cfg.char_embed_dim))
        self.gru_t = BiGru(cfg.char_embed_dim, hidden, rng)
        self.dense_t = Dense(2 * hidden, cfg.embed_dim, rng)
        self.attn = CrossAttention(cfg.embed_dim, rng)
        self.gru_d = BiGru(cfg.embed_dim, cfg.disc_hidden, rng)
        self.dense_out = Dense(2 * cfg.disc_hidden, 1, rng)
        self.training_step = 0

    def _named(self, kind: type) -> dict:
        named = {}
        for attr, prefix in CHECKPOINT_PREFIXES.items():
            named.update(named_tensors(getattr(self, attr), prefix, kind))
        return named

    def named_params(self) -> dict:
        return self._named(Tensor)

    def named_buffers(self) -> dict:
        return self._named(np.ndarray)

    def _dropout(self, x, train, rng):
        return ad.dropout(x, self.cfg.dropout, train, rng)

    def _conv_stack(self, h, lengths, train, rng):
        """conv1 -> bn1 -> conv2 -> bn2, each with its dropout, on packed frames.

        h [1, N, D] holds lengths[i] frames of example i, back to back; the
        result [conv_filters, M, D] holds their strided frames the same way
        (frame-major in memory in train mode, see autodiff.batch_norm).
        """
        # Bound before the next layer runs, each output dies once consumed.
        for conv, norm in ((self.conv1, self.bn1), (self.conv2, self.bn2)):
            h = conv(h, lengths)
            lengths = strided_length(lengths, conv.stride_t)
            h = norm(h, train, self.cfg.dropout, rng)
        return h

    def audio_encode(self, features, lengths, train: bool = False, rng=None):
        """Features [B, T, D] with B lengths in [1, T] to embeddings [B, m, embed_dim].

        Returns (embeddings, frame mask [B, m]). In train mode the conv
        stack runs on the examples' valid frames, packed back to back, so
        padded frames never reach a convolution or batch norm's
        statistics; its output, one row per valid strided frame, is
        gru_a1's packed input. Eval records no graph, whatever the grad
        mode; its conv stack is _project_eval_rows'.
        """
        arr = np.asarray(features)
        if arr.ndim != 3 or arr.shape[1] == 0:
            raise ShapeError(
                f"audio features must be [B, T, D] with T >= 1, got {arr.shape}")
        if arr.shape[-1] != self.cfg.feature_width:
            raise ConfigMismatch(
                f"feature width {arr.shape[-1]} does not match the configured"
                f" {KIND_NAMES[self.cfg.feature]} width {self.cfg.feature_width}"
            )
        batch, t_in, _ = arr.shape
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (batch,) or not np.all((lengths >= 1) & (lengths <= t_in)):
            raise ShapeError(f"lengths {lengths.tolist()} must be {batch}"
                             f" frame counts in [1, T={t_in}]")
        out_lengths = strided_length(lengths, self.cfg.stride_t)
        t_out = strided_length(t_in, self.cfg.stride_t)
        frame_mask = (np.arange(t_out) < out_lengths[:, None]).astype(np.float32)
        x = arr.astype(np.float32, copy=False)
        with contextlib.nullcontext() if train else no_grad():
            if train:
                packed = x[np.arange(t_in) < lengths[:, None]][None]
                rows = self._conv_stack(Tensor(packed), lengths, train, rng)
                # A view, as train-mode batch norm's output is frame-major.
                rows = rows.transpose(1, 0, 2)
                seq, _ = self.gru_a1(rows.reshape(rows.shape[0], -1), mask=frame_mask)
            else:
                pre = self._project_eval_rows(x, lengths, frame_mask)
                seq, _ = self.gru_a1(Tensor(pre), mask=frame_mask, projected=True)
            seq = self._dropout(seq, train, rng)
            seq, _ = self.gru_a2(seq, mask=frame_mask)
            seq = self._dropout(seq, train, rng)
            return self._dropout(self.dense_a(seq), train, rng), frame_mask

    def _project_eval_rows(self, x, lengths, frame_mask):
        """gru_a1's pre-activations [B, m, 6H] in eval; 0 at padded frames.

        Batch norm uses running moments, so the conv stack runs one example
        at a time on its valid frames. Its rows fill a reused chunk of
        GRU_CHUNK_ROWS rows, each full (or last) chunk one GEMM through
        gru_a1's w and b, so [B, m, conv_filters * width] is never built.
        A row's bits are the same in any GEMM of two or more rows, but a
        one-row product goes to gemv, which rounds differently.
        """
        w, b = self.gru_a1.w.data, self.gru_a1.b.data
        at = np.flatnonzero(frame_mask)  # the rows of pre still to project
        pre = np.zeros((frame_mask.size, w.shape[1]), np.float32)
        chunk = np.empty((max(2, min(GRU_CHUNK_ROWS, len(at))), len(w)), np.float32)
        filled = 0
        for n_in, one in zip(lengths, x):
            h = self._conv_stack(Tensor(one[None, :n_in]), np.array([n_in]),
                                 False, None)
            h = h.data.transpose(1, 0, 2)  # [n_out, conv_filters, width]
            while len(h):
                count = min(len(h), len(chunk) - filled)
                chunk[filled : filled + count].reshape(h[:count].shape)[...] = h[:count]
                filled, h = filled + count, h[count:]
                if filled in (len(chunk), len(at)):
                    chunk[filled:2] = chunk[0]  # a one-row chunk goes twice
                    pre[at[:filled]] = (chunk[: max(filled, 2)] @ w)[:filled] + b
                    at, filled = at[filled:], 0
            del h  # freed before the next example's stack runs
        return pre.reshape(*frame_mask.shape, -1)

    def text_encode(self, tokens, token_mask, train: bool = False, rng=None):
        """Token ids [B, n] to embeddings [B, n, embed_dim]."""
        embedded = self.char_table[np.asarray(tokens, dtype=np.int64)]
        embedded = self._dropout(embedded, train, rng)
        seq, _ = self.gru_t(embedded, mask=token_mask)
        seq = self._dropout(seq, train, rng)
        return self._dropout(self.dense_t(seq), train, rng)

    # Old name of the batched encoder, kept for callers that look it up.
    text_encode_batch = text_encode

    def match_score(self, e_a, e_t, audio_mask, token_mask):
        """Embeddings [B, m, D] and [B, n, D] to (probs, logits) of shape [B].

        The text embedding is the attention query; padded audio frames
        are masked out of the keys and padded tokens out of the
        discriminator; probs is expit(logits), outside the graph.
        """
        context = self.attn(e_t, e_a, key_mask=audio_mask)
        _, final = self.gru_d(context, mask=token_mask)
        logits = self.dense_out(final).reshape(-1)
        return Tensor(ad._expit()(logits.data)), logits

    def forward(self, batch: Batch, train: bool = False, rng=None):
        """Score a padded batch; returns (probs, logits) tensors of shape [B].

        Train mode records the graph backward needs; eval records none,
        whatever the grad mode. text_encode and match_score, called
        alone, follow the grad mode.
        """
        with contextlib.nullcontext() if train else no_grad():
            e_a, audio_mask = self.audio_encode(
                batch.features, batch.feature_lengths, train, rng)
            token_mask = batch.token_mask()
            e_t = self.text_encode(batch.tokens, token_mask, train, rng)
            return self.match_score(e_a, e_t, audio_mask, token_mask)

    def score(self, features, text) -> float:
        """Eval-mode match probability for one pair: `forward` at B = 1."""
        data = np.asarray(features.data if hasattr(features, "data") else features)
        if data.ndim != 2:
            raise ShapeError(f"features must be [T, D], got {data.shape}")
        if not np.isfinite(data).all():
            raise NonFiniteValue("features hold a non-finite value")
        probs, _ = self.forward(collate([data], [text], [0]))
        return float(probs.data[0])

    def _state(self) -> dict:
        """Every checkpointed array by name: parameters, then buffers."""
        state = {name: p.data for name, p in self.named_params().items()}
        state.update(self.named_buffers())
        return state

    def to_checkpoint(self) -> "Checkpoint":
        tensors = {name: array.copy() for name, array in self._state().items()}
        return Checkpoint(tensors, self.cfg.to_dict(), self.training_step)

    def load_state(self, ckpt: "Checkpoint"):
        """Install checkpoint tensors; decoded arch keys, names, shapes must match."""
        own_cfg = self.cfg.to_dict()
        ckpt_cfg = ModelConfig.from_dict(ckpt.config).to_dict()
        for key in ARCH_KEYS:
            if ckpt_cfg[key] != own_cfg[key]:
                raise ConfigMismatch(
                    f"checkpoint {key}={ckpt_cfg[key]!r} does not match"
                    f" model {key}={own_cfg[key]!r}"
                )
        own = self._state()
        _check_shapes(ckpt.tensors,
                      {name: target.shape for name, target in own.items()})
        for name in ckpt.tensors:
            if name not in own:
                raise ConfigMismatch(
                    f"checkpoint tensor {name!r} is not part of the model")
        for name, target in own.items():
            target[...] = ckpt.tensors[name]
        self.training_step = ckpt.step

    @classmethod
    def from_checkpoint(cls, ckpt: "Checkpoint") -> "KwsModel":
        """The model of ckpt's config block, with ckpt's tensors installed.

        The block's architecture is checked against the tensors' shapes
        before any tensor is allocated, so an edited block cannot make the
        model allocate more than the checkpoint already holds. No weight
        is drawn: each tensor is allocated at its shape and filled once.
        """
        cfg = ModelConfig.from_dict(ckpt.config)
        _check_shapes(ckpt.tensors, _arch_shapes(cfg))
        # Built by __init__, so what wraps it sees this model too, undrawn.
        model = cls.__new__(cls)
        model._undrawn = True
        model.__init__(cfg)
        model.load_state(ckpt)
        return model


def _arch_shapes(cfg: ModelConfig) -> dict:
    """Shapes of the tensors that pin every dimension of cfg's model.

    Each dimension of a KwsModel tensor is 1, 2, one of these shapes'
    sides, or 2 or 6 times one, so a checkpoint matching them bounds the
    model.
    """
    ch, hidden = cfg.conv_filters, cfg.gru_hidden
    return {
        "audio.conv1.kernel": (ch, 1, cfg.kernel, cfg.kernel),
        "audio.gru1.w": (ch * cfg.feature_width, 6 * hidden),
        "text.embed.table": (len(ALPHABET), cfg.char_embed_dim),
        "extract.attn.q_proj.weight": (cfg.embed_dim, cfg.embed_dim),
        "disc.gru.u_h": (2, cfg.disc_hidden, cfg.disc_hidden),
    }


def _check_shapes(tensors: dict, shapes: dict):
    """Raise ConfigMismatch unless tensors has each name at its shape."""
    for name, shape in shapes.items():
        if name not in tensors:
            raise ConfigMismatch(f"checkpoint is missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ConfigMismatch(
                f"tensor {name!r} has shape {tensors[name].shape},"
                f" expected {shape}"
            )


@dataclass(frozen=True)
class Checkpoint:
    """Named float32 tensors plus the producing config and step count."""

    tensors: dict
    config: dict
    step: int


KWSM_MAGIC = b"KWSM"
KWSM_VERSION = 4


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Serialize a checkpoint: magic, version, config block, tensor table."""
    config = dict(ckpt.config)
    config["training_step"] = str(ckpt.step)
    config_blob = "\n".join(f"{k}={v}" for k, v in config.items()).encode("utf-8")
    parts = [KWSM_MAGIC, struct.pack("<H", KWSM_VERSION),
             struct.pack("<I", len(config_blob)), config_blob,
             struct.pack("<I", len(ckpt.tensors))]
    for name, tensor in ckpt.tensors.items():
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", tensor.ndim))
        parts.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
    with open(path, "wb") as handle:
        handle.write(b"".join(parts))
        # A little-endian float32 C-contiguous tensor is written in place.
        for tensor in ckpt.tensors.values():
            handle.write(np.ascontiguousarray(tensor, dtype="<f4"))


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.path = path
        self.offset = 0

    def pull(self, count: int) -> memoryview:
        if self.offset + count > len(self.blob):
            raise FormatError(f"{self.path}: truncated at byte {self.offset}")
        chunk = self.blob[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.pull(struct.calcsize(fmt)))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as handle:
        blob = handle.read()
    # Slices of the memoryview share the file's bytes: one copy per tensor.
    reader = _Reader(memoryview(blob), path)
    if reader.pull(4) != KWSM_MAGIC:
        raise FormatError(f"{path}: bad magic")
    (version,) = reader.unpack("<H")
    if version != KWSM_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (config_len,) = reader.unpack("<I")
    try:
        config_text = str(reader.pull(config_len), "utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: config block is not UTF-8 ({exc})") from None
    config = {}
    for line in config_text.splitlines():
        if "=" not in line:
            raise FormatError(f"{path}: malformed config line {line!r}")
        key, value = line.split("=", 1)
        config[key] = value
    (num_tensors,) = reader.unpack("<I")
    shapes = {}
    for _ in range(num_tensors):
        (name_len,) = reader.unpack("<H")
        raw_name = reader.pull(name_len)
        try:
            name = str(raw_name, "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: tensor name is not UTF-8 ({exc})") from None
        if name in shapes:
            raise FormatError(f"{path}: tensor {name!r} appears twice")
        (ndim,) = reader.unpack("<B")
        shapes[name] = reader.unpack(f"<{ndim}I")
    tensors = {}
    for name, shape in shapes.items():
        # Python ints: a declared shape must not wrap to a small count.
        count = math.prod(shape)
        raw = reader.pull(4 * count)
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if reader.offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - reader.offset} trailing bytes")
    try:
        step = int(config.pop("training_step", "0"))
    except ValueError:
        raise FormatError(f"{path}: bad training_step") from None
    return Checkpoint(tensors, config, step)


@dataclass(frozen=True)
class EpochStats:
    """One epoch: its history row, then what the epoch cost.

    The cost fields are measured, so they vary from run to run; rows
    compare equal on the history fields alone. A step runs from the
    batch in hand to the optimizer update; examples_per_s counts the
    epoch's training loop, batch building included, not validation.
    max_grad_norm is the largest global L2 norm of the parameter
    gradients over the epoch's steps, and peak_rss_mb this process's
    peak resident set so far (None where it cannot be read).
    """

    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float
    val_eer: float
    step_ms_p50: float | None = field(default=None, compare=False)
    step_ms_p90: float | None = field(default=None, compare=False)
    examples_per_s: float | None = field(default=None, compare=False)
    max_grad_norm: float | None = field(default=None, compare=False)
    peak_rss_mb: float | None = field(default=None, compare=False)


HISTORY_HEADER = "epoch,train_loss,val_loss,val_auc,val_eer"


def history_csv(history) -> str:
    lines = [HISTORY_HEADER]
    for row in history:
        lines.append(
            f"{row.epoch},{row.train_loss!r},{row.val_loss!r},"
            f"{row.val_auc!r},{row.val_eer!r}"
        )
    return "\n".join(lines) + "\n"


def epochs_jsonl(history) -> str:
    """One JSON object per epoch, every EpochStats field by name."""
    return "".join(json.dumps(asdict(row)) + "\n" for row in history)


def peak_rss_mb() -> float | None:
    """Peak resident set of this process in MB (2**20 bytes), or None."""
    try:
        import resource
    except ImportError:  # not on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _sum_of_squares(array) -> float:
    """Sum of squares in float64: no finite float32 array overflows it,
    so it is finite exactly when every entry is."""
    flat = array.reshape(-1)
    return float(np.einsum("i,i->", flat, flat, dtype=np.float64))


def split_validation(manifest, seed):
    """Deterministic stratified split; both classes land in both parts."""
    positives = [i for i, ex in enumerate(manifest) if ex.label == 1]
    negatives = [i for i, ex in enumerate(manifest) if ex.label == 0]
    if not positives or not negatives:
        raise DegenerateDataset("training needs both positive and negative pairs")
    rng = np.random.default_rng([seed, 91])
    val_idx = set()
    for group in (positives, negatives):
        count = min(len(group) - 1, max(1, round(len(group) * VAL_FRACTION)))
        if count < 1:
            raise DegenerateDataset(
                "dataset is too small to reserve a validation example per class"
            )
        chosen = rng.permutation(len(group))[:count]
        val_idx.update(group[i] for i in chosen)
    train_set = [ex for i, ex in enumerate(manifest) if i not in val_idx]
    val_set = [ex for i, ex in enumerate(manifest) if i in val_idx]
    return train_set, val_set


def evaluate(model: KwsModel, manifest, batch_size: int | None = None,
             feature_cache: dict | None = None) -> "metrics.ScoredSet":
    """Eval-mode scores for every manifest entry, in manifest order."""
    front = make_front_end(model.cfg.feature, model.cfg.front_end, model.cfg.sdc)
    size = batch_size or model.cfg.batch_size
    scores = []
    labels = []
    for batch in make_batches(manifest, front, size, seed=0, mode="eval",
                              feature_cache=feature_cache):
        probs, _ = model.forward(batch, train=False)
        scores.extend(float(p) for p in probs.data)
        labels.extend(int(label) for label in batch.labels)
    return metrics.ScoredSet(np.array(scores), np.array(labels))


def step_peak_bytes(model: KwsModel, batch: int, frames: int,
                    tokens: int) -> int:
    """Estimated peak bytes of a training step of model on a batch.

    The batch is [batch, frames, D] features with [batch, tokens] token
    ids. The estimate is STEP_PEAK_COPIES copies of every per-example
    activation and the parameters twice: their gradients, and one more
    copy as slack.
    """
    cfg = model.cfg
    t_out = strided_length(frames, cfg.stride_t)
    conv = t_out * cfg.conv_filters * cfg.feature_width
    per_example = (t_out * 4 * cfg.gru_hidden + tokens * cfg.char_embed_dim
                   + conv)
    params = sum(p.data.size for p in model.named_params().values())
    cells = STEP_PEAK_COPIES * batch * per_example + 2 * params
    return 4 * cells


def available_memory() -> int | None:
    """MemAvailable in bytes, or None where MEMINFO_PATH cannot be read."""
    try:
        with open(MEMINFO_PATH, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        return None
    return None


def _check_memory(model: KwsModel, batch: Batch, where: str):
    """Raise InsufficientMemory if a step of model on batch will not fit."""
    shape, tokens = batch.features.shape, batch.tokens.shape
    need = step_peak_bytes(model, shape[0], shape[1], tokens[1])
    available = available_memory()
    if available is not None and need > available:
        raise InsufficientMemory(
            f"{where}: a training step on features {list(shape)} and tokens"
            f" {list(tokens)} needs about {need / 2**20:.1f} MiB, but"
            f" {available / 2**20:.1f} MiB is available")


def _mean_bce(scored: "metrics.ScoredSet") -> float:
    probs = np.clip(scored.scores, 1e-7, 1.0 - 1e-7)
    labels = scored.labels
    losses = -(labels * np.log(probs) + (1 - labels) * np.log1p(-probs))
    return float(losses.mean())


def train(manifest, cfg: ModelConfig, epochs: int, log=None):
    """Mini-batch BCE training with Adam and best-validation-AUC selection.

    Returns (model, checkpoint, history), history holding one EpochStats
    per epoch, which log (if given) also gets as each epoch ends. The
    returned model carries the best-validation weights; with epochs=0
    both equal the initialization and the history is empty. A non-finite
    loss or parameter gradient raises NonFiniteValue, naming the epoch
    and the step within it, before the optimizer applies that step.
    Before each step's forward, a step_peak_bytes estimate above
    MemAvailable raises InsufficientMemory.
    """
    manifest = list(manifest)
    if not manifest:
        raise EmptyDataset("training manifest holds no examples")
    labels = {ex.label for ex in manifest}
    if labels != {0, 1}:
        raise DegenerateDataset(
            f"training needs both labels, manifest has only {sorted(labels)}"
        )
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    train_set, val_set = split_validation(manifest, cfg.seed)
    front = make_front_end(cfg.feature, cfg.front_end, cfg.sdc)
    cache = {}
    model = KwsModel(cfg)
    optimizer = Adam(model.named_params().values(), lr=cfg.lr)
    history = []
    best_auc = -1.0
    best = None  # every epoch's AUC is >= -1, so epoch 0 sets it
    for epoch in range(epochs):
        dropout_rng = np.random.default_rng([cfg.seed, 7001, epoch])
        loss_sum = max_norm = 0.0
        step_ms = []
        started = time.perf_counter()
        batches = make_batches(train_set, front, cfg.batch_size,
                               seed=[cfg.seed, epoch], mode="train",
                               feature_cache=cache)
        for step, batch in enumerate(batches):
            step_start = time.perf_counter()
            where = f"epoch {epoch} step {step}"
            _check_memory(model, batch, where)
            # Dropped before the forward, the last step's gradients do not
            # live through it.
            optimizer.zero_grad()
            _, logits = model.forward(batch, train=True, rng=dropout_rng)
            loss = ad.sigmoid_bce(logits, batch.labels)
            if not np.isfinite(loss.item()):
                raise NonFiniteValue(f"{where}: loss is {loss.item()}")
            loss.backward()
            norm_sq = 0.0
            for name, param in model.named_params().items():
                if param.grad is not None:
                    grad_sq = _sum_of_squares(param.grad)
                    if not math.isfinite(grad_sq):
                        raise NonFiniteValue(
                            f"{where}: gradient of {name} is not finite")
                    norm_sq += grad_sq
            max_norm = max(max_norm, math.sqrt(norm_sq))
            optimizer.step()
            model.training_step += 1
            loss_sum += loss.item() * batch.size
            step_ms.append(1e3 * (time.perf_counter() - step_start))
        train_s = time.perf_counter() - started
        scored = evaluate(model, val_set, cfg.batch_size, cache)
        p50, p90 = np.percentile(step_ms, [50, 90])
        stats = EpochStats(
            epoch=epoch,
            train_loss=loss_sum / len(train_set),
            val_loss=_mean_bce(scored),
            val_auc=metrics.auc(scored),
            val_eer=metrics.eer(scored),
            step_ms_p50=float(p50),
            step_ms_p90=float(p90),
            examples_per_s=len(train_set) / train_s,
            max_grad_norm=max_norm,
            peak_rss_mb=peak_rss_mb(),
        )
        history.append(stats)
        if log is not None:
            log(stats)
        if stats.val_auc >= best_auc:
            best_auc = stats.val_auc
            best = model.to_checkpoint()
    if best is None:  # no epoch ran
        best = model.to_checkpoint()
    model.load_state(best)
    return model, best, history


@dataclass(frozen=True)
class AblationRow:
    """One grid cell: the swept key and value, the config it trained, metrics."""

    key: str
    value: object
    cfg: ModelConfig
    auc: float
    eer: float


ABLATION_HEADER = "d,k,auc,eer"


def ablation_grid(manifest_train, manifest_eval, key: str, values, base_cfg,
                  epochs: int, log=None) -> list:
    """Train and evaluate one model per value of one config key.

    An invalid value raises ValueError before any cell trains. A cell
    trains with seed `seed * 10000 + d * 100 + k` of its own config.
    """
    cells = [config_with(base_cfg, {key: value}) for value in values]
    rows = []
    for value, cfg in zip(values, cells):
        cfg = replace(cfg, seed=cfg.seed * 10000 + cfg.sdc.d * 100 + cfg.sdc.k)
        trained, _, _ = train(manifest_train, cfg, epochs)
        scored = evaluate(trained, manifest_eval)
        row = AblationRow(key, value, cfg, metrics.auc(scored),
                          metrics.eer(scored))
        rows.append(row)
        if log is not None:
            log(row)
    return rows


def ablation_csv(rows) -> str:
    """`d,k,auc,eer` per cell, led by the swept key's column unless it is d or k."""
    lead = bool(rows) and rows[0].key not in ("d", "k")
    lines = [(f"{rows[0].key}," if lead else "") + ABLATION_HEADER]
    lines += [(f"{encode_value(r.value)}," if lead else "")
              + f"{r.cfg.sdc.d},{r.cfg.sdc.k},{r.auc!r},{r.eer!r}" for r in rows]
    return "\n".join(lines) + "\n"
