"""Audio-text keyword matcher assembled from the layer set.

The audio encoder runs two convolution blocks (the first strided along
time), flattens channels x feature per frame, and applies two
bidirectional GRU layers and a dense projection to a 128-dim frame
embedding. The text encoder maps characters through a 512-dim learned
embedding (or an external per-character matrix of the same width), one
bidirectional GRU, and a dense projection. Cross-attention with the
text as query produces a context that a bidirectional GRU discriminator
reads out into a single sigmoid match score. Training, evaluation and
the shift/block-count ablation grid are defined here too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Tensor, no_grad
from .data import ALPHABET, Batch, make_batches, tokenize
from .errors import (
    ConfigMismatch,
    DegenerateDataset,
    EmptyDataset,
    FormatError,
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
)
from .layers import (
    Adam,
    BatchNorm,
    BiGru,
    Conv2d,
    CrossAttention,
    Dense,
    glorot_uniform,
    parameter,
)

KIND_NAMES = {kind: name for name, kind in FEATURE_NAMES.items()}


# Marks the fields that only steer training; every other field is
# architecture and must match for a checkpoint to load.
_TRAINING_ONLY = {"training_only": True}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and training knobs; defaults follow the matcher recipe.

    Field order is the .kwsm config block order (see `config_fields`).
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
    dropout_after_conv: bool = field(default=True, metadata=_TRAINING_ONLY)

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
        if self.feature == FeatureKind.SDC and self.sdc.n != self.front_end.num_mel:
            raise ValueError(
                f"sdc base width {self.sdc.n} must equal num_mel"
                f" {self.front_end.num_mel}"
            )

    @property
    def feature_width(self) -> int:
        return feature_dim(self.feature, self.front_end, self.sdc)

    def to_dict(self) -> dict:
        """The .kwsm config block: one text value per key of `config_fields`."""
        out = {}
        for section, f in config_fields():
            value = getattr(self.front_end if section == "frontend" else self,
                            f.name)
            if isinstance(value, FeatureKind):
                out[f.name] = KIND_NAMES[value]
            elif isinstance(value, bool):
                out[f.name] = "1" if value else "0"
            elif isinstance(value, SdcConfig):
                out[f.name] = str(value)
            else:
                out[f.name] = repr(value)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        """Rebuild a config from a .kwsm block; absent keys take defaults."""
        kwargs, front_kwargs = {}, {}
        for section, f in config_fields():
            if f.name not in raw:
                continue
            try:
                value = decode_value(f.type, raw[f.name])
            except ValueError as exc:
                raise FormatError(
                    f"config {f.name}={raw[f.name]!r}: {exc}") from None
            (front_kwargs if section == "frontend" else kwargs)[f.name] = value
        try:
            return cls(front_end=FrontEndConfig(**front_kwargs), **kwargs)
        except ValueError as exc:
            raise FormatError(f"config block: {exc}") from None


def config_fields():
    """Yield (INI section, dataclass field) for every config key.

    The order is the .kwsm config block order. `[sdc]` is one key here,
    written N-d-p-k; the INI spells it out as `SdcConfig`'s fields.
    """
    for f in fields(ModelConfig):
        if f.type == "FrontEndConfig":
            for sub in fields(FrontEndConfig):
                yield "frontend", sub
        else:
            yield ("sdc" if f.type == "SdcConfig" else "model"), f


def decode_value(type_name: str, text: str):
    """Parse one config value given its field's annotation string."""
    if type_name == "bool":
        word = text.strip().lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if type_name == "FeatureKind":
        if text not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {text!r}; expected one of"
                             f" {', '.join(FEATURE_NAMES)}")
        return FEATURE_NAMES[text]
    if type_name == "SdcConfig":
        return SdcConfig.parse(text)
    if type_name == "float":
        value = float(text)
        if not np.isfinite(value):
            raise ValueError(f"expected a finite number, got {text!r}")
        return value
    return int(text)


# Keys that must agree for a checkpoint to load into a model.
ARCH_KEYS = tuple(f.name for _, f in config_fields()
                  if not f.metadata.get("training_only"))


def strided_length(length: int, stride_t: int) -> int:
    """Post-convolution frame count: ceil(length / stride_t)."""
    return (length - 1) // stride_t + 1


class KwsModel:
    """The end-to-end matcher; all parameters are float32."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
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

    def named_params(self) -> dict:
        params = {}
        params.update(self.conv1.named_params("audio.conv1"))
        params.update(self.bn1.named_params("audio.bn1"))
        params.update(self.conv2.named_params("audio.conv2"))
        params.update(self.bn2.named_params("audio.bn2"))
        params.update(self.gru_a1.named_params("audio.gru1"))
        params.update(self.gru_a2.named_params("audio.gru2"))
        params.update(self.dense_a.named_params("audio.dense"))
        params["text.embed.table"] = self.char_table
        params.update(self.gru_t.named_params("text.gru"))
        params.update(self.dense_t.named_params("text.dense"))
        params.update(self.attn.named_params("extract.attn"))
        params.update(self.gru_d.named_params("disc.gru"))
        params.update(self.dense_out.named_params("disc.dense"))
        return params

    def named_buffers(self) -> dict:
        buffers = {}
        buffers.update(self.bn1.named_buffers("audio.bn1"))
        buffers.update(self.bn2.named_buffers("audio.bn2"))
        return buffers

    def parameters(self) -> list:
        return list(self.named_params().values())

    def _dropout(self, x, train, rng):
        return ad.dropout(x, self.cfg.dropout, train, rng)

    def audio_encode(self, features, lengths=None, train: bool = False,
                     rng=None):
        """Features [B, T, D] (or [T, D]) to embeddings [B, m, embed_dim].

        Returns (embeddings, post-stride lengths). Padded frames are
        re-zeroed after every convolution block so that trailing
        padding cannot leak into real frames.
        """
        arr = features.data if isinstance(features, Tensor) else np.asarray(features)
        single = arr.ndim == 2
        if single:
            arr = arr[None]
        if arr.ndim != 3:
            raise ShapeError(f"audio features must be [B, T, D], got {arr.shape}")
        if arr.shape[-1] != self.cfg.feature_width:
            raise ConfigMismatch(
                f"feature width {arr.shape[-1]} does not match the configured"
                f" {KIND_NAMES[self.cfg.feature]} width {self.cfg.feature_width}"
            )
        batch, t_in, width = arr.shape
        if lengths is None:
            lengths = np.full(batch, t_in, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        out_lengths = strided_length(lengths, self.cfg.stride_t)
        t_out = strided_length(t_in, self.cfg.stride_t)
        frame_mask = (np.arange(t_out)[None, :] < out_lengths[:, None])
        frame_mask = frame_mask.astype(np.float32)
        conv_mask = Tensor(frame_mask[:, None, :, None])
        x = Tensor(arr.astype(np.float32, copy=False).reshape(
            batch, 1, t_in, width))
        h = self.bn1(self.conv1(x), train) * conv_mask
        if self.cfg.dropout_after_conv:
            h = self._dropout(h, train, rng)
        h = self.bn2(self.conv2(h), train) * conv_mask
        if self.cfg.dropout_after_conv:
            h = self._dropout(h, train, rng)
        h = h.transpose(0, 2, 1, 3).reshape(
            batch, t_out, self.cfg.conv_filters * width)
        seq, _ = self.gru_a1(h, mask=frame_mask)
        seq = self._dropout(seq, train, rng)
        seq, _ = self.gru_a2(seq, mask=frame_mask)
        seq = self._dropout(seq, train, rng)
        embedded = self._dropout(self.dense_a(seq), train, rng)
        if single:
            return embedded.reshape(t_out, self.cfg.embed_dim), out_lengths
        return embedded, out_lengths

    def _text_tail(self, embedded, token_mask, train, rng):
        embedded = self._dropout(embedded, train, rng)
        seq, _ = self.gru_t(embedded, mask=token_mask)
        seq = self._dropout(seq, train, rng)
        return self._dropout(self.dense_t(seq), train, rng)

    def text_encode(self, text, train: bool = False, rng=None):
        """One keyword (string or n x 512 external matrix) to [n, embed_dim]."""
        if isinstance(text, str):
            ids = np.asarray([tokenize(text)], dtype=np.int64)
            embedded = self.char_table[ids]
            count = ids.shape[1]
        else:
            matrix = np.asarray(text, dtype=np.float32)
            if matrix.ndim != 2:
                raise ShapeError(
                    f"external text features must be 2-D, got {matrix.shape}"
                )
            if matrix.shape[1] != self.cfg.char_embed_dim:
                raise ConfigMismatch(
                    f"external text features are {matrix.shape[1]}-dim, the"
                    f" text encoder expects {self.cfg.char_embed_dim}"
                )
            embedded = Tensor(matrix[None])
            count = matrix.shape[0]
        mask = np.ones((1, count), dtype=np.float32)
        out = self._text_tail(embedded, mask, train, rng)
        return out.reshape(count, self.cfg.embed_dim)

    def text_encode_batch(self, tokens, token_mask, train: bool = False,
                          rng=None):
        embedded = self.char_table[np.asarray(tokens, dtype=np.int64)]
        return self._text_tail(embedded, token_mask, train, rng)

    def match_score(self, audio_embed, text_embed, audio_mask=None,
                    token_mask=None):
        """Embeddings to match probability; returns (probs, logits).

        Accepts [m, D] / [n, D] single pairs or [B, m, D] / [B, n, D]
        batches. The text embedding is the attention query; padded
        audio frames are masked out of the keys.
        """
        single = audio_embed.ndim == 2
        e_a = audio_embed.reshape(1, *audio_embed.shape) if single else audio_embed
        e_t = text_embed.reshape(1, *text_embed.shape) if single else text_embed
        context = self.attn(e_t, e_a, e_a, key_mask=audio_mask)
        _, final = self.gru_d(context, mask=token_mask)
        logits = self.dense_out(final).reshape(-1)
        if single:
            logits = logits.reshape(())
        return ad.sigmoid(logits), logits

    def forward(self, batch: Batch, train: bool = False, rng=None):
        """Score a padded batch; returns (probs, logits) tensors of shape [B]."""
        e_a, out_lengths = self.audio_encode(
            batch.features, batch.feature_lengths, train, rng)
        t_out = e_a.shape[1]
        audio_mask = (np.arange(t_out)[None, :] < out_lengths[:, None])
        audio_mask = audio_mask.astype(np.float32)
        token_mask = batch.token_mask()
        e_t = self.text_encode_batch(batch.tokens, token_mask, train, rng)
        return self.match_score(e_a, e_t, audio_mask, token_mask)

    def score(self, features, text) -> float:
        """Eval-mode match probability for one (FeatureMatrix, text) pair."""
        data = features.data if hasattr(features, "data") else features
        with no_grad():
            e_a, _ = self.audio_encode(np.asarray(data, dtype=np.float32))
            e_t = self.text_encode(text)
            probs, _ = self.match_score(e_a, e_t)
        return float(probs.data)

    def to_checkpoint(self) -> "Checkpoint":
        tensors = {name: p.data.copy() for name, p in self.named_params().items()}
        for name, buffer in self.named_buffers().items():
            tensors[name] = buffer.copy()
        return Checkpoint(tensors, self.cfg.to_dict(), self.training_step)

    def load_state(self, ckpt: "Checkpoint"):
        """Install checkpoint weights; configs and shapes must agree."""
        own_cfg = self.cfg.to_dict()
        for key in ARCH_KEYS:
            if ckpt.config.get(key) != own_cfg.get(key):
                raise ConfigMismatch(
                    f"checkpoint {key}={ckpt.config.get(key)!r} does not match"
                    f" model {key}={own_cfg.get(key)!r}"
                )
        params = self.named_params()
        buffers = self.named_buffers()
        for name in list(params) + list(buffers):
            if name not in ckpt.tensors:
                raise ConfigMismatch(f"checkpoint is missing tensor {name!r}")
        for name, param in params.items():
            stored = ckpt.tensors[name]
            if stored.shape != param.data.shape:
                raise ConfigMismatch(
                    f"tensor {name!r} has shape {stored.shape}, expected"
                    f" {param.data.shape}"
                )
            param.data = stored.astype(np.float32).copy()
        self.bn1.running_mean = ckpt.tensors["audio.bn1.running_mean"].copy()
        self.bn1.running_var = ckpt.tensors["audio.bn1.running_var"].copy()
        self.bn2.running_mean = ckpt.tensors["audio.bn2.running_mean"].copy()
        self.bn2.running_var = ckpt.tensors["audio.bn2.running_var"].copy()
        self.training_step = ckpt.step

    @classmethod
    def from_checkpoint(cls, ckpt: "Checkpoint") -> "KwsModel":
        model = cls(ModelConfig.from_dict(ckpt.config))
        model.load_state(ckpt)
        return model


@dataclass(frozen=True)
class Checkpoint:
    """Named float32 tensors plus the producing config and step count."""

    tensors: dict
    config: dict
    step: int


KWSM_MAGIC = b"KWSM"
KWSM_VERSION = 1


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Serialize a checkpoint: magic, version, config block, tensor table."""
    config = dict(ckpt.config)
    config["training_step"] = str(ckpt.step)
    config_blob = "\n".join(f"{k}={v}" for k, v in config.items()).encode("utf-8")
    parts = [KWSM_MAGIC, struct.pack("<H", KWSM_VERSION),
             struct.pack("<I", len(config_blob)), config_blob,
             struct.pack("<I", len(ckpt.tensors))]
    payload = []
    for name, tensor in ckpt.tensors.items():
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", tensor.ndim))
        parts.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        payload.append(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
    with open(path, "wb") as handle:
        handle.write(b"".join(parts) + b"".join(payload))


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.path = path
        self.offset = 0

    def pull(self, count: int) -> bytes:
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
    reader = _Reader(blob, path)
    if reader.pull(4) != KWSM_MAGIC:
        raise FormatError(f"{path}: bad magic")
    (version,) = reader.unpack("<H")
    if version != KWSM_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (config_len,) = reader.unpack("<I")
    try:
        config_text = reader.pull(config_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: config block is not UTF-8 ({exc})") from None
    config = {}
    for line in config_text.splitlines():
        if "=" not in line:
            raise FormatError(f"{path}: malformed config line {line!r}")
        key, value = line.split("=", 1)
        config[key] = value
    (num_tensors,) = reader.unpack("<I")
    shapes = []
    for _ in range(num_tensors):
        (name_len,) = reader.unpack("<H")
        name = reader.pull(name_len).decode("utf-8")
        (ndim,) = reader.unpack("<B")
        shape = reader.unpack(f"<{ndim}I")
        shapes.append((name, shape))
    tensors = {}
    for name, shape in shapes:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
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
    """One history row."""

    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float
    val_eer: float


HISTORY_HEADER = "epoch,train_loss,val_loss,val_auc,val_eer"


def history_csv(history) -> str:
    lines = [HISTORY_HEADER]
    for row in history:
        lines.append(
            f"{row.epoch},{row.train_loss!r},{row.val_loss!r},"
            f"{row.val_auc!r},{row.val_eer!r}"
        )
    return "\n".join(lines) + "\n"


def split_validation(manifest, seed, fraction: float = 0.1):
    """Deterministic stratified split; both classes land in both parts."""
    positives = [i for i, ex in enumerate(manifest) if ex.label == 1]
    negatives = [i for i, ex in enumerate(manifest) if ex.label == 0]
    if not positives or not negatives:
        raise DegenerateDataset("training needs both positive and negative pairs")
    rng = np.random.default_rng([seed, 91])
    val_idx = set()
    for group in (positives, negatives):
        count = min(len(group) - 1, max(1, int(round(len(group) * fraction))))
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
    with no_grad():
        for batch in make_batches(manifest, front, size, seed=0, mode="eval",
                                  feature_cache=feature_cache):
            probs, _ = model.forward(batch, train=False)
            scores.extend(float(p) for p in probs.data)
            labels.extend(int(label) for label in batch.labels)
    return metrics.ScoredSet(np.array(scores), np.array(labels))


def _mean_bce(scored: "metrics.ScoredSet") -> float:
    probs = np.clip(scored.scores, 1e-7, 1.0 - 1e-7)
    labels = scored.labels
    losses = -(labels * np.log(probs) + (1 - labels) * np.log1p(-probs))
    return float(losses.mean())


def train(manifest, cfg: ModelConfig, epochs: int, val_fraction: float = 0.1,
          log=None):
    """Mini-batch BCE training with Adam and best-validation-AUC selection.

    Returns (model, checkpoint, history). The returned model carries
    the best-validation weights; with epochs=0 both equal the
    initialization and the history is empty. A non-finite loss or
    parameter gradient raises NonFiniteValue, naming the epoch and the
    step within it, before the optimizer applies that step.
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
    train_set, val_set = split_validation(manifest, cfg.seed, val_fraction)
    front = make_front_end(cfg.feature, cfg.front_end, cfg.sdc)
    cache = {}
    model = KwsModel(cfg)
    optimizer = Adam(model.parameters(), lr=cfg.lr)
    history = []
    best_auc = -1.0
    best = model.to_checkpoint()
    for epoch in range(epochs):
        dropout_rng = np.random.default_rng([cfg.seed, 7001, epoch])
        loss_sum = 0.0
        batches = make_batches(train_set, front, cfg.batch_size,
                               seed=[cfg.seed, epoch], mode="train",
                               feature_cache=cache)
        for step, batch in enumerate(batches):
            _, logits = model.forward(batch, train=True, rng=dropout_rng)
            loss = ad.sigmoid_bce(logits, batch.labels)
            where = f"epoch {epoch} step {step}"
            if not np.isfinite(loss.item()):
                raise NonFiniteValue(f"{where}: loss is {loss.item()}")
            optimizer.zero_grad()
            loss.backward()
            for name, param in model.named_params().items():
                if param.grad is not None and not np.isfinite(param.grad).all():
                    raise NonFiniteValue(
                        f"{where}: gradient of {name} is not finite")
            optimizer.step()
            model.training_step += 1
            loss_sum += loss.item() * batch.size
        scored = evaluate(model, val_set, cfg.batch_size, cache)
        stats = EpochStats(
            epoch=epoch,
            train_loss=loss_sum / len(train_set),
            val_loss=_mean_bce(scored),
            val_auc=metrics.auc(scored),
            val_eer=metrics.eer(scored),
        )
        history.append(stats)
        if log is not None:
            log(stats)
        if stats.val_auc >= best_auc:
            best_auc = stats.val_auc
            best = model.to_checkpoint()
    model.load_state(best)
    return model, best, history


@dataclass(frozen=True)
class AblationRow:
    """One grid cell: the swept configuration and its evaluation metrics."""

    d: int
    k: int
    auc: float
    eer: float


ABLATION_HEADER = "d,k,auc,eer"


def ablation_grid(manifest_train, manifest_eval, d_values, k_values, base_cfg,
                  epochs: int, log=None) -> list:
    """Train and evaluate one model per swept shift or block count.

    Sweeps are one-at-a-time: every d in d_values with the base k, then
    every k in k_values with the base d. Each cell derives its own seed
    from the base seed and its coordinates, so the grid is
    deterministic and cells are independent.
    """
    cells = [(d, base_cfg.sdc.k) for d in d_values]
    cells += [(base_cfg.sdc.d, k) for k in k_values]
    rows = []
    for d, k in cells:
        sdc_cfg = replace(base_cfg.sdc, d=d, k=k)
        cfg = replace(base_cfg, sdc=sdc_cfg,
                      seed=int(base_cfg.seed) * 10000 + d * 100 + k)
        trained, _, _ = train(manifest_train, cfg, epochs)
        scored = evaluate(trained, manifest_eval)
        row = AblationRow(d=d, k=k, auc=metrics.auc(scored),
                          eer=metrics.eer(scored))
        rows.append(row)
        if log is not None:
            log(row)
    return rows


def ablation_csv(rows) -> str:
    lines = [ABLATION_HEADER]
    for row in rows:
        lines.append(f"{row.d},{row.k},{row.auc!r},{row.eer!r}")
    return "\n".join(lines) + "\n"
