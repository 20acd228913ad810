"""Trainable layers built on the Tensor engine, plus the Adam update.

Each layer owns its parameter tensors and exposes named_params() so
the model can checkpoint them. Recurrent layers take an optional
per-frame validity mask; masked steps hold the previous state, which
makes padded frames invisible to both scan directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
                   dtype=np.float32) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class Dense:
    """Affine map y = x W + b on the last axis."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 dtype=np.float32):
        self.weight = parameter(glorot_uniform(rng, (in_dim, out_dim),
                                               in_dim, out_dim, dtype))
        self.bias = parameter(np.zeros(out_dim, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def named_params(self, prefix: str):
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class Conv2d:
    """3x3 convolution over [batch, ch, T, F], strided along time only."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator,
                 kernel: int = 3, stride_t: int = 1, dtype=np.float32):
        fan_in = in_ch * kernel * kernel
        fan_out = out_ch * kernel * kernel
        self.kernel = parameter(glorot_uniform(
            rng, (out_ch, in_ch, kernel, kernel), fan_in, fan_out, dtype))
        self.bias = parameter(np.zeros(out_ch, dtype=dtype))
        self.stride_t = stride_t

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.kernel, self.bias, stride_t=self.stride_t)

    def named_params(self, prefix: str):
        return {f"{prefix}.kernel": self.kernel, f"{prefix}.bias": self.bias}


class BatchNorm:
    """Per-channel normalization over the batch and spatial axes.

    Train mode normalizes by batch statistics and folds them into
    running moments with momentum 0.9; eval mode uses the running
    moments, so inference is a pure function of the parameters.
    """

    def __init__(self, channels: int, momentum: float = 0.9,
                 eps: float = 1e-5, dtype=np.float32):
        self.gamma = parameter(np.ones(channels, dtype=dtype))
        self.beta = parameter(np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        if x.ndim != 4:
            raise ShapeError(f"batch norm expects [B, C, T, F], got {x.shape}")
        if x.shape[0] == 0:
            raise ShapeError("batch norm needs at least one example")
        axes = (0, 2, 3)
        if train:
            mu = x.mean(axis=axes, keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=axes, keepdims=True)
            self.running_mean = (
                self.momentum * self.running_mean
                + (1.0 - self.momentum) * mu.data.reshape(-1)
            ).astype(self.running_mean.dtype)
            self.running_var = (
                self.momentum * self.running_var
                + (1.0 - self.momentum) * var.data.reshape(-1)
            ).astype(self.running_var.dtype)
            inv = (var + self.eps) ** -0.5
            normalized = centered * inv
        else:
            mu = self.running_mean[None, :, None, None]
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            normalized = (x - mu) * inv[None, :, None, None]
        shape = (1, -1, 1, 1)
        return normalized * self.gamma.reshape(shape) + self.beta.reshape(shape)

    def named_params(self, prefix: str):
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}

    def named_buffers(self, prefix: str):
        return {
            f"{prefix}.running_mean": self.running_mean,
            f"{prefix}.running_var": self.running_var,
        }


class Gru:
    """Single-direction gated recurrent unit with masked scan.

    z_t = sigmoid(x_t Wz + h_{t-1} Uz + bz)
    r_t = sigmoid(x_t Wr + h_{t-1} Ur + br)
    c_t = tanh(x_t Wh + (r_t * h_{t-1}) Uh + bh)
    h_t = z_t * h_{t-1} + (1 - z_t) * c_t
    Frames with mask 0 hold the previous state. The scan is one
    autodiff.gru_scan node.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator,
                 dtype=np.float32):
        if hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {hidden}")
        make_w = lambda: parameter(glorot_uniform(rng, (in_dim, hidden),
                                                  in_dim, hidden, dtype))
        make_u = lambda: parameter(glorot_uniform(rng, (hidden, hidden),
                                                  hidden, hidden, dtype))
        self.wz, self.wr, self.wh = make_w(), make_w(), make_w()
        self.uz, self.ur, self.uh = make_u(), make_u(), make_u()
        self.bz = parameter(np.zeros(hidden, dtype=dtype))
        self.br = parameter(np.zeros(hidden, dtype=dtype))
        self.bh = parameter(np.zeros(hidden, dtype=dtype))

    def __call__(self, x: Tensor, mask: np.ndarray | None = None,
                 reverse: bool = False):
        """Scan x [B, T, in]; returns (outputs [B, T, hidden], final [B, hidden])."""
        seq = ad.gru_scan(x, (self.wz, self.wr, self.wh),
                          (self.uz, self.ur, self.uh),
                          (self.bz, self.br, self.bh), mask=mask, reverse=reverse)
        return seq, seq[:, 0 if reverse else -1]

    def named_params(self, prefix: str):
        names = ("wz", "wr", "wh", "uz", "ur", "uh", "bz", "br", "bh")
        return {f"{prefix}.{n}": getattr(self, n) for n in names}


class BiGru:
    """Forward and backward GRU passes concatenated per time step."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator,
                 dtype=np.float32):
        self.fwd = Gru(in_dim, hidden, rng, dtype)
        self.bwd = Gru(in_dim, hidden, rng, dtype)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None):
        """Returns (outputs [B, T, 2*hidden], final states [B, 2*hidden])."""
        out_f, last_f = self.fwd(x, mask=mask, reverse=False)
        out_b, last_b = self.bwd(x, mask=mask, reverse=True)
        seq = ad.concat([out_f, out_b], axis=2)
        final = ad.concat([last_f, last_b], axis=1)
        return seq, final

    def named_params(self, prefix: str):
        params = self.fwd.named_params(f"{prefix}.fwd")
        params.update(self.bwd.named_params(f"{prefix}.bwd"))
        return params


class CrossAttention:
    """Single-head scaled dot-product attention with learned projections.

    Queries come from one stream and keys/values from another; key
    positions with mask 0 receive a large negative score bias, which
    zeroes their softmax weight.
    """

    MASK_BIAS = -1e9

    def __init__(self, dim: int, rng: np.random.Generator, dtype=np.float32):
        self.dim = dim
        self.q_proj = Dense(dim, dim, rng, dtype)
        self.k_proj = Dense(dim, dim, rng, dtype)
        self.v_proj = Dense(dim, dim, rng, dtype)
        self.out_proj = Dense(dim, dim, rng, dtype)

    def __call__(self, query: Tensor, key: Tensor, value: Tensor,
                 key_mask: np.ndarray | None = None) -> Tensor:
        if key.shape != value.shape:
            raise ShapeError(f"key {key.shape} and value {value.shape} differ")
        weights = self._softmax_weights(query, key, key_mask)
        return self.out_proj(weights @ self.v_proj(value))

    def attention_weights(self, query: Tensor, key: Tensor,
                          key_mask: np.ndarray | None = None) -> np.ndarray:
        """Softmax weights only, for inspection and tests."""
        return self._softmax_weights(query, key, key_mask).data

    def _softmax_weights(self, query: Tensor, key: Tensor,
                         key_mask: np.ndarray | None) -> Tensor:
        if query.shape[-1] != self.dim or key.shape[-1] != self.dim:
            raise ShapeError(
                f"attention built for dim {self.dim}, got query {query.shape}"
                f" and key {key.shape}"
            )
        q = self.q_proj(query)
        k = self.k_proj(key)
        k_t = k.transpose(0, 2, 1) if k.ndim == 3 else k.transpose()
        scores = (q @ k_t) * (1.0 / np.sqrt(self.dim))
        if key_mask is not None:
            bias = np.where(np.asarray(key_mask) > 0, 0.0, self.MASK_BIAS)
            # Broadcast over the query axis: [.., m] -> [.., 1, m].
            scores = scores + Tensor(bias.astype(scores.dtype)[..., None, :])
        return ad.softmax(scores, axis=-1)

    def named_params(self, prefix: str):
        params = {}
        for name in ("q_proj", "k_proj", "v_proj", "out_proj"):
            params.update(getattr(self, name).named_params(f"{prefix}.{name}"))
        return params


@dataclass
class AdamState:
    """First/second moment estimates and step count for one parameter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, data: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(data), np.zeros_like(data))


def adam_step(state: AdamState, data: np.ndarray, grad: np.ndarray, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected Adam update applied in place to data."""
    if grad.shape != data.shape:
        raise ShapeError(f"grad shape {grad.shape} != param shape {data.shape}")
    state.step += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1**state.step)
    v_hat = state.v / (1.0 - beta2**state.step)
    data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(data.dtype)


class Adam:
    """Adam over a list of parameter tensors."""

    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = list(params)
        self.states = [AdamState.zeros_like(p.data) for p in self.params]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def step(self):
        for param, state in zip(self.params, self.states):
            if param.grad is None:
                continue
            adam_step(state, param.data, param.grad, self.lr,
                      self.beta1, self.beta2, self.eps)

    def zero_grad(self):
        for param in self.params:
            param.grad = None
