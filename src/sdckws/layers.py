"""Trainable layers built on the Tensor engine, plus the Adam update.

Each layer holds its tensors as attributes, and named_tensors names
them for the checkpoint by attribute: a Tensor is a parameter, an
ndarray a buffer, and a nested layer extends the prefix. Recurrent
layers take an optional per-frame validity mask; masked steps hold the
previous state, which makes padded frames invisible to both scan
directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

BN_MOMENTUM = 0.9  # decay of BatchNorm's running moments
ADAM_BETA1 = 0.9  # decay of Adam's first moment
ADAM_BETA2 = 0.999  # decay of Adam's second moment
ADAM_EPS = 1e-8  # added to Adam's denominator


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
                   dtype=np.float32) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); rng None only allocates."""
    if rng is None:
        return np.empty(shape, dtype=dtype)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def named_tensors(value, prefix: str, kind: type) -> dict:
    """Every `kind` object (Tensor or ndarray) under value, by checkpoint name.

    A value of that kind is named prefix itself. A Layer names its
    attributes prefix.attr, recursively, in the order they were first
    assigned, which is checkpoint order. Anything else holds none.
    """
    if isinstance(value, kind):
        return {prefix: value}
    named = {}
    if isinstance(value, Layer):
        for attr, child in vars(value).items():
            named.update(named_tensors(child, f"{prefix}.{attr}", kind))
    return named


class Layer:
    """A layer, whose attributes named_tensors names for the checkpoint."""


class Dense(Layer):
    """Affine map y = x W + b on the last axis."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 dtype=np.float32):
        self.weight = parameter(glorot_uniform(rng, (in_dim, out_dim),
                                               in_dim, out_dim, dtype))
        self.bias = parameter(np.zeros(out_dim, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class Conv2d(Layer):
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


class BatchNorm(Layer):
    """Per-channel normalization over the batch and spatial axes.

    Train mode normalizes by the statistics of the batch's valid
    positions (mask [B, 1, T, 1] nonzero; all positions without a mask)
    and folds them into running moments with momentum BN_MOMENTUM; eval
    mode uses the running moments, so inference is a pure function of the
    parameters. Masked positions come out zero in both modes. The whole
    layer is one autodiff.batch_norm node.
    """

    def __init__(self, channels: int, dtype=np.float32):
        self.gamma = parameter(np.ones(channels, dtype=dtype))
        self.beta = parameter(np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def __call__(self, x: Tensor, train: bool,
                 mask: np.ndarray | None = None) -> Tensor:
        moments = None if train else (self.running_mean, self.running_var)
        out, (mu, var) = ad.batch_norm(x, self.gamma, self.beta, mask, moments)
        if train:
            self.running_mean = (
                BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mu
            ).astype(self.running_mean.dtype)
            self.running_var = (
                BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
            ).astype(self.running_var.dtype)
        return out


class Gru(Layer):
    """Single-direction gated recurrent unit with masked scan.

    z_t = sigmoid(x_t Wz + h_{t-1} Uz + bz)
    r_t = sigmoid(x_t Wr + h_{t-1} Ur + br)
    c_t = tanh(x_t Wh + (r_t * h_{t-1}) Uh + bh)
    h_t = z_t * h_{t-1} + (1 - z_t) * c_t
    Frames with mask 0 hold the previous state. The scan is one
    autodiff.gru_scan node, and the weights are its operands: w [in, 3H]
    = [Wz | Wr | Wh], u_zr [H, 2H] = [Uz | Ur], u_h [H, H] = Uh and
    b [3H] = [bz | br | bh]. Each gate block is its own Glorot draw with
    fan_out H, drawn in the order Wz, Wr, Wh, Uz, Ur, Uh into its block
    (with rng None, none is drawn).
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator,
                 dtype=np.float32):
        if hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {hidden}")
        self.w = parameter(np.empty((in_dim, 3 * hidden), dtype=dtype))
        self.u_zr = parameter(np.empty((hidden, 2 * hidden), dtype=dtype))
        self.u_h = parameter(np.empty((hidden, hidden), dtype=dtype))
        self.b = parameter(np.zeros(3 * hidden, dtype=dtype))
        if rng is not None:
            for block in (np.split(self.w.data, 3, axis=1)
                          + np.split(self.u_zr.data, 2, axis=1) + [self.u_h.data]):
                block[...] = glorot_uniform(rng, block.shape, block.shape[0],
                                            hidden, dtype)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None,
                 reverse: bool = False):
        """Scan x [B, T, in]; returns (outputs [B, T, hidden], final [B, hidden])."""
        seq = ad.gru_scan(x, self.w, self.u_zr, self.u_h, self.b, mask=mask,
                          reverse=reverse)
        return seq, seq[:, 0 if reverse else -1]


class BiGru(Layer):
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


class CrossAttention(Layer):
    """Single-head scaled dot-product attention with learned projections.

    Queries come from one stream and keys and values from one memory
    stream; memory positions with mask 0 receive a large negative score
    bias, which zeroes their softmax weight.
    """

    MASK_BIAS = -1e9

    def __init__(self, dim: int, rng: np.random.Generator, dtype=np.float32):
        self.dim = dim
        self.q_proj = Dense(dim, dim, rng, dtype)
        self.k_proj = Dense(dim, dim, rng, dtype)
        self.v_proj = Dense(dim, dim, rng, dtype)
        self.out_proj = Dense(dim, dim, rng, dtype)

    def __call__(self, query: Tensor, memory: Tensor,
                 key_mask: np.ndarray | None = None) -> Tensor:
        if query.shape[-1] != self.dim or memory.shape[-1] != self.dim:
            raise ShapeError(
                f"attention built for dim {self.dim}, got query {query.shape}"
                f" and key {memory.shape}"
            )
        q = self.q_proj(query)
        k = self.k_proj(memory)
        scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(self.dim))
        if key_mask is not None:
            bias = np.where(np.asarray(key_mask) > 0, 0.0, self.MASK_BIAS)
            # Broadcast over the query axis: [.., m] -> [.., 1, m].
            scores = scores + Tensor(bias.astype(scores.dtype)[..., None, :])
        weights = ad.softmax(scores, axis=-1)
        return self.out_proj(weights @ self.v_proj(memory))


@dataclass
class AdamState:
    """First/second moment estimates and step count for one parameter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, data: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(data), np.zeros_like(data))


def adam_step(state: AdamState, data: np.ndarray, grad: np.ndarray, lr: float):
    """Bias-corrected Adam update applied in place to data, m and v.

    Computes m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g
    and data -= lr m_hat / (sqrt(v_hat) + eps), with beta1, beta2 and eps
    the ADAM_ constants, using two scratch buffers in the order of the
    plain expressions, so the result is bit-identical to them when data,
    grad and the moments share a dtype.
    """
    if grad.shape != data.shape:
        raise ShapeError(f"grad shape {grad.shape} != param shape {data.shape}")
    state.step += 1
    m, v = state.m, state.v
    step = np.empty_like(m)
    root = np.empty_like(v)
    np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
    m *= ADAM_BETA1
    m += step
    np.multiply(grad, 1.0 - ADAM_BETA2, out=root)
    root *= grad
    v *= ADAM_BETA2
    v += root
    np.divide(v, 1.0 - ADAM_BETA2**state.step, out=root)
    np.sqrt(root, out=root)
    root += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**state.step, out=step)
    step *= lr
    step /= root
    data -= step


class Adam:
    """Adam over a list of parameter tensors."""

    def __init__(self, params, lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = list(params)
        self.states = [AdamState.zeros_like(p.data) for p in self.params]
        self.lr = lr

    def step(self):
        for param, state in zip(self.params, self.states):
            if param.grad is None:
                continue
            adam_step(state, param.data, param.grad, self.lr)

    def zero_grad(self):
        for param in self.params:
            param.grad = None
