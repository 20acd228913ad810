"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray and records the operation that produced it
as a closure; backward() walks the graph in reverse topological order
and accumulates gradients into every tensor that requires them. The
op set is exactly what the matcher needs: broadcasting arithmetic,
matmul, reductions, shape moves, indexing, the pointwise
nonlinearities, softmax, 2-D convolution, dropout, and the fused
sigmoid + binary cross-entropy loss.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import expit

from .errors import ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation mode)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _coerce_array(data):
    arr = data if isinstance(data, np.ndarray) else np.asarray(data)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """Dense array plus the bookkeeping for reverse-mode gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _coerce_array(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self, grad=None):
        """Accumulate d(self)/d(leaf) into .grad over the whole graph.

        The graph is freed as it is consumed: interior nodes drop their
        closure, parent links, and grad buffer once propagated, so a
        second backward needs a fresh forward pass.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() without a seed needs a scalar, got {self.shape}"
                )
            grad = np.ones_like(self.data)
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        _add_grad(self, np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn()
                node._backward_fn = None
                node._parents = ()
                node.grad = None

    # Arithmetic operators are defined below as module functions and
    # attached here so closures can reference helpers declared later.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap_const(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, *axes):
        if len(axes) == 0:
            return transpose(self, None)
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            return transpose(self, tuple(axes[0]))
        return transpose(self, axes)

    def tanh(self):
        return tanh(self)

    def sigmoid(self):
        return sigmoid(self)


def _wrap_const(value, dtype):
    return Tensor(np.asarray(value, dtype=dtype))


def _as_tensor(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return _wrap_const(value, like.dtype)


def _add_grad(tensor: Tensor, grad):
    if tensor.grad is None:
        # Copy: grad may alias or broadcast another node's buffer.
        tensor.grad = np.array(grad, dtype=tensor.data.dtype)
        if tensor.grad.shape != tensor.data.shape:
            tensor.grad = np.broadcast_to(tensor.grad, tensor.data.shape).copy()
    else:
        tensor.grad += grad


def _from_op(data, parents):
    """Wrap an op result; returns (tensor, whether to record a backward)."""
    tracked = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data)
    if tracked:
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
    return out, tracked


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back down to the parent's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out, tracked = _from_op(a.data + b.data, (a, b))
    if tracked:

        def _backward():
            if a.requires_grad:
                _add_grad(a, _unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                _add_grad(b, _unbroadcast(out.grad, b.data.shape))

        out._backward_fn = _backward
    return out


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out, tracked = _from_op(a.data - b.data, (a, b))
    if tracked:

        def _backward():
            if a.requires_grad:
                _add_grad(a, _unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                _add_grad(b, _unbroadcast(-out.grad, b.data.shape))

        out._backward_fn = _backward
    return out


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out, tracked = _from_op(a.data * b.data, (a, b))
    if tracked:

        def _backward():
            if a.requires_grad:
                _add_grad(a, _unbroadcast(out.grad * b.data, a.data.shape))
            if b.requires_grad:
                _add_grad(b, _unbroadcast(out.grad * a.data, b.data.shape))

        out._backward_fn = _backward
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    out, tracked = _from_op(a.data**exponent, (a,))
    if tracked:

        def _backward():
            _add_grad(a, out.grad * exponent * a.data ** (exponent - 1.0))

        out._backward_fn = _backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul needs >= 2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(str(exc)) from None
    out, tracked = _from_op(data, (a, b))
    if tracked:

        def _backward():
            if a.requires_grad:
                grad_a = out.grad @ np.swapaxes(b.data, -1, -2)
                _add_grad(a, _unbroadcast(grad_a, a.data.shape))
            if b.requires_grad:
                grad_b = np.swapaxes(a.data, -1, -2) @ out.grad
                _add_grad(b, _unbroadcast(grad_b, b.data.shape))

        out._backward_fn = _backward
    return out


def _expand_reduced(grad, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(grad, shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    if not keepdims:
        for ax in sorted(a % len(shape) for a in axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out, tracked = _from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if tracked:

        def _backward():
            _add_grad(a, _expand_reduced(out.grad, a.data.shape, axis, keepdims))

        out._backward_fn = _backward
    return out


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return sum_(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(a: Tensor, shape) -> Tensor:
    out, tracked = _from_op(a.data.reshape(shape), (a,))
    if tracked:

        def _backward():
            _add_grad(a, out.grad.reshape(a.data.shape))

        out._backward_fn = _backward
    return out


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)
    out, tracked = _from_op(a.data.transpose(axes), (a,))
    if tracked:

        def _backward():
            _add_grad(a, out.grad.transpose(inverse))

        out._backward_fn = _backward
    return out


def take(a: Tensor, key) -> Tensor:
    out, tracked = _from_op(a.data[key], (a,))
    if tracked:

        def _backward():
            grad = np.zeros_like(a.data)
            np.add.at(grad, key, out.grad)
            _add_grad(a, grad)

        out._backward_fn = _backward
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out, tracked = _from_op(data, tuple(tensors))
    if tracked:
        sizes = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

        def _backward():
            pieces = np.split(out.grad, sizes, axis=axis)
            for tensor, piece in zip(tensors, pieces):
                if tensor.requires_grad:
                    _add_grad(tensor, piece)

        out._backward_fn = _backward
    return out


def tanh(a: Tensor) -> Tensor:
    out, tracked = _from_op(np.tanh(a.data), (a,))
    if tracked:

        def _backward():
            _add_grad(a, out.grad * (1.0 - out.data * out.data))

        out._backward_fn = _backward
    return out


def sigmoid(a: Tensor) -> Tensor:
    out, tracked = _from_op(expit(a.data), (a,))
    if tracked:

        def _backward():
            _add_grad(a, out.grad * out.data * (1.0 - out.data))

        out._backward_fn = _backward
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=axis, keepdims=True)
    out, tracked = _from_op(probs, (a,))
    if tracked:

        def _backward():
            dot = (out.grad * out.data).sum(axis=axis, keepdims=True)
            _add_grad(a, out.data * (out.grad - dot))

        out._backward_fn = _backward
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride_t: int = 1) -> Tensor:
    """2-D convolution, stride along time only, fixed half-kernel padding.

    x is [batch, ch_in, T, F]; kernel is [ch_out, ch_in, kh, kw] with odd
    kh, kw. Output time length is floor((T - 1) / stride_t) + 1, which for
    the 3x3 kernel equals ceil(T / stride_t); frequency length is F.

    The op runs one example at a time as an im2col GEMM. Example i's
    windows are copied into one reused [ch_in * kh * kw, t_out * f_out]
    column buffer (rows ordered channel, then kernel row, then kernel
    column, matching kernel.reshape(ch_out, -1)), and the product
    kernel @ cols is written straight into out[i] viewed as
    [ch_out, t_out * f_out]. Backward rebuilds each example's columns
    rather than keeping them, accumulates g_i @ cols_i^T into the kernel
    gradient and scatters kernel^T @ g_i back onto the padded input with
    kh * kw strided adds. No batch-wide patch tensor is built: past the
    padded input, the output and their gradients, the op holds one
    example's columns, and no example's result depends on the rest of
    the batch.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-D, got {x.data.shape}")
    if kernel.ndim != 4 or kernel.data.shape[1] != x.data.shape[1]:
        raise ShapeError(
            f"kernel {kernel.data.shape} incompatible with input {x.data.shape}"
        )
    kh, kw = kernel.data.shape[2], kernel.data.shape[3]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel sides must be odd, got {kh}x{kw}")
    if stride_t < 1:
        raise ShapeError(f"stride_t must be >= 1, got {stride_t}")
    batch, ch_in, t_in, f_in = x.data.shape
    ch_out = kernel.data.shape[0]
    pad_t, pad_f = kh // 2, kw // 2
    padded = np.pad(x.data, ((0, 0), (0, 0), (pad_t, pad_t), (pad_f, pad_f)))
    t_out = (t_in + 2 * pad_t - kh) // stride_t + 1
    f_out = f_in + 2 * pad_f - kw + 1
    t_hi = stride_t * (t_out - 1) + 1
    # [B, C, kh, kw, t_out, f_out] window view; windows[i] is example i's
    # columns before the copy that makes them one GEMM operand.
    sb, sc, st, sf = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, ch_in, kh, kw, t_out, f_out),
        strides=(sb, sc, st, sf, st * stride_t, sf),
        writeable=False,
    )
    weights = kernel.data.reshape(ch_out, -1)
    cols = np.empty(windows.shape[1:], dtype=padded.dtype)
    cols_2d = cols.reshape(weights.shape[1], -1)
    data = np.empty((batch, ch_out, t_out, f_out),
                    dtype=np.result_type(x.data, kernel.data))
    for i in range(batch):
        np.copyto(cols, windows[i])
        np.matmul(weights, cols_2d, out=data[i].reshape(ch_out, -1))
    if bias is not None:
        data += bias.data[None, :, None, None]
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    out, tracked = _from_op(data, parents)
    if tracked:

        def _backward():
            grad = out.grad
            if bias is not None and bias.requires_grad:
                _add_grad(bias, grad.sum(axis=(0, 2, 3)))
            # One fresh buffer holds cols_i, then kernel^T @ g_i: the
            # closure keeps no forward columns alive.
            cols = np.empty(windows.shape[1:], dtype=padded.dtype)
            cols_2d = cols.reshape(weights.shape[1], -1)
            if kernel.requires_grad:
                grad_w = np.zeros_like(weights)
            if x.requires_grad:
                grad_padded = np.zeros_like(padded)
            for i in range(batch):
                g_i = grad[i].reshape(ch_out, -1)
                if kernel.requires_grad:
                    np.copyto(cols, windows[i])
                    grad_w += g_i @ cols_2d.T
                if x.requires_grad:
                    np.matmul(weights.T, g_i, out=cols_2d)
                    gp = grad_padded[i]
                    for dt in range(kh):
                        for df in range(kw):
                            gp[:, dt : dt + t_hi : stride_t, df : df + f_out] += (
                                cols[:, dt, df]
                            )
            if kernel.requires_grad:
                _add_grad(kernel, grad_w.reshape(kernel.data.shape))
            if x.requires_grad:
                _add_grad(
                    x,
                    grad_padded[
                        :, :, pad_t : pad_t + t_in, pad_f : pad_f + f_in
                    ],
                )

        out._backward_fn = _backward
    return out


def dropout(x: Tensor, rate: float, train: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Zero entries with probability rate and rescale survivors in train mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an explicit random generator")
    mask = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    mask /= 1.0 - rate
    out, tracked = _from_op(x.data * mask, (x,))
    if tracked:

        def _backward():
            _add_grad(x, out.grad * mask)

        out._backward_fn = _backward
    return out


def sigmoid_bce(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Binary cross-entropy on raw logits via the stable log-sum-exp form.

    loss = max(x, 0) - x * t + log(1 + exp(-|x|)); gradient wrt x is
    sigmoid(x) - t (scaled by 1/n under mean reduction).
    """
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    t = np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.data.shape:
        raise ShapeError(
            f"targets shape {t.shape} != logits shape {logits.data.shape}"
        )
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("targets must be 0 or 1")
    x = logits.data
    elems = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    if reduction == "mean":
        data = np.asarray(elems.mean(), dtype=x.dtype)
    elif reduction == "sum":
        data = np.asarray(elems.sum(), dtype=x.dtype)
    else:
        data = elems
    out, tracked = _from_op(data, (logits,))
    if tracked:

        def _backward():
            base = expit(x) - t
            if reduction == "mean":
                _add_grad(logits, out.grad * base / x.size)
            else:
                _add_grad(logits, out.grad * base)

        out._backward_fn = _backward
    return out
