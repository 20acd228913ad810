"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray and records the operation that produced it
as a closure; backward() walks the graph in reverse topological order
and accumulates gradients into every tensor that requires them. The
op set is exactly what the matcher needs: broadcasting arithmetic,
matmul, sum, shape moves, indexing, the pointwise nonlinearities,
softmax, 2-D convolution, masked batch norm (one node, with the
closed-form backward), the masked GRU scan (one node per direction,
with hand-written backpropagation through time), dropout, and the
fused sigmoid + binary cross-entropy loss.
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

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

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


def _add_grad(tensor: Tensor, grad, fresh: bool = False):
    """Accumulate grad into tensor.grad.

    fresh=True means the op allocated grad for this tensor alone, so a
    first gradient of the right shape becomes .grad as it is. Any other
    first gradient may alias or broadcast another node's buffer (out.grad
    itself, a view of it, or the backward seed) and is copied.
    """
    if tensor.grad is not None:
        tensor.grad += grad
    elif fresh and np.shape(grad) == tensor.data.shape:
        tensor.grad = np.asarray(grad, dtype=tensor.data.dtype)
    else:
        tensor.grad = np.broadcast_to(grad, tensor.data.shape).astype(
            tensor.data.dtype)


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
                _add_grad(b, _unbroadcast(-out.grad, b.data.shape), fresh=True)

        out._backward_fn = _backward
    return out


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out, tracked = _from_op(a.data * b.data, (a, b))
    if tracked:

        def _backward():
            if a.requires_grad:
                _add_grad(a, _unbroadcast(out.grad * b.data, a.data.shape),
                          fresh=True)
            if b.requires_grad:
                _add_grad(b, _unbroadcast(out.grad * a.data, b.data.shape),
                          fresh=True)

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
                _add_grad(a, _unbroadcast(grad_a, a.data.shape), fresh=True)
            if b.requires_grad:
                grad_b = np.swapaxes(a.data, -1, -2) @ out.grad
                _add_grad(b, _unbroadcast(grad_b, b.data.shape), fresh=True)

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
            _add_grad(a, grad, fresh=True)

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
            _add_grad(a, out.grad * (1.0 - out.data * out.data), fresh=True)

        out._backward_fn = _backward
    return out


def sigmoid(a: Tensor) -> Tensor:
    out, tracked = _from_op(expit(a.data), (a,))
    if tracked:

        def _backward():
            _add_grad(a, out.grad * out.data * (1.0 - out.data), fresh=True)

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
            _add_grad(a, out.data * (out.grad - dot), fresh=True)

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
                _add_grad(bias, grad.sum(axis=(0, 2, 3)), fresh=True)
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
                _add_grad(kernel, grad_w.reshape(kernel.data.shape),
                          fresh=True)
            if x.requires_grad:
                # The interior view of a buffer this op allocated: no copy.
                _add_grad(
                    x,
                    grad_padded[
                        :, :, pad_t : pad_t + t_in, pad_f : pad_f + f_in
                    ],
                    fresh=True,
                )

        out._backward_fn = _backward
    return out


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, mask=None,
               moments=None, eps: float = 1e-5):
    """Masked per-channel batch norm of x [B, C, T, F]; returns (out, (mean, var)).

    out = gamma * (x - mean) / sqrt(var + eps) + beta where mask
    [B, 1, T, 1] is nonzero and 0 elsewhere, so padded positions leave
    the op zeroed whatever they held. mask=None marks every position
    valid.

    moments=None is train mode: mean and var are the biased per-channel
    statistics of the valid positions only, returned so the caller can
    fold them into running moments. The op keeps the normalized input
    xhat (zero where masked) and the per-channel 1 / sqrt(var + eps), and
    its backward is the closed form of Ioffe & Szegedy (2015) over the n
    valid positions, with g the masked output gradient:
    dx = gamma / sqrt(var + eps) * (g - sum(g) / n - xhat * sum(g xhat) / n).

    moments=(mean, var) is eval mode: they fold into one per-channel
    scale = gamma / sqrt(var + eps) and shift = beta - mean * scale that
    make the output in one pass, and are returned as given.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch norm expects [B, C, T, F], got {x.data.shape}")
    batch, _, steps, width = x.data.shape
    if batch == 0:
        raise ShapeError("batch norm needs at least one example")
    if mask is None:
        valid = np.ones((batch, 1, steps, 1), dtype=x.data.dtype)
    else:
        valid = (np.asarray(mask) > 0).astype(x.data.dtype)
        if valid.shape != (batch, 1, steps, 1):
            raise ShapeError(
                f"batch norm mask {valid.shape} does not match input"
                f" {x.data.shape}")
    shape = (1, -1, 1, 1)
    valid_bt = valid[:, :, :, 0]

    def valid_sum(rows):
        """Per-channel total of a [B, C, T] array over valid frames."""
        return (rows * valid_bt).sum(axis=(0, 2))

    if moments is None:
        count = valid.sum() * width
        if count == 0:
            raise ShapeError("batch norm needs at least one valid frame")
        mean = valid_sum(x.data.sum(axis=3)) / count
        xhat = x.data - mean.reshape(shape)
        var = valid_sum(np.einsum("bctf,bctf->bct", xhat, xhat)) / count
        inv = 1.0 / np.sqrt(var + eps)
        xhat *= inv.reshape(shape) * valid
        data = xhat * gamma.data.reshape(shape)
        data += beta.data.reshape(shape) * valid
    else:
        mean, var = moments
        inv = 1.0 / np.sqrt(var + eps)
        scale = gamma.data * inv
        data = x.data * (scale.reshape(shape) * valid)
        data += (beta.data - mean * scale).reshape(shape) * valid
    out, tracked = _from_op(data, (x, gamma, beta))
    if tracked:

        def _backward():
            grad = out.grad
            d_beta = valid_sum(grad.sum(axis=3))
            if beta.requires_grad:
                _add_grad(beta, d_beta, fresh=True)
            if moments is None:
                # xhat is zero where masked, so this sum needs no mask.
                d_gamma = np.einsum("bctf,bctf->bct", grad, xhat).sum(axis=(0, 2))
                if gamma.requires_grad:
                    _add_grad(gamma, d_gamma, fresh=True)
                if x.requires_grad:
                    # A backward runs once, so dx is built in xhat's buffer.
                    dx = xhat
                    dx *= (-d_gamma / count).reshape(shape)
                    dx += grad
                    dx -= (d_beta / count).reshape(shape)
                    dx *= (gamma.data * inv).reshape(shape) * valid
                    _add_grad(x, dx, fresh=True)
            else:
                if gamma.requires_grad:
                    d_scale = valid_sum(np.einsum("bctf,bctf->bct", grad, x.data))
                    _add_grad(gamma, (d_scale - mean * d_beta) * inv, fresh=True)
                if x.requires_grad:
                    _add_grad(x, grad * (scale.reshape(shape) * valid),
                              fresh=True)

        out._backward_fn = _backward
    return out, (mean, var)


def _rowwise(h, u):
    """h @ u as one vector-matrix product per row.

    numpy sends a one-row 2-D product to gemv and a taller one to gemm,
    and the two round differently; per-row products keep an example's
    state bit-identical whatever batch it runs in.
    """
    return np.matmul(h[:, None, :], u)[:, 0]


def gru_scan(x: Tensor, w, u, b, mask=None, reverse: bool = False) -> Tensor:
    """Masked GRU over x [B, T, in]; returns the state sequence [B, T, H].

    w = (wz, wr, wh) are [in, H], u = (uz, ur, uh) are [H, H] and
    b = (bz, br, bh) are [H]; the state starts at zero and
    z_t = sigmoid(x_t Wz + h_{t-1} Uz + bz), r_t likewise with Wr, Ur, br,
    c_t = tanh(x_t Wh + (r_t * h_{t-1}) Uh + bh),
    h_t = z_t * h_{t-1} + (1 - z_t) * c_t.
    Frames where mask [B, T] is 0 carry h_{t-1} unchanged. reverse=True
    scans from the last frame to the first.

    The whole scan is one graph node. The three gates' input projections
    are one [B*T, in] @ [in, 3H] GEMM. When the op is tracked it keeps
    z, r and c per step (h_{t-1} is the previous output), and backward
    runs backpropagation through time over them into one [B, T, 3H]
    pre-activation gradient dP; the input, input-weight and bias
    gradients are then one GEMM or sum each over dP, and the recurrent
    weight gradients are summed per step.
    """
    if x.ndim != 3:
        raise ShapeError(f"gru expects [B, T, in], got {x.data.shape}")
    batch, steps, width = x.data.shape
    if steps == 0:
        raise ShapeError("gru needs at least one frame")
    if mask is not None:
        valid = np.asarray(mask) > 0
        if valid.shape != (batch, steps):
            raise ShapeError(
                f"gru mask {valid.shape} does not match input {x.data.shape}")
    params = (*w, *u, *b)
    hidden = u[0].data.shape[0]
    dtype = np.result_type(x.data, *(p.data for p in params))
    w_all = np.concatenate([p.data for p in w], axis=1)
    u_zr = np.concatenate([u[0].data, u[1].data], axis=1)
    u_h = u[2].data
    x_2d = x.data.reshape(batch * steps, width)
    pre = (x_2d @ w_all + np.concatenate([p.data for p in b])).reshape(
        batch, steps, 3 * hidden)
    seq = np.empty((batch, steps, hidden), dtype=dtype)
    out, tracked = _from_op(seq, (x, *params))
    # gates[t] is [z | r | c] at frame t; untracked, one step's buffer.
    gates = np.empty((steps if tracked else 1, batch, 3 * hidden), dtype=dtype)
    sz, sr, sc = (slice(k * hidden, (k + 1) * hidden) for k in range(3))
    szr = slice(0, 2 * hidden)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h0 = np.zeros((batch, hidden), dtype=dtype)
    h = h0
    for t in order:
        g = gates[t if tracked else 0]
        np.add(pre[:, t, szr], _rowwise(h, u_zr), out=g[:, szr])
        expit(g[:, szr], out=g[:, szr])
        z, r, c = g[:, sz], g[:, sr], g[:, sc]
        np.add(pre[:, t, sc], _rowwise(r * h, u_h), out=c)
        np.tanh(c, out=c)
        h_new = z * h + (1.0 - z) * c
        h = h_new if mask is None else np.where(valid[:, t, None], h_new, h)
        seq[:, t] = h
    if tracked:

        def _backward():
            d_pre = np.empty((batch, steps, 3 * hidden), dtype=dtype)
            d_uzr = np.zeros_like(u_zr)
            d_uh = np.zeros_like(u_h)
            dh = h0
            for i in range(steps - 1, -1, -1):
                t = order[i]
                h_prev = seq[:, order[i - 1]] if i else h0
                z, r, c = gates[t, :, sz], gates[t, :, sr], gates[t, :, sc]
                dh = dh + out.grad[:, t]
                if mask is None:
                    dh_new, dh = dh, 0.0
                else:
                    keep = valid[:, t, None]
                    dh_new, dh = np.where(keep, dh, 0.0), np.where(keep, 0.0, dh)
                dp = d_pre[:, t]
                np.multiply(dh_new * (1.0 - z), 1.0 - c * c, out=dp[:, sc])
                d_rh = dp[:, sc] @ u_h.T
                d_uh += (r * h_prev).T @ dp[:, sc]
                np.multiply(dh_new * (h_prev - c), z * (1.0 - z), out=dp[:, sz])
                np.multiply(d_rh * h_prev, r * (1.0 - r), out=dp[:, sr])
                d_uzr += h_prev.T @ dp[:, szr]
                dh = dh + dh_new * z + d_rh * r + dp[:, szr] @ u_zr.T
            d_2d = d_pre.reshape(batch * steps, 3 * hidden)
            if any(p.requires_grad for p in w):
                _split_grads(w, x_2d.T @ d_2d)
            if x.requires_grad:
                _add_grad(x, (d_2d @ w_all.T).reshape(x.data.shape), fresh=True)
            if any(p.requires_grad for p in b):
                _split_grads(b, d_2d.sum(axis=0))
            _split_grads(u[:2], d_uzr)
            _split_grads(u[2:], d_uh)

        out._backward_fn = _backward
    return out


def _split_grads(tensors, grad):
    """Hand each tensor its equal slice of grad's last axis."""
    for tensor, piece in zip(tensors, np.split(grad, len(tensors), axis=-1)):
        if tensor.requires_grad:
            _add_grad(tensor, piece, fresh=True)


def dropout(x: Tensor, rate: float, train: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Zero entries with probability rate and rescale survivors in train mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an explicit random generator")
    # float32 draws, boolean mask: no float64 temporary, a 1-byte mask kept.
    keep = rng.random(x.data.shape, dtype=np.float32) >= rate
    scale = 1.0 / (1.0 - rate)
    data = x.data * scale
    data *= keep
    out, tracked = _from_op(data, (x,))
    if tracked:

        def _backward():
            grad = out.grad * scale
            grad *= keep
            _add_grad(x, grad, fresh=True)

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
                _add_grad(logits, out.grad * base / x.size, fresh=True)
            else:
                _add_grad(logits, out.grad * base, fresh=True)

        out._backward_fn = _backward
    return out
