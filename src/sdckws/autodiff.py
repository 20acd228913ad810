"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray. Every op records its node through _from_op,
with a closure from the result's gradient to its inputs'; backward()
walks the graph in reverse topological order and accumulates gradients
into every node that requires them. The graph is made of nodes, not of
activations: a tracked op result's node holds its parents' nodes, the
closure, and the shape and dtype a gradient takes, never the result's
.data, and each closure captures exactly the arrays its backward reads.
An activation that backward does not read is freed as soon as the
caller drops its Tensor. A leaf that requires grad is its own node, so
its gradient lands in its .grad. The op set is exactly what the
matcher's training loss reaches, and a test walks that loss's graph to
keep it so: broadcasting add and mul, matmul, the shape moves reshape,
transpose, take and concat, softmax, 2-D convolution, masked batch
norm (one node, with the closed-form backward), the masked GRU scan
(one node per direction, with hand-written backpropagation through
time), dropout, and the fused sigmoid + mean binary cross-entropy loss.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import expit

from .errors import ShapeError

_grad_enabled = True
BN_EPS = 1e-5  # added to batch norm's variance
# Bytes of conv2d's column block: it holds as many output rows' windows
# as fit, so the copy and the GEMM run from L2 (sweep in CHANGES.md).
CONV_BLOCK_BYTES = 512 * 1024


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


class _Node:
    """The graph record of one tracked op result, without its .data.

    It holds the parents' nodes, the backward closure, the gradient
    while backward runs, and the shape and dtype that gradient takes.
    """

    __slots__ = ("grad", "shape", "dtype", "_parents", "_backward_fn")

    def __init__(self, data, parents, backward):
        self.grad = None
        self.shape = data.shape
        self.dtype = data.dtype
        self._parents = parents
        self._backward_fn = backward


class Tensor:
    """Dense array plus the bookkeeping for reverse-mode gradients.

    A tracked op result points at its _Node; a leaf has none and, when
    it requires grad, is a node itself (no parents, no closure).
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _coerce_array(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._node = None

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node._backward_fn

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
        root = self if self._node is None else self._node
        topo = []
        visited = set()
        stack = [(root, False)]
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
        _add_grad(root, np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node._backward_fn = None
                node._parents = ()
                node.grad = None

    # Arithmetic operators are defined below as module functions and
    # attached here so closures can reference helpers declared later.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes)


def _as_tensor(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.dtype))


def _grad_node(tensor: Tensor):
    """The node tensor's gradient flows into, or None if it needs none."""
    if not tensor.requires_grad:
        return None
    return tensor if tensor._node is None else tensor._node


def _add_grad(node, grad, fresh: bool = False):
    """Accumulate grad into node.grad.

    node is a _Node or a leaf Tensor; only its grad, shape and dtype are
    read, never an activation. fresh=True means the op allocated grad
    for this node alone, so a first gradient of the right shape becomes
    .grad as it is. Any other first gradient may alias or broadcast
    another node's buffer (the op's output gradient itself, a view of
    it, or the backward seed) and is copied.
    """
    if node.grad is not None:
        node.grad += grad
    elif fresh and np.shape(grad) == node.shape:
        node.grad = np.asarray(grad, dtype=node.dtype)
    else:
        node.grad = np.broadcast_to(grad, node.shape).astype(node.dtype)


def _tracked(nodes) -> bool:
    """Whether an op whose inputs have these _grad_node()s records a node."""
    return _grad_enabled and any(n is not None for n in nodes)


def _from_op(data, nodes, backward) -> Tensor:
    """Wrap an op result; the one place a graph node is recorded.

    nodes are the inputs' _grad_node()s. A tracked result gets a _Node
    holding the non-None ones, backward (which maps the result's
    gradient into theirs; Tensor.backward calls it once), and data's
    shape and dtype, but not data: backward reads only the arrays its
    closure captured, so the result's array lives as long as its Tensor
    (or a closure that reads it) does.
    """
    out = Tensor(data)
    if _tracked(nodes):
        out.requires_grad = True
        out._node = _Node(out.data, tuple(n for n in nodes if n is not None),
                          backward)
    return out


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
    na, nb = _grad_node(a), _grad_node(b)

    def _backward(grad):
        if na is not None:
            _add_grad(na, _unbroadcast(grad, na.shape))
        if nb is not None:
            _add_grad(nb, _unbroadcast(grad, nb.shape))

    return _from_op(a.data + b.data, (na, nb), _backward)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    na, nb = _grad_node(a), _grad_node(b)
    a_data, b_data = a.data, b.data

    def _backward(grad):
        if na is not None:
            _add_grad(na, _unbroadcast(grad * b_data, na.shape), fresh=True)
        if nb is not None:
            _add_grad(nb, _unbroadcast(grad * a_data, nb.shape), fresh=True)

    return _from_op(a_data * b_data, (na, nb), _backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul needs >= 2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    a_data, b_data = a.data, b.data
    try:
        data = a_data @ b_data
    except ValueError as exc:
        raise ShapeError(str(exc)) from None
    na, nb = _grad_node(a), _grad_node(b)

    def _backward(grad):
        if na is not None:
            grad_a = grad @ np.swapaxes(b_data, -1, -2)
            _add_grad(na, _unbroadcast(grad_a, na.shape), fresh=True)
        if nb is not None:
            grad_b = np.swapaxes(a_data, -1, -2) @ grad
            _add_grad(nb, _unbroadcast(grad_b, nb.shape), fresh=True)

    return _from_op(data, (na, nb), _backward)


def reshape(a: Tensor, shape) -> Tensor:
    na = _grad_node(a)

    def _backward(grad):
        _add_grad(na, grad.reshape(na.shape))

    return _from_op(a.data.reshape(shape), (na,), _backward)


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)
    na = _grad_node(a)

    def _backward(grad):
        _add_grad(na, grad.transpose(inverse))

    return _from_op(a.data.transpose(axes), (na,), _backward)


def take(a: Tensor, key) -> Tensor:
    na = _grad_node(a)

    def _backward(grad):
        scattered = np.zeros(na.shape, dtype=na.dtype)
        np.add.at(scattered, key, grad)
        _add_grad(na, scattered, fresh=True)

    return _from_op(a.data[key], (na,), _backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    nodes = [_grad_node(t) for t in tensors]
    lengths = [t.data.shape[axis] for t in tensors]

    def _backward(grad):
        pieces = np.split(grad, np.cumsum(lengths)[:-1], axis=axis)
        for node, piece in zip(nodes, pieces):
            if node is not None:
                _add_grad(node, piece)

    return _from_op(data, nodes, _backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=axis, keepdims=True)
    na = _grad_node(a)

    def _backward(grad):
        dot = (grad * probs).sum(axis=axis, keepdims=True)
        _add_grad(na, probs * (grad - dot), fresh=True)

    return _from_op(probs, (na,), _backward)


def _row_blocks(x, kh, kw, stride_t, t_out, dilate=1):
    """im2col of unpadded x [B, C, T, F] in blocks of output rows.

    Each example is copied in turn into one reused zeroed frame, its
    rows dilate apart (the input gradient's zero-stuffed output
    gradient) after kh // 2 rows and kw // 2 columns of zeros. For each
    block of output rows, every stride_t-th frame row, the kh x kw
    windows are copied into one reused [C * kh * kw, n * F] block (rows
    ordered channel, kernel row, kernel column, as kernel.reshape(ch_out,
    -1)), and (i, rows, cols) is yielded: rows is the slice of output
    rows, cols the block's first n * F columns, valid until the next
    yield. A block holds as many rows as fit CONV_BLOCK_BYTES, so the
    copy and the GEMM run from cache; neither it nor the frame grows
    with the batch.
    """
    batch, ch_in, t_in, f_in = x.shape
    pad_t, pad_f = kh // 2, kw // 2
    height = max(dilate * (t_in - 1), stride_t * (t_out - 1)) + 1 + 2 * pad_t
    frame = np.zeros((ch_in, height, f_in + 2 * pad_f), dtype=x.dtype)
    inner = frame[:, pad_t : pad_t + dilate * t_in : dilate, pad_f : pad_f + f_in]
    sc, st, sf = frame.strides
    windows = np.lib.stride_tricks.as_strided(
        frame,
        shape=(ch_in, kh, kw, t_out, f_in),
        strides=(sc, st, sf, st * stride_t, sf),
        writeable=False,
    )
    depth = ch_in * kh * kw
    size = min(t_out, max(1, CONV_BLOCK_BYTES // (depth * f_in * x.itemsize)))
    block = np.empty((ch_in, kh, kw, size, f_in), dtype=x.dtype)
    block_2d = block.reshape(depth, -1)
    for i in range(batch):
        inner[...] = x[i]
        for t0 in range(0, t_out, size):
            n = min(size, t_out - t0)
            np.copyto(block[:, :, :, :n], windows[:, :, :, t0 : t0 + n])
            yield i, slice(t0, t0 + n), block_2d[:, : n * f_in]


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride_t: int = 1) -> Tensor:
    """2-D convolution, stride along time only, fixed half-kernel padding.

    x is [batch, ch_in, T, F]; kernel is [ch_out, ch_in, kh, kw] with odd
    kh, kw. Output time length is floor((T - 1) / stride_t) + 1, which for
    the 3x3 kernel equals ceil(T / stride_t); frequency length is F.

    All three products are GEMMs over _row_blocks, im2col in blocks of
    output rows (Chellapilla et al. 2006), which pads one example at a
    time. The output is kernel @ cols, written straight into
    out[i, :, rows] viewed as [ch_out, n * F] (a view: a block's rows
    are contiguous within each channel). The kernel gradient sums
    grad[i, :, rows] @ cols^T over the same blocks. The input gradient
    is the same stride-1 correlation with the flipped, channel-transposed
    kernel over the output gradient, which _row_blocks dilates by
    stride_t into its frame, so every stride takes one path. Past the
    input, the output and their gradients, each pass holds one
    example's padded frame and one column block, never a padded batch or
    one example's whole columns, and no example's result depends on the
    rest of the batch. The node keeps x's array, which backward reads.
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
    x_data = x.data
    batch, ch_in, t_in, f_in = x_data.shape
    ch_out = kernel.data.shape[0]
    t_out = (t_in - 1) // stride_t + 1
    weights = kernel.data.reshape(ch_out, -1)
    data = np.empty((batch, ch_out, t_out, f_in),
                    dtype=np.result_type(x_data, kernel.data))
    for i, rows, cols in _row_blocks(x_data, kh, kw, stride_t, t_out):
        np.matmul(weights, cols, out=data[i, :, rows].reshape(ch_out, -1))
    if bias is not None:
        data += bias.data[None, :, None, None]
    nx, nk = _grad_node(x), _grad_node(kernel)
    nb = None if bias is None else _grad_node(bias)

    def _backward(grad):
        if nb is not None:
            _add_grad(nb, grad.sum(axis=(0, 2, 3)), fresh=True)
        if nk is not None:
            grad_w = np.zeros_like(weights)
            for i, rows, cols in _row_blocks(x_data, kh, kw, stride_t, t_out):
                grad_w += grad[i, :, rows].reshape(ch_out, -1) @ cols.T
            _add_grad(nk, grad_w.reshape(nk.shape), fresh=True)
        if nx is not None:
            flipped = weights.reshape(ch_out, ch_in, kh, kw)[:, :, ::-1, ::-1]
            flipped = flipped.transpose(1, 0, 2, 3).reshape(ch_in, -1)
            grad_x = np.empty((batch, ch_in, t_in, f_in), dtype=nx.dtype)
            blocks = _row_blocks(grad, kh, kw, 1, t_in, dilate=stride_t)
            for i, rows, cols in blocks:
                np.matmul(flipped, cols, out=grad_x[i, :, rows].reshape(ch_in, -1))
            _add_grad(nx, grad_x, fresh=True)

    return _from_op(data, (nx, nk, nb), _backward)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, mask=None,
               moments=None):
    """Masked per-channel batch norm of x [B, C, T, F]; returns (out, (mean, var)).

    out = gamma * (x - mean) / sqrt(var + eps) + beta where mask
    [B, 1, T, 1] is nonzero and 0 elsewhere, so padded positions leave
    the op zeroed whatever they held. mask=None marks every position
    valid, and eps is BN_EPS.

    moments=None is train mode: mean and var are the biased per-channel
    statistics of the valid positions only, returned so the caller can
    fold them into running moments. The op keeps the normalized input
    xhat (zero where masked) and the per-channel 1 / sqrt(var + eps), not
    x, and its backward is the closed form of Ioffe & Szegedy (2015) over
    the n valid positions, with g the masked output gradient:
    dx = gamma / sqrt(var + eps) * (g - sum(g) / n - xhat * sum(g xhat) / n).

    moments=(mean, var) is eval mode: they fold into one per-channel
    scale = gamma / sqrt(var + eps) and shift = beta - mean * scale that
    make the output in one pass, and are returned as given; a tracked
    eval-mode node keeps x, which gamma's gradient reads.
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
    nx, ngamma, nbeta = _grad_node(x), _grad_node(gamma), _grad_node(beta)
    gamma_data = gamma.data

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
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv.reshape(shape) * valid
        data = xhat * gamma_data.reshape(shape)
        data += beta.data.reshape(shape) * valid
    else:
        mean, var = moments
        inv = 1.0 / np.sqrt(var + BN_EPS)
        scale = gamma_data * inv
        x_data = x.data
        data = x_data * (scale.reshape(shape) * valid)
        data += (beta.data - mean * scale).reshape(shape) * valid

    def _backward(grad):
        d_beta = valid_sum(grad.sum(axis=3))
        if nbeta is not None:
            _add_grad(nbeta, d_beta, fresh=True)
        if moments is None:
            # xhat is zero where masked, so this sum needs no mask.
            d_gamma = np.einsum("bctf,bctf->bct", grad, xhat).sum(axis=(0, 2))
            if ngamma is not None:
                _add_grad(ngamma, d_gamma, fresh=True)
            if nx is not None:
                # A backward runs once, so dx is built in xhat's buffer.
                dx = xhat
                dx *= (-d_gamma / count).reshape(shape)
                dx += grad
                dx -= (d_beta / count).reshape(shape)
                dx *= (gamma_data * inv).reshape(shape) * valid
                _add_grad(nx, dx, fresh=True)
        else:
            if ngamma is not None:
                d_scale = valid_sum(np.einsum("bctf,bctf->bct", grad, x_data))
                _add_grad(ngamma, (d_scale - mean * d_beta) * inv, fresh=True)
            if nx is not None:
                _add_grad(nx, grad * (scale.reshape(shape) * valid),
                          fresh=True)

    return _from_op(data, (nx, ngamma, nbeta), _backward), (mean, var)


def _rowwise(h, u):
    """h @ u as one vector-matrix product per row.

    numpy sends a one-row 2-D product to gemv and a taller one to gemm,
    and the two round differently; per-row products keep an example's
    state bit-identical whatever batch it runs in.
    """
    return np.matmul(h[:, None, :], u)[:, 0]


def gru_scan(x: Tensor, w: Tensor, u_zr: Tensor, u_h: Tensor, b: Tensor,
             mask=None, reverse: bool = False) -> Tensor:
    """Masked GRU over x [B, T, in]; returns the state sequence [B, T, H].

    w [in, 3H] = [Wz | Wr | Wh], u_zr [H, 2H] = [Uz | Ur], u_h [H, H] = Uh
    and b [3H] = [bz | br | bh]; the state starts at zero and
    z_t = sigmoid(x_t Wz + h_{t-1} Uz + bz), r_t likewise with Wr, Ur, br,
    c_t = tanh(x_t Wh + (r_t * h_{t-1}) Uh + bh),
    h_t = z_t * h_{t-1} + (1 - z_t) * c_t.
    Frames where mask [B, T] is 0 carry h_{t-1} unchanged. reverse=True
    scans from the last frame to the first.

    The whole scan is one graph node. The three gates' input projections
    are one [B*T, in] @ w GEMM. When the op is tracked it keeps
    the input as x_2d, the state sequence, and z, r and c per step
    (h_{t-1} is the previous output), and backward
    runs backpropagation through time over them into one [B, T, 3H]
    pre-activation gradient dP; the input, w and b gradients are then
    one GEMM or sum each over dP, and the u_zr and u_h gradients are
    summed per step.
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
    nodes = [_grad_node(t) for t in (x, w, u_zr, u_h, b)]
    nx, nw, nzr, nh, nb = nodes
    tracked = _tracked(nodes)
    dtype = np.result_type(x.data, w.data, u_zr.data, u_h.data, b.data)
    w, u_zr, u_h = w.data, u_zr.data, u_h.data
    hidden = u_h.shape[0]
    x_2d = x.data.reshape(batch * steps, width)
    pre = (x_2d @ w + b.data).reshape(batch, steps, 3 * hidden)
    seq = np.empty((batch, steps, hidden), dtype=dtype)
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

    def _backward(grad):
        d_pre = np.empty((batch, steps, 3 * hidden), dtype=dtype)
        d_uzr = np.zeros_like(u_zr)
        d_uh = np.zeros_like(u_h)
        dh = h0
        for i in range(steps - 1, -1, -1):
            t = order[i]
            h_prev = seq[:, order[i - 1]] if i else h0
            z, r, c = gates[t, :, sz], gates[t, :, sr], gates[t, :, sc]
            dh = dh + grad[:, t]
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
        if nx is not None:
            _add_grad(nx, (d_2d @ w.T).reshape(nx.shape), fresh=True)
        if nw is not None:
            _add_grad(nw, x_2d.T @ d_2d, fresh=True)
        if nzr is not None:
            _add_grad(nzr, d_uzr, fresh=True)
        if nh is not None:
            _add_grad(nh, d_uh, fresh=True)
        if nb is not None:
            _add_grad(nb, d_2d.sum(axis=0), fresh=True)

    return _from_op(seq, nodes, _backward)


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
    nx = _grad_node(x)

    def _backward(grad):
        dx = grad * scale
        dx *= keep
        _add_grad(nx, dx, fresh=True)

    return _from_op(data, (nx,), _backward)


def sigmoid_bce(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy on raw logits via the stable log-sum-exp form.

    loss = mean(max(x, 0) - x * t + log(1 + exp(-|x|))) over the n
    logits; the gradient wrt x is (sigmoid(x) - t) / n.
    """
    t = np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.data.shape:
        raise ShapeError(
            f"targets shape {t.shape} != logits shape {logits.data.shape}"
        )
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("targets must be 0 or 1")
    x = logits.data
    elems = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    data = np.asarray(elems.mean(), dtype=x.dtype)
    nx = _grad_node(logits)

    def _backward(grad):
        _add_grad(nx, grad * (expit(x) - t) / x.size, fresh=True)

    return _from_op(data, (nx,), _backward)
