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
transpose and take, softmax, 2-D convolution and batch norm over the
examples' packed valid frames (train-mode batch norm and the dropout
after it are one node, with the closed-form backward; eval-mode batch
norm is a fixed affine that is never a node), the masked bidirectional
GRU recurrence (one node, with hand-written backpropagation through time),
dropout, and the fused sigmoid + mean binary cross-entropy loss. A
backward frees a saved input it no longer reads before it allocates
that input's gradient (matmul, conv2d), and the shape moves hand their
gradient on as a view.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeError

_grad_enabled = True
BN_EPS = 1e-5  # added to batch norm's variance
# Bytes of conv2d's column block: it holds as many output rows' windows
# as fit, so the copy and the GEMM run from L2 (sweep in CHANGES.md).
CONV_BLOCK_BYTES = 512 * 1024
# Elements of train-mode batch norm's dropout draw buffer: the float32
# uniforms are drawn this many at a time, so no float array of the
# mask's shape is built.
BN_BLOCK_ELEMS = 64 * 1024


def _expit():
    """scipy.special.expit, the logistic every model score goes through.

    scipy.special is imported at the first call, not with the package:
    it is about 26 MB resident, which a process that runs no model (the
    front-ends, `sdckws extract`) never needs. No numpy expression
    matches expit's float32 rounding bit for bit.
    """
    from scipy.special import expit

    return expit


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
    for this node alone, or that grad is a view of the op's own output
    gradient, which backward drops right after (reshape, transpose), so
    a first gradient of the right shape becomes .grad as it is. Any
    other first gradient may alias or broadcast a buffer that something
    else still reads (the op's output gradient, a view of it that
    another parent also gets, or the backward seed) and is copied.
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
        nonlocal a_data
        if nb is not None:
            grad_b = np.swapaxes(a_data, -1, -2) @ grad
            _add_grad(nb, _unbroadcast(grad_b, nb.shape), fresh=True)
        a_data = None  # a backward runs once: free a before a's gradient
        if na is not None:
            grad_a = grad @ np.swapaxes(b_data, -1, -2)
            _add_grad(na, _unbroadcast(grad_a, na.shape), fresh=True)

    return _from_op(data, (na, nb), _backward)


def reshape(a: Tensor, shape) -> Tensor:
    na = _grad_node(a)

    def _backward(grad):
        _add_grad(na, grad.reshape(na.shape), fresh=True)

    return _from_op(a.data.reshape(shape), (na,), _backward)


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)
    na = _grad_node(a)

    def _backward(grad):
        _add_grad(na, grad.transpose(inverse), fresh=True)

    return _from_op(a.data.transpose(axes), (na,), _backward)


def take(a: Tensor, key) -> Tensor:
    """a[key]; backward adds the gradient back with np.add.at, so an entry
    picked twice gets both gradients."""
    na = _grad_node(a)

    def _backward(grad):
        scattered = np.zeros(na.shape, dtype=na.dtype)
        np.add.at(scattered, key, grad)
        _add_grad(na, scattered, fresh=True)

    return _from_op(a.data[key], (na,), _backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=axis, keepdims=True)
    na = _grad_node(a)

    def _backward(grad):
        dot = (grad * probs).sum(axis=axis, keepdims=True)
        _add_grad(na, probs * (grad - dot), fresh=True)

    return _from_op(probs, (na,), _backward)


def _row_blocks(x, lengths, out_lengths, kh, kw, stride_t, dilate=1):
    """im2col of packed x [C, N, F] in blocks of output rows.

    x holds the examples' frames back to back, lengths[i] of them for
    example i, which gives out_lengths[i] output rows. Each example is
    copied in turn into one reused zeroed frame, its rows dilate apart
    (the input gradient's zero-stuffed output gradient) after kh // 2
    rows and kw // 2 columns of zeros; the rows past its end that an
    earlier, longer example wrote are zeroed again. For each block of
    output rows, every stride_t-th frame row, the kh x kw windows are
    copied into one reused [C * kh * kw, n * F] block (rows ordered
    channel, kernel row, kernel column, as kernel.reshape(ch_out, -1)),
    and (rows, cols) is yielded: rows is the slice of the packed output
    rows, cols the block's first n * F columns, valid until the next
    yield. A block holds as many rows as fit CONV_BLOCK_BYTES, so the
    copy and the GEMM run from cache; neither it nor the frame grows
    with the batch.
    """
    ch_in, _, f_in = x.shape
    pad_t, pad_f = kh // 2, kw // 2
    t_out = max(out_lengths)
    height = max(dilate * (max(lengths) - 1), stride_t * (t_out - 1)) + 1 + 2 * pad_t
    frame = np.zeros((ch_in, height, f_in + 2 * pad_f), dtype=x.dtype)
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
    start = out_start = 0
    for n_in, n_out in zip(lengths, out_lengths):
        end = pad_t + dilate * (n_in - 1) + 1
        frame[:, pad_t:end:dilate, pad_f : pad_f + f_in] = x[:, start : start + n_in]
        frame[:, end : stride_t * (n_out - 1) + kh] = 0.0
        for t0 in range(0, n_out, size):
            n = min(size, n_out - t0)
            np.copyto(block[:, :, :, :n], windows[:, :, :, t0 : t0 + n])
            yield slice(out_start + t0, out_start + t0 + n), block_2d[:, : n * f_in]
        start, out_start = start + n_in, out_start + n_out


def conv2d(x: Tensor, kernel: Tensor, lengths, stride_t: int = 1) -> Tensor:
    """2-D convolution of packed examples, stride along time only.

    x [ch_in, N, F] holds the examples' frames back to back, lengths[i]
    of them for example i (each >= 1, summing to N); kernel is [ch_out,
    ch_in, kh, kw] with odd kh, kw. Each example is zero-padded by half
    the kernel at its own ends and gives ceil(lengths[i] / stride_t)
    output rows of F columns, packed the same way into [ch_out, M, F].

    All three products are GEMMs over _row_blocks, im2col in blocks of
    output rows (Chellapilla et al. 2006). The output is kernel @ cols,
    written straight into out[:, rows] viewed as [ch_out, n * F] (a view:
    a block's rows are contiguous within each channel); there is no bias,
    as batch norm follows each conv. The kernel gradient sums
    (cols @ grad[:, rows]^T)^T over the same blocks. The input gradient is
    the same stride-1 correlation with the flipped, channel-transposed
    kernel over the output gradient, which _row_blocks dilates by
    stride_t into its frame, so every stride takes one path. Past the
    input, the output and their gradients, each pass holds one
    example's padded frame and one column block, and no example's result
    depends on the rest of the batch. The node keeps x's array, which
    backward reads for the kernel gradient and then frees, before it
    allocates the input gradient.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv2d input must be packed [C, N, F], got {x.data.shape}")
    if kernel.ndim != 4 or kernel.data.shape[1] != x.data.shape[0]:
        raise ShapeError(
            f"kernel {kernel.data.shape} incompatible with input {x.data.shape}"
        )
    kh, kw = kernel.data.shape[2], kernel.data.shape[3]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel sides must be odd, got {kh}x{kw}")
    if stride_t < 1:
        raise ShapeError(f"stride_t must be >= 1, got {stride_t}")
    x_data = x.data
    ch_in, n_in, f_in = x_data.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths.ndim != 1 or not lengths.size or lengths.min() < 1
            or lengths.sum() != n_in):
        raise ShapeError(f"conv2d lengths {lengths.tolist()} must be frame"
                         f" counts >= 1 that sum to N={n_in}")
    out_lengths = (lengths - 1) // stride_t + 1
    ch_out = kernel.data.shape[0]
    weights = kernel.data.reshape(ch_out, -1)
    data = np.empty((ch_out, out_lengths.sum(), f_in),
                    dtype=np.result_type(x_data, kernel.data))
    for rows, cols in _row_blocks(x_data, lengths, out_lengths, kh, kw, stride_t):
        np.matmul(weights, cols, out=data[:, rows].reshape(ch_out, -1))
    nx, nk = _grad_node(x), _grad_node(kernel)

    def _backward(grad):
        nonlocal x_data
        if nk is not None:
            # Summed transposed, as cols @ grad^T: a faster BLAS path than
            # grad @ cols^T, with the same bits (a test compares the two).
            grad_wt = np.zeros_like(weights.T)
            blocks = _row_blocks(x_data, lengths, out_lengths, kh, kw, stride_t)
            for rows, cols in blocks:
                grad_wt += cols @ grad[:, rows].reshape(ch_out, -1).T
            _add_grad(nk, grad_wt.T.reshape(nk.shape), fresh=True)
        x_data = blocks = None  # free x before x's gradient is allocated
        if nx is not None:
            flipped = weights.reshape(ch_out, ch_in, kh, kw)[:, :, ::-1, ::-1]
            flipped = flipped.transpose(1, 0, 2, 3).reshape(ch_in, -1)
            grad_x = np.empty((ch_in, n_in, f_in), dtype=nx.dtype)
            blocks = _row_blocks(grad, out_lengths, lengths, kh, kw, 1,
                                 dilate=stride_t)
            for rows, cols in blocks:
                np.matmul(flipped, cols, out=grad_x[:, rows].reshape(ch_in, -1))
            _add_grad(nx, grad_x, fresh=True)

    return _from_op(data, (nx, nk), _backward)


def _channel_dot(a, b):
    """Per-channel sum of a * b over [C, N, F]: per frame, then over frames."""
    return np.einsum("cnf,cnf->cn", a, b).sum(axis=1)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, moments=None,
               rate: float = 0.0, rng: np.random.Generator | None = None):
    """Per-channel batch norm of packed frames x [C, N, F]; returns (out, (mean, var)).

    out = gamma * (x - mean) / sqrt(var + eps) + beta, with eps BN_EPS.
    x holds real frames only (conv2d's packed layout), so every position
    counts.

    moments=None is train mode: mean and var are the biased per-channel
    statistics over the n = N * F positions, returned so the caller can
    fold them into running moments. Dropout at rate follows, fused as in
    Rota Bulo et al. (2018): it draws rng's float32 uniforms in C order
    of [C, N, F], as dropout() would, but BN_BLOCK_ELEMS at a time into
    one small buffer that is compared into the boolean keep mask, then
    zeroes an entry whose draw is below rate and scales the others by
    1 / (1 - rate). The output is written in whole-array passes into a
    frame-major array, [N, C, F] in memory, so the [N, C * F] rows
    gru_a1 reads are a view of it. The op keeps the normalized input
    xhat, the per-channel 1 / sqrt(var + eps) and the keep mask, not x
    or the output, and its backward masks the output gradient in place,
    then takes the closed form of Ioffe & Szegedy (2015), with g the
    masked gradient: dx = gamma / sqrt(var + eps) *
    (g - sum(g) / n - xhat * sum(g xhat) / n). Each element goes through
    the arithmetic of batch norm then dropout() as separate ops, so the
    bits are theirs.

    moments=(mean, var) is eval mode, where rate and rng are unused:
    they fold into one per-channel scale = gamma / sqrt(var + eps) and
    shift = beta - mean * scale that make the output in one pass, and
    are returned as given. Nothing differentiates inference, so the
    result is never a graph node.
    """
    if x.ndim != 3:
        raise ShapeError(
            f"batch norm expects packed frames [C, N, F], got {x.data.shape}")
    channels, rows, width = x.data.shape
    if rows == 0:
        raise ShapeError("batch norm needs at least one frame")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if moments is None and rate and rng is None:
        raise ValueError("train-mode dropout needs an explicit random generator")
    shape = (-1, 1, 1)
    gamma_data = gamma.data

    if moments is not None:
        mean, var = moments
        scale = gamma_data * (1.0 / np.sqrt(var + BN_EPS))
        data = x.data * scale.reshape(shape)
        data += (beta.data - mean * scale).reshape(shape)
        return Tensor(data), moments

    count = rows * width
    mean = x.data.sum(axis=(1, 2)) / count
    xhat = x.data - mean.reshape(shape)
    var = _channel_dot(xhat, xhat) / count
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv.reshape(shape)
    dtype = np.result_type(xhat, gamma_data)
    data = np.empty((rows, channels, width), dtype).transpose(1, 0, 2)
    np.multiply(xhat, gamma_data.reshape(shape), out=data)
    data += beta.data.reshape(shape)
    keep = None
    if rate:
        keep = np.empty(xhat.shape, dtype=bool)
        flat = keep.reshape(-1)
        draws = np.empty(min(flat.size, BN_BLOCK_ELEMS), np.float32)
        for start in range(0, flat.size, BN_BLOCK_ELEMS):
            drawn = draws[: flat.size - start]
            rng.random(dtype=np.float32, out=drawn)
            np.greater_equal(drawn, rate, out=flat[start : start + len(drawn)])
        drop_scale = 1.0 / (1.0 - rate)
        data *= drop_scale
        data *= keep
    nx, ngamma, nbeta = _grad_node(x), _grad_node(gamma), _grad_node(beta)

    def _backward(grad):
        if keep is not None:
            # The node's own gradient buffer, read by nothing after this.
            grad *= drop_scale
            grad *= keep
        d_beta = grad.sum(axis=(1, 2))
        if nbeta is not None:
            _add_grad(nbeta, d_beta, fresh=True)
        d_gamma = _channel_dot(grad, xhat)
        if ngamma is not None:
            _add_grad(ngamma, d_gamma, fresh=True)
        if nx is not None:
            # A backward runs once, so dx is built in xhat's buffer.
            dx = xhat
            dx *= (-d_gamma / count).reshape(shape)
            dx += grad
            dx -= (d_beta / count).reshape(shape)
            dx *= (gamma_data * inv).reshape(shape)
            _add_grad(nx, dx, fresh=True)

    return _from_op(data, (nx, ngamma, nbeta), _backward), (mean, var)


def _rowwise(h, u):
    """h @ u as one vector-matrix product per row.

    numpy sends a one-row 2-D product to gemv and a taller one to gemm,
    and the two round differently; per-row products keep an example's
    state bit-identical whatever batch it runs in.
    """
    return np.matmul(h[:, None, :], u)[:, 0]


def gru_scan(pre: Tensor, u_zr: Tensor, u_h: Tensor, mask) -> Tensor:
    """Masked bidirectional GRU recurrence; returns the states [B, T, 2H].

    pre [B, T, 6H] holds the input pre-activations x_t W + b, forward
    [z | r | h] gate blocks then backward; it may be just the rows
    [N, 6H] of the frames where the mask [B, T] is nonzero, in
    (example, frame) order. u_zr [2, H, 2H] = [Uz | Ur] and u_h
    [2, H, H] = Uh, forward then backward. From a zero state each
    direction runs
    z_t = sigmoid(p_z + h_{t-1} Uz), r_t likewise with p_r and Ur,
    c_t = tanh(p_h + (r_t * h_{t-1}) Uh), h_t = z_t * h_{t-1} + (1 - z_t) c_t,
    forward from the first frame into out[..., :H], backward from the last
    into out[..., H:], carrying h_{t-1} over frames where mask is 0. The
    scan is one node; tracked, it keeps the states and z, r and c per
    direction and step, and backward runs backpropagation through time
    into a gradient shaped like pre and per-step sums for u_zr and u_h.
    """
    valid = np.asarray(mask) > 0
    if pre.ndim not in (2, 3) or valid.ndim != 2:
        raise ShapeError(f"gru expects [B, T, 6H] or masked rows and a mask"
                         f" [B, T], got {pre.data.shape} and {valid.shape}")
    packed = pre.ndim == 2
    batch, steps = valid.shape
    if steps == 0:
        raise ShapeError("gru needs at least one frame")
    if pre.data.shape[:-1] != ((valid.sum(),) if packed else valid.shape):
        raise ShapeError(
            f"gru mask {valid.shape} does not match input {pre.data.shape}")
    nodes = npre, nzr, nh = [_grad_node(t) for t in (pre, u_zr, u_h)]
    tracked = _tracked(nodes)
    dtype = np.result_type(pre.data, u_zr.data, u_h.data)
    u_zr, u_h = u_zr.data, u_h.data
    hidden = u_h.shape[1]
    full = pre.data
    if packed:
        full = np.zeros((batch, steps, 6 * hidden), dtype=dtype)
        full[valid] = pre.data
    seq = np.empty((batch, steps, 2 * hidden), dtype=dtype)
    # gates[d, t] is [z | r | c] of direction d at frame t; untracked,
    # one step's buffer.
    gates = np.empty((2, steps if tracked else 1, batch, 3 * hidden), dtype=dtype)
    sz, sr, sc = (slice(k * hidden, (k + 1) * hidden) for k in range(3))
    szr = slice(0, 2 * hidden)
    orders = (range(steps), range(steps - 1, -1, -1))
    h0 = np.zeros((batch, hidden), dtype=dtype)
    expit = _expit()
    for d, order in enumerate(orders):
        p = full[:, :, 3 * d * hidden : 3 * (d + 1) * hidden]
        h = h0
        for t in order:
            g = gates[d, t if tracked else 0]
            np.add(p[:, t, szr], _rowwise(h, u_zr[d]), out=g[:, szr])
            expit(g[:, szr], out=g[:, szr])
            z, r, c = g[:, sz], g[:, sr], g[:, sc]
            np.add(p[:, t, sc], _rowwise(r * h, u_h[d]), out=c)
            np.tanh(c, out=c)
            h = np.where(valid[:, t, None], z * h + (1.0 - z) * c, h)
            seq[:, t, d * hidden : (d + 1) * hidden] = h

    def _backward(grad):
        d_pre = np.empty((batch, steps, 6 * hidden), dtype=dtype)
        d_uzr = np.zeros_like(u_zr)
        d_uh = np.zeros_like(u_h)
        for d, order in enumerate(orders):
            states = seq[:, :, d * hidden : (d + 1) * hidden]
            d_seq = grad[:, :, d * hidden : (d + 1) * hidden]
            d_p = d_pre[:, :, 3 * d * hidden : 3 * (d + 1) * hidden]
            dh = h0
            for i in range(steps - 1, -1, -1):
                t = order[i]
                h_prev = states[:, order[i - 1]] if i else h0
                z, r, c = gates[d, t, :, sz], gates[d, t, :, sr], gates[d, t, :, sc]
                dh = dh + d_seq[:, t]
                keep = valid[:, t, None]
                dh_new, dh = np.where(keep, dh, 0.0), np.where(keep, 0.0, dh)
                dp = d_p[:, t]
                np.multiply(dh_new * (1.0 - z), 1.0 - c * c, out=dp[:, sc])
                d_rh = dp[:, sc] @ u_h[d].T
                d_uh[d] += (r * h_prev).T @ dp[:, sc]
                np.multiply(dh_new * (h_prev - c), z * (1.0 - z), out=dp[:, sz])
                np.multiply(d_rh * h_prev, r * (1.0 - r), out=dp[:, sr])
                d_uzr[d] += h_prev.T @ dp[:, szr]
                dh = dh + dh_new * z + d_rh * r + dp[:, szr] @ u_zr[d].T
        if npre is not None:
            _add_grad(npre, d_pre[valid] if packed else d_pre, fresh=True)
        if nzr is not None:
            _add_grad(nzr, d_uzr, fresh=True)
        if nh is not None:
            _add_grad(nh, d_uh, fresh=True)

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
        _add_grad(nx, grad * (_expit()(x) - t) / x.size, fresh=True)

    return _from_op(data, (nx,), _backward)
