"""Reverse-mode engine and layers against central finite differences.

Every gradient check runs in float64 with step 1e-5 and a fixed random
probe on the output so no direction is accidentally stationary.
"""

import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

import sdckws.autodiff as ad
from sdckws import layers
from sdckws.autodiff import Tensor, no_grad
from sdckws.errors import ShapeError
from sdckws.layers import (
    Adam,
    AdamState,
    BatchNorm,
    BiGru,
    Conv2d,
    CrossAttention,
    Dense,
    adam_step,
    glorot_uniform,
    named_tensors,
    parameter,
)

H = 1e-5
REL_TOL = 1e-4


def leaf(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def rel_error(analytic, numeric):
    # Floor the scale: a mathematically zero gradient (softmax is
    # invariant to constant key shifts) must not divide FD noise by zero.
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-6)
    return np.abs(analytic - numeric).max() / scale


def column_blocks(array, width):
    """array's width-wide blocks along its last axis; all of it for None.

    A 3-D array is a BiGru's recurrent weights stacked per direction, and
    each direction is split apart.
    """
    if width is None:
        return [array]
    stacks = array if array.ndim == 3 else [array]
    return [stack[..., k : k + width] for stack in stacks
            for k in range(0, stack.shape[-1], width)]


def numeric_grad(fn, tensor):
    """Central differences of a scalar-valued fn wrt one leaf tensor."""
    out = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = out.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + H
        with no_grad():
            up = fn()
        flat[i] = keep - H
        with no_grad():
            down = fn()
        flat[i] = keep
        grad_flat[i] = (up - down) / (2.0 * H)
    return out


def whole_columns(padded, stride, t_out, kh, kw):
    """One example's [ch_in, kh, kw, t_out, f_out] columns, built at once."""
    f_out = padded.shape[-1] - kw + 1
    cols = np.empty(padded.shape[:1] + (kh, kw, t_out, f_out),
                    dtype=padded.dtype)
    for dt in range(kh):
        for df in range(kw):
            cols[:, dt, df] = padded[:, dt : dt + stride * t_out : stride,
                                     df : df + f_out]
    return cols


def split_rows(array, lengths):
    """A packed [C, N, F] array's examples, lengths[i] frames each."""
    return np.split(array, np.cumsum(lengths)[:-1], axis=1)


def im2col_conv(x, lengths, k, stride):
    """Literal packed conv2d forward: one whole-example column matrix per GEMM."""
    ch_out, ch_in, kh, kw = k.shape
    outs = []
    for example in split_rows(x, lengths):
        padded = np.pad(example, ((0, 0), (kh // 2,) * 2, (kw // 2,) * 2))
        t_out = (example.shape[1] - 1) // stride + 1
        cols = whole_columns(padded, stride, t_out, kh, kw)
        outs.append((k.reshape(ch_out, -1) @ cols.reshape(ch_in * kh * kw, -1)
                     ).reshape(ch_out, t_out, -1))
    return np.concatenate(outs, axis=1)


def im2col_conv_grads(x, lengths, k, stride, grad):
    """Literal packed conv2d backward: (input gradient, kernel gradient).

    The kernel gradient sums g_i @ cols_i^T over whole-example columns;
    the input gradient scatters kernel^T @ g_i back onto each padded
    example with kh * kw strided adds.
    """
    ch_out, ch_in, kh, kw = k.shape
    out_lengths = [(n - 1) // stride + 1 for n in lengths]
    weights = k.reshape(ch_out, -1)
    grad_w = np.zeros_like(weights)
    grad_x = []
    for example, g in zip(split_rows(x, lengths), split_rows(grad, out_lengths)):
        padded = np.pad(example, ((0, 0), (kh // 2,) * 2, (kw // 2,) * 2))
        t_in, f_in = example.shape[1:]
        t_out = g.shape[1]
        g = g.reshape(ch_out, -1)
        cols = whole_columns(padded, stride, t_out, kh, kw)
        grad_w += g @ cols.reshape(ch_in * kh * kw, -1).T
        back = (weights.T @ g).reshape(ch_in, kh, kw, t_out, f_in)
        grad_padded = np.zeros_like(padded)
        for dt in range(kh):
            for df in range(kw):
                grad_padded[:, dt : dt + stride * t_out : stride,
                            df : df + f_in] += back[:, dt, df]
        grad_x.append(grad_padded[:, kh // 2 : kh // 2 + t_in,
                                  kw // 2 : kw // 2 + f_in])
    return np.concatenate(grad_x, axis=1), grad_w.reshape(k.shape)


def check_grads(fn, leaves, seed=None):
    """Assert analytic and numeric gradients agree for every leaf.

    fn builds a tensor. With seed=None it must be a scalar and is
    differentiated as it is; otherwise it is contracted with a normal
    probe fixed by seed: a seeded backward on the analytic side and a
    numpy dot on the numeric side. A leaf is a Tensor, scored against
    its own largest gradient, or a (Tensor, width) pair, whose
    width-wide column blocks (a GRU tensor's gates, per direction) are
    each scored against their own.
    """
    leaves = [leaf if isinstance(leaf, tuple) else (leaf, None)
              for leaf in leaves]
    for t, _ in leaves:
        t.grad = None
    out = fn()
    probe = None if seed is None else np.random.default_rng(seed).normal(
        size=out.shape)
    out.backward(probe)

    def contracted():
        data = fn().data
        return float(data if probe is None else (data * probe).sum())

    for t, width in leaves:
        assert t.grad is not None, "gradient did not reach a leaf"
        numeric = numeric_grad(contracted, t)
        err = max(rel_error(a, n) for a, n in zip(
            column_blocks(t.grad, width), column_blocks(numeric, width)))
        assert err < REL_TOL, f"gradient mismatch: rel error {err:.3e}"


class TestTensorBasics:
    def test_item_and_shape(self):
        t = Tensor(np.array([[2.0]]))
        assert t.item() == 2.0
        assert t.shape == (1, 1)
        assert t.ndim == 2

    def test_dtype_preserved(self):
        a = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 2), np.float32))
        assert (a @ b).dtype == np.float32

    def test_backward_needs_scalar_without_seed(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2.0).backward()

    def test_backward_with_seed(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2.0).backward(np.array([1.0, 10.0, 100.0]))
        np.testing.assert_allclose(t.grad, [2.0, 20.0, 200.0])

    def test_grad_accumulates_across_fresh_graphs(self):
        t = Tensor(np.array([1.5]), requires_grad=True)
        (t * 3.0).backward()
        (t * 4.0).backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_no_grad_blocks_tracking(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad
        assert out._backward_fn is None

    def test_untracked_result_has_no_parents(self):
        out = Tensor(np.ones(3)) * Tensor(np.ones(3))
        assert out._parents == ()


# Every op that records graph nodes, called on small float64 inputs;
# make(shape) builds the op's next input tensor, in argument order.
OP_CALLS = {
    "add": lambda make: ad.add(make((2, 3)), make((3,))),
    "mul": lambda make: ad.mul(make((2, 3)), make((2, 1))),
    "matmul": lambda make: ad.matmul(make((2, 3)), make((3, 4))),
    "reshape": lambda make: ad.reshape(make((2, 3)), (3, 2)),
    "transpose": lambda make: ad.transpose(make((2, 3)), (1, 0)),
    "take": lambda make: ad.take(make((4, 3)), np.array([0, 2, 2])),
    "softmax": lambda make: ad.softmax(make((2, 3))),
    "conv2d": lambda make: ad.conv2d(make((1, 6, 3)), make((2, 1, 3, 3)),
                                     [4, 2]),
    "batch_norm": lambda make: ad.batch_norm(
        make((2, 5, 2)), make((2,)), make((2,)), None, 0.5,
        np.random.default_rng(0))[0],
    "gru_scan": lambda make: ad.gru_scan(
        make((2, 3, 12)), make((2, 2, 4)), make((2, 2, 2)), np.ones((2, 3))),
    "dropout": lambda make: ad.dropout(make((2, 3)), 0.5, True,
                                       np.random.default_rng(0)),
    "sigmoid_bce": lambda make: ad.sigmoid_bce(make((4,)),
                                               np.array([0, 1, 1, 0])),
}


def recording_ops():
    """The ops that call _from_op, found as the op-reach test finds them."""
    return sorted(name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and "_from_op" in fn.__code__.co_names)


def closure_values(fn):
    """What fn's closure holds, with lists and tuples flattened."""
    held = []
    for cell in fn.__closure__:
        try:
            value = cell.cell_contents
        except ValueError:  # a name only the other mode assigns
            continue
        held.extend(value if isinstance(value, (list, tuple)) else [value])
    return held


def graph_arrays(out):
    """Every ndarray a backward closure in out's graph holds."""
    arrays, seen, stack = [], set(), [out._node]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward_fn is None:
            continue
        seen.add(id(node))
        arrays.extend(v for v in closure_values(node._backward_fn)
                      if isinstance(v, np.ndarray))
        stack.extend(node._parents)
    return arrays


def call_op(name, needs_grad):
    """Run one op; needs_grad(i) says whether input i requires grad."""
    rng = np.random.default_rng(3)
    made = []

    def make(shape):
        made.append(Tensor(rng.normal(size=shape),
                           requires_grad=needs_grad(len(made))))
        return made[-1]

    return OP_CALLS[name](make), made


class TestRecording:
    """_from_op records a node exactly when an input requires grad."""

    def test_every_recording_op_has_a_call(self):
        assert sorted(OP_CALLS) == recording_ops()

    @pytest.mark.parametrize("name", recording_ops())
    def test_no_grad_records_nothing(self, name):
        with no_grad():
            out, _ = call_op(name, lambda i: True)
        assert not out.requires_grad
        assert out._backward_fn is None
        assert out._parents == ()

    @pytest.mark.parametrize("name", recording_ops())
    def test_constant_inputs_record_nothing(self, name):
        out, _ = call_op(name, lambda i: False)
        assert not out.requires_grad
        assert out._backward_fn is None
        assert out._parents == ()

    @pytest.mark.parametrize("which", ["first", "last"])
    @pytest.mark.parametrize("name", recording_ops())
    def test_parents_are_the_inputs_that_require_grad(self, name, which):
        _, made = call_op(name, lambda i: False)
        chosen = 0 if which == "first" else len(made) - 1
        out, made = call_op(name, lambda i: i == chosen)
        assert out.requires_grad
        assert out._backward_fn is not None
        assert len(out._parents) == 1
        assert out._parents[0] is made[chosen]


class TestActivationLifetime:
    """A node keeps what its backward reads, never an input's Tensor."""

    @pytest.mark.parametrize("name", recording_ops())
    def test_closure_holds_no_tensor(self, name):
        # Every input is an op result, whose node is not a Tensor: a
        # Tensor in the closure would keep an input's activation alive.
        rng = np.random.default_rng(3)
        out = OP_CALLS[name](lambda shape: Tensor(
            rng.normal(size=shape), requires_grad=True) * 1.0)
        held = closure_values(out._backward_fn)
        assert not [v for v in held if isinstance(v, Tensor)]

    def test_audio_block_frees_what_backward_does_not_read(self):
        # conv -> batch norm with its dropout -> conv -> transpose ->
        # reshape in train mode on two packed examples, keeping only the
        # last output: backward reads the normalized input, the keep mask
        # and conv2's input, which conv2 keeps as the batch norm output's
        # own array, never a padded copy, so every other watched array is
        # freed before it runs.
        rng = np.random.default_rng(40)
        conv1 = Conv2d(1, 3, rng, stride_t=2)
        conv2 = Conv2d(3, 3, rng)
        norm = BatchNorm(3)
        x = Tensor(rng.normal(size=(1, 14, 5)).astype(np.float32))
        watched = {}

        def watch(name, tensor):
            watched[name] = weakref.ref(tensor.data)
            return tensor

        h = watch("conv", conv1(x, [9, 5]))
        h = watch("batch norm", norm(h, True, 0.5, rng))
        h = watch("conv2", conv2(h, [5, 3]))
        h = watch("transpose", h.transpose(1, 0, 2))
        out = h.reshape(8, 15)
        del h
        kept = graph_arrays(out)
        dropped = watched.pop("batch norm")()
        assert any(array is dropped for array in kept)
        # A padded conv input would be 5 + 2 frequency bins wide.
        assert [a.shape for a in kept if a.shape[-1:] == (7,)] == []
        assert [name for name, ref in watched.items() if ref() is not None] == []
        out.backward(np.ones_like(out.data))
        for param in (conv1.kernel, norm.gamma, norm.beta, conv2.kernel):
            assert param.grad is not None and np.abs(param.grad).max() > 0


class TestGradBuffers:
    """A first gradient an op hands over must never alias another .grad."""

    @pytest.mark.parametrize("build", [
        lambda a, b: a + a,
        lambda a, b: a * a,
        lambda a, b: ad.softmax(a) * ad.softmax(a, axis=0),  # one input, two ops
        lambda a, b: a + b,
        lambda a, b: a * b + b,
        # Shape moves hand their own gradient on as a view.
        lambda a, b: a.reshape(4, 3).reshape(12).reshape(3, 4),
        lambda a, b: a.reshape(12).reshape(3, 4) + a.reshape(3, 4),
        lambda a, b: a.transpose(1, 0).transpose(1, 0) + b,
        lambda a, b: (a.transpose(1, 0).reshape(3, 4) * b
                      + b.reshape(2, 6).reshape(3, 4)),
    ], ids=["a+a", "a*a", "one-input-two-ops", "a+b", "a*b+b",
            "reshape-chain", "reshaped-twice", "transpose-chain",
            "transpose-reshape"])
    def test_no_two_grads_share_memory(self, build):
        rng = np.random.default_rng(5)
        a, b = leaf(rng, (3, 4)), leaf(rng, (3, 4))
        seed = rng.normal(size=(3, 4))
        build(a, b).backward(seed)
        buffers = [seed] + [t.grad for t in (a, b) if t.grad is not None]
        for i, first in enumerate(buffers):
            for second in buffers[i + 1:]:
                assert not np.shares_memory(first, second)


def input_freed_when_its_gradient_arrives(monkeypatch, op, x_shape):
    """Whether op(x) frees x's array before backward hands x its gradient.

    x is an op result that only op's node holds; _add_grad is watched
    for the call that delivers x's gradient.
    """
    x = Tensor(np.ones(x_shape), requires_grad=True) * 1.0
    x_node, x_data = x._node, weakref.ref(x.data)
    out = op(x)
    del x
    seen = []
    add_grad = ad._add_grad

    def watch(node, grad, fresh=False):
        if node is x_node:
            seen.append(x_data() is None)
        add_grad(node, grad, fresh)

    monkeypatch.setattr(ad, "_add_grad", watch)
    out.backward(np.ones(out.shape))
    assert len(seen) == 1
    return seen[0]


class TestBackwardFreesInputs:
    """A saved input backward no longer reads dies before its gradient."""

    def test_matmul_frees_its_left_operand(self, monkeypatch):
        w = Tensor(np.ones((6, 4)), requires_grad=True)
        assert input_freed_when_its_gradient_arrives(
            monkeypatch, lambda x: x @ w, (5, 6))
        assert w.grad is not None

    def test_conv2d_frees_its_input(self, monkeypatch):
        k = Tensor(np.ones((2, 3, 3, 3)), requires_grad=True)
        assert input_freed_when_its_gradient_arrives(
            monkeypatch, lambda x: ad.conv2d(x, k, [4, 1, 2], 2), (3, 7, 5))
        assert k.grad is not None


class TestArithmeticGradients:
    def test_add_sub_mul(self):
        rng = np.random.default_rng(0)
        a, b = leaf(rng, (3, 4)), leaf(rng, (3, 4))
        probe = 1
        # Subtraction is adding the operand scaled by -1.
        check_grads(lambda: (a + b) * a + b * -1.0, [a, b], probe)

    def test_broadcast_row_and_scalar(self):
        rng = np.random.default_rng(2)
        a, row = leaf(rng, (4, 5)), leaf(rng, (5,))
        probe = 3
        check_grads(lambda: a * row + 2.0, [a, row], probe)

    def test_broadcast_column(self):
        rng = np.random.default_rng(4)
        a, col = leaf(rng, (4, 5)), leaf(rng, (4, 1))
        probe = 5
        check_grads(lambda: a + col, [a, col], probe)

    def test_radd_rmul(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = 2.0 * (5.0 + -1.0 * a)
        out.backward()
        np.testing.assert_allclose(a.grad, [-2.0])


class TestMatmulGradients:
    def test_plain_2d(self):
        rng = np.random.default_rng(8)
        a, b = leaf(rng, (4, 6)), leaf(rng, (6, 3))
        probe = 9
        check_grads(lambda: a @ b, [a, b], probe)

    def test_batched_with_broadcast(self):
        rng = np.random.default_rng(10)
        a, b = leaf(rng, (5, 4, 6)), leaf(rng, (6, 3))
        probe = 11
        check_grads(lambda: a @ b, [a, b], probe)

    def test_batched_both_sides(self):
        rng = np.random.default_rng(12)
        a, b = leaf(rng, (2, 3, 4)), leaf(rng, (2, 4, 5))
        probe = 13
        check_grads(lambda: a @ b, [a, b], probe)

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))

    def test_rejects_mismatched(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


class TestReductionsAndShapes:
    def test_reshape_round_trip(self):
        rng = np.random.default_rng(17)
        a = leaf(rng, (3, 8))
        probe = 18
        check_grads(lambda: a.reshape(3, 2, 4), [a], probe)

    def test_transpose(self):
        rng = np.random.default_rng(19)
        a = leaf(rng, (3, 4, 5))
        probe = 20
        check_grads(lambda: a.transpose(2, 0, 1), [a], probe)
        b = leaf(rng, (3, 4))
        probe2 = 21
        check_grads(lambda: b.transpose(1, 0), [b], probe2)

    def test_take_rows(self):
        rng = np.random.default_rng(22)
        table = leaf(rng, (7, 4))
        idx = np.array([1, 1, 3, 6])
        probe = 23
        check_grads(lambda: table[idx], [table], probe)

    def test_take_repeated_rows_accumulate(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = table[np.array([0, 0, 0])]
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(table.grad, [[3.0, 3.0], [0.0, 0.0], [0.0, 0.0]])

    def test_take_boolean_mask_rows(self):
        # A boolean key picks each row once; np.add.at scatters it back.
        rng = np.random.default_rng(24)
        a = leaf(rng, (2, 4, 3))
        mask = np.array([[True, False, True, True], [False, True, False, False]])
        probe = 25
        check_grads(lambda: a[mask], [a], probe)
        np.testing.assert_array_equal(a.grad[~mask], 0.0)


class TestElementwiseGradients:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(28)
        out = ad.softmax(Tensor(rng.normal(size=(5, 7)) * 10.0))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_stability_at_extremes(self):
        out = ad.softmax(Tensor(np.array([[1000.0, 1000.0, -1000.0]])))
        np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]], atol=1e-12)

    def test_softmax_gradient(self):
        rng = np.random.default_rng(29)
        a = leaf(rng, (3, 5))
        probe = 30
        # The probe matters: an unprobed sum of softmax rows is constant.
        check_grads(lambda: ad.softmax(a), [a], probe)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(1, 11, 5)))
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        out = ad.conv2d(x, Tensor(kernel), [6, 5])
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_output_time_lengths(self):
        # Each example gives ceil(T_i / stride) rows; a 1-frame one, 1.
        rng = np.random.default_rng(32)
        kernel = Tensor(np.zeros((4, 3, 3, 3)))
        for t_in, stride, t_out in [(98, 2, 49), (97, 2, 49), (11, 2, 6),
                                    (1, 2, 1), (10, 1, 10), (1, 1, 1)]:
            x = Tensor(rng.normal(size=(3, t_in + 1, 5)))
            out = ad.conv2d(x, kernel, [t_in, 1], stride_t=stride)
            assert out.shape == (4, t_out + 1, 5)

    def test_matches_scalar_convolution(self):
        # Literal five-loop correlation, each example zero-padded at its
        # own ends.
        rng = np.random.default_rng(33)
        lengths = [5, 1, 3]
        x = rng.normal(size=(2, sum(lengths), 4))
        k = rng.normal(size=(3, 2, 3, 3))
        out = ad.conv2d(Tensor(x), Tensor(k), lengths).data
        for start, n in zip(np.cumsum([0] + lengths[:-1]), lengths):
            for co in range(3):
                for t in range(n):
                    for f in range(4):
                        acc = 0.0
                        for c in range(2):
                            for dt in range(3):
                                for df in range(3):
                                    ti, fi = t + dt - 1, f + df - 1
                                    if 0 <= ti < n and 0 <= fi < 4:
                                        acc += (x[c, start + ti, fi]
                                                * k[co, c, dt, df])
                        assert out[co, start + t, f] == pytest.approx(
                            acc, abs=1e-9)

    def test_gradients(self):
        rng = np.random.default_rng(34)
        lengths = [7, 1, 4]
        for stride in (1, 2):
            x = leaf(rng, (3, sum(lengths), 5))
            k = leaf(rng, (4, 3, 3, 3))
            probe = 35
            check_grads(lambda: ad.conv2d(x, k, lengths, stride_t=stride),
                        [x, k], probe)

    def test_batch_rows_match_single_examples_exactly(self):
        # Each example is its own GEMM, so batch composition cannot move
        # a bit of the output or of the input gradient.
        rng = np.random.default_rng(36)
        lengths = [9, 1, 6, 9, 2]
        x = rng.normal(size=(3, sum(lengths), 7)).astype(np.float32)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        for stride in (1, 2):
            whole = Tensor(x, requires_grad=True)
            out = ad.conv2d(whole, k, lengths, stride_t=stride)
            probe = rng.normal(size=out.shape).astype(np.float32)
            out.backward(probe)
            out_lengths = [(n - 1) // stride + 1 for n in lengths]
            for n, example, rows, probe_rows, grad in zip(
                    lengths, split_rows(x, lengths),
                    split_rows(out.data, out_lengths),
                    split_rows(probe, out_lengths),
                    split_rows(whole.grad, lengths)):
                alone = Tensor(example, requires_grad=True)
                row = ad.conv2d(alone, k, [n], stride_t=stride)
                row.backward(probe_rows)
                assert np.array_equal(row.data, rows)
                assert np.array_equal(alone.grad, grad)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_short_example_after_a_long_one_is_as_alone(self, stride):
        # The long example leaves its frames in the reused padded frame
        # past the short one's end; they must read as zero padding.
        rng = np.random.default_rng(44)
        lengths = [12, 3]
        x = rng.normal(size=(2, 15, 6)).astype(np.float32) + 5.0
        k = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
        both = Tensor(x, requires_grad=True)
        out = ad.conv2d(both, k, lengths, stride_t=stride)
        short_out = out.data[:, (12 - 1) // stride + 1 :]
        probe = rng.normal(size=out.shape).astype(np.float32) + 5.0
        out.backward(probe)
        alone = Tensor(x[:, 12:], requires_grad=True)
        row = ad.conv2d(alone, k, [3], stride_t=stride)
        row.backward(probe[:, (12 - 1) // stride + 1 :])
        assert np.array_equal(row.data, short_out)
        assert np.array_equal(alone.grad, both.grad[:, 12:])

    def test_batch_rows_match_single_examples_across_row_blocks(
            self, monkeypatch):
        # 8 channels at width 360 in blocks of 5 output rows: 7 rows at
        # stride 1 are 5 + 2 and 6 rows at stride 2 are 5 + 1, so both
        # end in a partial block, and the 2- and 1-row examples between
        # them in a block of their own.
        row_bytes = 8 * 3 * 3 * 360 * 4
        monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 5 * row_bytes + 7)
        rng = np.random.default_rng(41)
        k = Tensor(rng.normal(size=(4, 8, 3, 3)).astype(np.float32))
        for t_in, stride in ((7, 1), (11, 2)):
            lengths = [t_in, 2, t_in, 1]
            out_lengths = [(n - 1) // stride + 1 for n in lengths]
            x = rng.normal(size=(8, sum(lengths), 360)).astype(np.float32)
            whole = Tensor(x, requires_grad=True)
            out = ad.conv2d(whole, k, lengths, stride_t=stride)
            want = im2col_conv(x, lengths, k.data, stride)
            np.testing.assert_allclose(out.data, want, rtol=0,
                                       atol=1e-6 * np.abs(want).max())
            probe = rng.normal(size=out.shape).astype(np.float32)
            out.backward(probe)
            for n, example, rows, probe_rows, grad in zip(
                    lengths, split_rows(x, lengths),
                    split_rows(out.data, out_lengths),
                    split_rows(probe, out_lengths),
                    split_rows(whole.grad, lengths)):
                alone = Tensor(example, requires_grad=True)
                row = ad.conv2d(alone, k, [n], stride_t=stride)
                row.backward(probe_rows)
                assert np.array_equal(row.data, rows)
                assert np.array_equal(alone.grad, grad)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("ch_in, width", [(1, 360), (32, 360), (8, 40)])
    def test_kernel_gradient_is_the_row_block_sum_exactly(self, ch_in,
                                                           width, stride):
        # conv2d sums the kernel gradient transposed, as cols @ grad^T;
        # it must keep the bits of grad @ cols^T summed over the same
        # blocks. (1, 360) and (32, 360) are conv1's and conv2's shapes at
        # the default sdc width, one row per block at 32 channels; (8, 40)
        # packs 22 rows per block. The lengths hold 1-frame examples.
        rng = np.random.default_rng(45)
        lengths = np.array([9, 1, 23, 1, 2, 17, 1])
        x = rng.normal(size=(ch_in, lengths.sum(), width)).astype(np.float32)
        k = Tensor(rng.normal(size=(32, ch_in, 3, 3)).astype(np.float32),
                   requires_grad=True)
        out = ad.conv2d(Tensor(x), k, lengths, stride_t=stride)
        probe = rng.normal(size=out.shape).astype(np.float32)
        out.backward(probe)
        out_lengths = (lengths - 1) // stride + 1
        want = np.zeros((32, ch_in * 9), np.float32)
        for rows, cols in ad._row_blocks(x, lengths, out_lengths, 3, 3, stride):
            want += probe[:, rows].reshape(32, -1) @ cols.T
        assert np.array_equal(k.grad, want.reshape(k.shape))

    @pytest.mark.parametrize("width", [13, 40, 360])
    def test_row_blocks_match_whole_example_im2col(self, width):
        # At the default block budget: 34, 11 and 1 rows per block, over
        # t_out rows in the forward and the kernel gradient and over
        # t_in rows in the input gradient (ch_out = ch_in).
        rng = np.random.default_rng(42)
        probes = np.random.default_rng(43)
        k = rng.normal(size=(32, 32, 3, 3)).astype(np.float32)
        for t_in, stride in ((40, 1), (41, 2)):
            lengths = [t_in, t_in - 5]
            x = rng.normal(size=(32, sum(lengths), width)).astype(np.float32)
            xt = Tensor(x, requires_grad=True)
            kt = Tensor(k, requires_grad=True)
            out = ad.conv2d(xt, kt, lengths, stride_t=stride)
            np.testing.assert_allclose(out.data,
                                       im2col_conv(x, lengths, k, stride),
                                       rtol=0,
                                       atol=1e-6 * np.abs(out.data).max())
            probe = probes.normal(size=out.shape).astype(np.float32)
            out.backward(probe)
            want_x, want_k = im2col_conv_grads(x, lengths, k, stride, probe)
            for got, want in ((xt.grad, want_x), (kt.grad, want_k)):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-6 * np.abs(want).max())

    def test_forward_memory_is_one_row_block(self):
        # Four packed [32, 49, 360] examples are conv2 on 1 s sdc clips;
        # one example's whole columns would be [288, 49 * 360] float32,
        # 20 MB, and a padded batch 9.5 MB. Past the output, the forward
        # holds one example's padded frame and one column block.
        x = Tensor(np.ones((32, 4 * 49, 360), dtype=np.float32))
        k = Tensor(np.ones((32, 32, 3, 3), dtype=np.float32))
        frame_bytes = 32 * 51 * 362 * 4
        gc.collect()
        tracemalloc.start()
        try:
            with no_grad():
                out = ad.conv2d(x, k, [49] * 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.data.nbytes - frame_bytes < 2 * 2**20

    def test_backward_memory_is_one_row_block(self):
        # Past the input gradient, the seed's copy and the kernel
        # gradient, backward holds one example's dilated frame and one
        # column block, not one example's whole columns (20 MB).
        x = Tensor(np.ones((32, 4 * 49, 360), dtype=np.float32),
                   requires_grad=True)
        k = Tensor(np.ones((32, 32, 3, 3), dtype=np.float32),
                   requires_grad=True)
        out = ad.conv2d(x, k, [49] * 4)
        seed = np.ones(out.shape, dtype=np.float32)
        frame_bytes = 32 * 51 * 362 * 4
        gc.collect()
        tracemalloc.start()
        try:
            out.backward(seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = x.grad.nbytes + seed.nbytes + k.grad.nbytes
        assert peak - held < frame_bytes + 2 * 2**20

    def test_gradients_without_bias(self):
        rng = np.random.default_rng(37)
        lengths = [6, 2, 1]
        for stride in (1, 2):
            x = leaf(rng, (2, sum(lengths), 4))
            k = leaf(rng, (3, 2, 3, 3))
            probe = 38
            check_grads(lambda: ad.conv2d(x, k, lengths, stride_t=stride),
                        [x, k], probe)

    def test_gradient_to_one_operand_only(self):
        rng = np.random.default_rng(39)
        probe = 40
        lengths = [5, 3]
        x_const = Tensor(rng.normal(size=(2, 8, 4)))
        k = leaf(rng, (3, 2, 3, 3))
        check_grads(lambda: ad.conv2d(x_const, k, lengths, stride_t=2), [k],
                    probe)
        assert x_const.grad is None
        x = leaf(rng, (2, 8, 4))
        k_const = Tensor(rng.normal(size=(3, 2, 3, 3)))
        check_grads(lambda: ad.conv2d(x, k_const, lengths, stride_t=2), [x],
                    probe)
        assert k_const.grad is None

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.ones((1, 3, 4, 4))),
                      Tensor(np.ones((1, 3, 3, 3))), [4])
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))),
                      [4])
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 2, 2, 2))),
                      [4])
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 2, 3, 3))),
                      [4], stride_t=0)

    @pytest.mark.parametrize("lengths", [[3], [4, 1], [6, 0], [7, -1], [],
                                         [[3, 3]]])
    def test_rejects_lengths_that_do_not_pack_the_input(self, lengths):
        x = Tensor(np.ones((2, 6, 4)))
        with pytest.raises(ShapeError, match="lengths"):
            ad.conv2d(x, Tensor(np.ones((1, 2, 3, 3))), lengths)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.5, train=False) is x

    def test_rate_zero_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.0, train=True, rng=np.random.default_rng(0)) is x

    def test_survivor_stats(self):
        rng = np.random.default_rng(36)
        x = Tensor(np.ones(100000))
        out = ad.dropout(x, 0.2, train=True, rng=rng)
        kept = out.data != 0.0
        assert kept.mean() == pytest.approx(0.8, abs=0.01)
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.8, atol=1e-12)
        assert out.data.mean() == pytest.approx(1.0, rel=0.02)

    def test_gradient_masks_match_forward(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = ad.dropout(x, 0.3, train=True, rng=np.random.default_rng(37))
        kept = out.data != 0.0
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(x.grad[kept], 1.0 / 0.7, atol=1e-12)
        np.testing.assert_array_equal(x.grad[~kept], 0.0)

    def test_float32_stays_float32_without_float64_draws(self):
        x = Tensor(np.ones((64, 1024), dtype=np.float32))
        tracemalloc.start()
        try:
            out = ad.dropout(x, 0.2, train=True, rng=np.random.default_rng(38))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.dtype == np.float32
        # The output plus a boolean mask is 1.25x the input; a float64 draw
        # alone would be 2x.
        assert peak < 1.5 * x.data.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.5, 0.3])
    def test_backward_is_the_scaled_forward_mask(self, dtype, rate):
        rng = np.random.default_rng(39)
        x = Tensor(rng.normal(size=(40, 50)).astype(dtype), requires_grad=True)
        out = ad.dropout(x, rate, train=True, rng=rng)
        seed = rng.normal(size=out.shape).astype(dtype)
        out.backward(seed)
        want = seed * (out.data != 0) / (1 - rate)
        assert x.grad.dtype == dtype
        # At rate 0.5 the scale is a power of two and the match is exact;
        # otherwise multiplying by 1 / (1 - rate) may round differently from
        # dividing by 1 - rate.
        rtol = 0 if rate == 0.5 else 2 * np.finfo(dtype).eps
        np.testing.assert_allclose(x.grad, want, rtol=rtol, atol=0)

    def test_requires_rng_in_train(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(3)), 0.5, train=True)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(3)), 1.0, train=True,
                       rng=np.random.default_rng(0))


class TestSigmoidBce:
    def test_zero_logits_give_ln2(self):
        loss = ad.sigmoid_bce(Tensor(np.zeros(8)), np.zeros(8))
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_saturated_correct_logits_near_zero(self):
        loss = ad.sigmoid_bce(
            Tensor(np.array([40.0, -40.0])), np.array([1.0, 0.0])
        )
        assert loss.item() < 1e-8
        assert np.isfinite(loss.item())

    def test_saturated_wrong_logits_linear(self):
        loss = ad.sigmoid_bce(Tensor(np.array([40.0])), np.array([0.0]))
        assert loss.item() == pytest.approx(40.0, rel=1e-12)

    def test_grad_is_sigmoid_minus_target(self):
        rng = np.random.default_rng(38)
        logits = Tensor(rng.normal(size=12) * 5.0, requires_grad=True)
        targets = (rng.random(12) > 0.5).astype(float)
        ad.sigmoid_bce(logits, targets).backward()
        expect = (1.0 / (1.0 + np.exp(-logits.data)) - targets) / 12
        np.testing.assert_allclose(logits.grad, expect, atol=1e-12)

    def test_mean_reduction_scales_grad(self):
        logits = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        ad.sigmoid_bce(logits, np.array([1.0, 0.0])).backward()
        expect = (1.0 / (1.0 + np.exp(-logits.data)) - [1.0, 0.0]) / 2.0
        np.testing.assert_allclose(logits.grad, expect, atol=1e-12)

    def test_matches_naive_formula_fd(self):
        rng = np.random.default_rng(39)
        logits = leaf(rng, (6,))
        targets = (rng.random(6) > 0.5).astype(float)
        check_grads(lambda: ad.sigmoid_bce(logits, targets), [logits])


class TestDense:
    def test_affine_map(self):
        layer = Dense(2, 1, np.random.default_rng(0))
        layer.weight.data[:] = [[3.0], [0.0]]
        layer.bias.data[:] = [7.0]
        out = layer(Tensor(np.array([[2.0, 9.0]], dtype=np.float32)))
        assert out.data[0, 0] == pytest.approx(13.0)

    def test_glorot_bounds(self):
        rng = np.random.default_rng(1)
        w = glorot_uniform(rng, (200, 300), 200, 300)
        limit = np.sqrt(6.0 / 500.0)
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > 0.9 * limit  # actually fills the range

    def test_bias_starts_zero(self):
        layer = Dense(4, 3, np.random.default_rng(2))
        np.testing.assert_array_equal(layer.bias.data, 0.0)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        layer = Dense(4, 3, rng, dtype=np.float64)
        x = leaf(np.random.default_rng(4), (5, 4))
        probe = 5
        check_grads(lambda: layer(x),
                    [x, layer.weight, layer.bias], probe)


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(6)
        bn = BatchNorm(3, dtype=np.float64)
        x = Tensor(rng.normal(loc=5.0, scale=2.0, size=(3, 24, 5)))
        out = bn(x, train=True).data
        np.testing.assert_allclose(out.mean(axis=(1, 2)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(1, 2)), 1.0, atol=1e-3)

    def test_running_stats_update(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm(2, dtype=np.float64)
        x = Tensor(rng.normal(loc=3.0, size=(2, 32, 4)))
        batch_mean = x.data.mean(axis=(1, 2))
        bn(x, train=True)
        np.testing.assert_allclose(
            bn.running_mean, 0.9 * 0.0 + 0.1 * batch_mean, atol=1e-12
        )

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(2, dtype=np.float64)
        bn.running_mean = np.array([1.0, -1.0])
        bn.running_var = np.array([4.0, 0.25])
        x = Tensor(np.ones((2, 1, 1)))
        out = bn(x, train=False).data.reshape(-1)
        expect = (np.array([1.0, 1.0]) - bn.running_mean) / np.sqrt(
            bn.running_var + ad.BN_EPS
        )
        np.testing.assert_allclose(out, expect, rtol=1e-6)

    def test_eval_mode_is_deterministic_function(self):
        rng = np.random.default_rng(8)
        bn = BatchNorm(3)
        x = Tensor(rng.normal(size=(3, 8, 4)).astype(np.float32))
        a = bn(x, train=False).data
        b = bn(x, train=False).data
        np.testing.assert_array_equal(a, b)

    def test_gradients_through_batch_stats(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm(2, dtype=np.float64)
        x = leaf(np.random.default_rng(10), (2, 12, 3))
        probe = 11

        def fn():
            # Freeze running stats so repeated calls stay comparable.
            bn.running_mean = np.zeros(2)
            bn.running_var = np.ones(2)
            return bn(x, train=True)

        check_grads(fn, [x, bn.gamma, bn.beta], probe)

    def test_rejects_wrong_rank(self):
        # Only packed frames [C, N, F] go in.
        for shape in ((2, 2, 2, 2), (2, 2)):
            with pytest.raises(ShapeError):
                BatchNorm(2)(Tensor(np.ones(shape)), train=True)


class TestBatchNormOp:
    """autodiff.batch_norm on packed frames, called directly."""

    def setup_method(self):
        rng = np.random.default_rng(40)
        self.x = leaf(rng, (2, 10, 4))
        self.gamma = leaf(rng, (2,))
        self.beta = leaf(rng, (2,))

    def test_train_gradients(self):
        check_grads(lambda: ad.batch_norm(self.x, self.gamma, self.beta)[0],
                    [self.x, self.gamma, self.beta], 41)

    def test_eval_mode_records_no_node(self):
        # Inference is a fixed affine that nothing differentiates, so
        # inputs that require grad give an untracked result.
        moments = (np.array([0.3, -0.2]), np.array([1.7, 0.4]))
        out, returned = ad.batch_norm(self.x, self.gamma, self.beta, moments)
        assert not out.requires_grad
        assert out._node is None
        assert returned is moments

    def test_running_moments_equal_batch_statistics(self):
        bn = BatchNorm(2, dtype=np.float64)
        bn(self.x, train=True)
        rows = np.moveaxis(self.x.data, 0, -1).reshape(-1, 2)
        np.testing.assert_allclose(bn.running_mean, 0.1 * rows.mean(axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(bn.running_var,
                                   0.9 + 0.1 * rows.var(axis=0), rtol=1e-12)

    def test_train_gradients_with_dropout(self):
        # A generator seeded alike per call keeps one mask for the
        # central differences.
        check_grads(lambda: ad.batch_norm(
            self.x, self.gamma, self.beta, None, 0.3,
            np.random.default_rng(43))[0],
            [self.x, self.gamma, self.beta], 44)

    @pytest.mark.parametrize("moments", [None, (np.zeros(2), np.ones(2))],
                             ids=["train", "eval"])
    def test_rejects_a_batch_without_frames(self, moments):
        with pytest.raises(ShapeError, match="at least one frame"):
            ad.batch_norm(Tensor(np.ones((2, 0, 4))), self.gamma, self.beta,
                          moments)

    def test_rejects_bad_rate_and_a_missing_generator(self):
        with pytest.raises(ValueError, match="rate"):
            ad.batch_norm(self.x, self.gamma, self.beta, None, 1.0,
                          np.random.default_rng(0))
        with pytest.raises(ValueError, match="generator"):
            ad.batch_norm(self.x, self.gamma, self.beta, None, 0.2)

    def test_eval_mode_drops_nothing(self):
        moments = (np.array([0.3, -0.2]), np.array([1.7, 0.4]))
        plain, _ = ad.batch_norm(self.x, self.gamma, self.beta, moments)
        rated, _ = ad.batch_norm(self.x, self.gamma, self.beta, moments, 0.5,
                                 np.random.default_rng(0))
        assert plain.data.tobytes() == rated.data.tobytes()


def bn_then_dropout(x, gamma, beta, rate, rng, grad):
    """Batch norm, then dropout, as separate whole-array ops.

    Returns the output, keep mask (None at rate 0), moments and the
    gradients for the output gradient grad, by name: train-mode batch
    norm's statistics and closed-form backward over x [C, N, F], and
    dropout's float32 draws over the whole shape in one call, each step
    its own numpy expression.
    """
    shape = (-1, 1, 1)
    count = x.shape[1] * x.shape[2]
    mean = x.sum(axis=(1, 2)) / count
    xhat = x - mean.reshape(shape)
    var = np.einsum("cnf,cnf->cn", xhat, xhat).sum(axis=1) / count
    inv = 1.0 / np.sqrt(var + ad.BN_EPS)
    xhat *= inv.reshape(shape)
    out = xhat * gamma.reshape(shape)
    out += beta.reshape(shape)
    keep = None
    g = grad.copy(order="K")  # backward's gradient keeps the seed's layout
    if rate:
        keep = rng.random(x.shape, dtype=np.float32) >= rate
        out = out * (1.0 / (1.0 - rate))
        out *= keep
        g = grad * (1.0 / (1.0 - rate))
        g *= keep
    d_beta = g.sum(axis=(1, 2))
    d_gamma = np.einsum("cnf,cnf->cn", g, xhat).sum(axis=1)
    dx = xhat * (-d_gamma / count).reshape(shape)
    dx += g
    dx -= (d_beta / count).reshape(shape)
    dx *= (gamma * inv).reshape(shape)
    return {"out": out, "mask": keep, "mean": mean, "var": var, "dx": dx,
            "d_gamma": d_gamma, "d_beta": d_beta}


def frame_major(array):
    """array [C, N, F] laid out [N, C, F] in memory, as gru_a1 reads it."""
    return np.ascontiguousarray(array.transpose(1, 0, 2)).transpose(1, 0, 2)


class TestFusedDropout:
    """Train-mode batch norm with its dropout, against the separate ops."""

    @pytest.mark.parametrize("block", [None, 7, 64])
    @pytest.mark.parametrize("layout", ["C", "frame-major"])
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_equals_batch_norm_then_dropout(self, rate, layout, block,
                                            monkeypatch):
        # conv2d's packed output on ragged lengths with 1-frame examples;
        # a block of 7 elements is 1 row of 5 and splits draws oddly.
        if block is not None:
            monkeypatch.setattr(ad, "BN_BLOCK_ELEMS", block)
        rng = np.random.default_rng(45)
        lengths = [4, 1, 6, 1, 3]
        conv_in = rng.normal(size=(1, sum(lengths), 5)).astype(np.float32)
        kernel = rng.normal(size=(3, 1, 3, 3)).astype(np.float32)
        x_data = ad.conv2d(Tensor(conv_in), Tensor(kernel), lengths).data
        gamma = (1.0 + rng.normal(size=3)).astype(np.float32)
        beta = rng.normal(size=3).astype(np.float32)
        seed = rng.normal(size=x_data.shape).astype(np.float32)
        if layout == "frame-major":
            seed = frame_major(seed)
        want = bn_then_dropout(x_data, gamma, beta, rate,
                               np.random.default_rng(46), seed)
        x = Tensor(x_data * 1.0, requires_grad=True)
        g, b = parameter(gamma.copy()), parameter(beta.copy())
        out, moments = ad.batch_norm(x, g, b, None, rate,
                                     np.random.default_rng(46))
        masks = [v for v in closure_values(out._backward_fn)
                 if isinstance(v, np.ndarray) and v.dtype == bool]
        out.backward(seed)
        got = {"out": out.data, "mask": masks[0] if masks else None,
               "mean": moments[0], "var": moments[1], "dx": x.grad,
               "d_gamma": g.grad, "d_beta": b.grad}
        for name, w in want.items():
            a = got[name]
            if w is None:
                assert a is None, name
                continue
            assert (a.dtype, a.shape) == (w.dtype, w.shape), name
            assert a.tobytes() == w.tobytes(), name

    def test_block_draws_equal_one_draw(self, monkeypatch):
        # Odd blocks split float32 draws between 64-bit outputs; the
        # generator is left where one whole draw leaves it.
        x = Tensor(np.zeros((3, 7, 5), np.float32))
        gamma = Tensor(np.ones(3, np.float32))
        beta = Tensor(np.zeros(3, np.float32))
        want_rng = np.random.default_rng(47)
        want = want_rng.random(x.shape, dtype=np.float32) >= 0.5
        for block in (1, 7, 13, 10**6):
            monkeypatch.setattr(ad, "BN_BLOCK_ELEMS", block)
            rng = np.random.default_rng(47)
            x.data[...] = np.random.default_rng(48).normal(size=x.shape)
            out, _ = ad.batch_norm(x, gamma, beta, None, 0.5, rng)
            np.testing.assert_array_equal(out.data != 0, want, err_msg=block)
            assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_output_is_frame_major(self):
        x = Tensor(np.random.default_rng(49).normal(size=(4, 9, 6)))
        out, _ = ad.batch_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                               None, 0.2, np.random.default_rng(0))
        rows = out.transpose(1, 0, 2).reshape(9, -1)
        assert rows.data.base is not None
        assert np.shares_memory(rows.data, out.data)
        assert rows.data.flags.c_contiguous

    def test_backward_masks_its_own_gradient_in_place(self):
        # The output gradient the node owns becomes the masked one, so
        # the step holds no second conv-width gradient.
        x = Tensor(np.random.default_rng(50).normal(size=(2, 30, 8)),
                   requires_grad=True)
        out, _ = ad.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                               None, 0.5, np.random.default_rng(1))
        seen = []
        node = out._node
        fn = node._backward_fn

        def spy(grad):
            seen.append(grad)
            fn(grad)

        node._backward_fn = spy
        out.backward(np.ones(out.shape))
        np.testing.assert_array_equal(seen[0] != 0, out.data != 0)


def swapped(gru):
    """A BiGru whose forward direction is gru's backward one and vice versa."""
    other = BiGru(*gru.w.shape[:1], gru.u_h.shape[1], None, dtype=gru.w.dtype)
    half = gru.w.shape[1] // 2
    for name in ("w", "b"):
        getattr(other, name).data[:] = np.roll(getattr(gru, name).data, half,
                                               axis=-1)
    for name in ("u_zr", "u_h"):
        getattr(other, name).data[:] = getattr(gru, name).data[::-1]
    return other


class TestGru:
    """Each direction of a BiGru against the GRU equations."""

    def test_zero_params_give_zero_outputs(self):
        gru = BiGru(3, 4, np.random.default_rng(12), dtype=np.float64)
        for p in named_tensors(gru, "g", Tensor).values():
            p.data[:] = 0.0
        x = Tensor(np.random.default_rng(13).normal(size=(2, 6, 3)))
        outputs, final = gru(x, np.ones((2, 6)))
        np.testing.assert_array_equal(outputs.data, 0.0)
        np.testing.assert_array_equal(final.data, 0.0)

    def test_single_step_matches_equations(self):
        rng = np.random.default_rng(14)
        gru = BiGru(3, 4, rng, dtype=np.float64)
        x = rng.normal(size=(2, 1, 3))
        gru.b.data[:] = rng.normal(size=24)  # so the bias blocks' order shows
        outputs, final = gru(Tensor(x), np.ones((2, 1)))
        w, b = gru.w.data, gru.b.data
        for d in (0, 1):
            # With h0 = 0: z = sig(xWz + bz), c = tanh(xWh + bh), h = (1 - z) c.
            zs, cs = slice(12 * d, 12 * d + 4), slice(12 * d + 8, 12 * d + 12)
            z = 1.0 / (1.0 + np.exp(-(x[:, 0] @ w[:, zs] + b[zs])))
            c = np.tanh(x[:, 0] @ w[:, cs] + b[cs])
            np.testing.assert_allclose(final.data[:, 4 * d : 4 * d + 4],
                                       (1.0 - z) * c, atol=1e-12)
        np.testing.assert_allclose(outputs.data[:, 0], final.data, atol=1e-12)

    def test_reverse_on_single_step_matches_forward(self):
        rng = np.random.default_rng(15)
        gru = BiGru(3, 4, rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 1, 3)))
        fwd, _ = swapped(gru)(x, np.ones((2, 1)))
        bwd, _ = gru(x, np.ones((2, 1)))
        np.testing.assert_allclose(fwd.data[..., :4], bwd.data[..., 4:],
                                   atol=1e-12)

    def test_reverse_is_time_flip(self):
        rng = np.random.default_rng(16)
        gru = BiGru(3, 4, rng, dtype=np.float64)
        x = rng.normal(size=(2, 5, 3))
        rev, _ = gru(Tensor(x), np.ones((2, 5)))
        flipped, _ = swapped(gru)(Tensor(x[:, ::-1].copy()), np.ones((2, 5)))
        np.testing.assert_allclose(rev.data[..., 4:],
                                   flipped.data[:, ::-1, :4], atol=1e-12)

    def test_masked_steps_hold_state(self):
        rng = np.random.default_rng(17)
        gru = BiGru(3, 4, rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, 6, 3)))
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
        outputs, final = gru(x, mask=mask)
        for t in (3, 4, 5):
            np.testing.assert_array_equal(outputs.data[:, t, :4],
                                          outputs.data[:, 2, :4])
        # The backward direction holds its zero start through the padding.
        np.testing.assert_array_equal(outputs.data[:, 3:, 4:], 0.0)
        np.testing.assert_array_equal(final.data[:, :4], outputs.data[:, 2, :4])
        np.testing.assert_array_equal(final.data[:, 4:], outputs.data[:, 0, 4:])

    def test_padding_does_not_change_real_frames(self):
        rng = np.random.default_rng(18)
        gru = BiGru(3, 4, rng, dtype=np.float64)
        x = rng.normal(size=(1, 4, 3))
        out_short, final_short = gru(Tensor(x), mask=np.ones((1, 4)))
        padded = np.concatenate([x, rng.normal(size=(1, 3, 3))], axis=1)
        mask = np.array([[1.0] * 4 + [0.0] * 3])
        out_padded, final = gru(Tensor(padded), mask=mask)
        np.testing.assert_allclose(out_padded.data[:, :4], out_short.data,
                                   atol=1e-12)
        np.testing.assert_allclose(final.data, final_short.data, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(19)
        gru = BiGru(2, 3, rng, dtype=np.float64)
        x = leaf(np.random.default_rng(20), (2, 4, 2))
        probe = 21
        leaves = [x] + [(p, 3) for p in
                        named_tensors(gru, "g", Tensor).values()]
        check_grads(lambda: gru(x, np.ones((2, 4)))[0], leaves, probe)

    @pytest.mark.parametrize("seed", [30, 31])
    def test_each_gate_block_is_its_own_glorot_draw(self, seed):
        # fan_out is H per gate: a [in, 3H] draw with fan_out 3H has a
        # smaller limit and other values. Forward Wz, Wr, Wh, Uz, Ur, Uh
        # are drawn first, then the backward six.
        gru = BiGru(5, 4, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        w, u = [], []
        for _ in range(2):
            w += [glorot_uniform(rng, (5, 4), 5, 4) for _ in range(3)]
            u += [glorot_uniform(rng, (4, 4), 4, 4) for _ in range(3)]
        np.testing.assert_array_equal(gru.w.data, np.concatenate(w, axis=1))
        for d in (0, 1):
            np.testing.assert_array_equal(
                gru.u_zr.data[d], np.concatenate(u[3 * d : 3 * d + 2], axis=1))
            np.testing.assert_array_equal(gru.u_h.data[d], u[3 * d + 2])
        assert [p.shape for p in named_tensors(gru, "g", Tensor).values()] == [
            (5, 24), (24,), (2, 4, 8), (2, 4, 4)]
        np.testing.assert_array_equal(gru.b.data, 0.0)

    def test_rejects_2d_input(self):
        gru = BiGru(2, 3, np.random.default_rng(22))
        with pytest.raises(ShapeError):
            gru(Tensor(np.ones((4, 2))), np.ones((4, 2)))


def scan_inputs(rng, shape, hidden, pre_grad=True, param_grad=True):
    """float64 operands (pre, u_zr, u_h) of gru_scan for pre [B, T, 6H].

    pre is [B, T, 6H] for shape (B, T); the recurrent weights are normal
    draws, each H-wide gate block scaled alike.
    """
    pre = Tensor(rng.normal(size=shape + (6 * hidden,)), requires_grad=pre_grad)
    u_zr = 0.5 * rng.normal(size=(2, hidden, 2 * hidden))
    u_h = 0.5 * rng.normal(size=(2, hidden, hidden))
    return (pre, *(Tensor(a, requires_grad=param_grad) for a in (u_zr, u_h)))


class TestGruScan:
    MASK = np.array([[1.0, 0.0, 1.0, 1.0, 0.0],
                     [1.0, 1.0, 1.0, 1.0, 1.0]])

    @pytest.mark.parametrize("packed", [False, True])
    def test_gradients_with_partial_mask(self, packed):
        pre, *params = scan_inputs(np.random.default_rng(60), (2, 5), 4)
        if packed:  # only the valid frames' rows
            pre = Tensor(pre.data[self.MASK > 0], requires_grad=True)
        check_grads(lambda: ad.gru_scan(pre, *params, self.MASK),
                    [(pre, 4), *((p, 4) for p in params)], 61)

    def test_gradient_to_input_only(self):
        pre, *params = scan_inputs(np.random.default_rng(62), (2, 5), 4,
                                   param_grad=False)
        check_grads(lambda: ad.gru_scan(pre, *params, self.MASK), [pre], 63)
        assert all(p.grad is None for p in params)

    def test_gradient_to_params_only(self):
        pre, *params = scan_inputs(np.random.default_rng(64), (2, 5), 4,
                                   pre_grad=False)
        check_grads(lambda: ad.gru_scan(pre, *params, self.MASK),
                    [(p, 4) for p in params], 65)
        assert pre.grad is None

    def test_valid_rows_match_the_padded_input(self):
        # Rows of the valid frames only, or every frame with padded rows
        # of any value: the states are the same, and the padded rows'
        # gradient is exactly zero.
        pre, *params = scan_inputs(np.random.default_rng(70), (2, 5), 4)
        valid = self.MASK > 0
        rows = Tensor(pre.data[valid], requires_grad=True)
        full = ad.gru_scan(pre, *params, self.MASK)
        packed = ad.gru_scan(rows, *params, self.MASK)
        np.testing.assert_array_equal(full.data, packed.data)
        probe = np.random.default_rng(71).normal(size=full.shape)
        full.backward(probe)
        packed.backward(probe)
        np.testing.assert_array_equal(pre.grad[~valid], 0.0)
        np.testing.assert_array_equal(pre.grad[valid], rows.grad)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_batch_rows_match_single_examples_exactly(self, reverse):
        # A width of 64 is where numpy's one-row (gemv) and batched (gemm)
        # products round differently. reverse pads the batch at the
        # front of the backward direction's scan instead of the forward's.
        rng = np.random.default_rng(66)
        pre, *params = scan_inputs(rng, (3, 6), 64)
        pre.data = pre.data.astype(np.float32)
        for p in params:
            p.data = p.data.astype(np.float32)
        mask = np.ones((3, 6))
        mask[1, 4:] = 0.0
        if reverse:
            pre.data, mask = pre.data[:, ::-1].copy(), mask[:, ::-1].copy()
        together = ad.gru_scan(pre, *params, mask).data
        for i in range(3):
            alone = ad.gru_scan(Tensor(pre.data[i : i + 1]), *params,
                                mask[i : i + 1]).data
            np.testing.assert_array_equal(together[i], alone[0])

    def test_no_grad_records_no_backward(self):
        pre, *params = scan_inputs(np.random.default_rng(67), (2, 5), 4)
        with no_grad():
            out = ad.gru_scan(pre, *params, self.MASK)
        assert not out.requires_grad
        assert out._backward_fn is None
        assert out._parents == ()

    def test_grads_share_no_memory(self):
        pre, *params = scan_inputs(np.random.default_rng(68), (2, 5), 4)
        ad.gru_scan(pre, *params, np.ones((2, 5))).backward(np.ones((2, 5, 8)))
        grads = [t.grad for t in (pre, *params)]
        for i, first in enumerate(grads):
            for second in grads[i + 1:]:
                assert not np.shares_memory(first, second)

    def test_rejects_mask_of_wrong_shape(self):
        pre, *params = scan_inputs(np.random.default_rng(69), (2, 5), 4)
        with pytest.raises(ShapeError):
            ad.gru_scan(pre, *params, np.ones((2, 4)))
        with pytest.raises(ShapeError):  # rows for a frame the mask drops
            ad.gru_scan(Tensor(pre.data[0]), *params, self.MASK)


class TestBiGru:
    def test_output_shapes(self):
        rng = np.random.default_rng(23)
        bigru = BiGru(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 5, 3)).astype(np.float32))
        outputs, final = bigru(x, np.ones((2, 5)))
        assert outputs.shape == (2, 5, 8)
        assert final.shape == (2, 8)

    def test_final_states_come_from_sequence_ends(self):
        rng = np.random.default_rng(24)
        bigru = BiGru(3, 4, rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 5, 3)))
        outputs, final = bigru(x, np.ones((2, 5)))
        np.testing.assert_allclose(final.data[:, :4], outputs.data[:, -1, :4],
                                   atol=1e-12)
        np.testing.assert_allclose(final.data[:, 4:], outputs.data[:, 0, 4:],
                                   atol=1e-12)
        # A transposed layout would send the next GEMM (the discriminator's
        # dense_out) to another BLAS kernel, which rounds differently.
        assert final.data.flags.c_contiguous

    def test_single_step_directions_agree_with_shared_params(self):
        rng = np.random.default_rng(25)
        bigru = BiGru(3, 4, rng, dtype=np.float64)
        bigru.w.data[:, 12:] = bigru.w.data[:, :12]
        bigru.b.data[12:] = rng.normal(size=12)
        bigru.b.data[:12] = bigru.b.data[12:]
        bigru.u_zr.data[1] = bigru.u_zr.data[0]
        bigru.u_h.data[1] = bigru.u_h.data[0]
        x = Tensor(rng.normal(size=(2, 1, 3)))
        outputs, _ = bigru(x, np.ones((2, 1)))
        np.testing.assert_allclose(outputs.data[:, :, :4], outputs.data[:, :, 4:],
                                   atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(26)
        bigru = BiGru(2, 2, rng, dtype=np.float64)
        x = leaf(np.random.default_rng(27), (1, 3, 2))
        probe = 28
        leaves = [x] + [(p, 2) for p in
                        named_tensors(bigru, "b", Tensor).values()]
        check_grads(lambda: bigru(x, np.ones((1, 3)))[0], leaves, probe)

    def test_valid_rows_are_all_it_projects(self):
        # Given the valid frames' rows [N, in], the layer gives what the
        # padded input [B, T, in] gives, and the padded frames' input
        # gradient is exactly zero.
        rng = np.random.default_rng(29)
        bigru = BiGru(3, 4, rng, dtype=np.float64)
        mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        x = leaf(rng, (2, 4, 3))
        rows = Tensor(x.data[mask > 0], requires_grad=True)
        (seq, final), (seq_rows, final_rows) = bigru(x, mask), bigru(rows, mask)
        np.testing.assert_allclose(seq_rows.data, seq.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(final_rows.data, final.data, rtol=0,
                                   atol=1e-12)
        probe = rng.normal(size=seq.shape)
        (seq * probe).backward(np.ones(seq.shape))
        (seq_rows * probe).backward(np.ones(seq.shape))
        np.testing.assert_array_equal(x.grad[1 - mask > 0], 0.0)
        np.testing.assert_allclose(rows.grad, x.grad[mask > 0], rtol=0,
                                   atol=1e-12)
        probe = 30
        leaves = [(rows, None)] + [(p, 4) for p in
                                   named_tensors(bigru, "b", Tensor).values()]
        check_grads(lambda: bigru(rows, mask)[0], leaves, probe)


def attention_weights(monkeypatch, att, query, memory, key_mask):
    """The softmax weights a call of att computes, caught at ad.softmax."""
    caught = []
    softmax = ad.softmax

    def catch(scores, axis=-1):
        caught.append(softmax(scores, axis=axis))
        return caught[-1]

    monkeypatch.setattr(ad, "softmax", catch)
    att(query, memory, key_mask)
    (weights,) = caught
    return weights.data


class TestCrossAttention:
    def test_output_shape(self):
        rng = np.random.default_rng(29)
        att = CrossAttention(8, rng)
        q = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
        kv = Tensor(rng.normal(size=(2, 7, 8)).astype(np.float32))
        assert att(q, kv, np.ones((2, 7))).shape == (2, 5, 8)

    def test_weights_row_stochastic(self, monkeypatch):
        rng = np.random.default_rng(30)
        att = CrossAttention(8, rng, dtype=np.float64)
        q = Tensor(rng.normal(size=(2, 5, 8)))
        kv = Tensor(rng.normal(size=(2, 7, 8)))
        weights = attention_weights(monkeypatch, att, q, kv, np.ones((2, 7)))
        assert weights.shape == (2, 5, 7)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
        assert (weights >= 0).all()

    def test_identical_keys_give_uniform_weights(self, monkeypatch):
        rng = np.random.default_rng(31)
        att = CrossAttention(8, rng, dtype=np.float64)
        q = Tensor(rng.normal(size=(1, 4, 8)))
        kv = Tensor(np.tile(rng.normal(size=(1, 1, 8)), (1, 6, 1)))
        weights = attention_weights(monkeypatch, att, q, kv, np.ones((1, 6)))
        np.testing.assert_allclose(weights, 1.0 / 6.0, atol=1e-12)

    def test_single_key_passes_value_through_out_proj(self):
        rng = np.random.default_rng(32)
        att = CrossAttention(8, rng, dtype=np.float64)
        q = Tensor(rng.normal(size=(1, 3, 8)))
        kv = Tensor(rng.normal(size=(1, 1, 8)))
        out = att(q, kv, np.ones((1, 1)))
        expect = att.out_proj(att.v_proj(kv)).data
        np.testing.assert_allclose(out.data, np.tile(expect, (1, 3, 1)), atol=1e-10)

    def test_masked_keys_get_zero_weight(self, monkeypatch):
        rng = np.random.default_rng(33)
        att = CrossAttention(8, rng, dtype=np.float64)
        q = Tensor(rng.normal(size=(1, 4, 8)))
        kv = Tensor(rng.normal(size=(1, 6, 8)))
        mask = np.array([[1.0, 1.0, 0.0, 1.0, 0.0, 1.0]])
        weights = attention_weights(monkeypatch, att, q, kv, mask)
        np.testing.assert_array_equal(weights[:, :, 2], 0.0)
        np.testing.assert_array_equal(weights[:, :, 4], 0.0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_masked_keys_do_not_affect_output(self):
        rng = np.random.default_rng(34)
        att = CrossAttention(8, rng, dtype=np.float64)
        q = Tensor(rng.normal(size=(1, 3, 8)))
        kv_a = rng.normal(size=(1, 5, 8))
        kv_b = kv_a.copy()
        kv_b[0, 4] = 99.0  # only the masked key differs
        mask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0]])
        out_a = att(Tensor(kv_a[:, :3]), Tensor(kv_a), key_mask=mask)
        out_b = att(Tensor(kv_b[:, :3].copy()), Tensor(kv_b), key_mask=mask)
        np.testing.assert_allclose(out_a.data[:, 0], out_b.data[:, 0], atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(35)
        att = CrossAttention(4, rng, dtype=np.float64)
        q = leaf(np.random.default_rng(36), (1, 2, 4))
        kv = leaf(np.random.default_rng(37), (1, 3, 4))
        probe = 38
        leaves = [q, kv] + list(named_tensors(att, "a", Tensor).values())
        check_grads(lambda: att(q, kv, np.ones((1, 3))), leaves, probe)

    def test_rejects_wrong_dim(self):
        rng = np.random.default_rng(39)
        att = CrossAttention(8, rng)
        with pytest.raises(ShapeError):
            att(Tensor(np.ones((1, 2, 4), np.float32)),
                Tensor(np.ones((1, 3, 8), np.float32)), np.ones((1, 3)))


class TestAdam:
    def test_first_step_size_is_lr(self):
        # Bias correction makes the first update lr-sized for any grad.
        for scale in (1e-4, 1.0, 1e4):
            w = parameter(np.array([0.0]))
            state = AdamState.zeros_like(w.data)
            adam_step(state, w.data, np.array([scale]), lr=0.01)
            assert w.data[0] == pytest.approx(-0.01, rel=1e-4)

    def test_descends_quadratic(self):
        w = parameter(np.array([10.0]))
        opt = Adam([w], lr=0.3)
        for _ in range(100):
            opt.zero_grad()
            error = w + -3.0
            (error * error).backward()
            opt.step()
        assert abs(w.data[0] - 3.0) < 0.1

    def test_skips_params_without_grad(self):
        w = parameter(np.array([1.0]))
        opt = Adam([w], lr=0.1)
        opt.step()
        assert w.data[0] == 1.0

    def test_zero_grad_clears(self):
        w = parameter(np.array([1.0]))
        (w * 2.0).backward()
        opt = Adam([w], lr=0.1)
        opt.zero_grad()
        assert w.grad is None

    def test_shape_mismatch_rejected(self):
        state = AdamState.zeros_like(np.zeros(3))
        with pytest.raises(ShapeError):
            adam_step(state, np.zeros(3), np.zeros(4), lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([parameter(np.zeros(2))], lr=0.0)

    def test_deterministic_trajectory(self):
        def run():
            w = parameter(np.array([2.0, -1.0]))
            opt = Adam([w], lr=0.05)
            for _ in range(10):
                opt.zero_grad()
                (w * w).backward(np.ones(2))
                opt.step()
            return w.data.copy()

        np.testing.assert_array_equal(run(), run())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_match_plain_expressions_bit_for_bit(self, dtype,
                                                        monkeypatch):
        # 42 elements in blocks of 16 cross two block boundaries and end
        # on a partial block.
        monkeypatch.setattr(layers, "ADAM_BLOCK", 16)
        self.test_matches_plain_expressions_bit_for_bit(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_plain_expressions_bit_for_bit(self, dtype):
        # The out-of-place update adam_step must reproduce exactly.
        def plain_step(m, v, data, grad, step, lr, beta1, beta2, eps):
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1**step)
            v_hat = v / (1.0 - beta2**step)
            data = data - (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(data.dtype)
            return m, v, data

        rng = np.random.default_rng(44)
        data = rng.normal(size=(6, 7)).astype(dtype)
        state = AdamState.zeros_like(data)
        m, v, expect = state.m.copy(), state.v.copy(), data.copy()
        for step in range(1, 6):
            grad = (rng.normal(size=data.shape) * 10.0 ** -step).astype(dtype)
            adam_step(state, data, grad, 3e-3)
            m, v, expect = plain_step(m, v, expect, grad, step, 3e-3,
                                      0.9, 0.999, 1e-8)
            for got, want in ((state.m, m), (state.v, v), (data, expect)):
                assert got.dtype == want.dtype == dtype
                np.testing.assert_array_equal(got, want)
